"""Nonnegative integer solution sets of A k = b for natural-number matrices.

Three characterizations are provided:

* a one-parameter affine family ``u + j v`` obtained from the Smith
  normal form when rank = rows = cols - 1 and all elementary divisors
  are 1 (the single-index case);
* the unique candidate ``A^-1 b`` when A is square and invertible;
* exhaustive depth-first enumeration, which doubles as the independent
  oracle for the other two paths.

Plus the model preprocessing step that removes zero columns and
linearly dependent rows so the above hypotheses can be assumed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, InternalInvariantError, MethodNotApplicableError
from .intlinalg import SnfDecomposition, det_exact, int_matrix, int_vector, snf

__all__ = [
    "MethodTag",
    "SolutionFamily",
    "RowRelation",
    "PreprocessReport",
    "classify",
    "parametrize_single_index",
    "solve_invertible",
    "enumerate_solutions",
    "preprocess",
]


class MethodTag(enum.Enum):
    """Which evaluation route applies to a (preprocessed) matrix."""

    SINGLE_INDEX = "single-index"
    INVERTIBLE = "invertible"
    ENUMERATE = "enumerate"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class SolutionFamily:
    """The set {k in N^n : A k = b} in one of four shapes.

    kind is one of "empty", "singleton", "line", "finite".  A line is
    {base + j * direction : jmin <= j <= jmax} with the bounds tight:
    stepping one past either end makes some coordinate negative.
    """

    kind: str
    base: tuple[int, ...] | None = None
    direction: tuple[int, ...] | None = None
    jmin: int | None = None
    jmax: int | None = None
    solutions: tuple[tuple[int, ...], ...] = ()

    @classmethod
    def empty(cls) -> "SolutionFamily":
        return cls(kind="empty")

    @classmethod
    def singleton(cls, k) -> "SolutionFamily":
        return cls(kind="singleton", solutions=(tuple(int(x) for x in k),))

    @classmethod
    def line(cls, u, v, jmin: int, jmax: int) -> "SolutionFamily":
        return cls(
            kind="line",
            base=tuple(int(x) for x in u),
            direction=tuple(int(x) for x in v),
            jmin=int(jmin),
            jmax=int(jmax),
        )

    @classmethod
    def finite(cls, sols) -> "SolutionFamily":
        return cls(kind="finite", solutions=tuple(tuple(int(x) for x in k) for k in sols))

    @property
    def count(self) -> int:
        if self.kind == "empty":
            return 0
        if self.kind == "line":
            return self.jmax - self.jmin + 1
        return len(self.solutions)

    def points(self) -> np.ndarray:
        """Every solution as one row of a (count, n) float64 array.

        Float64 holds counts exactly below 2**53 and larger ones to
        within a rounding or two of float(k_i), so no entry can wrap as
        int64 would.  A line is anchored at its exact integer start
        point, so the broadcast steps stay small.  An empty family has
        shape (0, 0).
        """
        try:
            if self.kind == "line":
                start = [u + self.jmin * v for u, v in zip(self.base, self.direction)]
                steps = np.arange(self.count, dtype=np.float64)[:, None]
                return np.array(start, dtype=np.float64) + steps * np.array(
                    self.direction, dtype=np.float64
                )
            n = len(self.solutions[0]) if self.solutions else 0
            return np.array(self.solutions, dtype=np.float64).reshape(len(self.solutions), n)
        except OverflowError:
            raise InputError("solution counts exceed the float64 range") from None

    def vectors(self):
        """Iterate every solution vector as a tuple of ints."""
        if self.kind == "line":
            for j in range(self.jmin, self.jmax + 1):
                yield tuple(u + j * v for u, v in zip(self.base, self.direction))
        else:
            yield from self.solutions

    def as_set(self) -> frozenset:
        return frozenset(self.vectors())


def classify(a, dec: SnfDecomposition | None = None) -> MethodTag:
    """Decide the evaluation route for a preprocessed natural-number matrix.

    Square with nonzero determinant -> INVERTIBLE; rank = rows = cols-1
    with all elementary divisors 1 -> SINGLE_INDEX; anything else falls
    back to ENUMERATE.  Raises if the rows are linearly dependent, which
    preprocessing is supposed to have repaired.
    """
    a = int_matrix(a)
    m, n = a.shape
    if m == n:
        if n == 0 or det_exact(a) != 0:
            return MethodTag.INVERTIBLE
        raise InputError("square matrix is singular; preprocess should have dropped rows")
    if dec is None:
        dec = snf(a)
    if dec.rank < m:
        raise InputError("rows are linearly dependent; preprocess should have dropped them")
    if m == n - 1 and all(d == 1 for d in dec.divisors):
        return MethodTag.SINGLE_INDEX
    return MethodTag.ENUMERATE


def _ceil_div(p: int, q: int) -> int:
    # ceil(p / q) for q > 0
    return -((-p) // q)


def parametrize_single_index(dec: SnfDecomposition, b) -> SolutionFamily:
    """Solution family from the single-index parametrization.

    With p a q = (I | 0), every integer solution of A k = b is
    k(j) = q @ (p b ; j); clipping each coordinate of k(j) to be
    nonnegative gives an integer interval of valid j.  The interval is
    computed with exact integer floor/ceil, never floats.
    """
    m = dec.p.shape[0]
    n = dec.q.shape[0]
    if not (dec.rank == m == n - 1 and all(d == 1 for d in dec.divisors)):
        raise MethodNotApplicableError(
            "single-index parametrization needs rank = rows = cols-1 and unit divisors"
        )
    b = int_vector(b)
    if b.shape[0] != m:
        raise InputError(f"observation length {b.shape[0]} != row count {m}")

    pb = dec.p @ b
    rhs = np.empty(n, dtype=object)
    rhs[:m] = pb
    rhs[m] = 0
    u = dec.q @ rhs
    v = dec.q[:, n - 1]

    lo = None
    hi = None
    for u_i, v_i in zip(u, v):
        if v_i > 0:
            bound = _ceil_div(-u_i, v_i)
            lo = bound if lo is None else max(lo, bound)
        elif v_i < 0:
            bound = u_i // (-v_i)
            hi = bound if hi is None else min(hi, bound)
        elif u_i < 0:
            return SolutionFamily.empty()
    if lo is None or hi is None:
        # A natural-number matrix without zero columns forces the kernel
        # direction to have entries of both signs, so the interval is
        # always bounded; reaching this means the input was not preprocessed.
        raise InternalInvariantError("unbounded solution interval; kernel direction one-signed")
    if lo > hi:
        return SolutionFamily.empty()
    if lo == hi:
        return SolutionFamily.singleton(u + lo * v)
    return SolutionFamily.line(u, v, lo, hi)


def solve_invertible(inv: np.ndarray, b) -> SolutionFamily:
    """Singleton A^-1 b if it is a nonnegative integer vector, else empty."""
    b = int_vector(b)
    n = inv.shape[0]
    if b.shape[0] != n:
        raise InputError(f"observation length {b.shape[0]} != matrix size {n}")
    k = [sum(inv[i, j] * int(b[j]) for j in range(n)) for i in range(n)]
    for x in k:
        if isinstance(x, Fraction) and x.denominator != 1:
            return SolutionFamily.empty()
        if x < 0:
            return SolutionFamily.empty()
    return SolutionFamily.singleton(int(x) for x in k)


def enumerate_solutions(a, b) -> SolutionFamily:
    """All k in N^n with A k = b, by depth-first search column by column.

    Each column must contain a positive entry (preprocess removes zero
    columns), which bounds k_j by min_i floor(b_i / a_ij) and keeps the
    search finite.  Solutions come out in lexicographic order.
    """
    a = int_matrix(a)
    b = int_vector(b)
    m, n = a.shape
    if b.shape[0] != m:
        raise InputError(f"observation length {b.shape[0]} != row count {m}")
    cols = [[int(a[i, j]) for i in range(m)] for j in range(n)]
    for j, col in enumerate(cols):
        if all(x == 0 for x in col):
            raise InputError(f"column {j} is all zero; preprocess the matrix first")
    if any(int(x) < 0 for x in b):
        return SolutionFamily.empty()

    residual = [int(x) for x in b]
    current = [0] * n
    out = []

    def rec(j: int) -> None:
        if j == n:
            if all(r == 0 for r in residual):
                out.append(tuple(current))
            return
        col = cols[j]
        ub = min(residual[i] // col[i] for i in range(m) if col[i] > 0)
        if ub < 0:
            return
        for k in range(ub + 1):
            current[j] = k
            rec(j + 1)
            for i in range(m):
                residual[i] -= col[i]
        for i in range(m):
            residual[i] += (ub + 1) * col[i]
        current[j] = 0

    if n == 0:
        return SolutionFamily.finite([()] if all(r == 0 for r in residual) else [])
    rec(0)
    return SolutionFamily.finite(out)


@dataclass(frozen=True)
class RowRelation:
    """Exact dependence of a dropped row on kept rows (original indices).

    An observation b is consistent with the dropped row iff
    b[row] == sum(coeff * b[idx] for idx, coeff in coeffs).
    """

    row: int
    coeffs: tuple[tuple[int, Fraction], ...]

    def holds(self, b) -> bool:
        rhs = sum((c * int(b[i]) for i, c in self.coeffs), start=Fraction(0))
        return Fraction(int(b[self.row])) == rhs


@dataclass(frozen=True)
class PreprocessReport:
    original_shape: tuple[int, int]
    removed_columns: tuple[int, ...] = ()
    kept_rows: tuple[int, ...] = ()
    relations: tuple[RowRelation, ...] = field(default=())

    @property
    def is_trivial(self) -> bool:
        return not self.removed_columns and not self.relations

    def is_consistent(self, b) -> bool:
        """Check every dependent-row relation against an observation."""
        return all(rel.holds(b) for rel in self.relations)


def preprocess(a, rates):
    """Reduce (A, rates) to full row rank with no zero columns.

    Zero columns are removed (the matching Poisson variable is
    unconstrained and marginalizes out with total probability 1, so this
    is probability preserving).  Each linearly dependent row is dropped
    and its exact rational dependence on the kept rows recorded, so the
    probability layer can report 0 for observations that violate it.

    Returns (reduced matrix, reduced rates, PreprocessReport).
    """
    a = int_matrix(a)
    m, n = a.shape
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.shape[0] != n:
        raise InputError(f"rate vector length {rates.shape} does not match {n} columns")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise InputError("rates must be finite and >= 0")
    for i in range(m):
        for j in range(n):
            if a[i, j] < 0:
                raise InputError(f"matrix entry ({i},{j}) is negative")

    keep_cols = [j for j in range(n) if any(a[i, j] != 0 for i in range(m))]
    removed_cols = tuple(j for j in range(n) if j not in keep_cols)
    a_cols = a[:, keep_cols] if keep_cols else np.empty((m, 0), dtype=object)
    rates_red = rates[keep_cols]

    # Row reduction over Q with combination tracking: for each row keep
    # gamma such that current = row - sum(gamma[i] * original_kept_row_i).
    kept: list[tuple[int, list[Fraction], dict[int, Fraction]]] = []  # (pivot col, reduced row, gamma)
    kept_rows: list[int] = []
    relations: list[RowRelation] = []
    ncols = a_cols.shape[1]
    for r in range(m):
        vec = [Fraction(int(a_cols[r, j])) for j in range(ncols)]
        gamma: dict[int, Fraction] = {}
        for pc, prow, pgamma in kept:
            if vec[pc] != 0:
                f = vec[pc] / prow[pc]
                vec = [x - f * y for x, y in zip(vec, prow)]
                for idx, c in pgamma.items():
                    gamma[idx] = gamma.get(idx, Fraction(0)) + f * c
        pivot = next((j for j, x in enumerate(vec) if x != 0), None)
        if pivot is None:
            coeffs = tuple(sorted((i, c) for i, c in gamma.items() if c != 0))
            relations.append(RowRelation(row=r, coeffs=coeffs))
        else:
            # this row contributes itself with coefficient 1, minus what
            # was subtracted during reduction
            own: dict[int, Fraction] = {r: Fraction(1)}
            for idx, c in gamma.items():
                own[idx] = own.get(idx, Fraction(0)) - c
            kept.append((pivot, vec, own))
            kept_rows.append(r)

    a_red = a_cols[kept_rows, :] if kept_rows else np.empty((0, ncols), dtype=object)
    if not kept_rows:
        # all rows dependent (zero matrix): every column was zero too
        a_red = np.empty((0, 0), dtype=object)
        rates_red = rates_red[:0]

    report = PreprocessReport(
        original_shape=(m, n),
        removed_columns=removed_cols,
        kept_rows=tuple(kept_rows),
        relations=tuple(relations),
    )
    return a_red, rates_red, report
