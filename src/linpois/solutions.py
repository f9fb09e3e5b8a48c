"""Nonnegative integer solution sets of A k = b for natural-number matrices.

Two characterizations are provided:

* ``snf_family``, which reads the solution set off the Smith normal
  form p A q = d: whether b is on the lattice (dependent rows
  included), then a singleton when the kernel of A is trivial or a
  line ``u + j v`` when it has dimension 1, for any elementary divisors;
* exhaustive depth-first enumeration, used when the kernel has
  dimension 2 or more and as the independent oracle for the other path.

Plus the model preprocessing step that validates the input and removes
zero columns.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .intlinalg import SnfDecomposition, int_matrix, int_vector

__all__ = [
    "MethodTag",
    "SolutionFamily",
    "PreprocessReport",
    "classify",
    "snf_family",
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


def classify(dec: SnfDecomposition) -> MethodTag:
    """Evaluation route from the kernel dimension n - rank of A.

    0 -> INVERTIBLE (at most one solution), 1 -> SINGLE_INDEX (a line),
    2 or more -> ENUMERATE.  Divisors and dependent rows do not matter:
    snf_family handles both.
    """
    free = dec.q.shape[0] - dec.rank
    if free == 0:
        return MethodTag.INVERTIBLE
    if free == 1:
        return MethodTag.SINGLE_INDEX
    return MethodTag.ENUMERATE


def _ceil_div(p: int, q: int) -> int:
    # ceil(p / q) for q > 0
    return -((-p) // q)


def snf_family(dec: SnfDecomposition, b) -> SolutionFamily | None:
    """Nonnegative solutions of A k = b from the Smith form p A q = d.

    With c = p b and r = rank, b lies in the lattice A Z^n iff d_i | c_i
    for i < r and c_i = 0 for i >= r.  The last m - r rows of p span the
    integer left kernel of A, so the second test is also the consistency
    check for dependent rows.  Every integer solution is then
    k = q (y; t) with y_i = c_i / d_i and t in Z^(n-r).  Kernel
    dimension 0 gives at most one point; dimension 1 gives a line whose
    j-interval is cut out with exact integer floor/ceil, for any
    divisors.  For dimension 2 or more, returns None when b is on the
    lattice, and the caller enumerates.  A line unbounded on one side,
    from a zero column or a negative entry, is an InputError.
    """
    m, n = dec.d.shape
    r = dec.rank
    try:
        b = [operator.index(x) for x in b]
    except TypeError:
        raise InputError("observation entries must be integers") from None
    if len(b) != m:
        raise InputError(f"observation length {len(b)} != row count {m}")
    c = [sum(map(operator.mul, row, b)) for row in dec.p.tolist()]
    if any(ci % di for ci, di in zip(c, dec.divisors)) or any(c[r:]):
        return SolutionFamily.empty()
    if n - r > 1:
        return None
    y = [ci // di for ci, di in zip(c, dec.divisors)]
    q = dec.q.tolist()
    # map stops after r entries: u = q[:, :r] @ y, the solution at t = 0
    u = [sum(map(operator.mul, row, y)) for row in q]
    if r == n:
        return SolutionFamily.singleton(u) if all(x >= 0 for x in u) else SolutionFamily.empty()
    v = [row[r] for row in q]

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
        # a natural-number matrix without zero columns has a kernel
        # direction with entries of both signs; a one-signed one comes
        # from the caller's zero column or negative entry
        raise InputError(
            "infinitely many nonnegative solutions: the kernel direction is one-signed, "
            "so the matrix has a zero column or a negative entry (PoissonModel removes "
            "zero columns and rejects negative entries)"
        )
    if lo > hi:
        return SolutionFamily.empty()
    if lo == hi:
        return SolutionFamily.singleton(u_i + lo * v_i for u_i, v_i in zip(u, v))
    return SolutionFamily.line(u, v, lo, hi)


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
class PreprocessReport:
    original_shape: tuple[int, int]
    removed_columns: tuple[int, ...] = ()

    @property
    def is_trivial(self) -> bool:
        return not self.removed_columns


def preprocess(a, rates):
    """Validate (A, rates) and remove the zero columns of A.

    A zero column's Poisson variable is unconstrained and marginalizes
    out with total probability 1, so removing it preserves every
    probability.  Every row is kept: snf_family checks dependent rows.

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
    a_red = a[:, keep_cols] if keep_cols else np.empty((m, 0), dtype=object)
    report = PreprocessReport(original_shape=(m, n), removed_columns=removed_cols)
    return a_red, rates[keep_cols], report
