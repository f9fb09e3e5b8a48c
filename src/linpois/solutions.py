"""Nonnegative integer solution sets of A k = b for natural-number matrices.

``_snf_family`` reads the solution set off the Smith normal form
p A q = d: whether b is on the lattice (dependent rows included), then
a singleton when the kernel of A is trivial or a line ``u + j v`` when
it has dimension 1, for any elementary divisors.  For a kernel of
dimension 2 or more with b on the lattice, ``pmf.solution_family``
(and ``pmf.pmf``, when its rank-1 recurrence declines) finishes the set
with ``_walk_family``: a breadth-first walk, in numpy array passes,
over only the n - r free coordinates of a ``_WalkPlan``, whose r basis
coordinates are then solved exactly with an integer matrix read off
the Smith form of the m x r block of basis columns.
Both trust the checks that pmf's query step made on b, and the walk
also the lattice test.
``_RowPlan`` reduces a matrix of rank 1 to one primitive row, for
pmf's recurrence, which answers such a kernel without the walk when
its step cap and error bound allow.

Both refuse, with InputError, a solution set, walk frontier or block of
line points of more than MAX_POINTS points before allocating it.

Plus the model preprocessing step that validates the input and removes
the columns that cannot move Y: zero columns and zero-rate columns.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalInvariantError
from .intlinalg import SnfDecomposition, int_identity, int_matrix, snf

__all__ = [
    "MAX_POINTS",
    "SolutionFamily",
    "PreprocessReport",
    "preprocess",
]

# the most lattice points any route holds at once: a solution set, a
# frontier of the free-coordinate walk or a block of line points; also
# the most steps, n (t + 1), of pmf's rank-1 recurrence.  At 10**7
# points a solution set already takes hundreds of MB in pmf.
MAX_POINTS = 10_000_000

_INT64_MAX = (1 << 63) - 1


def _too_many(what: str) -> InputError:
    return InputError(f"{what} exceeds the cap of MAX_POINTS = {MAX_POINTS} lattice points")


def _int_rows(rows) -> np.ndarray:
    """Rows of Python ints as one (count, n) int64 array, or an object
    array of Python ints when some entry does not fit int64."""
    rows = list(rows)
    n = len(rows[0]) if rows else 0
    try:
        arr = np.array(rows, dtype=np.int64)
    except OverflowError:
        arr = np.array(rows, dtype=object)
    return arr.reshape(len(rows), n)


@dataclass(frozen=True, eq=False)
class SolutionFamily:
    """The set {k in N^n : A k = b} as a line or as a set of points.

    A line is {base + j * direction : jmin <= j <= jmax} with the bounds
    tight: stepping one past either end makes some coordinate negative.
    Any other family holds its points as the rows of one (count, n)
    integer array, int64 or, when an entry does not fit, object; the
    rows are in no set order.  kind is "line", or from the number of
    points "empty" (0), "singleton" (1) or "finite" (more), so the same
    point set has the same kind whichever route built it.
    """

    base: tuple[int, ...] | None = None
    direction: tuple[int, ...] | None = None
    jmin: int | None = None
    jmax: int | None = None
    array: np.ndarray | None = None

    @classmethod
    def empty(cls) -> "SolutionFamily":
        return cls()

    @classmethod
    def singleton(cls, k) -> "SolutionFamily":
        return cls(array=_int_rows([[int(x) for x in k]]))

    @classmethod
    def line(cls, u, v, jmin: int, jmax: int) -> "SolutionFamily":
        return cls(
            base=tuple(int(x) for x in u),
            direction=tuple(int(x) for x in v),
            jmin=int(jmin),
            jmax=int(jmax),
        )

    @property
    def kind(self) -> str:
        if self.base is not None:
            return "line"
        return ("empty", "singleton", "finite")[min(self.count, 2)]

    @property
    def count(self) -> int:
        if self.base is not None:
            return self.jmax - self.jmin + 1
        return 0 if self.array is None else len(self.array)

    def points(self, lo: int | None = None, hi: int | None = None) -> np.ndarray:
        """Every solution as one row of a (count, n) float64 array.

        For a line, lo and hi (default jmin and jmax) select the block
        of points j = lo..hi; they are ignored for other kinds.  Float64
        holds counts exactly below 2**53 and larger ones to within a
        rounding or two of float(k_i), so no entry can wrap as int64
        would.  A block is anchored at its exact integer start point,
        so the broadcast steps stay small.  An empty family has shape
        (0, 0).  InputError for more than MAX_POINTS points, before any
        array is allocated.
        """
        if self.kind == "line":
            lo = self.jmin if lo is None else lo
            hi = self.jmax if hi is None else hi
            count = hi - lo + 1
        else:
            count = self.count
        if count > MAX_POINTS:
            raise _too_many(f"a solution set of {count} points")
        try:
            if self.kind == "line":
                start = [u + lo * v for u, v in zip(self.base, self.direction)]
                steps = np.arange(count, dtype=np.float64)[:, None]
                return np.array(start, dtype=np.float64) + steps * np.array(
                    self.direction, dtype=np.float64
                )
            if self.array is None:
                return np.empty((0, 0))
            return self.array.astype(np.float64)
        except OverflowError:
            raise InputError("solution counts exceed the float64 range") from None


def _ceil_div(p: int, q: int) -> int:
    # ceil(p / q) for q > 0
    return -((-p) // q)


def _snf_family(dec: SnfDecomposition, b: list[int]) -> SolutionFamily | None:
    """Nonnegative solutions of A k = b from the Smith form p A q = d.

    b is a list of m ints, checked by pmf's query step
    (pmf._lattice_family), and A is a preprocessed matrix: natural
    numbers, no zero column.  With c = p b and r = rank, b lies in the
    lattice A Z^n iff d_i | c_i for i < r and c_i = 0 for i >= r.  The
    last m - r rows of p span the integer left kernel of A, so the
    second test is also the consistency check for dependent rows.
    Every integer solution is then k = q (y; t) with y_i = c_i / d_i
    and t in Z^(n-r).  Kernel dimension 0 gives at most one point;
    dimension 1 gives a line whose j-interval is cut out with exact
    integer floor/ceil, for any divisors.  For dimension 2 or more,
    returns None when b is on the lattice, for the caller to walk.
    """
    n = dec.d.shape[1]
    r = dec.rank
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
        # direction with entries of both signs
        raise InternalInvariantError("the kernel direction of a preprocessed matrix is one-signed")
    if lo > hi:
        return SolutionFamily.empty()
    if lo == hi:
        return SolutionFamily.singleton(u_i + lo * v_i for u_i, v_i in zip(u, v))
    return SolutionFamily.line(u, v, lo, hi)


class _WalkPlan:
    """How _walk_family splits the columns of a preprocessed matrix.

    The first r = rank A columns that are independent of the earlier
    ones give ``basis``, an m x r block B of full column rank, with
    ``det`` = D, the last Smith divisor of B, and the r x m integer
    matrix ``adj`` with adj B = D I; the other n - r columns are
    ``free``.  When D = 1 every basis solve is exact; otherwise
    _walk_family drops the leaves whose division by D leaves a
    remainder.  Built from PoissonModel.a, which preprocess has checked
    for negative entries and stripped of zero columns: the box bound of
    the walk needs every column to have a positive entry and residuals
    that only fall.
    """

    def __init__(self, a):
        n = a.shape[1]
        rank = snf(a).rank
        basis = []
        for j in range(n):
            if len(basis) < rank and snf(a[:, basis + [j]]).rank > len(basis):
                basis.append(j)
        if len(basis) != rank:
            raise InternalInvariantError("walk plan: no basis block of full rank")
        det, adj = _det_adj(a[:, basis])

        self.n = n
        self.basis = tuple(basis)
        self.free = tuple(j for j in range(n) if j not in basis)
        self.det = det
        self.adj = tuple(tuple(int(x) for x in row) for row in adj.tolist())
        # |adj res| <= max_row sum|adj| * max b
        self.growth = max([1] + [sum(map(abs, row)) for row in self.adj])
        entries = [int(x) for x in a.ravel()] + [x for row in self.adj for x in row] + [det]
        fits = max(map(abs, entries), default=0) <= _INT64_MAX
        self._narrow = self._arrays(a, np.int64) if fits else None
        self._wide = self._arrays(a, object)

    def _arrays(self, a, dtype):
        # one step per free column: its rows with a positive entry (an
        # int when there is just one, so no reduction is needed) and
        # their entries
        m = a.shape[0]
        steps = []
        for j in self.free:
            pos = [i for i in range(m) if a[i, j] > 0]
            vals = [int(a[i, j]) for i in pos]
            if len(pos) == 1:
                steps.append((pos[0], vals[0], m + j))
            else:
                steps.append((pos, np.array(vals, dtype=dtype), m + j))
        return steps, np.array(self.adj, dtype=dtype).reshape(len(self.basis), m).T


class _RowPlan:
    """A k = b for a preprocessed matrix of rank 1, as one row w k = t.

    Every row of such a matrix is g_i w for one primitive row w: the
    first nonzero row divided by the gcd of its entries (an integer
    multiple of a row whose entries have gcd 1 is integral only for an
    integer multiple).  Preprocess has removed the zero columns, so
    every w_j >= 1.  ``row`` is that first nonzero row and ``g`` its
    multiplier, so a b on the lattice A Z^n = g Z has t = b[row] // g.
    ``steps`` holds one (weight, weight * math.fsum of the rates of its
    columns) pair per distinct w_j up to MAX_WEIGHT, in increasing
    order; ``neg_rates`` are the rates negated.  The walk plan of the
    same matrix takes column 0 as its basis and every other column as
    free.
    """

    # pmf's error bound keeps t below 2**11, so no larger weight enters
    # a step of its recurrence
    MAX_WEIGHT = 1 << 12

    def __init__(self, a, rates):
        rows = [[int(x) for x in row] for row in a.tolist()]
        self.row = next(i for i, row in enumerate(rows) if any(row))
        self.g = math.gcd(*rows[self.row])
        self.w = tuple(x // self.g for x in rows[self.row])
        if any(row != [row[0] // self.w[0] * x for x in self.w] for row in rows):
            raise InternalInvariantError("row plan: a row is not a multiple of the primitive row")
        lam = rates.tolist()
        self.steps = tuple((wt, wt * math.fsum([r for r, x in zip(lam, self.w) if x == wt]))
                           for wt in sorted(set(self.w)) if wt <= self.MAX_WEIGHT)
        self.neg_rates = [-r for r in lam]


def _det_adj(block) -> tuple[int, np.ndarray]:
    """D, the last Smith divisor of an m x r block B of full column
    rank, and an r x m integer matrix adj with adj B = D I.

    With p B q = d from the Smith form, p and q unimodular, the first r
    rows of p B are d_r q^-1 with d_r = diag(d_1..d_r), so
    adj = q diag(D / d_i) p[:r] gives adj B = D I: every d_i divides D.
    """
    dec = snf(block)
    r = block.shape[1]
    det = max(dec.divisors, default=1)
    scaled = dec.p[:r, :].copy()
    for i, d in enumerate(dec.divisors):
        scaled[i, :] *= det // d
    adj = dec.q @ scaled
    if not np.array_equal(adj @ block, det * int_identity(r)):
        raise InternalInvariantError("walk plan: adj B != D I")
    return det, adj


def _walk_family(plan: _WalkPlan, b: list[int]) -> SolutionFamily:
    """All k in N^n with A k = b, walking only the free coordinates.

    b is a list of m ints >= 0 on the lattice A Z^n (_snf_family returned
    None).  The walk state is one row [res | k] per partial solution.
    It starts at [b | 0] and expands one free column at a time to every
    value up to the box bound min_i floor(res_i / a_ij), so residuals
    stay >= 0.  At the leaves the basis is solved exactly from all m
    rows, D k_B = adj res, and a leaf is kept when the division is exact
    and k_B >= 0.  Then B k_B = res, every row included: b = A k0 for an
    integer k0, so res lies in the column space of A, which the basis
    columns span, and adj B = D I.  Arrays are int64 when
    (max b + 1) * max(plan.growth, MAX_POINTS) proves every
    intermediate fits, object arrays of Python ints otherwise.
    InputError before a frontier of more than MAX_POINTS points is
    allocated.
    """
    m = len(b)
    # frontier offsets are cumulative sums of up to MAX_POINTS counts of
    # at most max b + 1 each
    narrow = (plan._narrow is not None
              and (max(b) + 1) * max(plan.growth, MAX_POINTS) <= _INT64_MAX)
    steps, adj_t = plan._narrow if narrow else plan._wide
    state = np.array([b + [0] * plan.n], dtype=np.int64 if narrow else object)
    for pos, div, at in steps:
        if isinstance(pos, int):
            ub = state[:, pos] if div == 1 else state[:, pos] // div
        else:
            ub = (state[:, pos] // div).min(axis=1)
        reps = ub + 1
        ends = np.cumsum(reps)
        if ends[-1] > MAX_POINTS:
            raise _too_many(f"a walk frontier of {ends[-1]} points")
        parent = np.repeat(np.arange(len(reps)), reps.astype(np.intp))
        k = np.arange(len(parent)) - (ends - reps).take(parent)
        state = state.take(parent, axis=0)
        state[:, at] = k
        if isinstance(pos, int):
            state[:, pos] -= k if div == 1 else k * div
        else:
            state[:, pos] -= k[:, None] * div
    num = state[:, :m] @ adj_t
    if plan.det == 1:
        kb, keep = num, (num >= 0).all(axis=1)
    else:
        kb = num // plan.det
        keep = (num % plan.det == 0).all(axis=1) & (kb >= 0).all(axis=1)
    if not keep.all():
        rows = np.flatnonzero(keep)
        state, kb = state.take(rows, axis=0), kb.take(rows, axis=0)
    pts = state[:, m:]
    pts[:, plan.basis] = kb
    return SolutionFamily(array=pts)


@dataclass(frozen=True)
class PreprocessReport:
    """What preprocess did to (A, rates).

    removed_columns lists the columns whose variable cannot move Y:
    zero columns of A and columns of rate 0.  rates is the full,
    validated float64 rate vector; it takes no part in comparisons.
    """

    original_shape: tuple[int, int]
    removed_columns: tuple[int, ...]
    rates: np.ndarray = field(compare=False, repr=False)


def _real_vector(values, what: str, hi: float = sys.float_info.max, size=None) -> np.ndarray:
    """values as a float64 vector of size entries (any number if None),
    each a real number (not a bool, a string or a complex, which numpy
    would convert) in [0, hi]: the one check of a real vector.  The
    rates take hi = the largest float (preprocess and
    kernels.sample_block), so an int past the float64 range is refused
    before conversion; pmf's z takes hi = 1."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 1 or size not in (None, len(arr)):
        tail = "" if size is None else f" of length {size}"
        raise InputError(f"{what} must be a vector{tail}")
    for i, x in enumerate(arr.tolist()):
        # a numpy scalar is compared as a Python number: numpy would round hi to its type
        x = x.item() if isinstance(x, np.generic) else x
        # float and int first: the numbers.Real test is several times slower
        real = type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)
        if not real or not 0 <= x <= hi:
            # no repr: that of an int past 4300 digits raises ValueError
            raise InputError(f"{what} {i} is not a real number in [0, {hi:g}]")
    return arr.astype(np.float64)


def preprocess(a, rates):
    """Validate (A, rates) and remove every column whose variable cannot
    move Y: the zero columns of A and the columns of rate 0.

    A zero column's Poisson variable is unconstrained and marginalizes
    out with total probability 1; a zero-rate variable is 0 almost
    surely.  Either way the column's factor of the generating function
    is 1, so removing it preserves every probability.  Every row is
    kept: _snf_family checks dependent rows.

    Returns (reduced matrix, reduced rates, PreprocessReport).
    """
    a = int_matrix(a)
    m, n = a.shape
    rates = _real_vector(rates, "rate", size=n)
    # -sum(rates) enters every log term and the generating function
    if math.isinf(sum(rates.tolist())):
        raise InputError("the rate total exceeds the float64 range (about 1.8e308)")
    for i in range(m):
        for j in range(n):
            if a[i, j] < 0:
                raise InputError(f"matrix entry ({i},{j}) is negative")

    keep_cols = [j for j in range(n) if rates[j] > 0.0 and any(a[i, j] != 0 for i in range(m))]
    removed_cols = tuple(j for j in range(n) if j not in keep_cols)
    a_red = a[:, keep_cols] if keep_cols else np.empty((m, 0), dtype=object)
    report = PreprocessReport(original_shape=(m, n), removed_columns=removed_cols, rates=rates)
    return a_red, rates[keep_cols], report
