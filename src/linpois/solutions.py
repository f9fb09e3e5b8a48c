"""Nonnegative integer solution sets of A k = b for natural-number matrices.

``_QueryPlan`` is the one plan of pmf and solution_family, read off a
model's Smith normal form p A q = d once.  ``_snf_solutions`` reads
from it whether b is on the lattice (dependent rows included), then
the one point when the kernel of A is trivial (as a list of ints, which
pmf reads without an array and solution_family wraps in a singleton) or
a line ``u + j v`` when it has dimension 1, for any elementary
divisors.  A kernel of dimension 2 or more is answered by pmf's rank-1
recurrence from the plan's primitive row, or walked by
``_walk_family`` with the plan's ``_WalkPlan``: a breadth-first walk,
in numpy array passes, over only the n - r free coordinates, whose r
basis coordinates are then solved exactly with an integer matrix read
off the Smith form of the m x r block of basis columns.  Both trust the
checks that pmf's query step made on b, and the walk also the lattice
test.

SolutionFamily.points and _walk_family refuse, with InputError, a
solution set or walk frontier of more than MAX_POINTS points before
allocating it.  A walked family holds its points as exact integers,
which pmf reads as they are: no float64 copy of them is made.

Plus the one check of a real vector (_real_vector), for the rates of a
model and of the sampler and for pmf's z.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, InternalInvariantError
from .intlinalg import SnfDecomposition, int_identity, snf

__all__ = [
    "MAX_POINTS",
    "SolutionFamily",
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
        # one shared instance: the family is frozen
        return _EMPTY

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

    def points(self) -> np.ndarray:
        """Every solution as one row of a (count, n) float64 array, in
        column-major (Fortran) order.

        Float64 holds counts exactly below 2**53 and larger ones to
        within a rounding or two of float(k_i), so no entry can wrap as
        int64 would.  A line is anchored at its exact integer point at
        jmin, so the broadcast steps stay small.  pmf does not call it:
        it reads its terms from the model's table of log terms.  An
        empty family has shape (0, 0).  InputError for more than
        MAX_POINTS points, before any array is allocated.
        """
        count = self.count
        if count > MAX_POINTS:
            raise _too_many(f"a solution set of {count} points")
        try:
            if self.kind == "line":
                start = [u + self.jmin * v for u, v in zip(self.base, self.direction)]
                start = np.array(start, dtype=np.float64)[:, None]
                direction = np.array(self.direction, dtype=np.float64)[:, None]
                # the transpose of an (n, count) array is column-major
                return (start + direction * np.arange(count, dtype=np.float64)).T
            if self.array is None:
                return np.empty((0, 0))
            return self.array.astype(np.float64, order="F")
        except OverflowError:
            raise InputError("solution counts exceed the float64 range") from None


_EMPTY = SolutionFamily()


def _lattice_tests(dec: SnfDecomposition) -> tuple:
    """The tests that an integer vector b lies on the lattice A Z^n,
    from the Smith form p A q = d: d_i | (p b)_i for i < rank and
    (p b)_i = 0 beyond.  The last m - r rows of p span the integer left
    kernel of A, so the second test is also the consistency check for
    dependent rows.  Each test is (row i of p as Python ints, d_i, or 0
    for "= 0"); a test with d_i = 1 holds for every integer b and is
    left out.  The one builder of these tests, for pmf's query step
    (_QueryPlan) and the sampler's residuals (kernels._lattice_checks).
    """
    mods = list(dec.divisors) + [0] * (len(dec.p) - dec.rank)
    return tuple((row, d) for row, d in zip(map(tuple, dec.p.tolist()), mods) if d != 1)


def _scaled_inverse(dec: SnfDecomposition) -> tuple[int, np.ndarray]:
    """D, the last divisor of the Smith form p A q = d (1 with none),
    and the integer matrix U = q[:, :r] diag(D / d_i) p[:r], r = rank.

    With p A = d q^-1, each b = A k has (p b)_i = d_i y_i for i < r,
    y = q^-1 k, so U b = D q[:, :r] y: D times the integer solution
    whose last n - r coordinates in the basis q are 0.  Every d_i
    divides D, so U is integral.  For A of full column rank, U A = D I.
    """
    r = dec.rank
    det = max(dec.divisors, default=1)
    scaled = dec.p[:r, :].copy()
    for i, d in enumerate(dec.divisors):
        scaled[i, :] *= det // d
    return det, dec.q[:, :r] @ scaled


class _QueryPlan:
    """How pmf answers each b on a preprocessed matrix A, read off its
    Smith form p A q = d: the one plan of pmf and solution_family, built
    once per model on its first query (PoissonModel._query_plan).

    ``tests`` are the lattice tests that can fail (_lattice_tests) and
    ``free`` = n - r the kernel dimension.  When free <= 1, ``det`` = D
    and ``rows`` = U of _scaled_inverse, as rows of Python ints, so the
    solution at t = 0 is u = U b / D, exact on the lattice.  When
    free = 1, ``direction`` is the kernel direction v = q[:, r], split
    into ``pos``, (i, v_i) for v_i > 0, ``neg``, (i, -v_i) for v_i < 0,
    and ``zero``, the i with v_i = 0.  A natural-number matrix without
    zero columns has a kernel direction with entries of both signs;
    InternalInvariantError otherwise.

    ``w`` is None unless free >= 2, A has rank 1 and its rates total at
    most 2**200 (past that a sum of rates may overflow, and pmf's error
    bound declines every b).  Then each row is g_i w for the primitive
    row ``w`` of pmf's recurrence: row ``row``, the first nonzero one,
    divided by ``g``, the gcd of its entries (a multiple of a row of
    gcd 1 is integral only for an integer multiple); every w_j >= 1.  A
    b on the lattice has t = b[row] // g.  ``steps`` holds one (weight,
    weight * math.fsum of the rates of its columns) pair per distinct
    w_j up to MAX_WEIGHT, in increasing order; ``neg_rates`` are the
    rates negated.  For free >= 2, ``walk`` is the _WalkPlan of A, built
    on the first walk.
    """

    # pmf's error bound keeps t below 2**11, so no larger weight enters
    # a step of its recurrence
    MAX_WEIGHT = 1 << 12
    w = None

    def __init__(self, dec: SnfDecomposition, a, rates):
        r = dec.rank
        self.tests = _lattice_tests(dec)
        self.free = len(dec.q) - r
        if self.free > 1:
            self._a = a
            lam = rates.tolist()
            if r != 1 or sum(lam) > 2.0 ** 200:
                return
            rows = a.tolist()
            self.row = next(i for i, row in enumerate(rows) if any(row))
            self.g = math.gcd(*rows[self.row])
            self.w = tuple(x // self.g for x in rows[self.row])
            if any(row != [row[0] // self.w[0] * x for x in self.w] for row in rows):
                raise InternalInvariantError("query plan: a row is not a multiple of the primitive row")
            self.steps = tuple((wt, wt * math.fsum([x for x, y in zip(lam, self.w) if y == wt]))
                               for wt in sorted(set(self.w)) if wt <= self.MAX_WEIGHT)
            self.neg_rates = [-x for x in lam]
            return
        self.det, rows = _scaled_inverse(dec)
        self.rows = tuple(map(tuple, rows.tolist()))
        if not self.free:
            return
        self.direction = tuple(dec.q[:, r].tolist())
        self.pos = tuple((i, v) for i, v in enumerate(self.direction) if v > 0)
        self.neg = tuple((i, -v) for i, v in enumerate(self.direction) if v < 0)
        self.zero = tuple(i for i, v in enumerate(self.direction) if v == 0)
        if not (self.pos and self.neg):
            raise InternalInvariantError("the kernel direction of a preprocessed matrix is one-signed")

    @cached_property
    def walk(self) -> _WalkPlan:
        return _WalkPlan(self._a, self._a.shape[1] - self.free)


def _snf_solutions(plan: _QueryPlan, b: list[int]) -> SolutionFamily | list[int] | None:
    """Nonnegative solutions of A k = b from a model's query plan.

    b is a list of m ints, checked by pmf's query step
    (pmf._lattice_family), and A is a preprocessed matrix: natural
    numbers, no zero column.  b lies in the lattice A Z^n iff it passes
    plan.tests.  Every integer solution is then k = u + q[:, r:] t with
    u = U b / D and t in Z^(n-r).  Kernel dimension 0 gives at most one
    point; dimension 1 gives a line u + j v whose j-interval is cut out
    with exact integer floor/ceil, for any divisors.  A single point is
    returned as a list of n ints, so pmf reads it without an array
    (solution_family wraps it in a singleton family).  For dimension 2 or
    more, returns None when b is on the lattice, for the caller to walk.
    """
    for row, d in plan.tests:
        c = sum(map(operator.mul, row, b))
        if c % d if d else c:
            return SolutionFamily.empty()
    if plan.free > 1:
        return None
    u = [sum(map(operator.mul, row, b)) // plan.det for row in plan.rows]
    if not plan.free:
        return u if min(u, default=0) >= 0 else SolutionFamily.empty()
    # u_i + j v_i >= 0: j >= ceil(-u_i / v_i) = -(u_i // v_i) for v_i > 0,
    # j <= u_i // -v_i for v_i < 0, and u_i >= 0 for v_i = 0
    lo = max([-(u[i] // v) for i, v in plan.pos])
    hi = min([u[i] // w for i, w in plan.neg])
    if lo > hi or any(u[i] < 0 for i in plan.zero):
        return SolutionFamily.empty()
    v = plan.direction
    if lo == hi:
        return [u_i + lo * v_i for u_i, v_i in zip(u, v)]
    # u, v, lo and hi are Python ints already: no int() pass
    return SolutionFamily(base=tuple(u), direction=v, jmin=lo, jmax=hi)


class _WalkPlan:
    """How _walk_family splits the columns of a preprocessed matrix.

    The first r = rank A columns that are independent of the earlier
    ones give ``basis``, an m x r block B of full column rank, with
    ``det`` = D, the last Smith divisor of B, and the r x m integer
    matrix ``adj`` with adj B = D I; the other n - r columns are
    ``free``.  When D = 1 every basis solve is exact; otherwise
    _walk_family drops the leaves whose division by D leaves a
    remainder.  ``basis_at`` is the basis columns as an index array,
    through which the leaves' basis coordinates are written.  ``first``
    holds the first free column's rows with a positive entry, as (row,
    entry) pairs of Python ints, and its column in the walk state; the
    other free columns are the steps of each dtype (_arrays).  Built by
    _QueryPlan.walk from a preprocessed matrix, whose entries are >= 0
    and which has no zero column: the box bound of the walk needs every
    column to have a positive entry and residuals that only fall; and
    from the rank of its Smith form.
    """

    def __init__(self, a, rank: int):
        n = a.shape[1]
        basis = []
        for j in range(n):
            if len(basis) < rank and snf(a[:, basis + [j]]).rank > len(basis):
                basis.append(j)
        if len(basis) != rank:
            raise InternalInvariantError("walk plan: no basis block of full rank")
        # adj = U of the block's Smith form, q diag(D / d_i) p[:r] here
        det, adj = _scaled_inverse(snf(a[:, basis]))
        if not np.array_equal(adj @ a[:, basis], det * int_identity(rank)):
            raise InternalInvariantError("walk plan: adj B != D I")

        self.n = n
        self.basis = tuple(basis)
        self.basis_at = np.array(basis, dtype=np.intp)
        self.free = tuple(j for j in range(n) if j not in basis)
        j = self.free[0]
        self.first = (tuple((i, int(a[i, j])) for i in range(a.shape[0]) if a[i, j] > 0),
                      a.shape[0] + j)
        self.det = det
        self.adj = tuple(tuple(int(x) for x in row) for row in adj.tolist())
        # |adj res| <= max_row sum|adj| * max b
        self.growth = max([1] + [sum(map(abs, row)) for row in self.adj])
        entries = [int(x) for x in a.ravel()] + [x for row in self.adj for x in row] + [det]
        fits = max(map(abs, entries), default=0) <= _INT64_MAX
        self._narrow = self._arrays(a, np.int64) if fits else None
        self._wide = self._arrays(a, object)

    def _arrays(self, a, dtype):
        # one step per free column after the first: its rows with a
        # positive entry (an int when there is just one, so no reduction
        # is needed) and their entries
        m = a.shape[0]
        steps = []
        for j in self.free[1:]:
            pos = [i for i in range(m) if a[i, j] > 0]
            vals = [int(a[i, j]) for i in pos]
            if len(pos) == 1:
                steps.append((pos[0], vals[0], m + j))
            else:
                steps.append((pos, np.array(vals, dtype=dtype), m + j))
        return steps, np.array(self.adj, dtype=dtype).reshape(len(self.basis), m).T


def _walk_family(plan: _WalkPlan, b: list[int]) -> SolutionFamily:
    """All k in N^n with A k = b, walking only the free coordinates.

    b is a list of m ints >= 0 on the lattice A Z^n (_snf_solutions
    returned None).  The walk state is one row [res | k] per partial
    solution.  It starts at [b | 0] and expands one free column at a
    time to every value up to the box bound min_i floor(res_i / a_ij),
    so residuals stay >= 0; the first column's bound is read off b, so
    its frontier is one arange, and each row it touches takes one
    in-place subtraction.  At the leaves the basis is solved
    exactly from all m rows, D k_B = adj res, and a leaf is kept when
    the division is exact and k_B >= 0.  Then B k_B = res, every row
    included: b = A k0 for an integer k0, so res lies in the column
    space of A, which the basis columns span, and adj B = D I.  Arrays are int64 when
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
    dtype = np.int64 if narrow else object
    # the first free column expands the start row [b | 0] alone, to
    # k = 0..ub with ub read off b in Python ints
    touched, at = plan.first
    ub = min([b[i] // d for i, d in touched])
    if ub + 1 > MAX_POINTS:
        raise _too_many(f"a walk frontier of {ub + 1} points")
    k = np.arange(ub + 1, dtype=dtype)
    state = np.empty((ub + 1, m + plan.n), dtype=dtype)
    state[:] = b + [0] * plan.n
    state[:, at] = k
    for i, d in touched:
        state[:, i] -= k if d == 1 else k * d
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
    pts[:, plan.basis_at] = kb
    return SolutionFamily(array=pts)


def _real_vector(values, what: str, hi: float = sys.float_info.max, size=None) -> np.ndarray:
    """values as a float64 vector of size entries (any number if None),
    each a real number (not a bool, a string, a complex or a NaN, which
    numpy would convert) in [0, hi]: the one check of a real vector.
    An error names the entry as what[i].  The rates take hi = the
    largest float (model.preprocess and kernels.sample_block), so an
    int past the float64 range is refused before conversion; pmf's z
    takes hi = 1."""
    arr = np.asarray(values, dtype=object)
    if arr.ndim != 1 or size not in (None, len(arr)):
        tail = "" if size is None else f" of length {size}"
        raise InputError(f"{what} must be a vector{tail}")
    for i, x in enumerate(arr.tolist()):
        # a numpy scalar is compared as a Python number: numpy would round hi to its type
        x = x.item() if isinstance(x, np.generic) else x
        # float and int first: the numbers.Real test is several times slower
        real = type(x) in (float, int) or isinstance(x, numbers.Real) and not isinstance(x, bool)
        # no repr of x: that of an int past 4300 digits raises ValueError
        if not real or x != x:
            raise InputError(f"{what}[{i}] is not a real number")
        if not 0 <= x <= hi:
            raise InputError(f"{what}[{i}] is out of [0, {hi:g}]")
    return arr.astype(np.float64)
