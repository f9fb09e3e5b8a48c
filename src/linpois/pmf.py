"""Probability evaluation for Y = A X.

P(Y = b) is a sum of independent-Poisson product terms over the
solution set of A k = b.  pmf and solution_family share one query step
(_lattice_family): the model and b are checked, and the model's query
plan decides whether b is on the lattice and reads off a singleton or a
line.  When the kernel of A has dimension 2 or more, solution_family
walks the free coordinates with the plan's walk plan (_walk_family),
which does not check b again; pmf first tries the rank-1 recurrence
below, and walks only when it declines.  The model's reduced system has
no zero-rate column (the model leaves them out with the zero columns),
so every part of every term is finite; a term whose parts add up past
the float64 range is -inf, with no numpy warning (_quiet).  An empty
family is answered at once, with no array, by one shared frozen record
(_EMPTY_RESULT).  A single point (a trivial kernel, or a line of one
point) is answered in Python floats: its one term, formed column by
column by model._log_poisson from the model's rates as Python floats,
is the log probability itself, with no array and no log-sum, and has
the bits the array route would give it (_point_log_term).  Every other
term is read from the model's table of Poisson log terms
(PoissonModel._term_table): a line's as one strided view per column
(_line_terms), a walked family's by one read of the table and one
gather of every column's parts; a walk with counts past the table goes
column by column through PoissonModel._column_terms, and only counts
past the table are formed by model._log_poisson, with the same bits.
One routine adds the columns' parts (_add_parts).  The terms are
combined by a max-shifted log-sum whose inner sum is math.fsum.  fsum
is correctly rounded, so the result does not depend on the order of
the terms; its cost does, through the number of partials it keeps, so
a line's window is handed over from the mode outward.  Each result
names the route that answered it (PmfResult.route).

A finite family is summed over all its points.  A line u + j v is
summed over a window around its mode instead: ln t(j) is concave in j, so the terms fall away from the mode on both sides.  The
window is sized from the curvature at the mode and widened until its
edge terms are below 2**-60 / L of the term at the mode (L the line
length), all read from the terms it sums.  The omitted mass is then
below 2**-60 of the sum; PmfResult reports a bound on it as tail_bound,
and the number of terms evaluated as summed.  The window's terms go to
the log-sum as two falling runs, from the mode up and from the mode
down, which math.fsum adds with few partials.  The cost follows the
spread of the terms around the mode, not the length of the line.

A rank-1 A whose kernel has dimension 2 or more is answered without
listing its points: every row is a multiple of one primitive row w, so
P(Y = b) is P(w X = t), which the Panjer recurrence (H. H. Panjer,
ASTIN Bulletin 12, 1981; the one-row case of Sontag & Zeilberger's
recurrence) gives in t steps of positive terms, and the coin-change
recurrence counts the points exactly.  It answers only when its n (t+1)
steps are within MAX_POINTS and its documented bound on the relative
error is at most RECURRENCE_TOL = 1e-12; otherwise the points are
walked (_recurrence).

Also evaluates the probability generating function G(z) in closed
form, and an exact pmf table over a box of observations.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import solutions
from .errors import InputError, InternalInvariantError
from .intlinalg import _int_arg
from .model import _TABLE_CAP, PoissonModel, _log_poisson
from .solutions import SolutionFamily, _real_vector, _snf_solutions, _walk_family

__all__ = [
    "PmfResult",
    "logsumexp",
    "solution_family",
    "pmf",
    "gf_eval",
    "pmf_table",
]

# probabilities may exceed 1 by accumulated rounding; anything worse
# than this is a genuine bug, not roundoff
CLAMP_TOL = 1e-12
_LOG1P_CLAMP = math.log1p(CLAMP_TOL)

NEG_INF = float("-inf")

# A line sum may omit terms of total mass below TAIL_EPS times the sum.
TAIL_EPS = 2.0 ** -60
# A line of at most this many points is summed whole, with no search
# for its mode.
FIRST_BLOCK = 256
# The most points of a line whose terms are formed in one numpy pass.
_BLOCK = 1 << 16
# numpy's sum over a contiguous row of this many entries or more is
# pairwise, not left to right (_add_parts)
_PAIRWISE = 8
# The most work pmf_table may do, in entries of box-sized array passes.
# With any column present this keeps the box to 2e7 entries.
MAX_TABLE_WORK = 40_000_000
# The rank-1 recurrence answers only while its bound on the relative
# error of prob is at most this; otherwise the lattice points are walked.
RECURRENCE_TOL = 1e-12
_EPS = 2.0 ** -53
# 55 t + 6 + the rates' total bounds 5 (t + 1) + 1 + _log_mass_floor, so
# the floor can decline the recurrence only past this room
_FLOOR_ROOM = RECURRENCE_TOL / _EPS - 6
# fdlibm's ln 2 = _LN2_HI + _LN2_LO: _LN2_HI has 32 significant bits, so
# its product with an int below 2**20 is exact
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# the recurrence's ranges: the smallest coefficient, kept values before
# a shift, and the smallest nonzero value after one
_COEF_MIN = 2.0 ** -200
_SMALL, _HUGE = 2.0 ** -300, 2.0 ** 300
_TINY = 2.0 ** -700
# _quiet's context below 2**20 counts: stateless, so one serves every call
_NO_CONTEXT = nullcontext()


@dataclass(frozen=True)
class PmfResult:
    """log_prob and prob are redundant on purpose: prob may underflow
    to 0 while log_prob stays informative.  clamped marks a prob that
    was rounded down to 1 from within CLAMP_TOL.  terms counts the
    lattice points of the solution set; summed counts the terms
    evaluated, fewer than terms when a line sum stops at its tail bound,
    and the t + 1 entries P(0..t) of the rank-1 recurrence (0 when
    there is no point) when that answers.  tail_bound bounds the
    omitted mass relative to prob (0.0 when nothing is omitted; below
    TAIL_EPS otherwise).  route names what answered: "recurrence" or
    "walk" for a kernel of dimension 2 or more on the lattice, else the
    kind of the family read off the Smith form, "empty" (b negative or
    off the lattice), "singleton" or "line"."""

    log_prob: float
    prob: float
    route: str
    terms: int
    clamped: bool = False
    summed: int = 0
    tail_bound: float = 0.0


# the answer to every query with no point: one record, as it is frozen
_EMPTY_RESULT = PmfResult(NEG_INF, 0.0, "empty", 0, False, 0, 0.0)


def _quiet(top):
    """np.errstate(over="ignore") when a point has a count of top >= 2**20
    (_TABLE_CAP), else a context that does nothing.  Below that every
    part of a log term is -rate plus at most about 1e9, so a term stays
    near -sum(rates), which preprocess keeps finite; a larger count can
    take a part or the sum of the parts past the float64 range, to -inf,
    which numpy would warn of.  The errstate costs microseconds, so it
    is entered only where it can matter."""
    return np.errstate(over="ignore") if top >= _TABLE_CAP else _NO_CONTEXT


def _point_log_term(point, rates, log_rates) -> float:
    """ln of the product term of one point, in Python floats: the bits
    the array routes give its row (_add_parts).

    point holds one count per column (Python ints), rates and log_rates
    one float per column.  Each column's part is model._log_poisson of
    one count.  Fewer than _PAIRWISE parts are added left to right, as
    numpy adds such a row, and more by numpy's sum of the 1-D row, in
    the pairwise order of a row-major row.  A part is never -0.0, so
    starting from 0.0 changes no bit, and no parts give 0.0.
    """
    parts = list(map(_log_poisson, point, rates, log_rates))
    if len(parts) >= _PAIRWISE:
        with _quiet(max(point)):
            return float(np.add.reduce(parts))
    lp = 0.0
    for x in parts:
        lp += x
    return lp


def _add_parts(parts, count: int) -> np.ndarray:
    """The terms of count points from their parts, one per column (an
    array of count entries, or a scalar; a list of them, or the rows of
    an array): the one routine that adds the parts of a line block and
    of a walk.  Fewer than _PAIRWISE parts are
    added left to right, more stacked row-major and summed by numpy's
    pairwise row sum, as numpy adds a row of lattice points; the
    one-point route keeps that order too.  Each part is formed before
    the parts are added, so k ln l - l and ln k! cancel while their
    magnitudes are close (exactly, near the mode), not after rounding
    at the size of their sum over the columns."""
    if len(parts) < _PAIRWISE:
        t = parts[0] + parts[1]
        for p in parts[2:]:
            t += p
        return t
    rows = np.empty((count, len(parts)))
    for i, p in enumerate(parts):
        rows[:, i] = p
    return rows.sum(axis=1)


def _line_terms(fam: SolutionFamily, model: PoissonModel, lo: int, hi: int) -> np.ndarray:
    """ln t(j) for the points j = lo..hi of a line, read from the model's
    table of Poisson log terms (PoissonModel._term_table).

    Column i's counts are s + v j' for j' = 0..hi - lo, with s = u_i +
    lo v_i and v = v_i.  Where the table holds them, its part is the
    strided view T[i, s::v] of hi - lo + 1 entries, forward or reversed,
    or the scalar T[i, s] when v = 0.  Where it does not, the part is
    _log_poisson of the float64 counts float(s) + float(v) arange.  The
    parts are added by _add_parts.  A term whose parts add up past the
    float64 range is -inf, with no warning (_quiet); InputError when a
    count passes the float64 range.
    """
    count = hi - lo + 1
    starts = [u + lo * v for u, v in zip(fam.base, fam.direction)]
    # the largest count of each column
    tops = [s + (count - 1) * v if v > 0 else s for s, v in zip(starts, fam.direction)]
    need = max(tops)
    table = model._term_table(need, count * len(starts))
    size = table.shape[1]
    with _quiet(need):
        parts = []
        for i, (s, v, top) in enumerate(zip(starts, fam.direction, tops)):
            if top < size:
                if v:
                    # one past the last count; below 0, the view runs to count 0
                    stop = s + count * v
                    parts.append(table[i, s:stop if stop >= 0 else None:v])
                else:
                    parts.append(table[i, s])
                continue
            try:
                k = float(s) + float(v) * np.arange(count, dtype=np.float64)
            except OverflowError:
                raise InputError("solution counts exceed the float64 range") from None
            parts.append(_log_poisson(k, model.rates[i], model.term_constants[i]))
        return _add_parts(parts, count)


def logsumexp(terms) -> float:
    """ln sum_i exp(t_i) for a list or 1-D array, max-shifted.

    The shifted exponentials are added by math.fsum, read through a
    memoryview of their array (no list copy); fsum is correctly
    rounded, so the result does not depend on input order.  A term of
    +inf gives +inf; a NaN term, an input that is not 1-D and an entry
    that is not a real number (a bool or a string included) are an
    InputError.
    """
    t = np.asarray(terms)
    if t.ndim != 1 or t.dtype.kind not in "fiu":
        raise InputError("logsumexp needs a 1-D list or array of real terms")
    if t.size == 0:
        return NEG_INF
    t = t.astype(np.float64, copy=False)
    hi = float(t.max())
    if math.isnan(hi):
        raise InputError("logsumexp got a NaN term")
    if math.isinf(hi):
        return hi
    return hi + math.log(math.fsum(memoryview(np.exp(t - hi))))


def _lattice_family(model: PoissonModel, b) -> tuple[list[int] | None,
                                                    SolutionFamily | list[int] | None]:
    """The query step of pmf and solution_family: the model and b checked
    (PoissonModel._check and _observation), then the lattice test of the
    model's query plan (PoissonModel._query_plan, read off its SNF once).

    Returns b as a list of ints and its solutions, read off that plan
    (solutions._snf_solutions): a single point as a list of ints, else
    its family, or None when the kernel of A has dimension 2 or more and
    b is on the lattice, which is then to be walked (or, in pmf,
    answered by the recurrence).  A negative entry of b gives
    (None, the empty family).  _walk_family and _recurrence trust these
    checks.
    """
    PoissonModel._check(model)
    b = model._observation(b)
    if min(b) < 0:
        return None, SolutionFamily.empty()
    return b, _snf_solutions(model._query_plan, b)


def solution_family(model: PoissonModel, b) -> SolutionFamily:
    """Solution set of A k = b, read off the model's SNF; on the
    lattice, a kernel of dimension 2 or more is walked over its free
    coordinates."""
    b, sol = _lattice_family(model, b)
    if sol is None:
        return _walk_family(model._query_plan.walk, b)
    return SolutionFamily.singleton(sol) if isinstance(sol, list) else sol


def _result(lp: float, route: str, terms: int, summed: int, tail: float = 0.0) -> PmfResult:
    """The result for log_prob lp, with prob clamped to 1 from within
    CLAMP_TOL.  lp is tested before exp is taken, which would overflow
    for a large lp."""
    if lp > _LOG1P_CLAMP:
        raise InternalInvariantError(f"log probability {lp!r} exceeds ln(1 + CLAMP_TOL)")
    prob = math.exp(lp)
    return PmfResult(lp, min(prob, 1.0), route, terms, prob > 1.0, summed, tail)


def _summed(log_terms, route: str, terms: int | None = None, tail_logs=()) -> PmfResult:
    """The result from the summed log terms; terms defaults to their
    number, and tail_logs are ln of bounds on the omitted mass."""
    lp = logsumexp(log_terms)
    summed = len(log_terms)
    tail = math.fsum(math.exp(x - lp) for x in tail_logs) if tail_logs else 0.0
    return _result(lp, route, summed if terms is None else terms, summed, tail)


def _count_points(w, t: int) -> int:
    """The number of k in N^n with w k = t, in Python ints: the
    coin-change recurrence, one pass per column, each a running sum
    along every residue class modulo w_j."""
    c = [1] + [0] * t
    for wj in w:
        for r in range(min(wj, t + 1)):
            c[r::wj] = accumulate(c[r::wj])
    return c[t]


def _has_point(w, t: int) -> bool:
    """Whether some k in N^n has w k = t, for weights w >= 1: the sums
    0..t that the columns reach, as the bits of one Python int, each
    column added by shifts of w_j, 2 w_j, 4 w_j, ... up to t."""
    mask = (2 << t) - 1
    reach = 1
    for wj in w:
        while wj <= t:
            reach |= (reach << wj) & mask
            wj <<= 1
    return bool(reach >> t)


def _shift_window(u: list, lo: int, hi: int) -> int | None:
    """Scale u[lo:hi] by 2**-e so that its largest value lies in
    [1/2, 1) and return e, or None, leaving u as it is, when a nonzero
    value would fall below _TINY."""
    e = math.frexp(max(u[lo:hi]))[1]
    window = [math.ldexp(x, -e) for x in u[lo:hi]]
    if min([x for x in window if x]) < _TINY:
        return None
    u[lo:hi] = window
    return e


def _log_mass_floor(w, neg_rates, t: int) -> float:
    """A lower bound on -ln P(w X = t), X_j ~ Poisson(-neg_rates[j]) and
    t >= 1, less a margin for its rounding; 0.0 when none is found.

    A column with w_j > t must draw 0, a factor exp(-l_j).  The sum S of
    the others meets t with P(S = t) <= E[exp(s theta S)] exp(-s theta t)
    = exp(sum_j l_j (e^(s theta w_j) - 1) - s theta t) for any theta >= 0,
    s = 1 when t is at least their mean mu and -1 below it (Chernoff).
    theta is |ln(t / mu)| / w', w' = sum l_j w_j^2 / mu the size-biased
    mean weight (the best theta when every weight is w'), kept below
    50 / max w_j, so the floor is at most 50 t plus the rates' total.
    The margin, 1e-6 plus 1e-9 times the sum of the terms' magnitudes,
    exceeds their rounding many times over."""
    lam, wt, skipped = [], [], 0.0
    for x, nl in zip(w, neg_rates):
        if x > t:
            skipped -= nl
        else:
            lam.append(-nl)
            wt.append(x)
    mean = sum(l * x for l, x in zip(lam, wt))
    if not mean:
        return 0.0
    s = 1.0 if t >= mean else -1.0
    theta = min(abs(math.log(t / mean)) * mean / sum(l * x * x for l, x in zip(lam, wt)),
                50.0 / max(wt))
    terms = [l * math.expm1(s * theta * x) for l, x in zip(lam, wt)] + [-s * theta * t]
    margin = 1e-6 + 1e-9 * (sum(map(abs, terms)) + skipped)
    return max(0.0, skipped - sum(terms) - margin)


def _recurrence(plan: solutions._QueryPlan, b: list[int]) -> PmfResult | None:
    """P(Y = b) for a rank-1 A whose kernel has dimension 2 or more, by
    the Panjer recurrence; None when the route declines the query.

    b is checked and on the lattice (_lattice_family); None at once
    when plan, the model's query plan, has no primitive row w.  Every
    row is g_i w, so A k = b is w k = t with t = b[row] / g.
    Y' = w X has the generating function exp(sum_j l_j (z^w_j - 1)),
    whose derivative gives s P(s) = sum_j w_j l_j P(s - w_j) for
    s = 1..t, a sum of terms >= 0.  Columns of one weight share one
    coefficient.  The values u(s) = P(s) e^(sum l) are kept as floats
    times a common power of two: when a new value leaves
    [2**-300, 2**300], the last top values (top the largest weight up
    to t) are shifted so their largest lies in [1/2, 1).  The shifts
    are exact, and no product or quotient leaves the normal range while
    every coefficient lies in [2**-200, 2**212] (the rates total at
    most 2**200, and no weight past 2**12 is used), every kept value is
    0 or at least 2**-700 and t < 2**11.  Each step then rounds five
    times (two for the coefficient, the product, math.fsum and the
    division), and the recursion is at most t deep, so u(t) is within
    about 5 t 2**-53 relative.  log_prob is the correctly rounded
    math.fsum of ln u(t), the shift times fdlibm's two-part ln 2 and the
    negated rates, so it is within
        bound = 2**-53 (5 (t + 1) + 2 |ln u(t)| + |log_prob| + 1) + |shift| 2**-80
    of ln P(Y = b), the last term from the split of ln 2; prob is
    within about bound relative, plus the rounding of exp.

    The route declines, and pmf walks the lattice points instead, when
    5 (t + 1) 2**-53 or the bound exceeds RECURRENCE_TOL, when its
    n (t + 1) steps exceed MAX_POINTS, or when a coefficient or a kept
    value leaves the ranges above.  Since |log_prob| >= -ln P(w X = t)
    less the recurrence's error, the bound is known to exceed
    RECURRENCE_TOL before any step when 2**-53 (5 (t + 1) + 1 + F) does,
    F the rounded-down Chernoff floor of _log_mass_floor, and the route
    then declines at once if the query has a point (_has_point).  Its
    cost is t steps of one term per
    distinct weight, however few points the walk would visit, and t is
    at most about 1,800.  terms is the exact number of lattice points,
    counted by _count_points; summed is the t + 1 entries computed, or
    0 when there are no points.
    """
    if plan.w is None:
        return None
    t = b[plan.row] // plan.g
    if len(plan.w) * (t + 1) > solutions.MAX_POINTS or 5 * (t + 1) * _EPS > RECURRENCE_TOL:
        return None
    # with no point the route answers the empty result, as it did after
    # its steps
    if (t and 55 * t + plan.rate_total > _FLOOR_ROOM
            and _EPS * (5 * (t + 1) + 1 + _log_mass_floor(plan.w, plan.neg_rates, t))
            > RECURRENCE_TOL and _has_point(plan.w, t)):
        return None
    steps = [(wt, c) for wt, c in plan.steps if wt <= t]
    if any(c < _COEF_MIN for _, c in steps):
        return None
    count = _count_points(plan.w, t)
    if count == 0:
        return _result(NEG_INF, "recurrence", 0, 0)
    # u[top + s] = u(s) / 2**shift; the first top entries pad s < 0.
    # With a point, steps is empty only at t = 0, which has no step.
    top = steps[-1][0] if steps else 0
    u = [0.0] * top + [1.0] + [0.0] * t
    shift = 0
    for s in range(1, t + 1):
        at = top + s
        v = u[at] = math.fsum([c * u[at - wt] for wt, c in steps]) / s
        if v > _HUGE or 0.0 < v < _SMALL:
            e = _shift_window(u, at - top + 1, at + 1)
            if e is None:
                return None
            shift += e
    ln_u = math.log(u[top + t])
    lp = math.fsum([ln_u, shift * _LN2_HI, shift * _LN2_LO] + plan.neg_rates)
    bound = _EPS * (5 * (t + 1) + 2 * abs(ln_u) + abs(lp) + 1) + abs(shift) * 2.0 ** -80
    if abs(shift) >= 1 << 20 or bound > RECURRENCE_TOL:
        return None
    return _result(lp, "recurrence", count, t + 1)


def _line_sum(fam: SolutionFamily, model: PoissonModel) -> PmfResult:
    """P(Y = b) over a line: evaluate a window around the mode of the
    terms t(j), then certify it on the terms it sums.

    A line [a, b] of at most FIRST_BLOCK points is summed whole.
    Otherwise the mode is found by bisection on the sign of an estimate
    of ln t(j+1) - ln t(j) from float ratios.  curv = sum v**2 / (k + 1)
    over the moving columns at the mode is below the curvature of ln t
    there (psi'(k+1) > 1/(k+1)), so ln t falls by D = ln(L / TAIL_EPS),
    L the line length, about w = sqrt(2 D / curv) points out.  The terms
    of [mode - r, mode + r], r = ceil(1.1 w) + 4, are formed in blocks
    of at most min(_BLOCK, MAX_POINTS) points; a side whose edge term is
    still at or above thr = ln t(mode) - D doubles its reach until it is
    below or the span ends.  ln t(j) is concave in j, so every term
    beyond an edge is below the edge term, whatever the accuracy of the
    mode: the mass omitted is under L t_edge < TAIL_EPS S.  InputError
    when w, or the reach of one side, exceeds MAX_POINTS.

    The tail bounds are read off the edge terms, and the window's terms
    are then handed to logsumexp from the mode outward: [mode..hi], then
    [lo..mode-1] reversed, built by the one np.concatenate of the
    blocks.  These are two falling runs, on which math.fsum keeps few
    partials, so it runs several times faster than in the order of j;
    its correctly rounded sum, and so every field of the result, is the
    same in any order.
    """
    a, b = fam.jmin, fam.jmax
    step = min(_BLOCK, solutions.MAX_POINTS)

    def blocks(lo, hi):
        return [_line_terms(fam, model, j, min(j + step - 1, hi)) for j in range(lo, hi + 1, step)]

    if b - a < FIRST_BLOCK:
        parts = blocks(a, b)
        t = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return _summed(t, "line", terms=fam.count)
    moving = [(u, v, (v + 1) / 2, r) for u, v, r in zip(fam.base, fam.direction,
                                                        model._rate_lists[0]) if v]

    def rise(j):
        # ln t(j+1) - ln t(j), each moving column's |v| factors of k!
        # between k(j) and k(j+1) taken at their midpoint k(j) + (v+1)/2:
        # exact for |v| = 1, strictly falling in j, no cancellation at
        # large counts
        return sum([v * math.log(r / (u + j * v + h)) for u, v, h, r in moving])

    try:
        lo, hi = a, b
        while lo < hi:
            mid = (lo + hi) // 2
            if rise(mid) > 0.0:
                lo = mid + 1
            else:
                hi = mid
        mode = lo
        curv = sum([v * v / (u + mode * v + 1) for u, v, _, _ in moving])
    except OverflowError:
        raise InputError("solution counts exceed the float64 range") from None
    depth = math.log(fam.count / TAIL_EPS)
    w = math.sqrt(2.0 * depth / curv) if curv > 0.0 else math.inf
    cap = solutions.MAX_POINTS
    too_wide = (f"the terms above the tail threshold on one side of the line's mode "
                f"exceed the cap of MAX_POINTS = {cap} lattice points")
    if w > cap:
        raise InputError(too_wide)
    r = math.ceil(1.1 * w) + 4
    lo, hi = max(a, mode - r), min(b, mode + r)
    parts = blocks(lo, hi)
    # the mode is entry at of block mb
    mb, at = divmod(mode - lo, step)
    thr = float(parts[mb][at]) - depth
    while lo > a and parts[0][0] >= thr:
        reach = min(2 * (mode - lo), mode - a)
        if reach > cap:
            raise InputError(too_wide)
        more = blocks(mode - reach, lo - 1)
        parts[:0] = more
        mb += len(more)
        lo = mode - reach
    while hi < b and parts[-1][-1] >= thr:
        reach = min(2 * (hi - mode), b - mode)
        if reach > cap:
            raise InputError(too_wide)
        parts += blocks(hi + 1, mode + reach)
        hi = mode + reach
    # every term beyond an edge is below the edge term
    tail_logs = []
    if lo > a:
        tail_logs.append(math.log(lo - a) + float(parts[0][0]))
    if hi < b:
        tail_logs.append(math.log(b - hi) + float(parts[-1][-1]))
    # from the mode outward, [mode..hi] then [lo..mode-1] reversed
    t = np.concatenate([parts[mb][at:], *parts[mb + 1:], parts[mb][:at][::-1],
                        *[p[::-1] for p in reversed(parts[:mb])]])
    return _summed(t, "line", terms=fam.count, tail_logs=tail_logs)


def pmf(model: PoissonModel, b) -> PmfResult:
    """P(Y = b) over the solution family of A k = b.

    Negative entries, a violated dependent-row relation or a b off the
    lattice A Z^n give probability 0 (a valid query, not an error).
    After the query step it shares with solution_family
    (_lattice_family), a rank-1 A whose kernel has dimension 2 or more
    is answered by the recurrence (_recurrence) when its step cap and
    error bound allow, and otherwise walked; a single point's one term
    is the answer (_point_log_term), a line is summed over a certified
    window around its mode (_line_sum), and every other family over
    all its points.  The result's route names which of these answered
    this b (PmfResult).
    """
    b, fam = _lattice_family(model, b)
    if isinstance(fam, list):
        # one point, the whole sum: the log-sum of one term is that term
        lp = _point_log_term(fam, *model._rate_lists)
        return _result(lp, "singleton", 1, 1)
    route = "walk" if fam is None else fam.kind
    if route == "empty":
        return _EMPTY_RESULT
    if fam is None:
        res = _recurrence(model._query_plan, b)
        if res is not None:
            return res
        fam = _walk_family(model._query_plan.walk, b)
    if route == "line":
        return _line_sum(fam, model)
    # every column has an entry >= 1, so no walked count exceeds max(b)
    top, pts = max(b), fam.array
    table = model._term_table(top, pts.size)
    with _quiet(top):
        if top < table.shape[1]:
            # one gather of every point's parts: row j of the transpose is
            # column j's, read at the counts pts[:, j]
            parts = table[np.arange(pts.shape[1]), pts.astype(np.intp, copy=False)].T
        else:
            parts = [model._column_terms(i, k, top, pts.size) for i, k in enumerate(pts.T)]
        return _summed(_add_parts(parts, len(pts)), route)


def gf_eval(model: PoissonModel, z) -> float:
    """Generating function G(z) = E[prod_i z_i^{Y_i}] in closed form.

    G(z) = exp(sum_j l_j (prod_i z_i^{a_ij} - 1)).  Each column's term
    is formed as l_j expm1(sum_i a_ij ln z_i) and the terms are added by
    math.fsum, so prod - 1 does not cancel near z = 1 at large rates.  A
    z_i = 0 with a_ij > 0 makes the term -l_j; a zero exponent gives
    0^0 = 1.  An exponent past 2**63 is capped there, which keeps every
    term: 2**63 ln z_i is at most about -1024 for z_i < 1, where expm1
    is already -1.0, and 0 at z_i = 1.  z is a vector of m reals in
    [0, 1] (solutions._real_vector: a bool, string or complex is refused).
    The sum runs over the reduced system, model.a and model.rates: a
    column the model leaves out has the term 0.0 or -0.0 (a zero column
    or rate), which leaves the fsum unchanged.
    """
    PoissonModel._check(model)
    z = _real_vector(z, "z", 1.0, model.m_full)
    ln_z = [math.log(x) if x > 0.0 else NEG_INF for x in z.tolist()]
    rows = model.a.tolist()
    terms = []
    for j, r in enumerate(model.rates.tolist()):
        s = math.fsum([min(row[j], 1 << 63) * lz for row, lz in zip(rows, ln_z) if row[j]])
        terms.append(r * math.expm1(s))
    return math.exp(math.fsum(terms))


def pmf_table(model: PoissonModel, degree_bound: int) -> np.ndarray:
    """Exact table of P(Y = b) for every b in the box [0, B]^m.

    Built by convolving one Poisson variable at a time along its column
    of the reduced matrix.  Columns are nonnegative, so partial sums of
    any solution never leave the box: each entry equals pmf(b) up to
    float rounding, not just a truncation of it.  A column adds
    t_max + 1 shifted copies of the box, t_max = min_i floor(B / a_ij)
    over its positive entries, so the work is counted as
    (1 + sum_j (t_max_j + 1)) (B+1)^m; InputError when it exceeds
    MAX_TABLE_WORK, and when degree_bound is not an int >= 0 by the
    integer rule (intlinalg._int_arg: a float, a string or a bool is
    refused, not truncated, parsed or read as 1).
    """
    PoissonModel._check(model)
    B = _int_arg(degree_bound, "degree bound", u64=False)
    m = model.m_full
    cols = [[int(x) for x in model.a[:, j]] for j in range(model.n)]
    tmax = [min(B // c for c in col if c > 0) for col in cols]
    if (1 + sum(tmax) + len(tmax)) * (B + 1) ** m > MAX_TABLE_WORK:
        raise InputError(f"pmf table of shape {(B + 1,) * m} over {model.n} columns exceeds "
                         f"the work cap of MAX_TABLE_WORK = {MAX_TABLE_WORK:.0e}")
    # each column carries its own e^-lambda factor: one exp(-sum lambda)
    # up front would underflow to 0 once the rates add up past ~745
    table = np.zeros((B + 1,) * m)
    table[(0,) * m] = 1.0
    for j, (col, top) in enumerate(zip(cols, tmax)):
        # ln of the weights t ln lambda - lambda - ln t!, t = 0..top
        logw = _log_poisson(np.arange(top + 1.0), model.rates[j], model.term_constants[j])
        nxt = np.zeros_like(table)
        for t, lw in enumerate(logw.tolist()):
            tgt = tuple(slice(t * c, B + 1) for c in col)
            src = tuple(slice(0, B + 1 - t * c) for c in col)
            nxt[tgt] += math.exp(lw) * table[src]
        table = nxt
    return table
