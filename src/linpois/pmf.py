"""Probability evaluation for Y = A X.

P(Y = b) is a sum of independent-Poisson product terms over the
solution set of A k = b.  pmf and solution_family share one query step
(_lattice_family): b is checked, and the Smith normal form decides
whether b is on the lattice and reads off a singleton or a line.  When
the kernel of A has dimension 2 or more, solution_family walks the free
coordinates of the model's cached walk plan (_walk_family), which lists
the points without checking b again; pmf first tries the rank-1
recurrence below, and walks only when it declines.  The model's reduced
system has no zero-rate column (preprocess removes them with the zero
columns), so every term of every point is finite.  Log terms are
formed in numpy passes over arrays of lattice points, never over
tuples, and combined by a max-shifted log-sum whose inner sum is
math.fsum.  fsum is correctly rounded, so the result does not depend
on the order of the terms.  Each result names the route that answered
it (PmfResult.route).

A singleton or finite family is summed over all its points.  A line
u + j v is summed over a window around its mode instead: ln t(j) is
concave in j, so the terms fall away from the mode on both sides.  The
window is sized from the curvature at the mode and widened until its
edge terms are below 2**-60 / L of the term at the mode (L the line
length), all read from the terms it sums.  The omitted mass is then
below 2**-60 of the sum; PmfResult reports a bound on it as tail_bound,
and the number of terms evaluated as summed.  The cost follows the
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

Also evaluates the probability generating function G(z) both in closed
form and as a truncated series, the latter backed by an exact pmf table
over a box of observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import solutions
from .errors import InputError, InternalInvariantError
from .intlinalg import _int_arg
from .model import PoissonModel, _log_poisson
from .solutions import SolutionFamily, _real_vector, _snf_family, _walk_family

__all__ = [
    "PmfResult",
    "logsumexp",
    "solution_family",
    "pmf",
    "gf_eval",
    "gf_eval_series",
    "pmf_table",
]

# probabilities may exceed 1 by accumulated rounding; anything worse
# than this is a genuine bug, not roundoff
CLAMP_TOL = 1e-12

NEG_INF = float("-inf")

# A line sum may omit terms of total mass below TAIL_EPS times the sum.
TAIL_EPS = 2.0 ** -60
# A line of at most this many points is summed whole, with no search
# for its mode.
FIRST_BLOCK = 256
# The most points of a line whose terms are formed in one numpy pass.
_BLOCK = 1 << 16
# The most work pmf_table may do, in entries of box-sized array passes.
# With any column present this keeps the box to 2e7 entries.
MAX_TABLE_WORK = 40_000_000
# The rank-1 recurrence answers only while its bound on the relative
# error of prob is at most this; otherwise the lattice points are walked.
RECURRENCE_TOL = 1e-12
_EPS = 2.0 ** -53
# fdlibm's ln 2 = _LN2_HI + _LN2_LO: _LN2_HI has 32 significant bits, so
# its product with an int below 2**20 is exact
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10
# the recurrence's ranges: the smallest coefficient, kept values before
# a shift, and the smallest nonzero value after one
_COEF_MIN = 2.0 ** -200
_SMALL, _HUGE = 2.0 ** -300, 2.0 ** 300
_TINY = 2.0 ** -700


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


def _log_terms(points: np.ndarray, rates: np.ndarray, log_rates: np.ndarray) -> np.ndarray:
    """ln of every product term, one per row of points.

    Row k gives sum_i [k_i ln l_i - l_i - ln k_i!] for rates l_i > 0;
    log_rates comes from rate_constants.  Each column's part is
    model._log_poisson, the one routine that forms the Poisson log term
    (the PTRS sampler's accept test calls it too), so ROADMAP item 1's
    cancellation-free form changes that routine alone.  Each part is
    formed before the parts are added, so k ln l - l and ln k! cancel
    while their magnitudes are close (exactly, near the mode), not
    after rounding at the size of their sum over the columns.
    """
    if points.shape[0] == 0:
        return np.empty(0)
    return _log_poisson(points, rates, log_rates).sum(axis=1)


def logsumexp(terms) -> float:
    """ln sum_i exp(t_i) for a list or 1-D array, max-shifted.

    The shifted exponentials are added by math.fsum, which is correctly
    rounded, so the result does not depend on input order.
    """
    t = np.asarray(terms, dtype=np.float64)
    if t.size == 0:
        return NEG_INF
    hi = float(t.max())
    if hi == NEG_INF:
        return NEG_INF
    return hi + math.log(math.fsum(np.exp(t - hi).tolist()))


def _lattice_family(model: PoissonModel, b) -> tuple[list[int] | None, SolutionFamily | None]:
    """The query step of pmf and solution_family: b checked
    (PoissonModel._observation), then the SNF lattice test.

    Returns b as a list of ints and its solution family, read off the
    model's SNF; the family is None when the kernel of A has dimension
    2 or more and b is on the lattice, which is then to be walked (or,
    in pmf, answered by the recurrence).  A negative entry of b gives
    (None, the empty family).  _walk_family and _recurrence trust these
    checks.
    """
    b = model._observation(b)
    if any(x < 0 for x in b):
        return None, SolutionFamily.empty()
    return b, _snf_family(model.snf, b)


def solution_family(model: PoissonModel, b) -> SolutionFamily:
    """Solution set of A k = b, read off the model's SNF; on the
    lattice, a kernel of dimension 2 or more is walked over its free
    coordinates."""
    b, fam = _lattice_family(model, b)
    return _walk_family(model._walk_plan, b) if fam is None else fam


def _result(lp: float, route: str, terms: int, summed: int, tail: float = 0.0) -> PmfResult:
    """The result for log_prob lp, with prob clamped to 1 from within
    CLAMP_TOL.  lp is tested before exp is taken, which would overflow
    for a large lp."""
    if lp > math.log1p(CLAMP_TOL):
        raise InternalInvariantError(f"log probability {lp!r} exceeds ln(1 + CLAMP_TOL)")
    prob = math.exp(lp)
    return PmfResult(log_prob=lp, prob=min(prob, 1.0), route=route, terms=terms,
                     clamped=prob > 1.0, summed=summed, tail_bound=tail)


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
        if wj == 1:
            c = list(accumulate(c))
            continue
        for r in range(min(wj, t + 1)):
            c[r::wj] = accumulate(c[r::wj])
    return c[t]


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


def _recurrence(model: PoissonModel, b: list[int]) -> PmfResult | None:
    """P(Y = b) for a rank-1 A whose kernel has dimension 2 or more, by
    the Panjer recurrence; None when the route declines the query.

    b is checked and on the lattice (_lattice_family); None at once
    when the model has no row plan (model._row_plan).  Every row is g_i w
    (solutions._RowPlan), so A k = b is w k = t with t = b[row] / g.
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
    value leaves the ranges above.  Its cost is t steps of one term per
    distinct weight, however few points the walk would visit, and t is
    at most about 1,800.  terms is the exact number of lattice points,
    counted by _count_points; summed is the t + 1 entries computed, or
    0 when there are no points.
    """
    plan = model._row_plan
    if plan is None:
        return None
    t = b[plan.row] // plan.g
    if len(plan.w) * (t + 1) > solutions.MAX_POINTS or 5 * (t + 1) * _EPS > RECURRENCE_TOL:
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
    """
    a, b = fam.jmin, fam.jmax
    step = min(_BLOCK, solutions.MAX_POINTS)

    def blocks(lo, hi):
        return [_log_terms(fam.points(j, min(j + step - 1, hi)), model.rates,
                           model.term_constants) for j in range(lo, hi + 1, step)]

    if b - a < FIRST_BLOCK:
        return _summed(np.concatenate(blocks(a, b)), "line", terms=fam.count)
    moving = [(u, v, (v + 1) / 2, r) for u, v, r in zip(fam.base, fam.direction,
                                                        model.rates.tolist()) if v]

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
    thr = float(parts[(mode - lo) // step][(mode - lo) % step]) - depth
    while lo > a and parts[0][0] >= thr:
        reach = min(2 * (mode - lo), mode - a)
        if reach > cap:
            raise InputError(too_wide)
        parts[:0] = blocks(mode - reach, lo - 1)
        lo = mode - reach
    while hi < b and parts[-1][-1] >= thr:
        reach = min(2 * (hi - mode), b - mode)
        if reach > cap:
            raise InputError(too_wide)
        parts += blocks(hi + 1, mode + reach)
        hi = mode + reach
    t = np.concatenate(parts)
    # every term beyond an edge is below the edge term
    tail_logs = []
    if lo > a:
        tail_logs.append(math.log(lo - a) + float(t[0]))
    if hi < b:
        tail_logs.append(math.log(b - hi) + float(t[-1]))
    return _summed(t, "line", terms=fam.count, tail_logs=tail_logs)


def pmf(model: PoissonModel, b) -> PmfResult:
    """P(Y = b) over the solution family of A k = b.

    Negative entries, a violated dependent-row relation or a b off the
    lattice A Z^n give probability 0 (a valid query, not an error).
    After the query step it shares with solution_family
    (_lattice_family), a rank-1 A whose kernel has dimension 2 or more
    is answered by the recurrence (_recurrence) when its step cap and
    error bound allow, and otherwise walked; a line is summed over a
    certified window around its mode (_line_sum), and every other
    family over all its points.  The result's route names which of
    these answered this b (PmfResult).
    """
    b, fam = _lattice_family(model, b)
    route = "walk" if fam is None else fam.kind
    if fam is None:
        res = _recurrence(model, b)
        if res is not None:
            return res
        fam = _walk_family(model._walk_plan, b)
    if route == "line":
        return _line_sum(fam, model)
    return _summed(_log_terms(fam.points(), model.rates, model.term_constants), route)


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
    """
    z = _real_vector(z, "z", 1.0, model.m_full)
    ln_z = [math.log(x) if x > 0.0 else NEG_INF for x in z.tolist()]
    rows = model.a_full.tolist()
    terms = []
    for j, r in enumerate(model.rates_full.tolist()):
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


def gf_eval_series(model: PoissonModel, z, degree_bound: int = 40) -> float:
    """Truncated series sum_{b in [0,B]^m} P(Y=b) z^b, for cross-checks
    against gf_eval; the omitted tail is nonnegative.  InputError, as in
    pmf_table, for a degree_bound that is not an int >= 0."""
    z = _real_vector(z, "z", 1.0, model.m_full)
    out = pmf_table(model, degree_bound)
    # B + 1 powers per axis, B the bound pmf_table validated
    powers = np.arange(out.shape[0])
    for zi in z:
        out = np.tensordot(zi ** powers, out, axes=(0, 0))
    return float(out)
