"""Probability evaluation for Y = A X.

P(Y = b) is a sum of independent-Poisson product terms over the
solution set of A k = b.  The solution set comes from the lattice layer,
by one route that the query alone decides: read off the Smith normal
form as a singleton or a line, or, when the kernel of A has dimension 2
or more and b is on the lattice, walked over the free coordinates of
the model's cached WalkPlan.  Log terms are formed in numpy passes over
arrays of lattice points, never over tuples, and combined by a
max-shifted log-sum whose inner sum is math.fsum.  fsum is correctly
rounded, so the result does not depend on the order of the terms.

A singleton or finite family is summed over all its points.  A line
u + j v is summed over a window around its mode instead: ln t(j) is
concave in j, so the terms fall away from the mode on both sides, and
the window stops where they drop below 2**-60 / L of the largest (L
the line length).  The omitted mass is then below 2**-60 of the sum;
PmfResult reports a bound on it as tail_bound, and the number of terms
evaluated as summed.  The cost follows the spread of the terms around
the mode, not the length of the line.

Also evaluates the probability generating function G(z) both in closed
form and as a truncated series, the latter backed by an exact pmf table
over a box of observations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import solutions
from .errors import InputError, InternalInvariantError
from .intlinalg import int_vector
from .model import PoissonModel, rate_constants
from .solutions import MethodTag, SolutionFamily, snf_family, walk_family

__all__ = [
    "PmfResult",
    "log_term",
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
# A line of at most this many points is summed whole; on a longer one
# the window search starts half this many points either side of the mode.
FIRST_BLOCK = 256
# The most points of a line whose terms are formed in one numpy pass.
_BLOCK = 1 << 16
# Products of more factors than this fall back to lgamma in _log_rising.
_RISING_TERMS = 64


@dataclass(frozen=True)
class PmfResult:
    """log_prob and prob are redundant on purpose: prob may underflow
    to 0 while log_prob stays informative.  clamped marks a prob that
    was rounded down to 1 from within CLAMP_TOL.  terms counts the
    lattice points of the solution set; summed counts the terms
    evaluated, fewer than terms when a line sum stops at its tail bound.
    tail_bound bounds the omitted mass relative to prob (0.0 when
    nothing is omitted; below TAIL_EPS otherwise)."""

    log_prob: float
    prob: float
    method: MethodTag
    terms: int
    clamped: bool = False
    summed: int = 0
    tail_bound: float = 0.0


def _log_terms(points: np.ndarray, rates: np.ndarray, log_rates: np.ndarray,
               dead: np.ndarray | None) -> np.ndarray:
    """ln of every product term, one per row of points.

    Row k gives sum_i [k_i ln l_i - l_i - ln k_i!]; log_rates and dead
    come from rate_constants.  A zero-rate column adds nothing at
    k_i = 0 (convention 0 ln 0 = 0) and makes the term -inf at k_i > 0.
    Log-gamma keeps large counts finite.  Each column's part is formed
    before the parts are added, so k ln l - l and ln k! cancel while
    their magnitudes are close (exactly, near the mode), not after
    rounding at the size of their sum over the columns.
    """
    if points.shape[0] == 0:
        return np.empty(0)
    top = float(points.max()) if points.size else 0.0
    if top + 1.0 <= points.size:
        # small counts: one lgamma call per distinct value, not per entry
        table = np.fromiter(map(math.lgamma, memoryview(np.arange(1.0, top + 2.0))),
                            dtype=np.float64, count=int(top) + 1)
        lgam = table[points.astype(np.intp)]
    else:
        lgam = np.fromiter(map(math.lgamma, memoryview((points + 1.0).ravel())),
                           dtype=np.float64, count=points.size).reshape(points.shape)
    out = (points * log_rates - rates - lgam).sum(axis=1)
    if dead is not None:
        # counts are >= 0, so a positive sum means a positive count
        out[points @ dead > 0.0] = NEG_INF
    return out


def log_term(k, rates) -> float:
    """ln of one product term: sum_i [k_i ln l_i - l_i - ln k_i!].

    Convention 0*ln 0 = 0, so a zero-rate coordinate with k_i = 0
    contributes nothing; k_i > 0 there makes the whole term -inf.
    """
    try:
        counts = [operator.index(x) for x in k]
    except TypeError:
        raise InputError("counts must be integers") from None
    try:
        lam = np.asarray(rates, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"rates are not numeric: {exc}") from None
    if lam.ndim != 1 or len(counts) != lam.shape[0]:
        raise InputError(f"count vector length {len(counts)} != rate vector length {lam.size}")
    if any(x < 0 for x in counts):
        raise InputError("counts must be >= 0")
    if not np.all(np.isfinite(lam)) or np.any(lam < 0):
        raise InputError("rates must be finite and >= 0")
    point = SolutionFamily.finite([counts]).points()
    return float(_log_terms(point, lam, *rate_constants(lam))[0])


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


def _check_observation(model: PoissonModel, b) -> list[int] | None:
    """Validated b as a list of ints, or None if a negative entry makes
    P(Y=b) = 0."""
    b = int_vector(b)
    if b.shape[0] != model.m_full:
        raise InputError(f"observation length {b.shape[0]} != row count {model.m_full}")
    b = b.tolist()
    return None if any(x < 0 for x in b) else b


def solution_family(model: PoissonModel, b) -> tuple[SolutionFamily, MethodTag]:
    """Solution set of A k = b, plus the model's route tag.

    The set is read off the model's SNF; on the lattice, a kernel of
    dimension 2 or more is walked over its free coordinates.
    """
    tag = model.method
    b = _check_observation(model, b)
    if b is None:
        return SolutionFamily.empty(), tag
    fam = snf_family(model.snf, b)
    if fam is None:
        fam = walk_family(model.walk_plan, b)
    return fam, tag


def _summed(log_terms, tag: MethodTag, terms: int | None = None, tail_logs=()) -> PmfResult:
    """The result from the summed log terms; terms defaults to their
    number, and tail_logs are ln of bounds on the omitted mass."""
    lp = logsumexp(log_terms)
    prob = math.exp(lp)
    clamped = False
    if prob > 1.0:
        if prob <= 1.0 + CLAMP_TOL:
            prob = 1.0
            clamped = True
        else:
            raise InternalInvariantError(f"probability {prob!r} exceeds 1 beyond tolerance")
    summed = len(log_terms)
    tail = math.fsum(math.exp(x - lp) for x in tail_logs) if tail_logs else 0.0
    return PmfResult(log_prob=lp, prob=prob, method=tag, terms=summed if terms is None else terms,
                     clamped=clamped, summed=summed, tail_bound=tail)


def _live_span(fam: SolutionFamily, dead) -> tuple[int, int] | None:
    """The j-range of a line on which no zero-rate column has a positive
    count, or None when there is no such j.  A fixed zero-rate column
    kills the line unless its count is 0; a moving one is 0 at one j at
    most."""
    lo, hi = fam.jmin, fam.jmax
    if dead is None:
        return lo, hi
    for c in np.flatnonzero(dead).tolist():
        u, v = fam.base[c], fam.direction[c]
        if v == 0:
            if u:
                return None
        elif u % v:
            return None
        else:
            lo = max(lo, -u // v)
            hi = min(hi, -u // v)
    return (lo, hi) if lo <= hi else None


def _log_rising(k: int, n: int) -> float:
    """ln((k + n)! / k!) = ln prod_{i=1..n} (k + i), for ints k >= 0, n >= 1.

    The product is exact in Python ints, so this is accurate at any k,
    where a difference of two lgamma values loses all its digits at
    large k.  Long products fall back to that difference; only the mode
    search uses this, and the window does not rely on it.
    """
    if n > _RISING_TERMS:
        return math.lgamma(k + n + 1) - math.lgamma(k + 1)
    return math.log(math.prod(range(k + 1, k + n + 1)))


def _window(fam: SolutionFamily, rates, log_rates, a: int, b: int) -> tuple[int, int]:
    """The block [lo, hi] of the live span [a, b] of a line to sum.

    A span of at most FIRST_BLOCK points is summed whole.  Otherwise
    the mode of the terms t(j) is found by bisection on the sign of
    ln t(j+1) - ln t(j), formed per column from _log_rising, and each
    side of the block reaches FIRST_BLOCK // 2 points from the mode,
    doubling until its edge is the end of the span or a term below
    thr = ln t(mode) + ln(TAIL_EPS / L), L the line length, then
    bisecting back towards the last reach above thr.  ln t(j) is
    concave in j, so the terms beyond an edge are each below the edge
    term, whatever the accuracy of the mode: the block then holds the
    true mode, and the mass it omits is under L t_edge < TAIL_EPS S.
    The edges are probed with scalar terms before any array is formed.
    InputError when one side would reach past MAX_POINTS points.
    """
    if b - a < FIRST_BLOCK:
        return a, b
    # zero-rate columns have count 0 on a span of more than one point
    cols = [(u, v, lr, r) for u, v, lr, r in zip(fam.base, fam.direction,
                                                  log_rates.tolist(), rates.tolist()) if r > 0.0]
    up = [(u, v) for u, v, _, _ in cols if v > 0]
    down = [(u, v) for u, v, _, _ in cols if v < 0]
    slope = sum(v * lr for _, v, lr, _ in cols)

    def rise(j):
        # ln t(j+1) - ln t(j): each moving column adds v ln l and the
        # log of k(j)! / k(j+1)!
        out = slope
        for u, v in up:
            out -= _log_rising(u + j * v, v)
        for u, v in down:
            out += _log_rising(u + (j + 1) * v, -v)
        return out

    def log_t(j):
        return sum([(u + j * v) * lr - r - math.lgamma(u + j * v + 1) for u, v, lr, r in cols])

    lo, hi = a, b
    while lo < hi:
        mid = (lo + hi) // 2
        if rise(mid) > 0.0:
            lo = mid + 1
        else:
            hi = mid
    mode = lo
    thr = log_t(mode) + math.log(TAIL_EPS / fam.count)

    def edge(step, end):
        # the nearest j beyond which every term is below thr: double
        # the reach until the probe is below thr or past the end, then
        # bisect between the last two reaches
        near, reach = 0, FIRST_BLOCK // 2
        while (mode + step * reach - end) * step < 0 and log_t(mode + step * reach) >= thr:
            near, reach = reach, 2 * reach
            if reach > solutions.MAX_POINTS:
                raise InputError(
                    f"the terms above the tail threshold on one side of the line's mode "
                    f"exceed the cap of MAX_POINTS = {solutions.MAX_POINTS} lattice points")
        reach = min(reach, (end - mode) * step)
        # a probe costs about as much as a few points of the block, so
        # the bisection stops within 8 points of the crossing
        while reach - near > 8:
            mid = (near + reach) // 2
            if log_t(mode + step * mid) >= thr:
                near = mid
            else:
                reach = mid
        return mode + step * reach

    return edge(-1, a), edge(1, b)


def _line_sum(fam: SolutionFamily, model: PoissonModel, tag: MethodTag) -> PmfResult:
    """P(Y = b) over a line, summed over the window _window picks, in
    blocks of at most min(_BLOCK, MAX_POINTS) points."""
    log_rates, dead = model.term_constants
    span = _live_span(fam, dead)
    if span is None:
        return _summed([], tag, terms=fam.count)
    a, b = span
    try:
        lo, hi = _window(fam, model.rates, log_rates, a, b)
    except OverflowError:
        raise InputError("solution counts exceed the float64 range") from None
    step = min(_BLOCK, solutions.MAX_POINTS)
    parts = [_log_terms(fam.points(j, min(j + step - 1, hi)), model.rates, log_rates, dead)
             for j in range(lo, hi + 1, step)]
    t = parts[0] if len(parts) == 1 else np.concatenate(parts)
    # every term beyond an edge is below the edge term
    tail_logs = []
    if lo > a:
        tail_logs.append(math.log(lo - a) + float(t[0]))
    if hi < b:
        tail_logs.append(math.log(b - hi) + float(t[-1]))
    return _summed(t, tag, terms=fam.count, tail_logs=tail_logs)


def pmf(model: PoissonModel, b) -> PmfResult:
    """P(Y = b) over the solution family of A k = b.

    Negative entries, a violated dependent-row relation or a b off the
    lattice A Z^n give probability 0 (a valid query, not an error).
    A line is summed over a window around its mode (_window); every
    other family over all its points.  The result's method tag names
    the route that answered.
    """
    fam, tag = solution_family(model, b)
    if fam.kind == "line":
        return _line_sum(fam, model, tag)
    return _summed(_log_terms(fam.points(), model.rates, *model.term_constants), tag)


def _check_z(model: PoissonModel, z) -> np.ndarray:
    try:
        z = np.asarray(z, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"z is not numeric: {exc}") from None
    if z.ndim != 1 or z.shape[0] != model.m_full:
        raise InputError(f"z must be a vector of length {model.m_full}")
    if not np.all(np.isfinite(z)) or np.any(z < 0.0) or np.any(z > 1.0):
        raise InputError("z entries must lie in [0, 1]")
    return z


def gf_eval(model: PoissonModel, z) -> float:
    """Generating function G(z) = E[prod_i z_i^{Y_i}] in closed form.

    Equals exp(sum_j l_j prod_i z_i^{a_ij} - sum_j l_j); the subtracted
    rate total normalizes G(1) = 1.  Convention 0^0 = 1 for zero
    exponents at z_i = 0.
    """
    z = _check_z(model, z)
    a = model.a_full
    lam = model.rates_full
    s = 0.0
    for j in range(model.n_full):
        prod = 1.0
        for i in range(model.m_full):
            e = int(a[i, j])
            if e:
                prod *= float(z[i]) ** e
        s += float(lam[j]) * prod
    return math.exp(s - float(np.sum(lam)))


def pmf_table(model: PoissonModel, degree_bound: int) -> np.ndarray:
    """Exact table of P(Y = b) for every b in the box [0, B]^m.

    Built by convolving one Poisson variable at a time along its matrix
    column.  Columns are nonnegative, so partial sums of any solution
    never leave the box: each entry equals pmf(b) up to float rounding,
    not just a truncation of it.  Size is (B+1)^m; small m only.
    """
    B = int(degree_bound)
    if B < 0:
        raise InputError("degree bound must be >= 0")
    m = model.m_full
    if (B + 1) ** m > 20_000_000:
        raise InputError(f"pmf table of shape {(B + 1,) * m} is too large")
    removed = set(model.report.removed_columns)
    # each column carries its own e^-lambda factor: one exp(-sum lambda)
    # up front would underflow to 0 once the rates add up past ~745
    table = np.zeros((B + 1,) * m)
    table[(0,) * m] = 1.0
    for j in range(model.n_full):
        if j in removed:
            # zero column: the variable marginalizes out entirely
            continue
        col = [int(model.a_full[i, j]) for i in range(m)]
        lam = float(model.rates_full[j])
        tmax = 0 if lam == 0.0 else min(B // c for c in col if c > 0)
        loglam = math.log(lam) if lam > 0.0 else 0.0
        nxt = np.zeros_like(table)
        for t in range(tmax + 1):
            w = math.exp(t * loglam - lam - math.lgamma(t + 1))
            tgt = tuple(slice(t * c, B + 1) for c in col)
            src = tuple(slice(0, B + 1 - t * c) for c in col)
            nxt[tgt] += w * table[src]
        table = nxt
    return table


def gf_eval_series(model: PoissonModel, z, degree_bound: int = 40) -> float:
    """Truncated series sum_{b in [0,B]^m} P(Y=b) z^b, for cross-checks
    against gf_eval; the omitted tail is nonnegative."""
    z = _check_z(model, z)
    table = pmf_table(model, degree_bound)
    out = table
    for zi in z:
        out = np.tensordot(zi ** np.arange(degree_bound + 1), out, axes=(0, 0))
    return float(out)
