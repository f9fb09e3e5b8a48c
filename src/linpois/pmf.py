"""Probability evaluation for Y = A X.

P(Y = b) is a sum of independent-Poisson product terms over the
solution set of A k = b.  solution_family builds that set by one route
that the query alone decides: b is checked here, the Smith normal form
decides whether b is on the lattice and reads off a singleton or a
line, and, when the kernel of A has dimension 2 or more, the walk over
the free coordinates of the model's cached walk plan (_walk_family)
lists the points without checking b again.  The model's reduced
system has no zero-rate column (preprocess removes them with the zero
columns), so every term of every point is finite.  Log terms are
formed in numpy passes over arrays of lattice points, never over
tuples, and combined by a max-shifted log-sum whose inner sum is
math.fsum.  fsum is correctly rounded, so the result does not depend
on the order of the terms.

A singleton or finite family is summed over all its points.  A line
u + j v is summed over a window around its mode instead: ln t(j) is
concave in j, so the terms fall away from the mode on both sides.  The
window is sized from the curvature at the mode and widened until its
edge terms are below 2**-60 / L of the term at the mode (L the line
length), all read from the terms it sums.  The omitted mass is then
below 2**-60 of the sum; PmfResult reports a bound on it as tail_bound,
and the number of terms evaluated as summed.  The cost follows the
spread of the terms around the mode, not the length of the line.

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
from .model import PoissonModel, _log_factorials, rate_constants
from .solutions import MethodTag, SolutionFamily, _walk_family, snf_family

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
# A line of at most this many points is summed whole, with no search
# for its mode.
FIRST_BLOCK = 256
# The most points of a line whose terms are formed in one numpy pass.
_BLOCK = 1 << 16
# The most work pmf_table may do, in entries of box-sized array passes.
# With any column present this keeps the box to 2e7 entries.
MAX_TABLE_WORK = 40_000_000


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


def _log_terms(points: np.ndarray, rates: np.ndarray, log_rates: np.ndarray) -> np.ndarray:
    """ln of every product term, one per row of points.

    Row k gives sum_i [k_i ln l_i - l_i - ln k_i!] for rates l_i > 0;
    log_rates comes from rate_constants.  ln k_i! comes from
    model._log_factorials, the one ln k! routine, which the PTRS sampler
    also uses; log-gamma keeps large counts finite.  Each column's part
    is formed before the parts are added, so k ln l - l and ln k! cancel
    while their magnitudes are close (exactly, near the mode), not
    after rounding at the size of their sum over the columns.
    """
    if points.shape[0] == 0:
        return np.empty(0)
    return (points * log_rates - rates - _log_factorials(points)).sum(axis=1)


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
    live = lam > 0.0
    point = SolutionFamily.finite([counts]).points()
    if (point[:, ~live] > 0.0).any():
        return NEG_INF
    return float(_log_terms(point[:, live], lam[live], rate_constants(lam[live]))[0])


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
    dimension 2 or more is walked over its free coordinates.  This is
    the walk's one caller: it trusts the checks on b made here and the
    lattice test of snf_family.
    """
    tag = model.method
    b = _check_observation(model, b)
    if b is None:
        return SolutionFamily.empty(), tag
    fam = snf_family(model.snf, b)
    if fam is None:
        fam = _walk_family(model._walk_plan, b)
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


def _line_sum(fam: SolutionFamily, model: PoissonModel, tag: MethodTag) -> PmfResult:
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
        return _summed(np.concatenate(blocks(a, b)), tag, terms=fam.count)
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
    return _summed(t, tag, terms=fam.count, tail_logs=tail_logs)


def pmf(model: PoissonModel, b) -> PmfResult:
    """P(Y = b) over the solution family of A k = b.

    Negative entries, a violated dependent-row relation or a b off the
    lattice A Z^n give probability 0 (a valid query, not an error).
    A line is summed over a certified window around its mode
    (_line_sum); every other family over all its points.  The result's
    method is model.method, the kernel class that classify gives the
    model's SNF; it is the same for every b, whether or not a walk ran.
    """
    fam, tag = solution_family(model, b)
    if fam.kind == "line":
        return _line_sum(fam, model, tag)
    return _summed(_log_terms(fam.points(), model.rates, model.term_constants), tag)


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

    Built by convolving one Poisson variable at a time along its column
    of the reduced matrix.  Columns are nonnegative, so partial sums of
    any solution never leave the box: each entry equals pmf(b) up to
    float rounding, not just a truncation of it.  A column adds
    t_max + 1 shifted copies of the box, t_max = min_i floor(B / a_ij)
    over its positive entries, so the work is counted as
    (1 + sum_j (t_max_j + 1)) (B+1)^m; InputError when it exceeds
    MAX_TABLE_WORK.
    """
    B = int(degree_bound)
    if B < 0:
        raise InputError("degree bound must be >= 0")
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
        logw = _log_terms(np.arange(top + 1.0)[:, None], model.rates[j:j + 1],
                          model.term_constants[j:j + 1])
        nxt = np.zeros_like(table)
        for t, lw in enumerate(logw.tolist()):
            tgt = tuple(slice(t * c, B + 1) for c in col)
            src = tuple(slice(0, B + 1 - t * c) for c in col)
            nxt[tgt] += math.exp(lw) * table[src]
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
