"""Sampling kernels: seeded Poisson draws and hit counts in numpy.

RNG contract (counter-based, splittable, platform-independent):
    base(seed, key) = mix64(seed + C * (key + 1))      mod 2^64
    u(seed, key, t) = (mix64(base + C * (t + 1)) >> 11) * 2^-53
with mix64 the SplitMix64 finalizer and C = 0x9E3779B97F4A7C15.  Keys
are assigned key = sample_index * n_coords + coord, so any block of
samples can be generated independently and out of order; t counts the
uniforms consumed by one draw.  The array kernels form seed + C *
(key + 1) for the samples s of a column c as one multiply and one add,
s * (C * n) + (seed + C * (c + 1)) mod 2^64, and mix each fresh array
in place with one scratch array for the shifts.  The tests keep a
scalar Python reference of this contract (tests/oracle.py) that the
array generator must match bit for bit.

Poisson draws: rates below 30 invert a CDF table precomputed in Python,
read through a guide table (indexed search: Chen & Asau, AIIE Trans.
6(2), 1974; Devroye 1986, III.2.4).  For a table of L entries the guide
has G = 2^g = 64 * 2^ceil(log2 L) buckets.  The bucket j = floor(u * G)
of u = (w >> 11) * 2^-53 is w >> (64 - g), the top g bits of the word
w: exact, as G <= 64 * 512 = 2^15 <= 2^53, and j/G <= u < (j+1)/G.  With
    lo[j] = min(#{cdf <= j/G}, L - 1),  hi[j] = min(#{cdf < (j+1)/G}, L - 1)
every u in bucket j draws a value in [lo[j], hi[j]], and where they are
equal (no entry strictly inside the bucket) the draw is lo[j].  Only
the words of the other buckets, at most L - 1 of the G, are made floats
u and searched in the CDF, so every draw equals min(#{cdf <= u}, L - 1)
bit for bit.  The guide is built on each call.

Rates >= 30 use Hormann's PTRS transformed rejection (Insurance: Math.
& Econ. 12, 1993), vectorised over the samples still rejected.  Its
accept test compares against ln P(X = k) = k ln lam - lam - ln k! from
model._log_poisson, the one routine that forms the Poisson log term,
shared with pmf's log terms, so ROADMAP item 1's cancellation-free form
changes that routine alone; its ln k! reads the process-wide table for
candidates below 2**20 once it covers them.  Rates above MAX_RATE =
2**34 are rejected with InputError.  That log term's parts near k = lam
round by about 2 * 2**-53 * lam ln lam in absolute terms: 9e-5 at
2**34, but about 0.7 at 1e14, and past about 1e15 the draws no longer
have the Poisson variance.  Below the ceiling every draw is also exact
in float64 and fits in int64.

hits_block counts the samples with A x == b exactly, for a PoissonModel,
drawing each column only for the samples that can still reach b.  The
columns preprocess removed (zero, or rate 0) and those whose CDF table
has one entry (every draw 0) cannot move A x and are never drawn, so
the int64 and MAX_RATE limits apply only to the others.  The CDF-table
columns are drawn first and the PTRS columns, the costlier draws, last,
each group in index order.  This plan and the lattice tests below are
built once per model (PoissonModel._draw_plan).  After column c a
sample is kept only while
  - x_c is at most the cap min_i floor(b_i / a_ic) over the rows i
    with a_ic > 0 (every moving column has one);
  - its residual r = b - (sum over the drawn columns of a_c x_c) is
    >= 0, which the columns still to draw can only lower;
  - r is on the lattice of the columns still to draw: with p A' q = d
    the Smith form of those columns (snf), d_i | (p r)_i for i < rank
    and (p r)_i = 0 beyond.  With no column left that lattice is {0},
    so the samples kept after the last column are the hits.
Before the first column every residual is b, so these tests depend on
the draw x alone: they run once per value 0..top and a sample is kept
by its value's result.  top is len(cdf) - 1 for a table column, with no
scan of the draws, else the largest draw, clipped to cap + 1 (for every
draw past the cap) when it reaches the number of samples; with more
values than samples the tests run per sample.
A draw's key is s * n + c in the full matrix whichever samples are
still alive, so every draw that is made equals the one sample_block
makes, and a sample's fate depends only on its own draws: the count is
that of drawing every sample in full, for any split into blocks.

The residual never wraps int64: draws above the cap are clipped to it
before a_ic x_c is formed, so each product is at most b_i and r_i stays
in [-b_i, b_i].  A lattice combination (p r)_i whose bound, a
coefficient or divisor leaves int64 is formed in Python ints.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, InternalInvariantError
from .intlinalg import _int_arg, snf
from .model import PoissonModel, _log_poisson
from .solutions import _real_vector

__all__ = [
    "default_backend",
    "sample_block",
    "hits_block",
]

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1
_GOLDEN_I = 0x9E3779B97F4A7C15

_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_R30 = np.uint64(30)
_U_R27 = np.uint64(27)
_U_R31 = np.uint64(31)
_U_R11 = np.uint64(11)
_INV53 = 2.0 ** -53

PTRS_THRESHOLD = 30.0
MAX_RATE = 2.0 ** 34
_MAX_ATTEMPTS = 1024
# a CDF table stops once its tail is at most _CDF_TAIL, or at
# _CDF_MAX_LEN entries
_CDF_TAIL = 1e-15
_CDF_MAX_LEN = 512
# the most entries of one array a call allocates: sample_block's rows
# times columns, hits_block's rows.  2**30 int64 entries are 8 GiB, past
# the memory of most machines (numpy raises MemoryError below that when
# memory runs out, and ValueError only past 2**63 bytes); verify draws
# 2**20 samples a call
MAX_BLOCK = 1 << 30


def default_backend() -> str:
    """Name of the sampling backend; numpy is the only one.  Kept because
    the benchmark records it with every run."""
    return "numpy"


# ---------------------------------------------------------------- RNG

def _mix64_np(x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """SplitMix64 finalizer of each word of the uint64 array x, in place:
    x is returned; the shifts share one scratch array, t if given."""
    t = np.right_shift(x, _U_R30, out=t)
    x ^= t
    x *= _U_M1
    np.right_shift(x, _U_R27, out=t)
    x ^= t
    x *= _U_M2
    np.right_shift(x, _U_R31, out=t)
    x ^= t
    return x


def _bases_np(seed: int, svec, n: int, c: int) -> np.ndarray:
    """base(seed, s * n + c) for each sample index s of svec, a uint64
    array or a range (whose indices are formed in the output array).

    seed + C * (s * n + c + 1) is formed as svec * (C * n) + (seed +
    C * (c + 1)), the same value mod 2^64, with both constants reduced
    in Python ints: scalar uint64 arithmetic in numpy warns on the
    intended wraparound."""
    fresh = isinstance(svec, range)
    keys = np.arange(svec.start, svec.stop, dtype=np.uint64) if fresh else svec
    x = np.multiply(keys, np.uint64((_GOLDEN_I * n) & _MASK64), out=keys if fresh else None)
    x += np.uint64((seed + _GOLDEN_I * (c + 1)) & _MASK64)
    return _mix64_np(x)


def _uniforms_np(bases: np.ndarray, t: int) -> np.ndarray:
    """The t-th uniform of each base; bases is left unchanged."""
    x = _mix64_np(bases + np.uint64((_GOLDEN_I * (t + 1)) & _MASK64))
    x >>= _U_R11
    # below 2^53 every word converts to float64 exactly
    return np.multiply(x, _INV53)


# ------------------------------------------------- per-coordinate prep

def _cdf_table(lam: float) -> np.ndarray:
    """cdf[k] = P(Poisson(lam) <= k) for a rate lam checked by
    solutions._real_vector, truncated once the tail is at most _CDF_TAIL
    or the table has _CDF_MAX_LEN entries.

    Built in Python, one float64 partial sum per entry.  A uniform
    beyond the last entry clamps to the top bucket, a < 1e-15 per-draw
    event.
    """
    p = math.exp(-lam)
    c = p
    out = [c]
    k = 0
    while c < 1.0 - _CDF_TAIL and k < _CDF_MAX_LEN - 1:
        k += 1
        p *= lam / k
        c += p
        out.append(c)
    return np.asarray(out, dtype=np.float64)


def _coord_param(lam: float):
    """A coordinate's CDF table for rates below PTRS_THRESHOLD, else the
    PTRS tuple (lam, log lam, b, a, 1/alpha, v_r)."""
    if lam > MAX_RATE:
        raise InputError(f"rates above {MAX_RATE:.0f} (2**34) cannot be sampled: "
                         "the rejection sampler's accept test loses its accuracy")
    if lam < PTRS_THRESHOLD:
        return _cdf_table(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    return lam, math.log(lam), b, a, 1.1239 + 1.1328 / (b - 3.4), 0.9277 - 3.6224 / (b - 2.0)


# -------------------------------------------------------------- draws

def _guide(cdf: np.ndarray) -> np.ndarray:
    """Guide table of a CDF table with L entries: G = 64 * 2^ceil(log2 L)
    buckets, entry j the draw min(#{cdf <= u}, L - 1) shared by every u
    in [j/G, (j+1)/G), or -1 where that bucket holds an entry of cdf[:-1]
    strictly inside it and the draws differ."""
    top = len(cdf) - 1
    size = 64 << top.bit_length()
    # exact: size is a power of two, so cdf_k <= j/G iff ceil(s_k) <= j
    # and cdf_k < (j+1)/G iff floor(s_k) <= j
    s = cdf[:top] * size
    steps = np.minimum(np.ceil(s), size).astype(np.intp)
    guide = np.repeat(np.arange(top + 1, dtype=np.int64), np.diff(steps, prepend=0, append=size))
    f = np.floor(s)
    guide[f[(f < s) & (f < size)].astype(np.intp)] = -1
    return guide


def _draw_table_np(bases: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """min(#{cdf <= u}, len(cdf) - 1) for the first uniform u of each
    base, written over bases and returned; u is formed and searched only
    for the words in a guide bucket that holds a CDF entry."""
    guide = _guide(cdf)
    bases += np.uint64(_GOLDEN_I)
    j = np.empty_like(bases)
    w = _mix64_np(bases, j)
    # G = 2^g: floor(u * G) = w >> (64 - g), below 2^15
    j = np.right_shift(w, np.uint64(65 - len(guide).bit_length()), out=j).view(np.int64)
    amb = np.flatnonzero((guide < 0)[j])
    u = np.multiply(w[amb] >> _U_R11, _INV53)
    out = np.take(guide, j, out=w.view(np.int64), mode="clip")
    out[amb] = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return out


def _draw_ptrs_np(bases, param) -> np.ndarray:
    lam, loglam, pb, pa, pinv, pvr = param
    out = np.zeros(bases.shape[0], dtype=np.int64)
    todo = np.arange(bases.shape[0])
    active = bases
    t = 0
    while todo.size:
        if t >= 2 * _MAX_ATTEMPTS:
            raise InternalInvariantError("rejection sampler made no progress")
        u = _uniforms_np(active, t) - 0.5
        v = _uniforms_np(active, t + 1)
        t += 2
        us = 0.5 - np.abs(u)
        # us ~ 0 would blow up the division; reject the attempt instead
        good = us >= 1e-12
        k = np.zeros(todo.shape[0], dtype=np.int64)
        k[good] = np.floor(
            (2.0 * pa / us[good] + pb) * u[good] + lam + 0.43
        ).astype(np.int64)
        accept = good & (us >= 0.07) & (v <= pvr)
        rest = good & ~accept & (k >= 0) & ~((us < 0.013) & (v > us))
        if np.any(rest):
            rr = np.flatnonzero(rest)
            lhs = np.log(v[rr]) + math.log(pinv) - np.log(pa / (us[rr] * us[rr]) + pb)
            kk = k[rr]
            accept[rr[lhs <= _log_poisson(kk, lam, loglam)]] = True
        out[todo[accept]] = k[accept]
        todo = todo[~accept]
        active = active[~accept]
    return out


# ------------------------------------------------------------- public

def _check_range(start, stop, width: int = 1) -> tuple[int, int]:
    """start and stop as unsigned 64-bit ints (intlinalg._int_arg), refused
    before any allocation when the call's largest array, (stop - start)
    x width entries, would exceed MAX_BLOCK."""
    start = _int_arg(start, "start")
    stop = _int_arg(stop, "stop", start)
    # np.arange of 2**63 or more uint64s returns an empty array, no error
    if stop - start > _INT64_MAX:
        raise InputError("need stop - start < 2**63")
    if (stop - start) * width > MAX_BLOCK:
        raise InputError(f"{stop - start} samples of {width} column(s) exceed the cap of "
                         f"MAX_BLOCK = {MAX_BLOCK} entries per call; draw them in blocks")
    return start, stop


def sample_block(rates, seed, start, stop) -> np.ndarray:
    """Samples with indices [start, stop) as a (stop-start, n) int64 array.

    Identical output for any block decomposition of the same index range.
    seed, start and stop are unsigned 64-bit ints and rates reals >= 0
    (intlinalg._int_arg, solutions._real_vector: a bool is refused).
    InputError when the array would hold more than MAX_BLOCK entries.
    """
    seed = _int_arg(seed, "seed")
    rates = _real_vector(rates, "rate").tolist()
    n = len(rates)
    start, stop = _check_range(start, stop, max(n, 1))
    params = [_coord_param(lam) for lam in rates]
    out = np.zeros((stop - start, n), dtype=np.int64)
    svec = np.arange(start, stop, dtype=np.uint64)
    for c, param in enumerate(params):
        draw = _draw_ptrs_np if isinstance(param, tuple) else _draw_table_np
        out[:, c] = draw(_bases_np(seed, svec, n, c), param)
    return out


def _lattice_checks(cols: list, m: int) -> tuple:
    """Entry k: the tests that a residual r lies on the lattice spanned
    by cols[k:] (each a list of m ints), from the Smith form p A q = d
    of those columns: d_i | (p r)_i for i < rank and (p r)_i = 0 beyond.

    Each test is (row i of p, d_i, or 0 for "= 0"); tests with d_i = 1
    hold for every integer r and are left out.  The last entry, for no
    columns, asks r = 0.
    """
    out = []
    for k in range(len(cols) + 1):
        dec = snf([[col[i] for col in cols[k:]] for i in range(m)])
        mods = list(dec.divisors) + [0] * (m - dec.rank)
        out.append(tuple((tuple(map(int, row)), d)
                          for row, d in zip(dec.p.tolist(), mods) if d != 1))
    return tuple(out)


def _lattice_misses(tests, res, bound) -> list:
    """Masks of the residuals (rows res[i], arrays or ints with
    |res[i]| <= bound[i]) that fail each lattice test; a combination
    whose bound, one of whose coefficients, or whose divisor leaves int64
    is formed in Python ints (numpy cannot take such an int as an int64
    operand, even against zero residuals)."""
    out = []
    for coef, d in tests:
        wide = d > _INT64_MAX or sum(abs(c) * max(t, 1) for c, t in zip(coef, bound)) > _INT64_MAX
        v = 0
        for c, r in zip(coef, res):
            if c:
                v = v + c * (np.asarray(r, dtype=object) if wide else r)
        out.append(v % d != 0 if d else v != 0)
    return out


def _draw_plan(model) -> tuple:
    """hits_block's plan for a model, its PoissonModel._draw_plan: the
    drawn columns in drawing order, each (index in the full matrix,
    entries, draw parameter), and their lattice tests."""
    rows = model.a_full.tolist()
    kept = (c for c in range(model.n_full) if c not in model.report.removed_columns)
    drawn = []
    for c, lam in zip(kept, model.rates.tolist()):
        param = _coord_param(lam)
        if isinstance(param, tuple) or len(param) > 1:
            drawn.append((c, [row[c] for row in rows], param))
    # the CDF-table columns go first, then PTRS; the sort is stable
    drawn.sort(key=lambda col: isinstance(col[2], tuple))
    if any(x > _INT64_MAX for _, col, _ in drawn for x in col):
        raise InputError("matrix does not fit the sampling kernels: "
                         "an entry of a drawn column exceeds int64")
    return drawn, _lattice_checks([col for _, col, _ in drawn], model.m_full)


def _hit_target(model, b) -> tuple:
    """hits_block's checks of b, then of the model's plan: b as a list of
    ints (PoissonModel._observation) that fit int64, the drawn columns
    and their lattice tests.  verify runs it before pmf."""
    if not isinstance(model, PoissonModel):
        raise InputError("hits_block samples a PoissonModel")
    bl = model._observation(b)
    if any(not -_INT64_MAX - 1 <= x <= _INT64_MAX for x in bl):
        raise InputError("observation entries must fit in int64 for sampling")
    return bl, *model._draw_plan


def hits_block(model, b, seed, start, stop) -> tuple[int, int]:
    """Count samples s in [start, stop) with A x_s == b, exactly, for a
    PoissonModel of Y = A X.

    Columns are drawn one at a time, each only for the samples that can
    still reach b; the count equals that of drawing every sample in full
    (see the module docstring).  The int64 and MAX_RATE limits apply
    only to the columns that can move A x.  seed, start and stop are
    checked as in sample_block, and b as in pmf; InputError for more than
    MAX_BLOCK samples.  Returns (hits, draws), draws the number of
    Poisson variates drawn to count them.
    """
    seed = _int_arg(seed, "seed")
    start, stop = _check_range(start, stop)
    bl, drawn, checks = _hit_target(model, b)
    # b is the residual before any draw and must pass the same tests
    if min(bl, default=0) < 0 or any(_lattice_misses(checks[0], bl, bl)):
        return 0, 0

    n = model.n_full
    # the live samples' indices: a range until the first column prunes any
    svec = range(start, stop)
    # a row's residual stays the int b_i until a drawn column touches it
    res = list(bl)
    draws = 0
    for k, (c, col, param) in enumerate(drawn):
        if not len(svec):
            break
        table = not isinstance(param, tuple)
        # unnamed bases: a table draw is written over them, freed with x
        x = (_draw_table_np if table else _draw_ptrs_np)(_bases_np(seed, svec, n, c), param)
        draws += x.size
        # a_ic x_c > b_i misses; the draws past the cap are clipped to it,
        # so no product exceeds b_i
        cap = min(bi // aic for aic, bi in zip(col, bl) if aic)
        top = len(param) - 1 if k == 0 and table else int(x.max(initial=0))
        # the first column's tests run once per value 0..top; `at`, the
        # samples' draws, maps each sample to its value's row
        at = None
        if k == 0 and min(top, cap + 1) < x.size:
            if top >= x.size:
                # cap + 1 stands for every draw past the cap: they all miss
                x, top = np.minimum(x, cap + 1), cap + 1
            at, x = x, np.arange(top + 1, dtype=np.int64)
        misses = []
        if top > cap:
            misses.append(x > cap)
            x = np.minimum(x, cap)
        for i, aic in enumerate(col):
            if aic:
                res[i] = res[i] - aic * x
                misses.append(res[i] < 0)
        misses += _lattice_misses(checks[k + 1], res, bl)
        # a test on rows no drawn column has touched yet gives one bool
        dead = np.zeros(x.shape, dtype=bool)
        for miss in misses:
            dead |= miss
        alive = ~dead
        # one index array serves every row: faster than a mask per row
        keep = np.flatnonzero(alive if at is None else alive[at])
        sel = keep if at is None else at[keep]
        # free the draws before the survivors' residuals are gathered
        at = None
        res = [r[sel] if isinstance(r, np.ndarray) else r for r in res]
        svec = keep.view(np.uint64) + np.uint64(start) if isinstance(svec, range) else svec[keep]
    return len(svec), draws
