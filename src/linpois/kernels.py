"""Sampling kernels: seeded Poisson draws and hit counts in numpy.

RNG contract (counter-based, splittable, platform-independent):
    base(seed, key) = mix64(seed + C * (key + 1))      mod 2^64
    u(seed, key, t) = (mix64(base + C * (t + 1)) >> 11) * 2^-53
with mix64 the SplitMix64 finalizer and C = 0x9E3779B97F4A7C15.  Keys
are assigned key = sample_index * n_coords + coord, so any block of
samples can be generated independently and out of order; t counts the
uniforms consumed by one draw.

Poisson draws: rates below 30 invert a CDF table precomputed in Python.
Rates >= 30 use Hormann's PTRS transformed rejection (Insurance: Math.
& Econ. 12, 1993), vectorised over the samples still rejected; its
accept test takes ln k! from model._log_factorials, the one ln k!
routine, shared with pmf's log terms.  Rates
above MAX_RATE = 2**62 are rejected with InputError: an accepted PTRS
draw lies within a few sqrt(rate) of the rate, so below the ceiling
every draw fits in int64 (past 2**63 the cast to int64 fails).

hits_block counts A x == b exactly: A x is never formed with int64
wraparound; where it could wrap it is formed in Python ints.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InputError, InternalInvariantError
from .model import _log_factorials

__all__ = [
    "default_backend",
    "mix64",
    "uniform53",
    "poisson_cdf_table",
    "sample_block",
    "hits_block",
]

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1
_GOLDEN_I = 0x9E3779B97F4A7C15

_U_GOLDEN = np.uint64(_GOLDEN_I)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_R30 = np.uint64(30)
_U_R27 = np.uint64(27)
_U_R31 = np.uint64(31)
_U_R11 = np.uint64(11)
_U_ONE = np.uint64(1)
_INV53 = 2.0 ** -53

PTRS_THRESHOLD = 30.0
MAX_RATE = 2.0 ** 62
_MAX_ATTEMPTS = 1024
# a CDF table stops once its tail is at most _CDF_TAIL, or at
# _CDF_MAX_LEN entries
_CDF_TAIL = 1e-15
_CDF_MAX_LEN = 512


def default_backend() -> str:
    """Name of the sampling backend; numpy is the only one.  Kept because
    the benchmark records it with every run."""
    return "numpy"


# ---------------------------------------------------------------- RNG

def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (reference implementation)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def uniform53(seed: int, key: int, t: int) -> float:
    """The t-th uniform of stream (seed, key), in [0, 1).

    Reference implementation of the documented contract; the array
    generator must reproduce it bit for bit.
    """
    base = mix64((seed + _GOLDEN_I * (key + 1)) & _MASK64)
    x = mix64((base + _GOLDEN_I * (t + 1)) & _MASK64)
    return (x >> 11) * _INV53


def _mix64_np(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> _U_R30)
    x = x * _U_M1
    x = x ^ (x >> _U_R27)
    x = x * _U_M2
    x = x ^ (x >> _U_R31)
    return x


def _bases_np(seed: int, keys: np.ndarray) -> np.ndarray:
    return _mix64_np(np.uint64(seed & _MASK64) + _U_GOLDEN * (keys + _U_ONE))


def _uniforms_np(bases: np.ndarray, t: int) -> np.ndarray:
    # offset computed in Python ints: scalar uint64 arithmetic in numpy
    # warns on the intended wraparound
    off = np.uint64((_GOLDEN_I * (t + 1)) & _MASK64)
    return (_mix64_np(bases + off) >> _U_R11).astype(np.float64) * _INV53


def check_seed(seed) -> int:
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InputError("seed must be an integer") from None
    if not 0 <= seed <= _MASK64:
        raise InputError("seed must fit in an unsigned 64-bit integer")
    return seed


# ------------------------------------------------- per-coordinate prep

def poisson_cdf_table(lam: float) -> np.ndarray:
    """cdf[k] = P(Poisson(lam) <= k), truncated once the tail is at most
    _CDF_TAIL or the table has _CDF_MAX_LEN entries.

    Built in Python, one float64 partial sum per entry.  A uniform
    beyond the last entry clamps to the top bucket, a < 1e-15 per-draw
    event.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise InputError("rate must be finite and >= 0")
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


def _ptrs_params(lam: float) -> tuple:
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    vr = 0.9277 - 3.6224 / (b - 2.0)
    return b, a, inv_alpha, vr


def _coord_params(rates) -> list:
    """One entry per coordinate: its CDF table for rates below
    PTRS_THRESHOLD, else the PTRS tuple (lam, log lam, b, a, 1/alpha, v_r)."""
    try:
        rates = np.asarray(rates, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InputError(f"rates are not numeric: {exc}") from None
    if rates.ndim != 1:
        raise InputError("rates must be a vector")
    if not np.all(np.isfinite(rates)) or np.any(rates < 0):
        raise InputError("rates must be finite and >= 0")
    if np.any(rates > MAX_RATE):
        raise InputError(f"rates above {MAX_RATE:.0f} (2**62) cannot be sampled in int64")
    return [
        (lam, math.log(lam), *_ptrs_params(lam)) if lam >= PTRS_THRESHOLD
        else poisson_cdf_table(lam)
        for lam in rates.tolist()
    ]


# -------------------------------------------------------------- draws

def _draw_table_np(bases: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    u = _uniforms_np(bases, 0)
    idx = np.searchsorted(cdf, u, side="right")
    return np.minimum(idx, len(cdf) - 1).astype(np.int64)


def _draw_ptrs_np(bases, lam, loglam, pb, pa, pinv, pvr) -> np.ndarray:
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
            accept[rr[lhs <= kk * loglam - lam - _log_factorials(kk)]] = True
        out[todo[accept]] = k[accept]
        todo = todo[~accept]
        active = active[~accept]
    return out


def _sample_np(seed: int, start: int, stop: int, params: list) -> np.ndarray:
    n = len(params)
    out = np.zeros((stop - start, n), dtype=np.int64)
    svec = np.arange(start, stop, dtype=np.uint64)
    for c, param in enumerate(params):
        bases = _bases_np(seed, svec * np.uint64(n) + np.uint64(c))
        if isinstance(param, tuple):
            out[:, c] = _draw_ptrs_np(bases, *param)
        else:
            out[:, c] = _draw_table_np(bases, param)
    return out


# ------------------------------------------------------------- public

def _check_range(start, stop) -> tuple[int, int]:
    start = operator.index(start)
    stop = operator.index(stop)
    if start < 0 or stop < start:
        raise InputError("need 0 <= start <= stop")
    return start, stop


def sample_block(rates, seed, start, stop) -> np.ndarray:
    """Samples with indices [start, stop) as a (stop-start, n) int64 array.

    Identical output for any block decomposition of the same index range.
    """
    seed = check_seed(seed)
    start, stop = _check_range(start, stop)
    return _sample_np(seed, start, stop, _coord_params(rates))


def _int64_matrix(a) -> np.ndarray:
    try:
        return np.asarray(a.tolist() if isinstance(a, np.ndarray) else a, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"matrix does not fit the sampling kernels: {exc}") from None


def hits_block(a, b, rates, seed, start, stop) -> int:
    """Count samples s in [start, stop) with A x_s == b, exactly.

    On a row i without negative entries a sample misses once
    a_ic x_c > b_i, so samples above the column caps min_i floor(b_i / a_ic)
    are dropped first.  Every row sum of the rest is bounded in Python
    ints by sum_c |a_ic| max x_c; where a bound exceeds int64, A x is
    formed in Python ints instead, so it never wraps and the count does
    not depend on how the samples are split into blocks.
    """
    seed = check_seed(seed)
    start, stop = _check_range(start, stop)
    amat = _int64_matrix(a)
    if amat.ndim != 2:
        raise InputError("matrix must be 2-D")
    try:
        bvec = np.asarray([operator.index(x) for x in b], dtype=np.int64)
    except OverflowError:
        raise InputError("observation entries must fit in int64 for sampling") from None
    if bvec.shape[0] != amat.shape[0]:
        raise InputError(f"observation length {bvec.shape[0]} != row count {amat.shape[0]}")
    params = _coord_params(rates)
    if len(params) != amat.shape[1]:
        raise InputError("rate vector length does not match matrix columns")
    x = _sample_np(seed, start, stop, params)
    rows = amat.tolist()
    capping = [(row, bi) for row, bi in zip(rows, bvec.tolist()) if min(row, default=0) >= 0]
    caps = [
        min((bi // row[c] for row, bi in capping if row[c] > 0), default=_INT64_MAX)
        for c in range(len(params))
    ]
    # column by column: numpy reductions along rows of n entries are slow
    live = np.ones(len(x), dtype=bool)
    for cap, col in zip(caps, x.T):
        live &= col <= cap
    x = x[live]
    top = [int(col.max(initial=0)) for col in x.T]
    if any(sum(abs(a_ic) * t for a_ic, t in zip(row, top)) > _INT64_MAX for row in rows):
        x, amat = x.astype(object), amat.astype(object)
    hit = np.ones(len(x), dtype=bool)
    for bi, yi in zip(bvec.tolist(), (x @ amat.T).T):
        hit &= yi == bi
    return int(np.count_nonzero(hit))
