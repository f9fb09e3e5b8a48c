"""Sampling kernels: numba-jitted hot loops with a pure-numpy fallback.

Backend selection: numba is used when importable, unless the
environment variable LINPOIS_NO_NUMBA is set to anything but "" or "0"
at import time.  Every public entry point also takes backend="numba" |
"numpy" | None to override per call, which is how the benchmark and the
fallback tests exercise both paths in one process.

RNG contract (counter-based, splittable, platform-independent):
    base(seed, key) = mix64(seed + C * (key + 1))      mod 2^64
    u(seed, key, t) = (mix64(base + C * (t + 1)) >> 11) * 2^-53
with mix64 the SplitMix64 finalizer and C = 0x9E3779B97F4A7C15.  Keys
are assigned key = sample_index * n_coords + coord, so any block of
samples can be generated independently and out of order; t counts the
uniforms consumed by one draw.

Poisson draws: rates below 30 invert a CDF table precomputed in Python
and shared by both backends, making them bit-identical.  Rates >= 30
use Hormann's PTRS transformed rejection; both backends follow the
same attempt sequence but may differ in the last ulp of libm calls, so
cross-backend agreement there is statistical, not bitwise.  Rates above
MAX_RATE = 2**62 are rejected with InputError: an accepted PTRS draw
lies within a few sqrt(rate) of the rate, so below the ceiling every
draw fits in int64 (past 2**63 the cast to int64 fails).
"""

from __future__ import annotations

import math
import operator
import os

import numpy as np

from .errors import InputError, InternalInvariantError

__all__ = [
    "ENV_DISABLE",
    "HAVE_NUMBA",
    "default_backend",
    "resolve_backend",
    "mix64",
    "uniform53",
    "poisson_cdf_table",
    "sample_block",
    "hits_block",
    "warmup",
]

ENV_DISABLE = "LINPOIS_NO_NUMBA"

_MASK64 = (1 << 64) - 1
_GOLDEN_I = 0x9E3779B97F4A7C15

_U_GOLDEN = np.uint64(_GOLDEN_I)
_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U_R30 = np.uint64(30)
_U_R27 = np.uint64(27)
_U_R31 = np.uint64(31)
_U_R11 = np.uint64(11)
_U_ZERO = np.uint64(0)
_U_ONE = np.uint64(1)
_U_TWO = np.uint64(2)
_INV53 = 2.0 ** -53

PTRS_THRESHOLD = 30.0
MAX_RATE = 2.0 ** 62
_MAX_ATTEMPTS = 1024


def _env_disabled() -> bool:
    return os.environ.get(ENV_DISABLE, "") not in ("", "0")


if _env_disabled():
    HAVE_NUMBA = False
else:
    try:
        import numba

        HAVE_NUMBA = True
    except ImportError:
        HAVE_NUMBA = False


def default_backend() -> str:
    return "numba" if HAVE_NUMBA else "numpy"


def resolve_backend(backend=None) -> str:
    if backend is None or backend == "auto":
        return default_backend()
    if backend not in ("numba", "numpy"):
        raise InputError(f"unknown backend {backend!r}; use 'numba' or 'numpy'")
    if backend == "numba" and not HAVE_NUMBA:
        raise InputError("numba backend requested but numba is unavailable or disabled")
    return backend


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

    Reference implementation of the documented contract; the array and
    jitted generators must reproduce it bit for bit.
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

def poisson_cdf_table(lam: float, tail: float = 1e-15, max_len: int = 512) -> np.ndarray:
    """cdf[k] = P(Poisson(lam) <= k), truncated once the tail <= `tail`.

    Built once in Python so both backends consume identical float64
    values.  A uniform beyond the last entry clamps to the top bucket;
    with the default tail that is a < 1e-15 per-draw event.
    """
    lam = float(lam)
    if not math.isfinite(lam) or lam < 0.0:
        raise InputError("rate must be finite and >= 0")
    p = math.exp(-lam)
    c = p
    out = [c]
    k = 0
    while c < 1.0 - tail and k < max_len - 1:
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


def _coord_params(rates):
    """Shared per-coordinate tables and PTRS constants, numba-ready dtypes."""
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
    n = rates.shape[0]
    use_ptrs = rates >= PTRS_THRESHOLD
    tables = [
        np.asarray([1.0]) if use_ptrs[c] else poisson_cdf_table(float(rates[c]))
        for c in range(n)
    ]
    width = max((len(t) for t in tables), default=1)
    cdf2 = np.ones((n, width), dtype=np.float64)
    clens = np.empty(n, dtype=np.int64)
    for c, t in enumerate(tables):
        cdf2[c, : len(t)] = t
        clens[c] = len(t)
    loglams = np.zeros(n, dtype=np.float64)
    pbs = np.zeros(n, dtype=np.float64)
    pas = np.zeros(n, dtype=np.float64)
    pinvs = np.zeros(n, dtype=np.float64)
    pvrs = np.zeros(n, dtype=np.float64)
    for c in range(n):
        if use_ptrs[c]:
            loglams[c] = math.log(rates[c])
            pbs[c], pas[c], pinvs[c], pvrs[c] = _ptrs_params(float(rates[c]))
    return (
        cdf2,
        clens,
        use_ptrs.astype(np.uint8),
        rates,
        loglams,
        pbs,
        pas,
        pinvs,
        pvrs,
    )


# ------------------------------------------------------- numpy backend

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
            lgam = np.asarray([math.lgamma(x + 1.0) for x in kk])
            accept[rr[lhs <= kk * loglam - lam - lgam]] = True
        out[todo[accept]] = k[accept]
        todo = todo[~accept]
        active = active[~accept]
    return out


def _sample_np(seed: int, start: int, stop: int, params) -> np.ndarray:
    cdf2, clens, usep, lams, loglams, pbs, pas, pinvs, pvrs = params
    n = lams.shape[0]
    out = np.zeros((stop - start, n), dtype=np.int64)
    svec = np.arange(start, stop, dtype=np.uint64)
    for c in range(n):
        keys = svec * np.uint64(n) + np.uint64(c)
        bases = _bases_np(seed, keys)
        if usep[c]:
            out[:, c] = _draw_ptrs_np(
                bases, lams[c], loglams[c], pbs[c], pas[c], pinvs[c], pvrs[c]
            )
        else:
            out[:, c] = _draw_table_np(bases, cdf2[c, : clens[c]])
    return out


# ------------------------------------------------------- numba backend

if HAVE_NUMBA:

    @numba.njit(cache=True, nogil=True)
    def _mix64_nb(x):
        x = x ^ (x >> _U_R30)
        x = x * _U_M1
        x = x ^ (x >> _U_R27)
        x = x * _U_M2
        x = x ^ (x >> _U_R31)
        return x

    @numba.njit(cache=True, nogil=True)
    def _uniform_nb(base, t):
        x = _mix64_nb(base + _U_GOLDEN * (t + _U_ONE))
        return np.float64(x >> _U_R11) * _INV53

    @numba.njit(cache=True, nogil=True)
    def _draw_nb(base, cdf, clen, usep, lam, loglam, pb, pa, pinv, pvr):
        if usep == 0:
            u = _uniform_nb(base, _U_ZERO)
            k = 0
            while k < clen - 1 and u >= cdf[k]:
                k += 1
            return np.int64(k)
        t = _U_ZERO
        for _attempt in range(_MAX_ATTEMPTS):
            uu = _uniform_nb(base, t) - 0.5
            vv = _uniform_nb(base, t + _U_ONE)
            t = t + _U_TWO
            us = 0.5 - abs(uu)
            if us < 1e-12:
                continue
            k = np.int64(math.floor((2.0 * pa / us + pb) * uu + lam + 0.43))
            if us >= 0.07 and vv <= pvr:
                return k
            if k < 0:
                continue
            if us < 0.013 and vv > us:
                continue
            if (
                math.log(vv) + math.log(pinv) - math.log(pa / (us * us) + pb)
                <= k * loglam - lam - math.lgamma(k + 1.0)
            ):
                return k
        return np.int64(-1)

    @numba.njit(cache=True, nogil=True)
    def _sample_nb(seed, start, stop, out, cdf2, clens, usep, lams, loglams, pbs, pas, pinvs, pvrs):
        n = out.shape[1]
        un = np.uint64(n)
        for s in range(start, stop):
            for c in range(n):
                key = np.uint64(s) * un + np.uint64(c)
                base = _mix64_nb(seed + _U_GOLDEN * (key + _U_ONE))
                k = _draw_nb(
                    base, cdf2[c], clens[c], usep[c], lams[c], loglams[c],
                    pbs[c], pas[c], pinvs[c], pvrs[c],
                )
                if k < 0:
                    return -1
                out[s - start, c] = k
        return 0

    @numba.njit(cache=True, nogil=True)
    def _hits_nb(seed, start, stop, amat, bvec, cdf2, clens, usep, lams, loglams, pbs, pas, pinvs, pvrs):
        m = amat.shape[0]
        n = amat.shape[1]
        un = np.uint64(n)
        hits = 0
        y = np.empty(m, dtype=np.int64)
        for s in range(start, stop):
            for i in range(m):
                y[i] = 0
            for c in range(n):
                key = np.uint64(s) * un + np.uint64(c)
                base = _mix64_nb(seed + _U_GOLDEN * (key + _U_ONE))
                k = _draw_nb(
                    base, cdf2[c], clens[c], usep[c], lams[c], loglams[c],
                    pbs[c], pas[c], pinvs[c], pvrs[c],
                )
                if k < 0:
                    return np.int64(-1)
                for i in range(m):
                    y[i] += amat[i, c] * k
            ok = True
            for i in range(m):
                if y[i] != bvec[i]:
                    ok = False
            if ok:
                hits += 1
        return np.int64(hits)


# ------------------------------------------------------------- public

def _check_range(start, stop) -> tuple[int, int]:
    start = operator.index(start)
    stop = operator.index(stop)
    if start < 0 or stop < start:
        raise InputError("need 0 <= start <= stop")
    return start, stop


def sample_block(rates, seed, start, stop, backend=None) -> np.ndarray:
    """Samples with indices [start, stop) as a (stop-start, n) int64 array.

    Identical output for any block decomposition of the same index
    range; the numba and numpy backends agree bitwise for rates < 30.
    """
    be = resolve_backend(backend)
    seed = check_seed(seed)
    start, stop = _check_range(start, stop)
    params = _coord_params(rates)
    if be == "numba":
        out = np.empty((stop - start, params[3].shape[0]), dtype=np.int64)
        rc = _sample_nb(np.uint64(seed), start, stop, out, *params)
        if rc < 0:
            raise InternalInvariantError("rejection sampler made no progress")
        return out
    return _sample_np(seed, start, stop, params)


def _int64_matrix(a) -> np.ndarray:
    try:
        return np.asarray(a.tolist() if isinstance(a, np.ndarray) else a, dtype=np.int64)
    except (OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"matrix does not fit the sampling kernels: {exc}") from None


def hits_block(a, b, rates, seed, start, stop, backend=None) -> int:
    """Count samples s in [start, stop) with A x_s == b, fused per backend."""
    be = resolve_backend(backend)
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
    if params[3].shape[0] != amat.shape[1]:
        raise InputError("rate vector length does not match matrix columns")
    if be == "numba":
        hits = int(_hits_nb(np.uint64(seed), start, stop, amat, bvec, *params))
        if hits < 0:
            raise InternalInvariantError("rejection sampler made no progress")
        return hits
    x = _sample_np(seed, start, stop, params)
    y = x @ amat.T
    return int(np.count_nonzero(np.all(y == bvec, axis=1)))


def warmup(backend=None) -> None:
    """Trigger JIT compilation of both draw branches ahead of timing."""
    sample_block([1.0, 40.0], 1, 0, 2, backend=backend)
