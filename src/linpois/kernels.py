"""Sampling kernels: seeded Poisson draws and hit counts in numpy.

RNG contract (counter-based, splittable, platform-independent):
    base(seed, key) = mix64(seed + C * (key + 1))      mod 2^64
    u(seed, key, t) = (mix64(base + C * (t + 1)) >> 11) * 2^-53
with mix64 the SplitMix64 finalizer and C = 0x9E3779B97F4A7C15.  Keys
are assigned key = sample_index * n_coords + coord, so any block of
samples can be generated independently and out of order; t counts the
uniforms consumed by one draw.  The array kernels form seed + C *
(key + 1) for the samples start + s of a column c, s the offset in a
piece of samples, as one multiply and one add, s * (C * n) + (seed +
C * (start * n + c + 1)) mod 2^64, and mix each fresh array in place
with one scratch array for the shifts.  The tests keep a scalar Python
reference of this contract (tests/oracle.py) that the array generator
must match bit for bit.

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
bit for bit.  The guide is built once per column, with its CDF table
(_Table): in the model's draw plan for hits_block, once per call for
sample_block.

Rates >= 30 use Hormann's PTRS transformed rejection (Insurance: Math.
& Econ. 12, 1993), vectorised over the samples still rejected.  Its
accept test compares against ln P(X = k) = k ln lam - lam - ln k!,
which hits_block reads from its model's table of log terms and
sample_block, which has no model, forms by model._log_poisson, the one
routine that forms the Poisson log term and the table's entries (so
ROADMAP item 1's cancellation-free form changes that routine alone):
the same bits, so the same draws.  Rates above MAX_RATE =
2**34 are rejected with InputError.  That log term's parts near k = lam
round by about 2 * 2**-53 * lam ln lam in absolute terms: 9e-5 at
2**34, but about 0.7 at 1e14, and past about 1e15 the draws no longer
have the Poisson variance.  Below the ceiling every draw is also exact
in float64 and fits in int64.

hits_block counts the samples with A x == b exactly, for a PoissonModel,
drawing each column only for the samples that can still reach b.  The
columns the model leaves out (zero, or rate 0) and those whose CDF table
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
values than samples the tests run per sample.  Before the last column a
survivor's residual is y times that column, for an int y >= 0 (the
lattice tests of that column alone, and r >= 0), so its hits are the
samples with x = y, y = r_i / a_ic on a row with a_ic > 0: one
comparison, with no residual formed and nothing carried on.
A draw's key is s * n + c in the full matrix whichever samples are
still alive, so every draw that is made equals the one sample_block
makes, and a sample's fate depends only on its own draws: the count is
that of drawing every sample in full, for any split into blocks.

The residual never wraps int64: draws above the cap are clipped to it
before a_ic x_c is formed, so each product is at most b_i and r_i stays
in [-b_i, b_i].  A lattice combination (p r)_i whose bound, a
coefficient or divisor leaves int64 is formed in Python ints.

Memory: hits_block and sample_block walk [start, stop) in pieces of at
most _PIECE = 2^16 samples (fewer for models of more than four rows, so
that a table of residuals holds at most _ROW_ENTRIES = 2^18 entries),
one code path for every range.  Every array whose length follows the
live samples of a piece (bases, words, draws, masks, indices, the
residuals, the PTRS rounds' arrays) is written by the ufuncs' out=,
np.take(..., out=, mode="clip") and np.copyto into the slots of one
workspace per thread (_Workspace), kept across calls.  A slot grows to
the next power of two entries of what it is asked for and never
shrinks, and none is asked for more than a piece: 18 int64, uint64 or
float64 slots of at most 512 KiB, two residual tables of at most 2 MiB
and ten masks of at most 64 KiB, at most 13.63 MiB per thread that has
sampled.  What a warm call still allocates is small: numpy's nonzero
output, which _nonzero asks for 2^13 mask entries at a time (at most
64 KiB), the words of the ambiguous guide buckets (fewer than 1 in 64),
the values 0..top of the first column, and the PTRS log terms that no
model table holds (sample_block's, and counts past the table).  So it
returns no large block to the allocator, which would hand it back to
the operating system, and faults no page back in.  The arrays the draw
routines return are views of the workspace, valid until the thread's
next kernel call.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import InputError, InternalInvariantError
from .intlinalg import _int_arg, snf
from .model import PoissonModel, _log_poisson
from .solutions import _lattice_tests, _real_vector

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
# the most samples of one piece, and the most entries of one of
# hits_block's two tables of residuals (rows times live samples)
_PIECE = 1 << 16
_ROW_ENTRIES = 1 << 18
# _nonzero's mask entries per nonzero call: its output is at most 64 KiB
_CHUNK = 1 << 13

_I64 = np.dtype(np.int64)
_U64 = np.dtype(np.uint64)
_F64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)


def default_backend() -> str:
    """Name of the sampling backend; numpy is the only one.  Kept because
    the benchmark records it with every run."""
    return "numpy"


# ---------------------------------------------------------- workspace

class _Workspace(threading.local):
    """The kernels' buffers, one set per thread, kept across calls.

    A slot holds one array of one dtype, asked for by name: get returns
    its first size entries, whatever was last written there.  Each
    routine names the slots it writes (a slot of another dtype is read
    through a view), and two arrays alive at once never share one."""

    def __init__(self):
        self.slots = {}

    def get(self, name: str, size: int, dtype: np.dtype) -> np.ndarray:
        """size entries of slot name, which grows to the next power of
        two entries when it is too small."""
        buf = self.slots.get(name)
        if buf is None or len(buf) < size:
            buf = self.slots[name] = np.empty(1 << max(size - 1, 0).bit_length(), dtype)
        return buf[:size]

    def table(self, name: str, rows: int, size: int) -> np.ndarray:
        """A C-ordered (rows, size) int64 array over slot name."""
        return self.get(name, rows * size, _I64).reshape(rows, size)

    def iota(self, size: int) -> np.ndarray:
        """0, 1, ..., size - 1 as int64, read only."""
        buf = self.slots.get("iota")
        if buf is None or len(buf) < size:
            buf = self.slots["iota"] = np.arange(1 << max(size - 1, 0).bit_length(), dtype=np.int64)
        return buf[:size]


_WS = _Workspace()


def _nonzero(mask: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The indices of mask's True entries, written into the int64 array
    out (at least as long as mask) and returned as its prefix.  numpy's
    nonzero allocates its output, so it is asked _CHUNK entries at a
    time; np.compress(..., out=) would allocate the indices and a copy
    of the output."""
    n = 0
    for lo in range(0, len(mask), _CHUNK):
        nz = mask[lo:lo + _CHUNK].nonzero()[0]
        np.add(nz, lo, out=out[n:n + len(nz)])
        n += len(nz)
    return out[:n]


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


def _bases_np(seed: int, svec: np.ndarray, n: int, c: int, start: int = 0) -> np.ndarray:
    """base(seed, (start + s) * n + c) for each s of the uint64 array
    svec, written into the workspace's keys slot (mixed with its scratch
    slot).

    seed + C * ((start + s) * n + c + 1) is formed as svec * (C * n) +
    (seed + C * (start * n + c + 1)), the same value mod 2^64, with both
    constants reduced in Python ints: scalar uint64 arithmetic in numpy
    warns on the intended wraparound."""
    size = len(svec)
    x = np.multiply(svec, np.uint64((_GOLDEN_I * n) & _MASK64), out=_WS.get("keys", size, _U64))
    x += np.uint64((seed + _GOLDEN_I * (start * n + c + 1)) & _MASK64)
    return _mix64_np(x, _WS.get("scratch", size, _U64))


def _uniforms_np(bases: np.ndarray, t: int, out: np.ndarray) -> np.ndarray:
    """The t-th uniform of each base, written into the float64 array out
    and returned; bases is left unchanged.  The words are formed in the
    workspace's words and scratch slots."""
    size = len(bases)
    x = np.add(bases, np.uint64((_GOLDEN_I * (t + 1)) & _MASK64), out=_WS.get("words", size, _U64))
    _mix64_np(x, _WS.get("scratch", size, _U64))
    x >>= _U_R11
    # below 2^53 every word converts to float64 exactly
    np.copyto(out, x, casting="unsafe")
    out *= _INV53
    return out


# ------------------------------------------------- per-coordinate prep

class _Table:
    """A CDF-table column's draw parameter: the table cdf, its guide
    (_guide) and the guide's ambiguous buckets (guide < 0)."""

    __slots__ = ("cdf", "guide", "ambiguous")

    def __init__(self, cdf: np.ndarray):
        self.cdf = cdf
        self.guide = _guide(cdf)
        self.ambiguous = self.guide < 0


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
    """A coordinate's _Table for rates below PTRS_THRESHOLD, else the
    PTRS tuple (lam, log lam, b, a, 1/alpha, v_r)."""
    if lam > MAX_RATE:
        raise InputError(f"rates above {MAX_RATE:.0f} (2**34) cannot be sampled: "
                         "the rejection sampler's accept test loses its accuracy")
    if lam < PTRS_THRESHOLD:
        return _Table(_cdf_table(lam))
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


def _draw_table_np(bases: np.ndarray, table: _Table) -> np.ndarray:
    """min(#{cdf <= u}, len(cdf) - 1) for the first uniform u of each
    base, written over bases and returned; u is formed and searched only
    for the words in a guide bucket that holds a CDF entry.  The buckets
    and their mask are formed in the workspace's scratch and mask slots."""
    cdf, guide = table.cdf, table.guide
    size = len(bases)
    bases += np.uint64(_GOLDEN_I)
    j = _WS.get("scratch", size, _U64)
    w = _mix64_np(bases, j)
    # G = 2^g: floor(u * G) = w >> (64 - g), below 2^15
    j = np.right_shift(w, np.uint64(65 - len(guide).bit_length()), out=j).view(np.int64)
    amb = np.take(table.ambiguous, j, out=_WS.get("mask", size, _BOOL), mode="clip").nonzero()[0]
    u = np.multiply(w[amb] >> _U_R11, _INV53)
    out = np.take(guide, j, out=w.view(np.int64), mode="clip")
    out[amb] = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    return out


# the PTRS rounds' slots for the samples still rejected, by round parity
_TODO = ("ptrs_todo0", "ptrs_todo1")
_ACTIVE = ("ptrs_active0", "ptrs_active1")


def _draw_ptrs_np(bases, param, model=None, i=0) -> np.ndarray:
    """PTRS draws for each base, written over bases and returned.  Each
    round's arrays are formed in the workspace's ptrs_* slots (and the
    words and scratch slots of _uniforms_np)."""
    # the accept test reads column i of model's table of log terms, or
    # with no model forms the same bits by _log_poisson
    lam, loglam, pb, pa, pinv, pvr = param
    ws = _WS
    out = bases.view(np.int64)
    # todo: each still rejected sample's position in out; active: its base
    size = len(bases)
    todo, active = ws.iota(size), bases
    t = 0
    # us = 0 divides by zero and casts inf to int64: such a candidate is
    # never read (good below), so neither warns
    with np.errstate(divide="ignore", invalid="ignore"):
        while size:
            if t >= 2 * _MAX_ATTEMPTS:
                raise InternalInvariantError("rejection sampler made no progress")
            u = _uniforms_np(active, t, ws.get("ptrs_u", size, _F64))
            u -= 0.5
            v = _uniforms_np(active, t + 1, ws.get("ptrs_v", size, _F64))
            us = np.abs(u, out=ws.get("ptrs_us", size, _F64))
            np.subtract(0.5, us, out=us)
            # us ~ 0 would blow up the division; reject the attempt instead
            good = np.greater_equal(us, 1e-12, out=ws.get("ptrs_good", size, _BOOL))
            # k = floor((2 pa / us + pb) u + lam + 0.43), its product formed
            # as u (2 pa / us + pb): the same bits
            kf = np.divide(2.0 * pa, us, out=ws.get("ptrs_k", size, _F64))
            kf += pb
            u *= kf
            u += lam
            u += 0.43
            np.floor(u, out=u)
            k = kf.view(np.int64)
            np.copyto(k, u, casting="unsafe")
            accept = np.greater_equal(us, 0.07, out=ws.get("ptrs_accept", size, _BOOL))
            accept &= good
            tmp = np.less_equal(v, pvr, out=ws.get("ptrs_tmp", size, _BOOL))
            accept &= tmp
            # rest = good & ~accept & (k >= 0) & ~((us < 0.013) & (v > us))
            rest = np.greater_equal(k, 0, out=ws.get("ptrs_rest", size, _BOOL))
            rest &= good
            np.less(us, 0.013, out=tmp)
            tmp &= np.greater(v, us, out=ws.get("ptrs_tmp2", size, _BOOL))
            np.invert(tmp, out=tmp)
            rest &= tmp
            rest &= np.invert(accept, out=tmp)
            count = int(np.count_nonzero(rest))
            if count:
                rr = _nonzero(rest, ws.get("ptrs_idx", size, _I64))
                q = np.take(us, rr, out=ws.get("ptrs_q", count, _F64), mode="clip")
                q *= q
                np.divide(pa, q, out=q)
                q += pb
                np.log(q, out=q)
                # u, v and us are not read again: lhs, kk and log_p go over them
                lhs = np.take(v, rr, out=u[:count], mode="clip")
                np.log(lhs, out=lhs)
                lhs += math.log(pinv)
                lhs -= q
                kk = np.take(k, rr, out=v.view(np.int64)[:count], mode="clip")
                log_p = (_log_poisson(kk, lam, loglam) if model is None
                         else model._column_terms(i, kk, int(kk.max()), count, out=us[:count]))
                # accept is False at every rr, so this sets the accepted ones
                accept[rr] = np.less_equal(lhs, log_p, out=tmp[:count])
            left = size - int(np.count_nonzero(accept))
            if left:
                rej = _nonzero(np.invert(accept, out=accept), ws.get("ptrs_idx", size, _I64))
                slot = t // 2 % 2
                nxt = (np.take(todo, rej, out=ws.get(_TODO[slot], left, _I64), mode="clip"),
                       np.take(active, rej, out=ws.get(_ACTIVE[slot], left, _U64), mode="clip"))
            # every candidate of the round goes to out: a rejected one's is
            # overwritten in the round that accepts it, and its base is
            # already in nxt
            out[todo] = k
            if left:
                todo, active = nxt
            size = left
            t += 2
    return out


# ------------------------------------------------------------- public

def _check_range(start, stop, width: int = 1) -> tuple[int, int]:
    """start and stop as unsigned 64-bit ints (intlinalg._int_arg), refused
    before any allocation when the call's largest array, (stop - start)
    x width entries, would exceed MAX_BLOCK."""
    start = _int_arg(start, "start")
    stop = _int_arg(stop, "stop", start)
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
    The columns are drawn a piece of _PIECE samples at a time.
    """
    seed = _int_arg(seed, "seed")
    rates = _real_vector(rates, "rate").tolist()
    n = len(rates)
    start, stop = _check_range(start, stop, max(n, 1))
    params = [_coord_param(lam) for lam in rates]
    out = np.zeros((stop - start, n), dtype=np.int64)
    for lo in range(0, stop - start, _PIECE):
        svec = _WS.iota(min(_PIECE, stop - start - lo)).view(np.uint64)
        for c, param in enumerate(params):
            draw = _draw_table_np if isinstance(param, _Table) else _draw_ptrs_np
            out[lo:lo + len(svec), c] = draw(_bases_np(seed, svec, n, c, start + lo), param)
    return out


def _lattice_checks(cols: list, m: int) -> tuple:
    """Entry k: the tests that a residual r lies on the lattice spanned
    by cols[k:] (each a list of m ints), built from the Smith form of
    those columns by solutions._lattice_tests, which also builds pmf's.
    The last entry, for no columns, asks r = 0.
    """
    return tuple(_lattice_tests(snf([[col[i] for col in cols[k:]] for i in range(m)]))
                 for k in range(len(cols) + 1))


def _wide(coef, d, bound) -> bool:
    # whether a combination sum c_i r_i, |r_i| <= bound_i, or its divisor
    # can leave int64
    return d > _INT64_MAX or sum(abs(c) * max(t, 1) for c, t in zip(coef, bound)) > _INT64_MAX


def _lattice_misses(tests, res, bound) -> list:
    """Masks of the residuals (rows res[i], arrays or ints with
    |res[i]| <= bound[i]) that fail each lattice test; a combination
    whose bound, one of whose coefficients, or whose divisor leaves int64
    is formed in Python ints (numpy cannot take such an int as an int64
    operand, even against zero residuals)."""
    out = []
    for coef, d in tests:
        wide = _wide(coef, d, bound)
        v = 0
        for c, r in zip(coef, res):
            if c:
                v = v + c * (np.asarray(r, dtype=object) if wide else r)
        out.append(v % d != 0 if d else v != 0)
    return out


def _lattice_dead(tests, res, bound, dead, miss) -> None:
    """dead |= _lattice_misses(tests, res, bound), each int64 combination
    formed in the workspace's acc and scratch slots (miss, a mask as long
    as dead, is scratch too).  In int64 no partial sum can wrap, so the
    order of its terms does not matter."""
    for coef, d in tests:
        if _wide(coef, d, bound):
            for m in _lattice_misses(((coef, d),), res, bound):
                dead |= m
            continue
        const, terms = 0, []
        for c, r in zip(coef, res):
            if c and isinstance(r, np.ndarray):
                terms.append((c, r))
            elif c:
                const += c * r
        if not terms:
            # a test on rows no drawn column has touched yet gives one bool
            if const % d if d else const:
                dead.fill(True)
            continue
        acc = np.multiply(terms[0][1], terms[0][0], out=_WS.get("acc", len(dead), _I64))
        for c, r in terms[1:]:
            acc += np.multiply(r, c, out=_WS.get("scratch", len(r), _U64).view(np.int64))
        if const:
            acc += const
        if d:
            np.remainder(acc, d, out=acc)
        dead |= np.not_equal(acc, 0, out=miss)


def _draw_plan(model) -> tuple:
    """hits_block's plan for a model, its PoissonModel._draw_plan: the
    drawn columns in drawing order, each (index in the full matrix,
    index in the reduced system, entries, draw parameter), and their
    lattice tests.  The columns are those of the reduced system, model.a
    and model.rates, zipped with their indices in the full matrix, which
    the draw keys use.  A table column's parameter holds its guide, so no
    call builds one.  No reference to the model, which caches the plan:
    a PTRS draw gets it at draw time."""
    drawn = []
    for i, (c, col, lam) in enumerate(zip(model._kept, model.a.T.tolist(),
                                          model.rates.tolist())):
        param = _coord_param(lam)
        if not isinstance(param, _Table) or len(param.cdf) > 1:
            drawn.append((c, i, col, param))
    # the CDF-table columns go first, then PTRS; the sort is stable
    drawn.sort(key=lambda col: not isinstance(col[3], _Table))
    if any(x > _INT64_MAX for _, _, col, _ in drawn for x in col):
        raise InputError("matrix does not fit the sampling kernels: "
                         "an entry of a drawn column exceeds int64")
    return drawn, _lattice_checks([col for _, _, col, _ in drawn], model.m_full)


def _hit_target(model, b) -> tuple:
    """hits_block's checks of the model and b, then the model's plan: b
    as a list of ints (PoissonModel._observation) that fit int64, the
    drawn columns and their lattice tests.  verify runs it before pmf."""
    PoissonModel._check(model)
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
    MAX_BLOCK samples.  The samples are counted a piece at a time, in the
    calling thread's workspace.  Returns (hits, draws), draws the number
    of Poisson variates drawn to count them.
    """
    seed = _int_arg(seed, "seed")
    start, stop = _check_range(start, stop)
    bl, drawn, checks = _hit_target(model, b)
    # b is the residual before any draw and must pass the same tests
    if min(bl, default=0) < 0 or any(_lattice_misses(checks[0], bl, bl)):
        return 0, 0
    piece = min(_PIECE, max(1, _ROW_ENTRIES // len(bl)))
    hits = draws = 0
    for lo in range(start, stop, piece):
        h, d = _piece_hits(model, bl, drawn, checks, seed, lo, min(piece, stop - lo))
        hits += h
        draws += d
    return hits, draws


# the live samples' offsets, and the survivors' positions among them,
# rotate over three slots
_OFFSETS = ("offsets0", "offsets1", "offsets2")


def _piece_hits(model, bl, drawn, checks, seed, start, size) -> tuple[int, int]:
    """hits_block's (hits, draws) for the samples start .. start + size - 1."""
    ws = _WS
    n, m = model.n_full, len(bl)
    # the live samples' offsets in the piece: all of them until the first
    # column prunes any
    live, live_slot = ws.iota(size), None
    # a row's residual stays the int b_i until a drawn column touches it;
    # from then on it is row at[i] of the live samples' table of
    # residuals, (m, live) over one of two slots
    at, rows = [None] * m, 0
    res_slot, other_slot = "residuals0", "residuals1"
    draws = 0
    last = len(drawn) - 1
    for k, (c, j, col, param) in enumerate(drawn):
        if not len(live):
            break
        draws += len(live)
        table = isinstance(param, _Table)
        bases = _bases_np(seed, live.view(np.uint64), n, c, start)
        x = _draw_table_np(bases, param) if table else _draw_ptrs_np(bases, param, model, j)
        if k == last:
            # a survivor's residual is y col for an int y >= 0 (it is >= 0
            # and on the lattice of col alone), so it is a hit iff x = y,
            # y = r_i / a_ic for any row i with a_ic > 0
            i = next(i for i, aic in enumerate(col) if aic)
            if at[i] is None:
                y = bl[i] // col[i]
            else:
                y = ws.table(res_slot, m, len(x))[at[i]]
                if col[i] != 1:
                    y = np.floor_divide(y, col[i], out=ws.get("acc", len(x), _I64))
            hit = np.equal(x, y, out=ws.get("hit", len(x), _BOOL))
            return int(np.count_nonzero(hit)), draws
        # a_ic x_c > b_i misses; the draws past the cap are clipped to it,
        # so no product exceeds b_i
        cap = min(bi // aic for aic, bi in zip(col, bl) if aic)
        # a bound on the draws: a table's top entry, with no scan of them
        top = len(param.cdf) - 1 if table else int(x.max(initial=0))
        # the first column's tests run once per value 0..top; `value`, the
        # samples' draws, maps each sample to its value's entry
        value = None
        if k == 0 and min(top, cap + 1) < len(x):
            if top >= len(x):
                # cap + 1 stands for every draw past the cap: they all miss
                top = cap + 1
                np.minimum(x, top, out=x)
            value, x = x, np.arange(top + 1, dtype=np.int64)
        width = len(x)
        res_tab = ws.table(res_slot, m, width)
        dead = ws.get("dead", width, _BOOL)
        miss = ws.get("miss", width, _BOOL)
        if top > cap:
            np.greater(x, cap, out=dead)
            np.minimum(x, cap, out=x)
        else:
            dead.fill(False)
        prod = ws.get("scratch", width, _U64).view(np.int64)
        for i, aic in enumerate(col):
            if not aic:
                continue
            ax = x if aic == 1 else np.multiply(x, aic, out=prod)
            if at[i] is None:
                at[i], rows = rows, rows + 1
                r = np.subtract(bl[i], ax, out=res_tab[at[i]])
            else:
                r = res_tab[at[i]]
                r -= ax
            dead |= np.less(r, 0, out=miss)
        res = [bi if p is None else res_tab[p] for bi, p in zip(bl, at)]
        _lattice_dead(checks[k + 1], res, bl, dead, miss)
        if value is not None:
            dead = np.take(dead, value, out=ws.get("dead_samples", len(value), _BOOL), mode="clip")
        # one index array serves every row: faster than a mask per row
        keep_slot, next_slot = [s for s in _OFFSETS if s != live_slot][:2]
        keep = _nonzero(np.invert(dead, out=dead), ws.get(keep_slot, len(dead), _I64))
        if value is None:
            sel = keep
        else:
            sel = ws.get("scratch", len(keep), _U64).view(np.int64)
            np.take(value, keep, out=sel, mode="clip")
        new_tab = ws.table(other_slot, m, len(keep))
        for p in range(rows):
            np.take(res_tab[p], sel, out=new_tab[p], mode="clip")
        res_slot, other_slot = other_slot, res_slot
        if live_slot is None:
            live, live_slot = keep, keep_slot
        else:
            live = np.take(live, keep, out=ws.get(next_slot, len(keep), _I64), mode="clip")
            live_slot = next_slot
    return len(live), draws
