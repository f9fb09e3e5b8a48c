"""Sampling kernels: RNG contract, Poisson draw distribution, draws
pinned to golden values, and exact hit counts."""

import hashlib
import math
import tracemalloc
import weakref
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linpois import kernels as K
from linpois.errors import InputError
from linpois.model import PoissonModel
from linpois.montecarlo import verify
from linpois.pmf import pmf

from conftest import EXAMPLE3
from oracle import log_poisson, mix64, uniform53, unmix64


# ------------------------------------------------------ RNG contract

def test_mix64_matches_published_splitmix64_stream():
    # outputs of SplitMix64 seeded with 0 are mix64(i * C); the first
    # three are standard reference values
    C = 0x9E3779B97F4A7C15
    expect = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = [mix64((i * C) & (2**64 - 1)) for i in (1, 2, 3)]
    assert got == expect


def test_uniform53_range_and_determinism():
    us = [uniform53(9, key, t) for key in range(40) for t in range(4)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert uniform53(9, 3, 7) == uniform53(9, 3, 7)
    assert uniform53(9, 3, 7) != uniform53(9, 4, 7)
    assert uniform53(9, 3, 7) != uniform53(10, 3, 7)
    # no trivially repeated values in a small slice of the stream
    assert len(set(us)) == len(us)


def test_numpy_uniforms_match_reference():
    seed = 123456789
    keys = np.arange(1000, dtype=np.uint64)
    bases = K._bases_np(seed, keys, 1, 0)
    for t in (0, 1, 7):
        got = K._uniforms_np(bases, t)
        ref = [uniform53(seed, int(k), t) for k in keys]
        assert got.tolist() == ref


def test_numpy_bases_match_reference_where_keys_wrap():
    # _bases_np folds s * n + c into one multiply and one add mod 2**64;
    # near the top of the index range s * n + c passes 2**64
    seed, n = 2**64 - 3, 7
    svec = np.arange(2**64 - 1000, 2**64 - 1, 97, dtype=np.uint64)
    assert int(svec[0]) * n > 2**64
    for c in (0, 3, 6):
        bases = K._bases_np(seed, svec, n, c)
        assert bases.tolist() == [mix64(seed + 0x9E3779B97F4A7C15 * (int(s) * n + c + 1))
                                  for s in svec.tolist()]
        for t in (0, 5):
            assert K._uniforms_np(bases, t).tolist() == [
                uniform53(seed, int(s) * n + c, t) for s in svec.tolist()]
    # hits_block's first column passes its samples as a range
    keys = range(2**64 - 1000, 2**64 - 1)
    whole = np.arange(keys.start, keys.stop, dtype=np.uint64)
    assert np.array_equal(K._bases_np(seed, keys, n, 3), K._bases_np(seed, whole, n, 3))


def test_numpy_uniforms_leave_bases_unchanged():
    # the kernels mix in place; PTRS reads the same bases for t and t + 1
    bases = K._bases_np(11, np.arange(500, dtype=np.uint64), 3, 2)
    kept = bases.copy()
    first = K._uniforms_np(bases, 4)
    assert np.array_equal(K._uniforms_np(bases, 4), first)
    assert np.array_equal(bases, kept)


def test_check_seed():
    # one seed rule for every entry point: an int in [0, 2**64), never a
    # bool (True was read as seed 1 by sample_block, hits_block and verify)
    model = PoissonModel([[1]], [1.0])
    for good in (0, 2**64 - 1, np.uint64(2**64 - 1)):
        assert K.sample_block([1.0], good, 0, 3).shape == (3, 1)
    for bad in (-1, 2**64, 1.5, "x", True, np.bool_(True)):
        with pytest.raises(InputError, match="seed"):
            K.sample_block([1.0], bad, 0, 3)
        with pytest.raises(InputError, match="seed"):
            K.hits_block(model, [1], bad, 0, 3)
        with pytest.raises(InputError, match="seed"):
            verify(model, [1], 10, bad)


def test_default_backend():
    assert K.default_backend() == "numpy"


# ------------------------------------------------------- CDF tables

def poisson_cdf(top, lam):
    """P(X <= q) for X ~ Poisson(lam), q = 0..top: the Decimal partial
    sums of the oracle's terms, as floats."""
    return [float(p) for p in accumulate(log_poisson(k, lam).exp() for k in range(top + 1))]


def test_poisson_cdf_table_matches_the_oracle():
    for lam in (0.0, 0.3, 1.0, 7.5, 29.9):
        table = K._cdf_table(lam)
        ref = poisson_cdf(len(table) - 1, lam)
        assert np.allclose(table, ref, rtol=0, atol=5e-14)
        assert table[-1] >= 1 - 1e-15
        assert np.all(np.diff(table) >= 0)


def test_poisson_cdf_table_rejects_bad_rate():
    # rates reach the CDF table only through solutions._real_vector, in
    # sample_block or in the PoissonModel that hits_block samples, which
    # refuses these before any table is built
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(InputError):
            K.sample_block([bad], 1, 0, 5)
        with pytest.raises(InputError):
            PoissonModel([[1]], [bad])


# ---------------------------------------------- guide-table inversion
#
# _draw_table_np reads the first word w = mix64(base + C) of each base;
# unmix64 gives the base of any chosen word, so every word below is
# drawn exactly.  The reference is min(#{cdf <= u}, L - 1), u = (w >> 11)
# * 2**-53, the draw the RNG contract defines.

_C = 0x9E3779B97F4A7C15


def _draw_words(words, cdf):
    bases = np.array([(unmix64(w) - _C) % 2**64 for w in words], dtype=np.uint64)
    return K._draw_table_np(bases, cdf)


def _searched(words, cdf):
    u = np.array([(w >> 11) * 2.0 ** -53 for w in words])
    return np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)


def _entry_words(cdf):
    # the least word whose uniform reaches each entry, and the word below
    words = [math.ceil(c * 2.0 ** 53) << 11 for c in cdf.tolist()]
    return [w + d for w in words for d in (-1, 0) if 0 <= w + d < 2**64]


def _edge_words(edges, g):
    # bucket j of G = 2**g buckets starts at word j * 2**(64 - g)
    words = [j << (64 - g) for j in edges]
    return [w + d for w in words for d in (-1, 0, 1) if 0 <= w + d < 2**64]


@pytest.mark.parametrize("lam", [0.0, 1e-9, 0.4, 2.5, 29.99])
def test_invert_cdf_equals_search_at_every_edge(lam):
    cdf = K._cdf_table(lam)
    size = len(K._guide(cdf))
    # a power of two, so the bucket floor(u * G) is the word's top g bits
    assert size >= 64 * len(cdf) and size & (size - 1) == 0
    g = size.bit_length() - 1
    words = _edge_words(range(size + 1), g) + _entry_words(cdf) + [2**64 - 1]
    assert np.array_equal(_draw_words(words, cdf), _searched(words, cdf))


def test_invert_cdf_searches_only_ambiguous_buckets(monkeypatch):
    # at most len(cdf) - 1 of the G >= 64 len(cdf) buckets hold an entry,
    # and only the uniforms of those buckets are searched
    searched = []
    search = np.searchsorted

    def counting(table, u, side):
        searched.append((table, u))
        return search(table, u, side=side)

    monkeypatch.setattr(K.np, "searchsorted", counting)
    out = K.sample_block([2.5, 29.99], 4, 0, 100_000)
    monkeypatch.undo()
    assert len(searched) == 2 and sum(len(u) for _, u in searched) <= 2 * 100_000 / 64
    for table, u in searched:
        guide = K._guide(table)
        assert u.size and np.all(guide[(u * len(guide)).astype(np.intp)] == -1)
    assert np.array_equal(out, K.sample_block([2.5, 29.99], 4, 0, 100_000))


# table entries: any floats in [0, 1], and bucket edges i/256, which a
# repeat count can turn into runs of equal entries
_TABLE_ENTRY = st.one_of(st.floats(0.0, 1.0), st.integers(0, 256).map(lambda i: i / 256))


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(st.tuples(_TABLE_ENTRY, st.integers(1, 3)), min_size=1, max_size=512),
       words=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=200))
def test_invert_cdf_equals_search_on_any_table(entries, words):
    cdf = np.sort(np.repeat([e for e, _ in entries], [r for _, r in entries]))[:512]
    g = len(K._guide(cdf)).bit_length() - 1
    # the edges of every bucket that holds an entry, and of its neighbours
    held = {min(int(c * 2**g), 2**g - 1) + d for c in cdf.tolist() for d in (-1, 0, 1)}
    words = words + _entry_words(cdf) + _edge_words(sorted(held), g)
    assert np.array_equal(_draw_words(words, cdf), _searched(words, cdf))


# ---------------------------------------------------- draw behavior

def test_block_decomposition_invariance():
    rates = [1.0, 50.0]
    whole = K.sample_block(rates, 7, 0, 500)
    parts = np.vstack([
        K.sample_block(rates, 7, 0, 123),
        K.sample_block(rates, 7, 123, 500),
    ])
    assert np.array_equal(whole, parts)


def test_sampling_reproducible():
    rates = [2.0, 40.0]
    a = K.sample_block(rates, 99, 0, 2000)
    b = K.sample_block(rates, 99, 0, 2000)
    assert np.array_equal(a, b)
    c = K.sample_block(rates, 100, 0, 2000)
    assert not np.array_equal(a, c)


def test_zero_rate_coordinates():
    out = K.sample_block([0.0, 3.0], 5, 0, 3000)
    assert np.all(out[:, 0] == 0)
    assert out[:, 1].max() > 0
    allzero = K.sample_block([0.0, 0.0], 5, 0, 100)
    assert np.all(allzero == 0)


def test_sample_mean_inversion_regime():
    # CLT bound: |mean - 4| <= 4 * sqrt(4 / n)
    n = 100_000
    out = K.sample_block([4.0], 1234, 0, n)
    assert abs(out.mean() - 4.0) <= 4.0 * math.sqrt(4.0 / n)


def test_sample_moments_rejection_regime():
    # lam = 45 goes through the transformed-rejection branch
    n = 200_000
    lam = 45.0
    out = K.sample_block([lam], 5150, 0, n).astype(np.float64)
    assert abs(out.mean() - lam) <= 4.5 * math.sqrt(lam / n)
    # var estimator sd ~ lam * sqrt(2/n)
    assert abs(out.var() - lam) <= 5.0 * lam * math.sqrt(2.0 / n)
    # distribution check at two quantiles against the exact CDF
    cdf = poisson_cdf(52, lam)
    for q in (40, 45, 52):
        p = cdf[q]
        emp = np.mean(out <= q)
        assert abs(emp - p) <= 4.5 * math.sqrt(p * (1 - p) / n)


def test_threshold_continuity():
    # means on either side of the method switch at rate 30
    n = 200_000
    for lam in (29.9, 30.1):
        out = K.sample_block([lam], 31337, 0, n)
        assert abs(out.mean() - lam) <= 4.5 * math.sqrt(lam / n)


def test_hits_block_matches_direct_count():
    a = [[1, 0, 1], [0, 2, 1]]
    b = [2, 2]
    rates = [1.0, 1.0, 1.0]
    hits, _ = K.hits_block(PoissonModel(a, rates), b, 2020, 0, 50_000)
    x = K.sample_block(rates, 2020, 0, 50_000)
    y = x @ np.array(a, dtype=np.int64).T
    assert hits == int(np.count_nonzero(np.all(y == b, axis=1)))
    assert hits > 0


def test_hits_block_validation():
    model = PoissonModel([[1, 1]], [1.0, 1.0])
    with pytest.raises(InputError, match="row count"):
        K.hits_block(model, [1, 2], 0, 0, 10)
    with pytest.raises(InputError):
        K.sample_block([1.0], 0, 5, 2)
    with pytest.raises(InputError):
        K.sample_block([-1.0], 0, 0, 2)
    with pytest.raises(InputError, match="int64"):
        K.hits_block(model, [2**63], 0, 0, 10)
    # A and the rates are checked once, by the model that hits_block
    # samples; a bare matrix is refused, not read
    with pytest.raises(InputError, match="PoissonModel"):
        K.hits_block([[1]], [1], 0, 0, 10)


# hits_block and sample_block are public: a bad argument passed to them
# directly, not through verify, is an InputError, never a Python or
# numpy exception

# [1.5] and 5 raised TypeError; [True] was counted as b = [1]
@pytest.mark.parametrize("b", [[1.5], 5, [True], [np.bool_(True)], ["1"]])
def test_hits_block_non_integer_observation(b):
    with pytest.raises(InputError):
        K.hits_block(PoissonModel([[1]], [1.0]), b, 1, 0, 10)


@pytest.mark.parametrize("start, stop", [
    (0.0, 10),  # TypeError from _check_range
    (0, 2**70),  # numpy's ValueError from np.arange
    (2**64, 2**64 + 10),  # OverflowError from np.arange
    (0, 2**63),  # np.arange gave no samples: hits_block counted 0 hits
    (False, True),  # drew sample 0 as the range [0, 1)
])
def test_kernel_bad_index_range(start, stop):
    with pytest.raises(InputError):
        K.hits_block(PoissonModel([[1]], [1.0]), [1], 1, start, stop)
    with pytest.raises(InputError):
        K.sample_block([1.0], 1, start, stop)


@pytest.mark.parametrize("stop", [2**40, 2**62])  # numpy's MemoryError, ValueError
def test_kernel_huge_valid_index_range(stop):
    with pytest.raises(InputError, match="MAX_BLOCK"):
        K.hits_block(PoissonModel([[1]], [1.0]), [1], 1, 0, stop)
    with pytest.raises(InputError, match="MAX_BLOCK"):
        K.sample_block([1.0], 1, 0, stop)


def test_kernel_block_cap_keeps_large_draws():
    # sample_block([1.0] * 2, 1, 0, 10**7) worked under numpy alone; the cap
    # check passes it (checked without drawing 160 MB)
    assert K.MAX_BLOCK == 2**30
    assert K._check_range(0, 10**7, 2) == (0, 10**7)
    assert K._check_range(0, 2**30) == (0, 2**30)
    with pytest.raises(InputError, match="MAX_BLOCK"):
        K._check_range(0, 2**29 + 1, 2)
    # the cap refuses every range of 2**63 samples or more, which
    # np.arange would turn into an empty array
    for start, stop in ((0, 2**63), (1, 2**64 - 1)):
        with pytest.raises(InputError, match="MAX_BLOCK"):
            K._check_range(start, stop)


def test_kernel_block_cap_refuses_before_allocating(monkeypatch):
    monkeypatch.setattr(K, "MAX_BLOCK", 12)
    # sample_block counts rows times columns, hits_block rows
    assert K.sample_block([1.0, 2.0], 1, 0, 6).shape == (6, 2)
    assert K.hits_block(PoissonModel([[1, 1]], [1.0, 2.0]), [1], 1, 0, 12)[0] >= 0
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="MAX_BLOCK = 12"):
            K.sample_block([1.0, 2.0], 1, 0, 7)
        with pytest.raises(InputError, match="MAX_BLOCK = 12"):
            K.hits_block(PoissonModel([[1, 1]], [1.0, 2.0]), [1], 1, 0, 13)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_rate_ceiling():
    # past 2**63 the PTRS cast to int64 fails and every draw was INT64_MIN
    with pytest.raises(InputError):
        K.sample_block([1e19], 1, 0, 5)
    with pytest.raises(InputError):
        K.hits_block(PoissonModel([[1]], [K.MAX_RATE * 2]), [1], 1, 0, 5)
    top = K.sample_block([K.MAX_RATE], 1, 0, 200)
    assert np.all(np.abs(top - K.MAX_RATE) <= 10 * math.sqrt(K.MAX_RATE))


def test_ptrs_law_holds_up_to_the_rate_ceiling():
    # the accept test's k ln lam - lam - ln k! rounds by about
    # 2 * 2**-53 * lam ln lam: var/lam of these draws read 0.88 at 1e15,
    # which was accepted
    for bad in (1e15, 2.0**53):
        with pytest.raises(InputError, match="2\\*\\*34"):
            K.sample_block([bad], 7, 0, 5)
    # the sample variance over lam has a standard error of about
    # sqrt(2 / n) = 0.0022 here
    n = 400_000
    for seed in (7, 8):
        x = K.sample_block([K.MAX_RATE], seed, 0, n)[:, 0]
        assert abs(x.var() / K.MAX_RATE - 1.0) <= 0.01
        assert abs(x.mean() - K.MAX_RATE) <= 5.0 * math.sqrt(K.MAX_RATE / n)


# ------------------------------------------------------ golden draws

def test_sample_block_golden_draws():
    # pinned draws: zero rate, table inversion up to 29.9 and PTRS from
    # 30 up; any change here changes every seeded result
    rates = [0, 0.3, 4.5, 29.9, 30, 45, 1e6]
    out = K.sample_block(rates, 2024, 0, 3000)
    assert out[:2].tolist() == [[0, 0, 7, 28, 20, 38, 999534],
                                [0, 1, 4, 20, 29, 52, 1000043]]
    assert out.sum(axis=0).tolist() == [0, 919, 13484, 90123, 89746, 134922, 2999963708]
    digest = hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()
    assert digest == "f11b63d1e6ee043f93064f1270f54e775db24d009d87b344549bb81fc8ca80ed"


def counting_lgamma(monkeypatch) -> list:
    """A spy on math.lgamma: the one-entry list holds its number of calls."""
    calls = [0]
    lgamma = math.lgamma

    def spy(x):
        calls[0] += 1
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", spy)
    return calls


def test_hits_block_accept_test_reads_the_model_table(monkeypatch):
    """hits_block's PTRS accept test reads its column's row of the
    model's table of log terms.  Its draws equal sample_block's, which
    forms the log terms by _log_poisson.  The first call grows the table
    from empty with one lgamma call per entry; once it is warm a call
    makes none: after two calls here.  The cached draw plan holds no reference to the model,
    which is freed with its last reference, table and all."""
    calls = counting_lgamma(monkeypatch)
    drawn = []
    draw = K._draw_ptrs_np

    def spy(bases, param, *model_and_row):
        out = draw(bases, param, *model_and_row)
        drawn.append(out)
        return out

    monkeypatch.setattr(K, "_draw_ptrs_np", spy)
    # both columns are PTRS: the first is drawn for every sample
    model = PoissonModel([[1, 1], [0, 1]], [40.0, 45.0])
    lengths = [0]
    for seed in range(6):
        # sample_block makes one lgamma call per candidate
        want = K.sample_block([40.0, 45.0], seed, 0, 20_000)[:, 0]
        first, calls[0] = len(drawn), 0
        K.hits_block(model, [85, 45], seed, 0, 20_000)
        assert len(drawn) == first + 2 and np.array_equal(drawn[first], want)
        lengths.append(model._terms.shape[1])
        # one call per entry the table grew by, none once it holds the candidates
        assert calls[0] == lengths[-1] - lengths[-2]
    assert lengths[1] > 0 and lengths[2:] == [lengths[2]] * 5
    assert "_draw_plan" in vars(model)
    ref = weakref.ref(model)
    del model
    assert ref() is None


def test_ptrs_accept_test_is_the_one_log_term(monkeypatch):
    # the accept test compares against model._log_poisson of the int64
    # candidates, which gives the bits of the scalar log term; draws made
    # against that scalar formula are the same draws
    seen = []
    real = K._log_poisson

    def spy(k, lam, log_lam):
        out = real(k, lam, log_lam)
        seen.append((k.dtype, lam, log_lam, k.tolist(), out.tolist()))
        return out

    def scalar(k, lam, log_lam):
        return np.array([x * log_lam - lam - math.lgamma(x + 1.0) for x in map(float, k.tolist())])

    rates = [30.0, 45.5, 1e4, K.MAX_RATE]
    monkeypatch.setattr(K, "_log_poisson", spy)
    out = K.sample_block(rates, 5, 0, 20_000)
    assert {lam for _, lam, *_ in seen} == set(rates)
    for dtype, lam, log_lam, ks, got in seen:
        assert dtype == np.int64 and log_lam == math.log(lam)
        assert got == scalar(np.array(ks), lam, log_lam).tolist()
    monkeypatch.setattr(K, "_log_poisson", scalar)
    assert np.array_equal(K.sample_block(rates, 5, 0, 20_000), out)


def test_hits_block_golden_count():
    model = PoissonModel([[1, 0, 1], [0, 2, 1]], [1.2, 35.0, 2.1])
    hits = K.hits_block(model, [2, 72], 11, 0, 200_000)
    assert hits == (1440, 324_882)


# ------------------------------------------------ exact hit counting

def test_hits_block_huge_entry_counts_exactly():
    # forming A x in int64 wrapped 2**62 * x to 0 for every x divisible
    # by 4: 4,847 of these 20,000 samples counted as hits of b = [0],
    # against P(X = 0) = e^-4 ~ 0.018
    seed = 31
    zeros = int(np.count_nonzero(K.sample_block([4.0], seed, 0, 20_000) == 0))
    assert K.hits_block(PoissonModel([[2**62]], [4.0]), [0], seed, 0, 20_000)[0] == zeros
    rep = verify(PoissonModel([[2**62]], [4.0]), [0], 20_000, seed)
    assert rep.hits == zeros
    assert abs(rep.z_score) <= 5.0


def test_hits_block_masked_rows_count_exactly():
    # a huge column is capped by its row; the rest is counted in int64
    a = [[2**62, 1], [0, 3]]
    b = [2**62 + 3, 9]
    x = K.sample_block([1.0, 4.0], 8, 0, 20_000)
    direct = sum(1 for x0, x1 in x.tolist() if 2**62 * x0 + x1 == b[0] and 3 * x1 == b[1])
    assert direct > 0
    assert K.hits_block(PoissonModel(a, [1.0, 4.0]), b, 8, 0, 20_000)[0] == direct


def test_hits_block_negative_entries(monkeypatch):
    # the matrix must be of natural numbers: the model that hits_block
    # samples refuses a negative entry, also in a column that never
    # moves A x (its rate is 0), so nothing is drawn
    drawn = []
    for name in ("_draw_table_np", "_draw_ptrs_np"):
        monkeypatch.setattr(K, name, lambda *args: drawn.append(args))
    for a, b, rates in [
        ([[1, -1]], [0], [2.0, 2.0]),
        ([[2**62, -2**62]], [0], [2.0, 2.0]),
        ([[-1, 3, -2**62], [-2, -1, 1]], [-1000097, -2000194], [1e6, 1e-9, 0.4]),
        ([[1, -1]], [2], [1.0, 0.0]),
    ]:
        with pytest.raises(InputError, match="negative"):
            K.hits_block(PoissonModel(a, rates), b, 3, 0, 5000)
    assert drawn == []


def test_verify_checks_limits_on_drawn_columns_only():
    # the second columns are dropped by preprocess and never drawn, yet
    # an entry past int64 or a rate past MAX_RATE there made verify and
    # CLI sample refuse a model that pmf answers; draw keys are
    # s * n + c, so the count is that of a rate-1 zero column
    want = K.hits_block(PoissonModel([[1, 0]], [1.0, 1.0]), [2], 9, 0, 20_000)
    assert want[0] > 0 and want[1] == 20_000
    for a, rates in (([[1, 2**70]], [1.0, 0.0]), ([[1, 0]], [1.0, 1e30])):
        assert K.hits_block(PoissonModel(a, rates), [2], 9, 0, 20_000) == want
        rep = verify(PoissonModel(a, rates), [2], 20_000, 9)
        assert (rep.hits, rep.draws) == want


def test_hits_block_count_independent_of_shards():
    # at rates near 2**62 whether the bound max x0 + max x1 exceeded
    # int64 depended on the draws of a shard, so one shard raised
    # InputError where two shards counted; such rates are now refused
    with pytest.raises(InputError):
        K.hits_block(PoissonModel([[1, 1]], [4.6116860022928256e18] * 2), [2**62], 2, 0, 2000)
    r = K.MAX_RATE
    x = K.sample_block([r, r], 2, 0, 2000)
    sums = [int(x0) + int(x1) for x0, x1 in x.tolist()]
    model = PoissonModel([[1, 1]], [r, r])
    for b in (2 * int(r), sums[7]):
        one = K.hits_block(model, [b], 2, 0, 2000)[0]
        two = sum(K.hits_block(model, [b], 2, lo, hi)[0]
                  for lo, hi in ((0, 1000), (1000, 2000)))
        assert one == two == sums.count(b)
    assert sums.count(sums[7]) >= 1


def test_hits_block_skips_columns_that_cannot_move_y():
    # the zero column was drawn too, by PTRS at rate 1e6, although its
    # draws cannot change A x
    x = K.sample_block([1.0, 1e6], 13, 0, 20_000)
    hits, draws = K.hits_block(PoissonModel([[1, 0]], [1.0, 1e6]), [2], 13, 0, 20_000)
    assert hits == int(np.count_nonzero(x[:, 0] == 2)) > 0
    assert draws == 20_000
    rep = verify(PoissonModel([[1, 0]], [1.0, 1e6]), [2], 20_000, 13)
    assert rep.hits == hits and rep.draws == 20_000
    # a rate-0 column is not drawn either
    assert K.hits_block(PoissonModel([[1, 1]], [1.0, 0.0]), [2], 13, 0, 20_000)[1] == 20_000


def _python_count(a, b, rates, seed, start, stop):
    x = K.sample_block(rates, seed, start, stop).tolist()
    return sum(1 for xs in x if [sum(aij * xj for aij, xj in zip(row, xs)) for row in a] == b)


@pytest.mark.parametrize("a,rates,stop,b", [
    # the first drawn column is PTRS
    ([[1, 1]], [35.0, 80.0], 2000, None),
    # 1 to 3 samples at rate 1e6: more values than samples, so the first
    # column's tests run per sample
    ([[1, 2]], [1e6, 45.0], 1, None),
    ([[1, 2]], [1e6, 45.0], 2, None),
    ([[1, 1], [0, 3]], [1e6, 1e6], 3, None),
    # a first column that leaves rows untouched, and one row left alone
    ([[0, 1], [2, 0], [0, 0]], [3.0, 2.0], 2000, None),
    # values above the cap: x0 <= 1, x0 = 0, and 2**62 x0 <= 2**62 + 3
    ([[3, 1]], [4.0, 1.0], 2000, [4]),
    ([[3, 1]], [4.0, 1.0], 2000, [2]),
    ([[2**62, 1], [0, 3]], [1.0, 4.0], 2000, [2**62 + 3, 9]),
])
def test_hits_block_first_column_per_value(a, rates, stop, b):
    # b, unless given, is the image of the block's first sample
    seed, start = 23, 40
    image = b is None
    if image:
        x = K.sample_block(rates, seed, start, start + 1)[0].tolist()
        b = [sum(aij * xj for aij, xj in zip(row, x)) for row in a]
    want = _python_count(a, b, rates, seed, start, start + stop)
    assert want > 0 or not image
    assert K.hits_block(PoissonModel(a, rates), b, seed, start, start + stop)[0] == want


@pytest.mark.parametrize("b", [[1], [2], [3]])
def test_hits_block_first_column_reaches_the_table_top(monkeypatch, b):
    # the first column's values run to len(cdf) - 1 without a scan of the
    # draws; a table cut at 3 entries draws its top, 2, about 3 times in 4
    monkeypatch.setattr(K, "_CDF_MAX_LEN", 3)
    assert len(K._cdf_table(4.0)) == 3
    a, rates = [[1, 1]], [4.0, 1.0]
    assert np.mean(K.sample_block(rates, 23, 0, 2000)[:, 0] == 2) > 0.7
    want = _python_count(a, b, rates, 23, 0, 2000)
    assert want > 0 and K.hits_block(PoissonModel(a, rates), b, 23, 0, 2000)[0] == want


@pytest.mark.parametrize("a,b,rates,seed", [
    # a lattice test whose divisor leaves int64 before any draw: the
    # Smith divisors are 1 and 3 * 2**62
    ([[2**62, 0], [0, 3]], [0, 3], [1e-9, 0.4], 5),
    # lattice tests with a coefficient past int64, on residuals bounded
    # by 0: before any draw, and after the first column
    ([[2**61, 2**61], [3, 2**62]], [0, 0], [1e-9, 0.4], 5),
    ([[3, 1, 4], [1, 4, 2], [1, 0, 2**62]], [0, 0, 0], [0.4, 1.5, 0.4], 5),
    # after the first column, a divisor of 2**64 with coefficients and
    # residuals that fit int64
    ([[1, 2**32, 1], [0, 0, 2**32]], [1, 0], [0.4, 1e-9, 1e-9], 5),
])
def test_hits_block_lattice_tests_past_int64(a, b, rates, seed):
    # numpy takes no int past int64 as an operand, so these combinations
    # must be formed in Python ints
    want = _python_count(a, b, rates, seed, 0, 400)
    assert want > 0
    assert K.hits_block(PoissonModel(a, rates), b, seed, 0, 400)[0] == want


# small nonnegative matrices: random ones (with zero columns), and ones
# with non-unit divisors or a dependent row (E3 plus row 0 + row 2)
_MATRICES = st.one_of(
    st.sampled_from([[[2, 2]], [[2, 4, 0]], EXAMPLE3 + [[1, 6, 11]]]),
    st.integers(1, 3).flatmap(lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n),
                           min_size=m, max_size=m))),
)
# rate 0, CDF inversion below 30, PTRS from 30 up
_RATES = st.sampled_from([0.0, 0.4, 1.5, 4.0, 35.0, 80.0])
_SAMPLES = 400


def _check_hits(a, rates, seed, s, shift):
    # b is the image of sample s, moved by shift; the count is checked
    # against Python ints
    x = K.sample_block(rates, seed, 0, _SAMPLES).tolist()
    image = [[sum(aij * xj for aij, xj in zip(row, xs)) for row in a] for xs in x]
    b = [y + d for y, d in zip(image[s], shift)]
    hits, draws = K.hits_block(PoissonModel(a, rates), b, seed, 0, _SAMPLES)
    assert hits == image.count(b)
    moving = sum(1 for c in range(len(rates)) if rates[c] > 0 and any(row[c] for row in a))
    assert draws <= _SAMPLES * moving
    return hits, draws


@settings(max_examples=80, deadline=None)
@given(a=_MATRICES, data=st.data(), seed=st.integers(0, 2**64 - 1))
def test_hits_block_equals_python_count(a, data, seed):
    n, m = len(a[0]), len(a)
    rates = data.draw(st.lists(_RATES, min_size=n, max_size=n))
    s = data.draw(st.integers(0, _SAMPLES - 1))
    # unshifted, b is on the lattice and hit at least once; a shift can
    # move it off the lattice or below 0
    shift = data.draw(st.one_of(st.just([0] * m),
                                st.lists(st.integers(-2, 2), min_size=m, max_size=m)))
    _check_hits(a, rates, seed, s, shift)


@pytest.mark.parametrize("a,rates,shift,on", [
    ([[2, 2]], [1.0, 40.0], [0], True),
    ([[2, 2]], [1.0, 40.0], [1], False),
    ([[2, 4, 0]], [3.0, 0.5, 2.0], [0], True),
    ([[2, 4, 0]], [3.0, 0.5, 2.0], [2], True),
    ([[2, 4, 0]], [3.0, 0.5, 2.0], [-1], False),
    (EXAMPLE3 + [[1, 6, 11]], [2.0, 0.5, 35.0], [0, 0, 0, 0], True),
    (EXAMPLE3 + [[1, 6, 11]], [2.0, 0.5, 35.0], [0, 0, 0, 1], False),
])
def test_hits_block_divisors_and_dependent_rows(a, rates, shift, on):
    hits, draws = _check_hits(a, rates, 5, 17, shift)
    if not any(shift):
        assert hits > 0
    if not on:
        # the lattice test on all drawable columns fails before any draw
        assert hits == draws == 0


def test_hits_block_and_pmf_share_the_lattice_tests():
    """One builder makes the lattice tests of pmf's query plan and of
    the sampler.  With CDF-table rates every kept column is drawn, in
    the order of the reduced system, so the sampler's first test set is
    the plan's.  On random b, hits_block counts 0 hits exactly where pmf
    finds no point (route "empty", or a walk of no point), and draws
    nothing where a test fails."""
    rng = np.random.default_rng(11)
    seen = Counter()
    for _ in range(16):
        m, n = int(rng.integers(1, 3)), int(rng.integers(1, 5))
        a = rng.integers(0, 4, size=(m, n))
        a[int(rng.integers(m))] *= int(rng.integers(1, 4))
        if rng.random() < 0.3:
            a = np.vstack([a, 2 * a[0]])
        model = PoissonModel(a, rng.uniform(0.5, 3.0, n))
        drawn, checks = model._draw_plan
        assert [c for c, _, _, _ in drawn] == model._kept
        assert [j for _, j, _, _ in drawn] == list(range(model.n))
        tests = model._query_plan.tests
        assert checks[0] == tests
        for _ in range(10):
            b = [int(x) for x in rng.integers(-1, 7, len(a))]
            res = pmf(model, b)
            # too rare for the block to hit with certainty
            if 0.0 < res.prob < 1e-3:
                continue
            hits, draws = K.hits_block(model, b, 3, 0, 1 << 14)
            assert (hits == 0) == (res.terms == 0), (a, b)
            pb = [(sum(x * y for x, y in zip(row, b)), d) for row, d in tests]
            if any(c % d if d else c for c, d in pb):
                assert res.route == "empty" and draws == 0
                seen["off the lattice"] += 1
            seen["hit" if hits else "no point"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 5, seen
