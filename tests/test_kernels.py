"""Sampling kernels: RNG contract, backend equivalence, Poisson draw
distribution, and the numpy fallback path."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import poisson

from linpois import kernels as K
from linpois.errors import InputError


# ------------------------------------------------------ RNG contract

def test_mix64_matches_published_splitmix64_stream():
    # outputs of SplitMix64 seeded with 0 are mix64(i * C); the first
    # three are standard reference values
    C = 0x9E3779B97F4A7C15
    expect = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    got = [K.mix64((i * C) & (2**64 - 1)) for i in (1, 2, 3)]
    assert got == expect


def test_uniform53_range_and_determinism():
    us = [K.uniform53(9, key, t) for key in range(40) for t in range(4)]
    assert all(0.0 <= u < 1.0 for u in us)
    assert K.uniform53(9, 3, 7) == K.uniform53(9, 3, 7)
    assert K.uniform53(9, 3, 7) != K.uniform53(9, 4, 7)
    assert K.uniform53(9, 3, 7) != K.uniform53(10, 3, 7)
    # no trivially repeated values in a small slice of the stream
    assert len(set(us)) == len(us)


def test_numpy_uniforms_match_reference():
    seed = 123456789
    keys = np.arange(1000, dtype=np.uint64)
    bases = K._bases_np(seed, keys)
    for t in (0, 1, 7):
        got = K._uniforms_np(bases, t)
        ref = [K.uniform53(seed, int(k), t) for k in keys]
        assert got.tolist() == ref


@pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba unavailable")
def test_numba_uniform_matches_reference():
    seed = 77
    for key in (0, 5, 991):
        base_py = K.mix64((seed + 0x9E3779B97F4A7C15 * (key + 1)) & (2**64 - 1))
        for t in (0, 1, 2):
            got = K._uniform_nb(np.uint64(base_py), np.uint64(t))
            assert got == K.uniform53(seed, key, t)


def test_check_seed():
    assert K.check_seed(0) == 0
    assert K.check_seed(2**64 - 1) == 2**64 - 1
    for bad in (-1, 2**64, 1.5, "x"):
        with pytest.raises(InputError):
            K.check_seed(bad)


def test_resolve_backend():
    assert K.resolve_backend(None) in ("numba", "numpy")
    assert K.resolve_backend("numpy") == "numpy"
    with pytest.raises(InputError):
        K.resolve_backend("cuda")


# ------------------------------------------------------- CDF tables

def test_poisson_cdf_table_matches_scipy():
    for lam in (0.0, 0.3, 1.0, 7.5, 29.9):
        table = K.poisson_cdf_table(lam)
        ref = poisson.cdf(np.arange(len(table)), lam)
        assert np.allclose(table, ref, rtol=0, atol=5e-14)
        assert table[-1] >= 1 - 1e-15
        assert np.all(np.diff(table) >= 0)


def test_poisson_cdf_table_rejects_bad_rate():
    with pytest.raises(InputError):
        K.poisson_cdf_table(-1.0)
    with pytest.raises(InputError):
        K.poisson_cdf_table(float("inf"))


# ------------------------------------------------- backend behavior

BACKENDS = ["numpy"] + (["numba"] if K.HAVE_NUMBA else [])


@pytest.fixture(scope="module", autouse=True)
def _warm():
    K.warmup()


@pytest.mark.skipif(not K.HAVE_NUMBA, reason="numba unavailable")
def test_backends_bit_identical_below_threshold():
    rates = [0.2, 1.0, 4.5, 29.9]
    a = K.sample_block(rates, 42, 0, 20_000, backend="numba")
    b = K.sample_block(rates, 42, 0, 20_000, backend="numpy")
    assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
def test_block_decomposition_invariance(backend):
    rates = [1.0, 50.0]
    whole = K.sample_block(rates, 7, 0, 500, backend=backend)
    parts = np.vstack([
        K.sample_block(rates, 7, 0, 123, backend=backend),
        K.sample_block(rates, 7, 123, 500, backend=backend),
    ])
    assert np.array_equal(whole, parts)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sampling_reproducible(backend):
    rates = [2.0, 40.0]
    a = K.sample_block(rates, 99, 0, 2000, backend=backend)
    b = K.sample_block(rates, 99, 0, 2000, backend=backend)
    assert np.array_equal(a, b)
    c = K.sample_block(rates, 100, 0, 2000, backend=backend)
    assert not np.array_equal(a, c)


def test_zero_rate_coordinates():
    out = K.sample_block([0.0, 3.0], 5, 0, 3000, backend="numpy")
    assert np.all(out[:, 0] == 0)
    assert out[:, 1].max() > 0
    allzero = K.sample_block([0.0, 0.0], 5, 0, 100, backend="numpy")
    assert np.all(allzero == 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sample_mean_inversion_regime(backend):
    # CLT bound: |mean - 4| <= 4 * sqrt(4 / n)
    n = 100_000
    out = K.sample_block([4.0], 1234, 0, n, backend=backend)
    assert abs(out.mean() - 4.0) <= 4.0 * math.sqrt(4.0 / n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_sample_moments_rejection_regime(backend):
    # lam = 45 goes through the transformed-rejection branch
    n = 200_000
    lam = 45.0
    out = K.sample_block([lam], 5150, 0, n, backend=backend).astype(np.float64)
    assert abs(out.mean() - lam) <= 4.5 * math.sqrt(lam / n)
    # var estimator sd ~ lam * sqrt(2/n)
    assert abs(out.var() - lam) <= 5.0 * lam * math.sqrt(2.0 / n)
    # distribution check at two quantiles against the exact CDF
    for q in (40, 45, 52):
        p = poisson.cdf(q, lam)
        emp = np.mean(out <= q)
        assert abs(emp - p) <= 4.5 * math.sqrt(p * (1 - p) / n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_threshold_continuity(backend):
    # means on either side of the method switch at rate 30
    n = 200_000
    for lam in (29.9, 30.1):
        out = K.sample_block([lam], 31337, 0, n, backend=backend)
        assert abs(out.mean() - lam) <= 4.5 * math.sqrt(lam / n)


@pytest.mark.parametrize("backend", BACKENDS)
def test_hits_block_matches_direct_count(backend):
    a = [[1, 0, 1], [0, 2, 1]]
    b = [2, 2]
    rates = [1.0, 1.0, 1.0]
    hits = K.hits_block(a, b, rates, 2020, 0, 50_000, backend=backend)
    x = K.sample_block(rates, 2020, 0, 50_000, backend=backend)
    y = x @ np.array(a, dtype=np.int64).T
    assert hits == int(np.count_nonzero(np.all(y == b, axis=1)))
    assert hits > 0


def test_hits_block_validation():
    with pytest.raises(InputError):
        K.hits_block([[1, 1]], [1, 2], [1.0, 1.0], 0, 0, 10)
    with pytest.raises(InputError):
        K.hits_block([[1, 1]], [1], [1.0], 0, 0, 10)
    with pytest.raises(InputError):
        K.sample_block([1.0], 0, 5, 2)
    with pytest.raises(InputError):
        K.sample_block([-1.0], 0, 0, 2)
    with pytest.raises(InputError):
        K.hits_block([[1, 1]], [2**63], [1.0, 1.0], 0, 0, 10)


def test_rate_ceiling():
    # past 2**63 the PTRS cast to int64 fails and every draw was INT64_MIN
    with pytest.raises(InputError):
        K.sample_block([1e19], 1, 0, 5, backend="numpy")
    with pytest.raises(InputError):
        K.hits_block([[1]], [1], [K.MAX_RATE * 2], 1, 0, 5, backend="numpy")
    top = K.sample_block([K.MAX_RATE], 1, 0, 200, backend="numpy")
    assert np.all(np.abs(top - K.MAX_RATE) <= 10 * math.sqrt(K.MAX_RATE))


# -------------------------------------------------- env flag fallback

def test_env_flag_disables_numba():
    """With LINPOIS_NO_NUMBA set the package must import without numba
    and produce the same low-rate draws as the in-process numpy path."""
    code = (
        "from linpois import kernels as K;"
        "assert not K.HAVE_NUMBA;"
        "assert K.default_backend() == 'numpy';"
        "print(K.sample_block([1.0, 4.0], 11, 0, 50).tolist())"
    )
    env = dict(os.environ, LINPOIS_NO_NUMBA="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    expect = K.sample_block([1.0, 4.0], 11, 0, 50, backend="numpy").tolist()
    assert eval(proc.stdout.strip()) == expect
