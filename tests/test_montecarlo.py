"""Monte Carlo verification: reproducibility, sharding, and statistical
agreement with the exact computation."""

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import linpois as lp
from linpois import kernels, montecarlo
from linpois.errors import InputError
from linpois.montecarlo import _shard_bounds, sample_many, verify


def test_sample_x_zero_rates():
    assert sample_many([0.0, 0.0, 0.0], 0, 1).tolist() == [[0, 0, 0]]


def test_sample_many_equals_repeated_sample_x():
    # each sample is a pure function of its index: one block of ten
    # equals ten one-row blocks
    rates = [0.5, 3.0]
    block = sample_many(rates, 88, 10)
    singles = np.vstack([kernels.sample_block(rates, 88, s, s + 1) for s in range(10)])
    assert np.array_equal(block, singles)


def test_shard_bounds_partition():
    for n, s in [(10, 3), (7, 7), (5, 1), (1000, 8)]:
        bounds = _shard_bounds(n, s)
        assert bounds[0][0] == 0 and bounds[-1][1] == n
        for (a0, a1), (b0, b1) in zip(bounds, bounds[1:]):
            assert a1 == b0
        assert sum(hi - lo for lo, hi in bounds) == n


def test_verify_reproducible(model1):
    r1 = verify(model1, [2, 2], n_samples=20_000, seed=31415)
    r2 = verify(model1, [2, 2], n_samples=20_000, seed=31415)
    assert r1 == r2
    r3 = verify(model1, [2, 2], n_samples=20_000, seed=31416)
    assert r3.empirical_prob != r1.empirical_prob or r3.hits != r1.hits


def test_verify_thread_invariance(model1):
    base = verify(model1, [2, 2], n_samples=30_000, seed=555, threads=1)
    multi = verify(model1, [2, 2], n_samples=30_000, seed=555, threads=3)
    assert multi.hits == base.hits
    assert multi.empirical_prob == base.empirical_prob
    assert multi.z_score == base.z_score
    assert base.n_shards == 1 and multi.n_shards == min(3, os.cpu_count() or 1)


def test_verify_threads_are_capped_by_the_cpu_count(model1, monkeypatch):
    # --threads has no upper bound: 64 shards must not ask for 64 threads
    asked = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers=None):
            asked.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    one = verify(model1, [1, 1], n_samples=64, seed=8)
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", Recording)
    many = verify(model1, [1, 1], n_samples=64, seed=8, threads=64)
    assert many.hits == one.hits and many.n_shards == min(64, os.cpu_count() or 1)
    # one thread per shard, and a pool only for more than one shard
    assert asked == ([many.n_shards] if many.n_shards > 1 else [])


def test_verify_shards_are_capped_by_the_cpu_count(model1):
    # each shard rebuilds the CDF tables, so 20,000 shards took seconds
    one = verify(model1, [2, 2], n_samples=20_000, seed=4)
    many = verify(model1, [2, 2], n_samples=20_000, seed=4, threads=20_000)
    assert many.n_shards <= (os.cpu_count() or 1)
    assert many.hits == one.hits


def test_verify_draws_in_bounded_blocks(model1, monkeypatch):
    # a shard's samples are drawn a block at a time, never all at once;
    # hits_block draws one column at a time through the draw routines
    want = verify(model1, [1, 1], n_samples=5_000, seed=21)
    rows = []

    def spying(draw):
        def spy(bases, *param):
            rows.append(len(bases))
            return draw(bases, *param)
        return spy

    monkeypatch.setattr(montecarlo, "_SAMPLE_BLOCK", 1_000, raising=False)
    for name in ("_draw_table_np", "_draw_ptrs_np"):
        monkeypatch.setattr(kernels, name, spying(getattr(kernels, name)))
    for threads in (1, 2):
        rep = verify(model1, [1, 1], n_samples=5_000, seed=21, threads=threads)
        assert rep.hits == want.hits and rep.draws == want.draws
    assert max(rows) <= 1_000 and sum(rows) == 2 * want.draws


def test_verify_reports_draws(model1):
    # one variate per sample for the first column, fewer for the others
    one = verify(model1, [2, 2], n_samples=30_000, seed=9, threads=1)
    two = verify(model1, [2, 2], n_samples=30_000, seed=9, threads=2)
    assert one.draws == two.draws
    assert 30_000 < one.draws < 3 * 30_000
    # off the lattice of all drawable columns, or below 0 on a row
    # without negative entries: nothing is drawn
    assert verify(lp.PoissonModel([[2, 2]], [1.0, 1.0]), [3], 1_000, 1).draws == 0
    assert verify(model1, [-1, 2], 1_000, 1).draws == 0


def test_verify_z_formula(model1):
    rep = verify(model1, [2, 2], n_samples=50_000, seed=7)
    p = rep.exact_prob
    se = math.sqrt(p * (1 - p) / rep.n_samples)
    assert rep.empirical_prob == rep.hits / rep.n_samples
    assert math.isclose(rep.z_score, (rep.empirical_prob - p) / se, rel_tol=1e-12)


def test_verify_unreachable_point(model1):
    # no nonnegative solution exists for this b, so the exact probability
    # is 0 and the z-score is undefined
    rep = verify(model1, [0, 1], n_samples=5_000, seed=3)
    assert rep.exact_prob == 0.0
    assert rep.hits == 0
    assert math.isnan(rep.z_score)


def test_verify_single_sample(model1):
    rep = verify(model1, [0, 0], n_samples=1, seed=12)
    assert rep.empirical_prob in (0.0, 1.0)
    assert rep.n_samples == 1


def test_verify_validation(model1):
    with pytest.raises(InputError):
        verify(model1, [2, 2], n_samples=0, seed=1)
    with pytest.raises(InputError):
        verify(model1, [2, 2], n_samples=10, seed=1, threads=0)
    with pytest.raises(InputError):
        verify(model1, [2, 2, 2], n_samples=10, seed=1)


@pytest.mark.parametrize("which,bs", [
    ("model1", [(0, 0), (1, 1), (2, 2), (1, 3), (3, 2)]),
    ("model2", [(0, 0, 0), (3, 17, 19), (6, 33, 40), (2, 17, 37), (8, 50, 96)]),
    ("model3", [(0, 0, 0), (9, 17, 9), (4, 7, 9), (6, 12, 2), (14, 27, 18)]),
])
def test_verify_soundness(which, bs, request):
    """Empirical frequencies agree with exact probabilities within 4
    standard errors at a frozen seed."""
    model = request.getfixturevalue(which)
    for i, b in enumerate(bs):
        rep = verify(model, list(b), n_samples=1_000_000, seed=60_000 + i,
                     threads=2)
        if math.isnan(rep.z_score):
            assert rep.exact_prob in (0.0, 1.0)
        else:
            assert abs(rep.z_score) <= 4.0, (b, rep)


def test_report_fields(model1):
    rep = verify(model1, [1, 1], n_samples=1000, seed=42)
    assert rep.b == (1, 1)
    assert rep.seed == 42
    assert rep.n_samples == 1000
    assert 0.0 <= rep.empirical_prob <= 1.0
