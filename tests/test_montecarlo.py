"""Monte Carlo verification: reproducibility, block-split invariance,
and statistical agreement with the exact computation."""

import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import linpois as lp
from linpois import kernels, montecarlo
from linpois.errors import InputError
from linpois.montecarlo import verify


def test_sample_x_zero_rates():
    assert kernels.sample_block([0.0, 0.0, 0.0], 0, 0, 1).tolist() == [[0, 0, 0]]


def test_sample_many_equals_repeated_sample_x():
    # each sample is a pure function of its index: one block of ten
    # equals ten one-row blocks
    rates = [0.5, 3.0]
    block = kernels.sample_block(rates, 88, 0, 10)
    singles = np.vstack([kernels.sample_block(rates, 88, s, s + 1) for s in range(10)])
    assert np.array_equal(block, singles)


def test_verify_reproducible(model1):
    r1 = verify(model1, [2, 2], n_samples=20_000, seed=31415)
    r2 = verify(model1, [2, 2], n_samples=20_000, seed=31415)
    assert r1 == r2
    r3 = verify(model1, [2, 2], n_samples=20_000, seed=31416)
    assert r3.empirical_prob != r1.empirical_prob or r3.hits != r1.hits


def test_verify_thread_invariance(model1):
    # threads has no effect: 20,000 once asked for 20,000 shards, each
    # rebuilding the CDF tables, and took seconds
    base = verify(model1, [2, 2], n_samples=30_000, seed=555, threads=1)
    assert base.hits > 0
    for threads in (2, 64, 20_000):
        assert verify(model1, [2, 2], n_samples=30_000, seed=555, threads=threads) == base


def test_verify_shards_are_capped_by_the_cpu_count(model1, monkeypatch):
    # each piece of work rebuilds the CDF tables, so 20,000 shards took
    # seconds; threads no longer splits the samples, whatever the cpu count
    one = verify(model1, [2, 2], n_samples=20_000, seed=4)
    calls = []

    def counting(*args):
        calls.append(args[-2:])
        return kernels.hits_block(*args)

    monkeypatch.setattr(montecarlo, "hits_block", counting)
    many = verify(model1, [2, 2], n_samples=20_000, seed=4, threads=20_000)
    assert calls == [(0, 20_000)]
    assert many.hits == one.hits and many == one


def test_verify_runs_the_sampler_checks_before_pmf(monkeypatch):
    # pmf of [[1]] at rate 1e40 and b = 10**40 raised its own internal
    # error before the sampler refused the query; now the sampler's
    # checks (rate ceiling, int64 fit of b) come first and pmf is not asked
    model = lp.PoissonModel([[1]], [1e40])

    def no_pmf(*args):
        raise AssertionError("pmf called")

    monkeypatch.setattr(montecarlo, "pmf", no_pmf)
    with pytest.raises(InputError, match=r"2\*\*34"):
        verify(model, [1], n_samples=100, seed=1)
    with pytest.raises(InputError, match="int64"):
        verify(model, [10**40], n_samples=100, seed=1)
    with pytest.raises(InputError, match="row count"):
        verify(lp.PoissonModel([[1]], [1.0]), [1, 1], n_samples=100, seed=1)


def test_verify_starts_no_thread(model1, monkeypatch):
    want = verify(model1, [1, 1], n_samples=5_000, seed=8)

    def refuse(self):
        raise AssertionError("verify started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert verify(model1, [1, 1], n_samples=5_000, seed=8, threads=2) == want


def test_import_loads_no_thread_pool():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, linpois; sys.exit('concurrent.futures' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_verify_draws_in_bounded_blocks(model1, monkeypatch):
    # the samples are drawn a block at a time, never all at once;
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


@pytest.mark.parametrize("kwargs", [{"n_samples": 1.5}, {"threads": 2.0},
                                    {"n_samples": True}, {"threads": True}, {"n_samples": "10"}])
def test_verify_counts_are_integers(model1, kwargs):
    # a float count raised numpy's or Python's TypeError, and
    # n_samples=True ran one sample
    args = {"n_samples": 100, "threads": 1, **kwargs}
    with pytest.raises(InputError, match="must be an integer"):
        verify(model1, [1, 1], seed=1, **args)


def test_verify_builds_one_plan_per_model(monkeypatch):
    # the sampler's plan (a CDF table or PTRS parameters per drawn
    # column, and the lattice tests) was rebuilt before pmf and in every
    # block: 6 builds per call here
    model = lp.PoissonModel([[1, 0, 1], [0, 2, 1]], [1.2, 35.0, 2.1])
    built = []
    coord_param = kernels._coord_param

    def counting(lam):
        built.append(lam)
        return coord_param(lam)

    monkeypatch.setattr(kernels, "_coord_param", counting)
    monkeypatch.setattr(montecarlo, "_SAMPLE_BLOCK", 1_000)
    first = verify(model, [2, 72], n_samples=5_000, seed=11)
    assert verify(model, [2, 72], n_samples=5_000, seed=11) == first
    assert sorted(built) == [1.2, 2.1, 35.0]


def test_verify_refuses_sample_indices_past_uint64(model1, monkeypatch):
    # 2**70 samples ran on, 2**20 at a time, for about 2**44 blocks
    # before the indices passed the kernels' uint64 limit: now refused
    # before any draw
    def no_draw(*args):
        raise AssertionError("hits_block called")

    monkeypatch.setattr(montecarlo, "hits_block", no_draw)
    for n in (2**64, 2**70):
        with pytest.raises(InputError, match="unsigned 64-bit"):
            verify(model1, [2, 2], n_samples=n, seed=1)


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
