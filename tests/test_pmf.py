"""Probability evaluation: log terms, stable summation, the one route
per query against the oracles of tests/oracle.py, generating function."""

import dataclasses
import importlib
import json
import math
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln
from scipy.stats import poisson

import linpois as lp
from linpois import model as model_module
from linpois import solutions as S
from linpois.cli import main
from linpois.errors import InputError, InternalInvariantError
from linpois.model import _log_factorials, _log_poisson, rate_constants
from linpois.pmf import _log_terms, _summed

from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3
from oracle import (enumerate_solutions, family_set, hand_reduced, line_points,
                    reference_log_prob, reference_log_sum, reference_term)

P = importlib.import_module("linpois.pmf")

REL = 1e-12  # cross-method agreement tolerance


def rel_close(x, y, tol=REL):
    if x == y:
        return True
    return abs(x - y) <= tol * max(abs(x), abs(y))


# --------------------------------------------------------- log terms

def log_term(k, rates):
    """ln of one product term, sum_i [k_i ln l_i - l_i - ln k_i!]: the
    log_prob of pmf on an identity model, whose solution set is k."""
    return lp.pmf(lp.PoissonModel(lp.int_identity(len(k)), rates), k).log_prob


def test_log_term_known_values():
    assert log_term([0, 0, 0], [1.0, 1.0, 1.0]) == -3.0
    got = log_term([2, 1, 0], [1.0, 1.0, 1.0])
    assert math.isclose(got, math.log(0.5) - 3.0, rel_tol=1e-15)
    got = log_term([0, 5], [0.0, 2.0])
    assert math.isclose(got, 5 * math.log(2) - 2 - math.log(120), rel_tol=1e-14)


def test_log_term_zero_rate_point_mass():
    assert log_term([1], [0.0]) == float("-inf")
    assert log_term([0], [0.0]) == 0.0


def test_log_term_validation():
    # the model checks the rates and pmf's query step the counts
    with pytest.raises(InputError):
        lp.PoissonModel([[1]], [-1.0])
    model = lp.PoissonModel([[1]], [1.0])
    for bad in ([1, 2], [0.5], [10**400]):
        with pytest.raises(InputError):
            lp.pmf(model, bad)
    # a negative count is a query of probability 0, not an error
    assert lp.pmf(model, [-1]).log_prob == float("-inf")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20),
                          st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2),
                                           Fraction(1), Fraction(3, 2), Fraction(2),
                                           Fraction(4)])),
                min_size=1, max_size=5))
def test_log_term_matches_exact_rational(pairs):
    """Oracle: lambda^k / k! as an exact Fraction, log via big-int
    math.log; the e^-lambda part is exact because every rate is dyadic.
    A zero rate is a point mass at 0: 0^0 = 1, and 0^k = 0 for k > 0."""
    ks = [k for k, _ in pairs]
    lams = [lam for _, lam in pairs]
    got = log_term(ks, [float(x) for x in lams])
    frac = Fraction(1)
    for k, lam in pairs:
        frac *= lam**k / math.factorial(k)
    if frac == 0:
        assert got == float("-inf")
        return
    expect = math.log(frac.numerator) - math.log(frac.denominator) - float(sum(lams))
    assert math.isclose(got, expect, rel_tol=1e-13, abs_tol=1e-13)


# -------------------------------------------------------- logsumexp

def test_logsumexp_edges():
    assert lp.logsumexp([]) == float("-inf")
    assert lp.logsumexp([float("-inf")] * 3) == float("-inf")
    assert lp.logsumexp([0.0]) == 0.0
    # huge shifts must not overflow
    assert math.isclose(lp.logsumexp([-1000.0, -1000.0]), -1000.0 + math.log(2), rel_tol=1e-15)


@settings(max_examples=150)
@given(st.lists(st.floats(-30, 30), min_size=1, max_size=40), st.randoms())
def test_logsumexp_accuracy_and_order_independence(ts, rnd):
    expect = math.log(math.fsum(math.exp(t) for t in ts))
    got = lp.logsumexp(ts)
    # abs_tol covers results near 0, where the exp/log oracle itself is noisy
    assert math.isclose(got, expect, rel_tol=1e-13, abs_tol=1e-12)
    shuffled = list(ts)
    rnd.shuffle(shuffled)
    assert lp.logsumexp(shuffled) == got


@settings(max_examples=100)
@given(st.lists(st.floats(-1e3, 1e3) | st.just(float("-inf")), max_size=50))
def test_logsumexp_array_equals_list(ts):
    assert lp.logsumexp(np.array(ts, dtype=np.float64)) == lp.logsumexp(ts)


# ------------------------------------------- array term evaluation

def agrees_with_reference(res, ref):
    if ref == float("-inf"):
        return res.log_prob == ref and res.prob == 0.0
    # abs_tol only matters for log_prob near 0, i.e. prob near 1
    return math.isclose(res.log_prob, ref, rel_tol=REL, abs_tol=REL)


RATES = [0.0, 0.5, 1.0, 2.0, 37.5]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pmf_matches_fsum_reference_on_enumeration(data):
    """Every route, with zero-rate columns, zero columns, dependent rows
    and infeasible b, against the oracle over enumerate_solutions of
    model.a, which has neither zero-rate nor zero columns, and against
    the model reduced by hand."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    lam = [data.draw(st.sampled_from(RATES)) for _ in range(n)]
    model = lp.PoissonModel(rows, lam)
    b = [data.draw(st.integers(0, 12)) for _ in range(m)]
    fam = enumerate_solutions(model.a, b)
    res = lp.pmf(model, b)
    assert res.terms == fam.count
    assert agrees_with_reference(res, reference_log_prob(model.rates.tolist(), family_set(fam)))
    hand = hand_reduced(rows, lam)
    if hand is not None:
        assert lp.pmf(hand, b) == res


@settings(max_examples=30, deadline=None)
@example((1, 1), 9_999, [5000.0, 5000.0])
@example((2, 3), 10_000, [0.0, 800.0])
@given(st.sampled_from([(1, 1), (1, 2), (2, 3), (3, 1)]),
       st.integers(0, 10_000),
       st.lists(st.sampled_from(RATES + [800.0, 5000.0]), min_size=2, max_size=2))
def test_pmf_long_lines_match_fsum_reference(coeffs, size, lam):
    """Lines of up to 1e4 terms.  The oracle's points come from a direct
    loop over k1, because enumerate_solutions visits a box quadratic in
    b here; for small b that loop is checked against it.  A zero-rate
    column is dropped at build, so its model keeps only the points with
    a zero count there, as the model reduced by hand does."""
    a1, a2 = coeffs
    b = a1 * a2 * size + (size % a1)
    model = lp.PoissonModel([[a1, a2]], lam)
    points = [(k1, (b - a1 * k1) // a2) for k1 in range(b // a1 + 1) if (b - a1 * k1) % a2 == 0]
    if b <= 60:
        assert set(points) == family_set(enumerate_solutions([[a1, a2]], [b]))
    live = [k for k in points if all(x == 0 or r > 0.0 for x, r in zip(k, lam))]
    res = lp.pmf(model, [b])
    assert res.terms == len(live) <= 10_001
    # with a zero rate one column is left: at most one point
    assert res.route == lp.solution_family(model, [b]).kind
    assert (res.route == "line") is (0.0 not in lam and len(live) > 1)
    assert agrees_with_reference(res, reference_log_prob(lam, points))
    hand = hand_reduced([[a1, a2]], lam)
    if hand is not None:
        assert lp.pmf(hand, [b]) == res


def summed_blocks(model, b):
    """pmf(model, b) and the (lo, hi) of every block of line points it
    evaluated."""
    blocks = []
    points = lp.SolutionFamily.points

    def spy(fam, lo=None, hi=None):
        if fam.kind == "line":
            blocks.append((lo, hi))
        return points(fam, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp.SolutionFamily, "points", spy)
        res = lp.pmf(model, b)
    return res, blocks


LINE_MATRICES = [EXAMPLE1, EXAMPLE2, [[1, 1]], [[1, 2]], [[2, 3]], [[1, 1, 2], [0, 1, 1]]]


@st.composite
def kernel_one_lines(draw):
    """A model with a one-dimensional kernel and a b whose solution set
    is a line of at most 10**4 points."""
    if draw(st.booleans()):
        a = draw(st.sampled_from(LINE_MATRICES))
    else:
        m = draw(st.integers(1, 2))
        a = [[draw(st.integers(1 if m == 1 else 0, 3)) for _ in range(m + 1)] for _ in range(m)]
    n = len(a[0])
    rates = [draw(st.sampled_from([0.0] + [0.5, 3.0, 37.5, 800.0, 5000.0] * 2)) for _ in range(n)]
    scale = draw(st.sampled_from([3, 30, 300, 3000, 5000]))
    k = [draw(st.integers(0, scale)) for _ in range(n)]
    b = [sum(x * y for x, y in zip(row, k)) for row in a]
    return a, rates, b


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@example(([[1, 1]], [5000.0, 5000.0], [9999]))
@example(([[1, 100]], [5000.0, 37.5], [40_000]))
@example(([[1, 1]], [37.5, 800.0], [3000]))
@example(([[1, 0, 1, 1], [0, 2, 1, 1]], [0.0, 5000.0, 800.0, 37.5], [3000, 3000]))
@example(([[1, 2, 2]], [800.0, 0.0, 37.5], [2000]))
@example(([[1, 1]], [5.0, 800.0], [3000]))
@given(kernel_one_lines())
def test_windowed_line_sum_matches_full_sum(case):
    """The line sum against an fsum over every point of the line of
    model.a, and the reported tail bound against the mass it actually
    left out.  A zero-rate column is dropped at build, so a zero-rate
    model is summed along a line only when its reduced system is one."""
    a, rates, b = case
    model = lp.PoissonModel(a, rates)
    assume(model.n - model.snf.rank == 1)
    fam = lp.solution_family(model, b)
    assume(fam.kind == "line" and fam.count <= 10_000)
    lam = model.rates.tolist()
    terms = [reference_term(k, lam) for k in line_points(fam)]
    res, blocks = summed_blocks(model, b)
    assert res.terms == fam.count and res.route == "line"
    full = reference_log_sum(terms)
    assert math.isclose(res.log_prob, full, rel_tol=REL, abs_tol=REL)
    # the blocks tile one window [jlo, jhi] of the line
    blocks.sort()
    jlo, jhi = blocks[0][0], blocks[-1][1]
    assert all(q[1] + 1 == r[0] for q, r in zip(blocks, blocks[1:]))
    assert res.summed == jhi - jlo + 1 <= fam.count
    kept = range(jlo - fam.jmin, jhi - fam.jmin + 1)
    omitted = math.fsum(math.exp(t - res.log_prob)
                        for i, t in enumerate(terms) if i not in kept)
    assert omitted <= res.tail_bound <= 2.0**-60
    if res.summed == fam.count:
        assert res.tail_bound == 0.0


def test_line_window_extends_past_its_curvature_guess():
    """[[1, 1]] at rates (5, 800), b = 3000: the first count is about 18
    at the mode, and its share 1/(k+1) of the curvature falls quickly as
    it grows, so the first window stops short on that side (the other
    reaches the span's end) and is extended once."""
    model = lp.PoissonModel([[1, 1]], [5.0, 800.0])
    res, blocks = summed_blocks(model, [3000])
    assert len(blocks) == 2 and blocks[1][1] + 1 == blocks[0][0]
    assert blocks[0][1] == 3000 and res.summed == 3001 - blocks[1][0]
    assert 0.0 < res.tail_bound <= 2.0**-60


def test_window_of_a_million_point_line():
    """E1 at b = (2e6, 2e6): 10**6 + 1 points, about 1,800 of them above
    the tail threshold.  The result equals the full sum, and the window
    is evaluated in a small fraction of the memory the line would take."""
    model = lp.PoissonModel(EXAMPLE1, [1.2, 35.0, 2.1])
    b = [2 * 10**6, 2 * 10**6]
    fam = lp.solution_family(model, b)
    assert fam.count == 10**6 + 1
    res = lp.pmf(model, b)
    tracemalloc.start()
    try:
        again = lp.pmf(model, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == res
    assert res.terms == 10**6 + 1 and res.summed <= 10**4
    assert peak < 1 << 20
    # the full sum, one term per point, by scipy's log-gamma
    k = fam.points()
    lam = np.array([1.2, 35.0, 2.1])
    logs = (k * np.log(lam) - lam - gammaln(k + 1.0)).sum(axis=1)
    hi = float(logs.max())
    full = hi + math.log(math.fsum(np.exp(logs - hi).tolist()))
    assert math.isclose(res.log_prob, full, rel_tol=REL)
    assert res.log_prob == lp.logsumexp(_log_terms(k, model.rates, model.term_constants))


def _fresh_ln_fact(monkeypatch):
    monkeypatch.setattr(model_module, "_ln_fact", np.empty(0))


def test_log_terms_table_equals_lgamma_map(monkeypatch):
    """The lgamma table for small counts gives the same bits as one
    math.lgamma call per entry, and large counts keep the map."""
    _fresh_ln_fact(monkeypatch)
    rng = np.random.default_rng(7)
    lam = np.array([2.5e-8, 0.3, 4.5, 1e4])
    consts = rate_constants(lam)
    cases = [rng.integers(0, 40, size=(50, 4)).astype(np.float64),
             np.array([[0.0, 0, 0, 0]]),
             np.array([[0.0, 1, 2, 3]]),
             np.array([[0.0, 2.0**53 + 2, 3, 2.0**60], [0, 5, 2.0**64, 1]]),
             rng.integers(0, 10**6, size=(8, 4)).astype(np.float64)]
    for pts in cases:
        lgam = np.array([math.lgamma(x) for x in (pts + 1.0).ravel().tolist()]).reshape(pts.shape)
        want = (pts * consts - lam - lgam).sum(axis=1)
        assert np.array_equal(_log_terms(pts, lam, consts), want)


def test_one_routine_forms_the_poisson_log_term(monkeypatch):
    """model._log_poisson gives the bits of k ln lam - lam - lgamma(k + 1)
    formed per entry in Python floats, and of _log_terms over a
    one-column array, for int64 and float64 counts: k = 0, counts the
    ln k! table serves, counts past its cap and past 2**53."""
    _fresh_ln_fact(monkeypatch)
    cap = model_module._LN_FACT_CAP
    grids = [list(range(41)),
             [0, 1, cap - 1, cap, cap + 5, 10**7, 2**40, 2**53 + 2, 2**62]]
    for lam in (2.5e-8, 0.3, 29.9, 30.0, 45.5, 1e4, 2.0**34, 1e15):
        log_lam = math.log(lam)
        consts = rate_constants(np.array([lam]))
        assert consts[0] == log_lam
        for ks in grids:
            want = [k * log_lam - lam - math.lgamma(k + 1.0) for k in map(float, ks)]
            for dtype in (np.int64, np.float64):
                assert _log_poisson(np.array(ks, dtype=dtype), lam, log_lam).tolist() == want
            col = np.array(ks, dtype=np.float64)[:, None]
            assert _log_terms(col, np.array([lam]), consts).tolist() == want


def test_log_factorials_equal_lgamma_per_entry(monkeypatch):
    """The shared ln k! routine gives the bits of one math.lgamma(k + 1.0)
    per entry, for int64 and float64 counts, on the table path and the
    per-entry path, empty, and past 2**53."""
    _fresh_ln_fact(monkeypatch)
    rng = np.random.default_rng(11)
    small = rng.integers(0, 40, size=(60, 3))
    big = np.array([0, 7, 2**53 - 1, 2**53 + 1, 2**53 + 3, 2**60 + 5, 2**62], dtype=np.int64)
    cases = [small, rng.integers(0, 40, size=200), big, np.array([0]), np.array([3]),
             np.arange(5), np.empty(0, dtype=np.int64), np.empty((4, 0), dtype=np.int64)]
    for k in cases:
        for pts in (k.astype(np.int64), k.astype(np.float64)):
            want = np.array([math.lgamma(x + 1.0) for x in pts.ravel().tolist()],
                            dtype=np.float64).reshape(pts.shape)
            got = _log_factorials(pts)
            assert got.dtype == np.float64 and got.shape == pts.shape
            assert np.array_equal(got, want)
    # both paths are taken: the first 180 counts below 40 grow the empty
    # table to max + 1 <= 180 entries, which the 200 counts below 40
    # then index; the counts past 2**53 are past the cap and are mapped
    # one by one
    assert small.max() + 1 <= small.size and big.max() >= model_module._LN_FACT_CAP
    assert len(model_module._ln_fact) == small.max() + 1


def test_ln_fact_table_grows_with_lgamma_bits(monkeypatch):
    """Each growth extends the process-wide table to max(max + 1, twice
    its length) entries, every one equal to math.lgamma(j + 1.0); a
    call whose extension would exceed max(size, length) maps instead."""
    _fresh_ln_fact(monkeypatch)
    steps = [(np.arange(10), 10),  # empty: max + 1 <= size
             (np.array([15, 0, 1, 2, 3]), 20),  # doubling adds 10 <= length
             (np.arange(100) % 91, 91),  # max + 1 > twice 20; adds 71 <= size
             (np.array([150]), 182),  # doubling adds 91 <= length
             (np.array([2000, 1]), 182),  # would add 1,819 > max(2, 182): mapped
             (np.array([[181.0, 0.0]]), 182)]  # read
    for k, length in steps:
        got = _log_factorials(k)
        assert np.array_equal(got, np.array([math.lgamma(x + 1.0) for x in k.ravel().tolist()])
                              .reshape(k.shape))
        assert len(model_module._ln_fact) == length
        assert np.array_equal(model_module._ln_fact,
                              [math.lgamma(j + 1.0) for j in range(length)])


def test_ln_fact_growth_bound_on_lgamma_calls(monkeypatch):
    """A spy on math.lgamma: no call makes more lgamma calls than
    max(its number of counts, the table's length before it), and a call
    that makes any either maps all its counts or grows the table."""
    _fresh_ln_fact(monkeypatch)
    calls = 0
    lgamma = math.lgamma

    def counting_lgamma(x):
        nonlocal calls
        calls += 1
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counting_lgamma)
    rng = np.random.default_rng(5)
    grew = mapped = 0
    for _ in range(300):
        size = int(rng.integers(1, 400))
        top = int(np.exp(rng.uniform(0.0, math.log(50_000))))
        k = rng.integers(0, top + 1, size=size)
        before = len(model_module._ln_fact)
        calls = 0
        _log_factorials(k)
        after = len(model_module._ln_fact)
        assert calls <= max(k.size, before)
        if calls:
            assert calls == after - before or (calls == k.size and after == before)
        grew += after > before
        mapped += calls == k.size and after == before
    assert grew >= 5 and mapped >= 5


def test_ln_fact_cap(monkeypatch):
    """Counts at and past the cap of 2**20 entries, and past 2**53, are
    mapped one by one, and the table never holds more than the cap."""
    _fresh_ln_fact(monkeypatch)
    cap = model_module._LN_FACT_CAP
    assert cap == 1 << 20
    _log_factorials(np.arange(cap // 2))
    assert len(model_module._ln_fact) == cap // 2
    # doubling from half the cap stops at the cap
    _log_factorials(np.array([cap - 1]))
    assert len(model_module._ln_fact) == cap
    for k in (np.array([cap]), np.array([cap + 5, 3]), np.arange(cap + 1),
              np.array([0, 2**53 + 2, 2**60], dtype=np.int64),
              np.array([2.0**53 + 2, 1.0, 2.0**64])):
        got = _log_factorials(k)
        assert len(model_module._ln_fact) == cap
        want = np.array([math.lgamma(x + 1.0) for x in k.astype(np.float64).tolist()])
        assert np.array_equal(got, want)
    table = model_module._ln_fact
    assert np.array_equal(table[-3:], [math.lgamma(cap - 2.0), math.lgamma(cap - 1.0),
                                       math.lgamma(float(cap))])


def test_ln_fact_table_shared_by_threads(monkeypatch):
    """pmf and verify(threads=2), run from 4 threads at once while the
    table grows from empty, return what serial calls return."""
    model = lp.PoissonModel(EXAMPLE1, [1.2, 35.0, 2.1])
    bs = [[2 * s, 2 * s + 30] for s in (5, 40, 300, 2_000, 9_000)]
    jobs = [("pmf", b) for b in bs] + [("verify", [10, 72]), ("verify", [3, 70])]

    def run(job):
        kind, b = job
        if kind == "pmf":
            return lp.pmf(model, b)
        return lp.verify(model, b, 20_000, 17, threads=2)

    serial = [run(job) for job in jobs]
    for _ in range(3):
        _fresh_ln_fact(monkeypatch)
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(run, jobs * 2)) == serial * 2
    assert len(model_module._ln_fact) <= model_module._LN_FACT_CAP


def test_pmf_line_partly_live(model1):
    # a zero rate on k1 drops it at build: of the 11 points on the line
    # of the full matrix, the one with k1 = 0 is the reduced singleton
    model = lp.PoissonModel(EXAMPLE1, [0.0, 1.5, 2.0])
    assert model.report.removed_columns == (0,)
    fam = lp.solution_family(model, [20, 60])
    assert fam.kind == "singleton" and family_set(fam) == {(20, 20)}
    res = lp.pmf(model, [20, 60])
    assert res.terms == 1 and res.route == "singleton"
    line = enumerate_solutions(EXAMPLE1, [20, 60])
    assert line.count == 11
    assert agrees_with_reference(res, reference_log_prob([0.0, 1.5, 2.0], family_set(line)))
    assert math.isclose(res.log_prob, log_term([0, 20, 20], [0.0, 1.5, 2.0]), rel_tol=1e-15)


def test_zero_rate_columns_are_dropped_at_build():
    """[[1, 1, 1]] at rates (0, 1, 2) sums the 41-point line of [[1, 1]]
    where the full matrix has 861 points; an all-zero-rate model is the
    point mass at b = 0."""
    model = lp.PoissonModel([[1, 1, 1]], [0.0, 1.0, 2.0])
    assert (model.n, model.report.removed_columns) == (2, (0,))
    res = lp.pmf(model, [40])
    assert res.terms == 41 and res.route == "line"
    assert res == lp.pmf(lp.PoissonModel([[1, 1]], [1.0, 2.0]), [40])
    assert math.isclose(res.prob, poisson.pmf(40, 3.0), rel_tol=REL)
    none = lp.PoissonModel([[1, 1]], [0.0, 0.0])
    assert none.n == 0 and none.report.removed_columns == (0, 1)
    assert (lp.pmf(none, [0]).prob, lp.pmf(none, [0]).terms) == (1.0, 1)
    for b in (1, 2, 40):
        assert lp.pmf(none, [b]).prob == 0.0


def test_rate_total_past_the_float_range_is_refused():
    """-sum(rates) enters every log term and G(z): a total past the
    float64 range is refused at build, zero columns' rates included,
    while a total just below it is answered without overflow."""
    for a in ([[1, 1]], [[1, 0]]):
        with pytest.raises(InputError, match="rate total"):
            lp.PoissonModel(a, [1e308, 1e308])
    model = lp.PoissonModel([[1, 1]], [1e308, 7e307])
    res = lp.pmf(model, [3])
    assert math.isfinite(res.log_prob) and res.log_prob < -1e308
    assert (lp.gf_eval(model, [0.5]), lp.gf_eval(model, [1.0])) == (0.0, 1.0)


def test_pmf_zero_column_only_model():
    model = lp.PoissonModel([[0, 0]], [1.0, 2.0])
    assert model.n == 0
    sure = lp.pmf(model, [0])
    assert (sure.prob, sure.log_prob, sure.terms) == (1.0, 0.0, 1)
    never = lp.pmf(model, [3])
    assert (never.prob, never.log_prob, never.terms) == (0.0, float("-inf"), 0)


def test_pmf_counts_beyond_int64(model1):
    # k2 = 2**63 - 1 and 2**63: float64 rounds them as float(k) does,
    # where an int64 array would overflow or wrap
    res = lp.pmf(model1, [2, 2**64])
    assert res.terms == 2
    assert math.isclose(res.log_prob, -3.9354535028702885e20, rel_tol=1e-12)
    with pytest.raises(InputError):
        lp.pmf(model1, [2, 10**400])
    # a line of 10**400 + 1 points: its mode search leaves the float range
    with pytest.raises(InputError, match="float64 range"):
        lp.pmf(lp.PoissonModel([[1, 1]], [1.0, 1.0]), [10**400])


# ------------------------------------------ Poisson moment identity

def moment_gap(model, b):
    """The largest relative gap, over the rows i with b_i > 0, in
    b_i P(b) = sum_j a_ij l_j P(b - a_j), over the columns of the full
    matrix, every probability from pmf.  It holds because
    E[X_j; Y = b] = l_j P(Y = b - a_j) for a Poisson X_j, so it needs no
    oracle.  Sides are compared in log space, since P(b) may underflow."""
    a, lam = model.a_full, model.rates_full.tolist()
    cols = [[int(x) for x in a[:, j]] for j in range(model.n_full)]
    left = lp.pmf(model, b).log_prob
    shifted = [lp.pmf(model, [x - c for x, c in zip(b, col)]).log_prob for col in cols]
    gap = 0.0
    for i, bi in enumerate(b):
        if bi == 0:
            continue
        right = reference_log_sum([math.log(col[i] * r) + t
                                   for col, r, t in zip(cols, lam, shifted) if col[i] and r])
        if left == float("-inf"):
            assert right == left
            continue
        gap = max(gap, abs(math.expm1(right - (math.log(bi) + left))))
    return gap


MOMENT_CASES = [
    # (a, rates, b, route of the query)
    (EXAMPLE3, [0.7, 1.3, 0.2], [25, 46, 34], "singleton"),
    (EXAMPLE1, [1.2, 35.0, 2.1], [20_000, 20_000], "line"),
    ([[1, 2, 3]], [100.0, 200.0, 300.0], [1400], "recurrence"),
    # zero-rate and zero columns: reduced to a line, a rank-1 kernel of
    # dimension 2, a singleton
    ([[1, 1, 0, 2, 1], [0, 1, 0, 1, 1]], [3.0, 0.0, 4.0, 2.0, 1.5], [30, 12], "line"),
    ([[1, 1, 1, 1, 0]], [0.0, 5.0, 7.0, 9.0, 2.0], [60], "recurrence"),
    (EXAMPLE1, [0.0, 1.5, 2.0], [20, 60], "singleton"),
    # rank 2, walked: 140,701 points at b, and one reduced from zero-rate
    # and zero columns
    ([[1, 1, 0, 2], [0, 1, 1, 1]], [100.0, 200.0, 150.0, 250.0], [800, 600], "walk"),
    ([[1, 1, 0, 2, 0, 1], [0, 1, 1, 1, 0, 2]], [3.0, 0.0, 4.0, 2.0, 5.0, 1.5], [30, 40],
     "walk"),
    # rank 1 with dependent rows of gcd > 1, and with sum l > 745, where
    # e**-sum(l) underflows
    ([[2, 2, 4], [3, 3, 6]], [1.5, 2.5, 4.0], [60, 90], "recurrence"),
    ([[1, 1, 1, 1]], [200.0, 200.0, 200.0, 160.0], [760], "recurrence"),
]


# each case's id names its kernel class, from n - rank: 0 for a
# singleton, 1 for a line, 2 or more for the walk and the recurrence
KERNEL_CLASS = {"singleton": "invertible", "line": "single-index",
                "walk": "enumerate", "recurrence": "enumerate"}


@pytest.mark.parametrize("a, rates, b, route", MOMENT_CASES,
                         ids=lambda v: KERNEL_CLASS[v] if isinstance(v, str) else None)
def test_moment_identity_on_every_route(a, rates, b, route, monkeypatch):
    """E1 at (2e4, 2e4) is a line of 10,001 points, [[1, 2, 3]] at 1400
    a recurrence over 164,034 points, past the reach of the DFS oracle,
    and the rank-2 model at (800, 600) a walk of 140,701 points.  A
    kernel of dimension 2 or more is walked unless A has rank 1; every
    rank-1 case here is answered by the recurrence.  The result's route
    is "walk" exactly when pmf walked."""
    model = lp.PoissonModel(a, rates)
    calls = []

    def spy(plan, b):
        calls.append(b)
        return walk(plan, b)

    walk = P._walk_family
    monkeypatch.setattr(P, "_walk_family", spy)
    res = lp.pmf(model, b)
    monkeypatch.undo()
    assert res.route == route and res.log_prob > float("-inf")
    assert bool(calls) is (route == "walk")
    assert moment_gap(model, b) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_moment_identity_with_zero_rates_and_zero_columns(data):
    m = data.draw(st.integers(1, 2))
    n = data.draw(st.integers(1, 5))
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    lam = [data.draw(st.sampled_from([0.0, 0.5, 3.0, 37.5])) for _ in range(n)]
    model = lp.PoissonModel(rows, lam)
    b = [data.draw(st.integers(0, 40)) for _ in range(m)]
    assert moment_gap(model, b) <= 1e-12


# ------------------------------------------------ rank-1 recurrence

def walked(model, b):
    """pmf's answer from the walk: every lattice point, summed."""
    fam = lp.solution_family(model, b)
    return _summed(_log_terms(fam.points(), model.rates, model.term_constants), "walk")


def rel_gap(x, y):
    """Relative gap of two probabilities given by their logs."""
    if x == y:
        return 0.0
    return abs(math.expm1(x - y))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@example(w=[5, 2, 2, 2, 2, 2, 2], g=[1], lam=[1.0] * 7, t=3, shift=0)  # no point: 0 terms
@example(w=[2, 4, 0, 6], g=[0, 3, 6], lam=[0.3, 2.5, 1.0, 0.0], t=7, shift=0)
@example(w=[1, 2, 3], g=[2], lam=[1.0] * 5, t=0, shift=0)  # no step
@given(w=st.lists(st.integers(0, 4), min_size=3, max_size=5),
       g=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       lam=st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5, 7.0]), min_size=5, max_size=5),
       t=st.integers(0, 30), shift=st.sampled_from([0, 0, 0, 1, -1, -40]))
def test_recurrence_matches_walk(w, g, lam, t, shift):
    """Rank-1 models with zero columns, zero rates, dependent rows, rows
    of gcd > 1 and zero rows; b on the lattice, off it (shift 1 on the
    last row, or -1 on the first) or negative (-40).  pmf answers every
    one of them without walking: by the lattice test or the recurrence."""
    rows = [[gi * x for x in w] for gi in g]
    lam = lam[:len(w)]
    model = lp.PoissonModel(rows, lam)
    assume(model._row_plan is not None)
    b = [gi * t for gi in g]
    if shift > 0:
        b[-1] += shift
    elif shift < 0:
        b[0] += shift
    ref = walked(model, b)
    res = lp.pmf(model, b)
    assert res.route in ("empty", "recurrence")
    assert res.terms == ref.terms
    assert rel_gap(res.log_prob, ref.log_prob) <= REL
    if res.terms:
        plan = model._row_plan
        assert res.summed == b[plan.row] // plan.g + 1
    else:
        assert dataclasses.replace(res, route="walk") == ref
    assert res.tail_bound == 0.0


def test_recurrence_counts_and_sums_past_the_walk():
    """1x8 all ones at rate 1 is Poisson(8): at b = 60 the walk would
    hold 869,648,208 points and its frontier is refused, the recurrence
    takes 61 steps.  The reference is 40-digit mpmath."""
    res = lp.pmf(lp.PoissonModel([[1] * 8], [1.0] * 8), [60])
    assert res.terms == math.comb(67, 7) == 869_648_208
    assert res.summed == 61
    assert rel_gap(res.log_prob, -71.86168092288143549218663) <= REL


@pytest.mark.parametrize("rates, b, want", [
    # sum l = 760: e**-760 underflows, the values are shifted down
    ([200.0, 200.0, 200.0, 160.0], 760, -4.235707398961340285920657),
    # sum l = 1 at b = 400: 1/400! underflows, the values are shifted up
    ([0.25] * 4, 400, -2001.500697983241389116455),
])
def test_recurrence_beyond_the_float_range(rates, b, want):
    """Poisson(sum l) at b against 40-digit mpmath."""
    assert math.exp(-sum(rates)) == 0.0 or math.exp(want) == 0.0
    res = P._recurrence(lp.PoissonModel([[1] * 4], rates), [b])
    assert res is not None and res.terms == math.comb(b + 3, 3)
    assert rel_gap(res.log_prob, want) <= REL


def test_recurrence_step_cap(monkeypatch):
    # n (t + 1) = 3 * 21 = 63 steps
    model = lp.PoissonModel([[1, 1, 2]], [1.0, 2.0, 3.0])
    monkeypatch.setattr(S, "MAX_POINTS", 63)
    assert P._recurrence(model, [20]).terms == 121
    monkeypatch.setattr(S, "MAX_POINTS", 62)
    assert P._recurrence(model, [20]) is None
    # pmf walks instead, and its frontier of 121 points is refused too
    with pytest.raises(InputError, match="walk frontier"):
        lp.pmf(model, [20])


@pytest.mark.parametrize("a, rates, b", [
    # 5 (t + 1) 2**-53 > RECURRENCE_TOL: t = 2300 is walked
    ([[1, 1, 1]], [1.0, 1.0, 1.0], [2300]),
    # the coefficient of weight 1 is below 2**-200
    ([[1, 2, 2]], [1e-70, 1.0, 1.0], [30]),
    # rates past 2**200 in total: the model has no row plan
    ([[1, 1, 10**400]], [1.0, 1.0, 1e300], [30]),
])
def test_recurrence_declines_to_the_walk(a, rates, b):
    model = lp.PoissonModel(a, rates)
    res = lp.pmf(model, b)
    assert res.route == "walk" and res == walked(model, b)


@pytest.mark.parametrize("b", [[0], [30], [5000]])
def test_recurrence_skips_weights_past_t(b):
    """Weight 5000 never enters a step at t = 30, and is past MAX_WEIGHT;
    b = 5000 is declined by the error bound and walked."""
    model = lp.PoissonModel([[1, 2, 5000]], [1.5, 0.5, 2.0])
    assert model._row_plan.steps == ((1, 1.5), (2, 1.0))
    res = lp.pmf(model, b)
    assert res.route == ("walk" if b == [5000] else "recurrence")
    ref = walked(model, b)
    assert res.terms == ref.terms
    assert rel_gap(res.log_prob, ref.log_prob) <= REL


@pytest.mark.parametrize("w, rates, t", [
    ([1, 1, 1], [0.5, 1.5, 2.0], 40),  # one weight
    ([1, 2, 2], [0.5, 1.5, 2.0], 40),  # two
    ([1, 2, 3, 3], [0.5, 1.5, 2.0, 0.25], 40),  # three
])
def test_recurrence_equals_plain_fsum_loop(w, rates, t):
    """With no shift needed, the recurrence is this loop bit for bit:
    one coefficient per weight, the weight times math.fsum of its
    rates, and math.fsum of the step's terms divided by s."""
    coef = {x: x * math.fsum([r for r, y in zip(rates, w) if y == x]) for x in set(w)}
    p = [1.0]
    for s in range(1, t + 1):
        p.append(math.fsum([c * p[s - x] for x, c in sorted(coef.items()) if x <= s]) / s)
    want = math.fsum([math.log(p[t]), 0.0, 0.0] + [-r for r in rates])
    res = P._recurrence(lp.PoissonModel([w], rates), [t])
    assert res.log_prob == want


def test_recurrence_window_shift():
    u = [2.0 ** 301, 0.0, 2.0 ** -300]
    assert P._shift_window(u, 0, 3) == 302
    assert u == [0.5, 0.0, 2.0 ** -602]
    # a nonzero value below _TINY after the shift: u is left as it was
    u = [2.0 ** 301, 2.0 ** -400]
    assert P._shift_window(u, 0, 2) is None
    assert u == [2.0 ** 301, 2.0 ** -400]


# ----------------------------------------------------- pmf dispatch

def test_pmf_worked_example(model1):
    res = lp.pmf(model1, [2, 2])
    assert res.route == "line"
    assert res.terms == 2
    assert rel_close(res.prob, math.exp(-3))
    assert math.isclose(res.log_prob, -3.0, rel_tol=1e-14)


def test_pmf_invertible_closed_form():
    lam = (0.7, 1.3, 0.2)
    model = lp.PoissonModel(EXAMPLE3, lam)
    k = [1, 2, 0]
    b = [int(x) for x in lp.int_matrix(EXAMPLE3) @ lp.int_vector(k)]
    res = lp.pmf(model, b)
    assert res.route == "singleton"
    assert res.terms == 1
    expect = (lam[0] * math.exp(-lam[0])
              * lam[1] ** 2 / 2 * math.exp(-lam[1])
              * math.exp(-lam[2]))
    assert rel_close(res.prob, expect)


def test_pmf_zero_results(model1):
    for b in ([0, 1], [-1, 0], [0, -2]):
        res = lp.pmf(model1, b)
        assert res.prob == 0.0
        assert res.log_prob == float("-inf")
        assert res.terms == 0


def test_pmf_b_zero(model3):
    res = lp.pmf(model3, [0, 0, 0])
    assert res.terms == 1
    assert rel_close(res.prob, math.exp(-3))


def test_pmf_dimension_mismatch(model1):
    with pytest.raises(InputError):
        lp.pmf(model1, [1, 2, 3])


def test_pmf_takes_no_method_option(model1):
    """The model and b alone pick the route; no argument forces one."""
    for method in ("enumerate", "auto", "walk"):
        with pytest.raises(TypeError):
            lp.pmf(model1, [2, 2], method=method)
        with pytest.raises(TypeError):
            lp.solution_family(model1, [2, 2], method=method)


ROUTE_CASES = [
    # (a, rates, b, the route that answers)
    (EXAMPLE3, [1.0] * 3, [25, 46, 34], "singleton"),
    (EXAMPLE1, [1.0] * 3, [2, 2], "line"),
    ([[1, 1, 1]], [1.0] * 3, [2], "recurrence"),
    ([[1, 1, 0, 2], [0, 1, 1, 1]], [1.0] * 4, [5, 4], "walk"),
    # off the lattice, and b = 1 on a zero row: the Smith form alone
    ([[2, 4, 6, 8]], [1.0] * 4, [3], "empty"),
    ([[1, 1, 1], [0, 0, 0]], [1.0] * 3, [3, 1], "empty"),
    # rank 1, but the recurrence's error bound declines t = 1800
    ([[1, 1000, 1000]], [1.0, 2.0, 3.0], [1800], "walk"),
]


@pytest.mark.parametrize("a, rates, b, route", ROUTE_CASES)
def test_result_names_its_route(a, rates, b, route, tmp_path, capsys):
    """One query per route, from the API and from CLI pmf --format json."""
    res = lp.pmf(lp.PoissonModel(a, rates), b)
    assert res.route == route
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"a": a, "lambda": rates}))
    assert main(["pmf", str(path), "--b", *map(str, b), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["route"] == route and "method" not in out
    assert (out["log_prob"], out["terms"], out["summed"]) == (res.log_prob, res.terms, res.summed)


def test_removed_names_are_not_exported():
    removed = ["pmf_single_index", "pmf_invertible", "pmf_enumerate",
               "MethodNotApplicableError", "enumerate_solutions", "det_exact", "minor_gcd",
               "WalkPlan", "walk_family", "RngState", "sample_x", "mix64", "uniform53",
               "MethodTag", "classify", "log_term", "sample_many", "snf_family",
               "poisson_cdf_table", "BlockHits"]
    for name in ("linpois", "linpois.errors", "linpois.intlinalg", "linpois.pmf",
                 "linpois.solutions", "linpois.montecarlo", "linpois.kernels"):
        mod = importlib.import_module(name)
        for attr in removed:
            assert not hasattr(mod, attr), f"{name}.{attr}"
        assert not set(removed) & set(getattr(mod, "__all__", ())), name
    assert sorted(lp.__all__) == sorted([
        "LinpoisError", "InputError", "InternalInvariantError", "int_matrix", "int_identity",
        "int_vector", "SnfDecomposition", "snf", "parse_matrix_text", "format_matrix_text",
        "SolutionFamily", "PreprocessReport", "preprocess", "PoissonModel", "model_from_dict",
        "load_model_file", "PmfResult", "logsumexp", "solution_family", "pmf", "gf_eval",
        "gf_eval_series", "pmf_table", "SampleReport", "verify", "default_backend",
        "__version__"])
    assert all(hasattr(lp, name) for name in lp.__all__)
    # the walk is a private step of solution_family
    assert not hasattr(lp.PoissonModel, "walk_plan")
    # a family is a record: its points are read from its fields
    for attr in ("vectors", "solutions", "as_set", "finite"):
        assert not hasattr(lp.SolutionFamily, attr)
    # the console script's entry point is the one CLI function
    assert not hasattr(importlib.import_module("linpois.cli"), "run")
    assert not hasattr(lp.PreprocessReport, "is_trivial")
    # a result names its route, not the model's kernel class
    fields = [f.name for f in dataclasses.fields(lp.PmfResult)]
    assert fields == ["log_prob", "prob", "route", "terms", "clamped", "summed", "tail_bound"]


def test_pmf_dependent_rows_checked_against_original_b():
    model = lp.PoissonModel([[1, 2], [2, 4]], [1.0, 1.0])
    base = lp.PoissonModel([[1, 2]], [1.0, 1.0])
    for b0 in range(8):
        consistent = lp.pmf(model, [b0, 2 * b0])
        assert rel_close(consistent.prob, lp.pmf(base, [b0]).prob)
        assert lp.pmf(model, [b0, 2 * b0 + 1]).prob == 0.0


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_method_agreement_with_enumeration(data):
    """Whatever route pmf takes must agree with brute force: the fsum
    over every point of the depth-first search."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    lam = [data.draw(st.sampled_from([0.5, 1.0, 2.0])) for _ in range(n)]
    model = lp.PoissonModel(rows, lam)
    b = [data.draw(st.integers(0, 8)) for _ in range(m)]
    auto = lp.pmf(model, b)
    brute = enumerate_solutions(model.a, b)
    ref = reference_log_prob(model.rates.tolist(), family_set(brute))
    assert rel_close(auto.prob, math.exp(ref))
    assert auto.terms == brute.count
    if auto.route not in ("walk", "recurrence"):
        assert auto.route == lp.solution_family(model, b).kind


def test_preprocess_is_probability_preserving():
    # zero column + dependent row vs the hand-reduced model
    noisy = lp.PoissonModel([[1, 0, 1], [0, 0, 2], [1, 0, 3]], [1.0, 5.0, 0.5])
    clean = lp.PoissonModel([[1, 1], [0, 2]], [1.0, 0.5])
    for b1 in range(6):
        for b2 in range(0, 6, 2):
            # third row is row1 + row2, so consistent b needs b3 = b1 + b2
            got = lp.pmf(noisy, [b1, b2, b1 + b2])
            want = lp.pmf(clean, [b1, b2])
            assert rel_close(got.prob, want.prob)


def test_marginal_collapse_matches_poisson_sum():
    cases = [
        ([0.5], {"singleton"}),
        ([0.5, 1.5], {"singleton", "line"}),  # one point at b = 0
        ([2.0, 0.25, 1.0], {"recurrence"}),
        ([1.0, 1.0, 0.5, 2.0], {"recurrence"}),
    ]
    for lam, routes in cases:
        model = lp.PoissonModel([[1] * len(lam)], lam)
        total = sum(lam)
        res = [lp.pmf(model, [b]) for b in range(21)]
        assert {r.route for r in res} == routes
        for b, r in enumerate(res):
            assert rel_close(r.prob, poisson.pmf(b, total))


def test_normalization_partial_sum(model1):
    # group all k with sum(k) <= 20 through their Y values
    seen = set()
    a = model1.a_full
    for k1 in range(21):
        for k2 in range(21 - k1):
            for k3 in range(21 - k1 - k2):
                kv = lp.int_vector([k1, k2, k3])
                seen.add(tuple(int(x) for x in a @ kv))
    total = math.fsum(lp.pmf(model1, list(b)).prob for b in seen)
    assert 1 - 1e-6 <= total <= 1 + 1e-12


# ----------------------------------------------------- result shape

def test_prob_zero_iff_log_inf(model1):
    hit = lp.pmf(model1, [2, 2])
    assert hit.prob > 0 and hit.log_prob > float("-inf")
    miss = lp.pmf(model1, [0, 1])
    assert miss.prob == 0.0 and miss.log_prob == float("-inf")


def test_prob_clamp():
    res = _summed([0.0, math.log(1e-13)], "walk")
    assert res.prob == 1.0
    assert res.clamped
    with pytest.raises(InternalInvariantError):
        _summed([math.log(0.6), math.log(0.6)], "walk")


@pytest.mark.parametrize("e", [40, 200])
def test_huge_counts_refuse_a_log_prob_above_zero(e):
    """The log terms cancel at b = 10**e near the rate, and came out
    large and positive: exp(log_prob) raised OverflowError.  log_prob is
    now tested before exp is taken."""
    model = lp.PoissonModel([[1]], [float(10**e)])
    with pytest.raises(InternalInvariantError, match="exceeds"):
        lp.pmf(model, [10**e])


def test_prob_matches_exp_log_prob(model2):
    b = [int(x) for x in model2.a_full @ lp.int_vector([1, 1, 1, 1])]
    res = lp.pmf(model2, b)
    assert res.prob == pytest.approx(math.exp(res.log_prob), rel=1e-15)


# ----------------------------------------------- generating function

def test_gf_at_one_is_total_probability():
    models = [
        lp.PoissonModel(EXAMPLE1, [1.0, 1.0, 1.0]),
        lp.PoissonModel([[1, 0, 1], [0, 0, 2]], [0.5, 3.0, 1.5]),  # zero column
        lp.PoissonModel([[1, 2], [2, 4]], [0.7, 0.3]),  # dependent row
    ]
    for model in models:
        assert math.isclose(lp.gf_eval(model, [1.0] * model.m_full), 1.0, rel_tol=1e-15)


def test_gf_entry_past_the_float_range():
    """z**e for an entry e = 10**400 is 0.0 for z < 1 and 1.0 at z = 1;
    float(z) ** e raised OverflowError."""
    model = lp.PoissonModel([[10**400]], [1.0])
    assert lp.gf_eval(model, [0.5]) == lp.gf_eval(model, [0.0]) == math.exp(-1.0)
    assert lp.gf_eval(model, [1.0]) == 1.0
    assert rel_close(lp.gf_eval_series(model, [0.5], 3), math.exp(-1.0))
    # G = exp(0.5 * 1 + 2 * 0 - 3)
    mixed = lp.PoissonModel([[1, 10**400]], [1.0, 2.0])
    assert rel_close(lp.gf_eval(mixed, [0.5]), math.exp(-2.5))


@pytest.mark.parametrize("lam, z", [(1e16, 1 - 2.0**-46), (1e15, 1 - 2.0**-43),
                                     (1e12, 1 - 2.0**-33)])
def test_gf_near_one_at_large_rates(lam, z):
    """G(z) = exp(lam (z - 1)) for [[1]]: lam * z and lam cancelled when
    subtracted, and G came out 11.5%, 6.4% and 3.9e-5 high.  z - 1 is
    exact here, so the reference rounds only in the product and exp."""
    got = lp.gf_eval(lp.PoissonModel([[1]], [lam]), [z])
    assert rel_close(got, math.exp(lam * (z - 1.0)))


def test_gf_at_zero_is_constant_term(model1):
    assert rel_close(lp.gf_eval(model1, [0.0, 0.0]), lp.pmf(model1, [0, 0]).prob)
    withzero = lp.PoissonModel([[1, 0], [0, 0]], [1.0, 4.0])
    assert rel_close(lp.gf_eval(withzero, [0.0, 0.0]), lp.pmf(withzero, [0, 0]).prob)


def test_gf_validation(model1):
    # a string z entry was parsed, True read as 1.0 and 0.5 + 0j as 0.5
    for bad in ([0.5], [0.5, 1.5], [-0.1, 0.5], [0.2, float("nan")], ["0.5", 0.5],
                [True, 0.5], [0.5 + 0j, 0.5], [np.bool_(False), 0.5], 0.5, [[0.5, 0.5]]):
        with pytest.raises(InputError):
            lp.gf_eval(model1, bad)
        with pytest.raises(InputError):
            lp.gf_eval_series(model1, bad, 10)


def test_gf_series_close_on_awkward_models():
    models = [
        lp.PoissonModel(EXAMPLE1, [1.0, 1.0, 1.0]),
        lp.PoissonModel([[1, 0, 2], [0, 0, 1]], [2.0, 1.0, 0.5]),
        lp.PoissonModel([[1, 1], [2, 2]], [1.5, 0.25]),
        lp.PoissonModel([[3, 1, 0, 2]], [0.5, 2.0, 1.0, 0.0]),
    ]
    for model in models:
        for z in ([0.5] * model.m_full, [0.1] * model.m_full):
            direct = lp.gf_eval(model, z)
            series = lp.gf_eval_series(model, z, 40)
            assert abs(direct - series) <= 1e-9
            assert series <= direct + 1e-15  # dropped tail is nonnegative


def test_pmf_table_matches_pmf(model1):
    table = lp.pmf_table(model1, 6)
    assert table.shape == (7, 7)
    for b1 in range(7):
        for b2 in range(7):
            assert rel_close(table[b1, b2], lp.pmf(model1, [b1, b2]).prob)


def test_pmf_table_large_rates_do_not_underflow():
    # exp(-800) underflows to 0.0; the box must not start from it
    model = lp.PoissonModel([[1, 1]], [400.0, 400.0])
    table = lp.pmf_table(model, 900)
    want = lp.pmf(model, [800]).prob
    assert want > 0.014
    assert rel_close(table[800], want)
    for b in (700, 900):
        assert rel_close(table[b], poisson.pmf(b, 800.0), 1e-9)
    direct = lp.gf_eval(model, [0.5])
    assert direct > 1e-174
    assert rel_close(lp.gf_eval_series(model, [0.5], 900), direct, 1e-11)


def test_pmf_table_guards(model1):
    with pytest.raises(InputError):
        lp.pmf_table(model1, -1)
    with pytest.raises(InputError):
        lp.pmf_table(model1, 100_000)
    # the box of 10**5 + 1 entries is small, but the convolution would
    # add 10**5 + 1 shifted copies of it: refused before any work
    with pytest.raises(InputError, match="work cap"):
        lp.pmf_table(lp.PoissonModel([[1]], [1.0]), 10**5)


def test_degree_bound_must_be_an_int(model1):
    # a float was truncated and a string parsed by pmf_table, and
    # gf_eval_series leaked numpy's ValueError or a TypeError; True was
    # read as a degree bound of 1
    for bad in (2.5, "3", None, True, np.bool_(True)):
        with pytest.raises(InputError, match="integer"):
            lp.pmf_table(model1, bad)
        with pytest.raises(InputError, match="integer"):
            lp.gf_eval_series(model1, [0.5, 0.5], bad)
    assert lp.pmf_table(model1, np.int64(3)).shape == (4, 4)
    assert lp.gf_eval_series(model1, [0.5, 0.5], np.int64(3)) == lp.gf_eval_series(
        model1, [0.5, 0.5], 3)


# ------------------------------------------------- model validation

def test_model_validation_errors():
    with pytest.raises(InputError):
        lp.PoissonModel([[1.5, 2]], [1.0, 1.0])
    with pytest.raises(InputError):
        lp.PoissonModel([[1, 2]], [1.0])
    with pytest.raises(InputError):
        lp.PoissonModel([[1, 2]], [1.0, -1.0])
    with pytest.raises(InputError):
        lp.PoissonModel([[1, 2]], ["a", "b"])
    with pytest.raises(InputError):
        lp.PoissonModel([[-1, 2]], [1.0, 1.0])
    for a, rates in (([[]], []), (np.zeros((0, 2), dtype=int), [1.0, 1.0])):
        with pytest.raises(InputError, match="at least one row and one column"):
            lp.PoissonModel(a, rates)
    for rates in ([[1.0, 1.0]], 1.0):
        with pytest.raises(InputError, match="rate must be a vector"):
            lp.PoissonModel([[1, 2]], rates)


def test_model_from_dict_validation():
    good = {"a": [[1, 0, 1], [0, 2, 1]], "lambda": [1, 1, 1], "name": "x"}
    model = lp.model_from_dict(good)
    assert model.name == "x"
    assert model.m_full == 2
    with pytest.raises(InputError):
        lp.model_from_dict({"a": [[1]]})
    with pytest.raises(InputError):
        lp.model_from_dict({"a": [[1]], "lambda": [1], "extra": 1})
    with pytest.raises(InputError):
        lp.model_from_dict({"a": [[1]], "lambda": [1], "name": 7})
    with pytest.raises(InputError):
        lp.model_from_dict([1, 2])


def test_load_model_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text('{"a": [[1, 1]], "lambda": [1.0, 2.0]}')
    model = lp.load_model_file(path)
    assert model.n_full == 2
    with pytest.raises(InputError):
        lp.load_model_file(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(InputError):
        lp.load_model_file(bad)
