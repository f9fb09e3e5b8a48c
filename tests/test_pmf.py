"""Probability evaluation: log terms, stable summation, the one route
per query against the oracles of tests/oracle.py, generating function."""

import dataclasses
import importlib
import itertools
import json
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import linpois as lp
from linpois import model as model_module
from linpois import solutions as S
from linpois.cli import main
from linpois.errors import InputError, InternalInvariantError
from linpois.model import _log_factorials, _log_poisson
from linpois.pmf import _summed

from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3
from oracle import (STIRLING_FROM, block_points, enumerate_solutions, family_set, gf_eval_series,
                    hand_reduced, line_points, ln_factorial, log_poisson, log_terms,
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
    # a term of +inf gave nan and a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert lp.logsumexp([math.inf]) == math.inf
        assert lp.logsumexp([math.inf, 0.0]) == math.inf
        assert lp.logsumexp(np.array([-math.inf, math.inf])) == math.inf
    # a NaN term, a nested list and a string leaked nan, TypeError and
    # ValueError
    for bad in ([math.nan], [0.0, math.nan], [[1.0, 2.0]], np.zeros((1, 2)), 0.0,
                ["a"], [1.0, "2"], [True], [1j], [None]):
        with pytest.raises(InputError):
            lp.logsumexp(bad)


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
    evaluated (pmf._line_terms)."""
    blocks = []
    line_terms = P._line_terms

    def spy(fam, model, lo, hi):
        blocks.append((lo, hi))
        return line_terms(fam, model, lo, hi)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "_line_terms", spy)
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


def _fields(res):
    """The fields of a result, each float by its bits."""
    return [x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(res)]


def _natural_order_sum(model, b, blocks):
    """_summed over the window that a line sum evaluated, its terms in
    the order of j, with the tail bounds read off its edge terms."""
    fam = lp.solution_family(model, b)
    lo, hi = min(q[0] for q in blocks), max(q[1] for q in blocks)
    t = log_terms(block_points(fam, lo, hi), model.rates, model.term_constants)
    tails = [math.log(left) + float(x)
             for left, x in ((lo - fam.jmin, t[0]), (fam.jmax - hi, t[-1])) if left]
    return _summed(t, "line", terms=fam.count, tail_logs=tails)


@pytest.mark.parametrize("block", ["default", 16])
def test_mode_outward_order_keeps_every_field(monkeypatch, block):
    """A line longer than FIRST_BLOCK hands its window to logsumexp from
    the mode outward.  On 200 seeded lines every field of the result
    equals that of _summed over the same window in the order of j, and
    the terms handed over run from the mode outward.  Blocks of 16
    points split each window into many, and the mode's block moves when
    the first case's window is extended."""
    if block != "default":
        monkeypatch.setattr(P, "_BLOCK", block)
    rng = np.random.default_rng(28)
    # extended once on one side (test_line_window_extends_past_its_curvature_guess)
    cases = [([[1, 1]], [5.0, 800.0], [3000])]
    while len(cases) < 200:
        a = LINE_MATRICES[rng.integers(len(LINE_MATRICES))]
        rates = np.exp(rng.uniform(math.log(0.1), math.log(5000.0), len(a[0]))).tolist()
        k = rng.integers(0, int(10 ** rng.uniform(2.5, 4.5)), len(a[0]))
        b = (np.array(a) @ k).tolist()
        if lp.solution_family(lp.PoissonModel(a, rates), b).count > P.FIRST_BLOCK:
            cases.append((a, rates, b))
    handed = []
    logsumexp = P.logsumexp

    def spy(terms):
        handed.append(np.asarray(terms))
        return logsumexp(terms)

    monkeypatch.setattr(P, "logsumexp", spy)
    cut = 0
    for a, rates, b in cases:
        model = lp.PoissonModel(a, rates)
        res, blocks = summed_blocks(model, b)
        assert res.route == "line" and res.terms > P.FIRST_BLOCK
        assert _fields(res) == _fields(_natural_order_sum(model, b, blocks))
        cut += res.tail_bound > 0.0
        # pmf handed logsumexp the window as [mode..hi], then [lo..mode-1]
        # reversed, the mode at the largest term
        t, natural = handed[-2:]
        mode = [i for i in np.flatnonzero(natural == t[0])
                if np.array_equal(t, np.concatenate((natural[i:], natural[:i][::-1])))]
        assert len(mode) == 1 and natural[mode[0]] == natural.max()
    # most windows stop short of the line's ends, so the tail bounds count
    assert cut >= 100


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
    # the full sum, one term per point, ln k! by math.lgamma
    k = fam.points()
    lam = np.array([1.2, 35.0, 2.1])
    ln_fact = np.array([math.lgamma(j + 1.0) for j in range(int(k.max()) + 1)])
    logs = (k * np.log(lam) - lam - ln_fact[k.astype(np.int64)]).sum(axis=1)
    hi = float(logs.max())
    full = hi + math.log(math.fsum(np.exp(logs - hi).tolist()))
    assert math.isclose(res.log_prob, full, rel_tol=REL)
    assert res.log_prob == lp.logsumexp(log_terms(k, model.rates, model.term_constants))


def test_log_terms_table_equals_lgamma_map():
    """The array route's log terms (oracle.log_terms, over
    model._log_poisson) give the bits of one math.lgamma call per entry,
    for small and large counts."""
    rng = np.random.default_rng(7)
    lam = np.array([2.5e-8, 0.3, 4.5, 1e4])
    consts = lp.PoissonModel(lp.int_identity(4), lam).term_constants
    cases = [rng.integers(0, 40, size=(50, 4)).astype(np.float64),
             np.array([[0.0, 0, 0, 0]]),
             np.array([[0.0, 1, 2, 3]]),
             np.array([[0.0, 2.0**53 + 2, 3, 2.0**60], [0, 5, 2.0**64, 1]]),
             rng.integers(0, 10**6, size=(8, 4)).astype(np.float64)]
    for pts in cases:
        lgam = np.array([math.lgamma(x) for x in (pts + 1.0).ravel().tolist()]).reshape(pts.shape)
        want = (pts * consts - lam - lgam).sum(axis=1)
        assert np.array_equal(log_terms(pts, lam, consts), want)


def test_log_terms_same_bits_in_either_layout():
    """oracle.log_terms gives every term the same bits on column-major points,
    as SolutionFamily.points returns them, as on row-major ones, for 1
    to 12 columns: numpy adds a row-major row of _PAIRWISE or more
    parts in pairwise order, not left to right.  The one-point route
    (_point_log_term, in Python floats from the counts as ints) gives
    each row the same bits too, on counts past 2**53 as well."""
    rng = np.random.default_rng(12)
    for n in range(1, 13):
        lam = np.exp(rng.uniform(-5.0, 8.0, n))
        consts = lp.PoissonModel(lp.int_identity(n), lam).term_constants
        ints = rng.integers(0, 3000, (300, n))
        ints[-20:] = rng.integers(0, 2**62, (20, n))
        pts = ints.astype(np.float64)
        rows = log_terms(np.ascontiguousarray(pts), lam, consts)
        assert log_terms(np.asfortranarray(pts), lam, consts).tobytes() == rows.tobytes()
        assert rows.tobytes() == _log_poisson(pts, lam, consts).sum(axis=1).tobytes()
        one = [P._point_log_term(k, lam.tolist(), consts.tolist()) for k in ints.tolist()]
        assert np.array(one).tobytes() == rows.tobytes()


def _hexes(terms):
    return [x.hex() for x in np.asarray(terms, dtype=np.float64).tolist()]


def test_line_terms_have_the_bits_of_log_terms():
    """pmf._line_terms, read from the model's table of log terms, gives
    every term of a block the bits of oracle.log_terms over the block's points,
    on seeded lines of n = 2..12 columns (both sides of _PAIRWISE), with
    zero-direction columns, strides of 1 and 2 both ways, reversed
    strides that end at count 0, blocks that straddle the table's end
    and counts past it up to 2**60, on a fresh and a warmed table."""
    rng = np.random.default_rng(32)
    seen = set()
    for n in range(2, 13):
        for _ in range(6):
            # [diag(d) | c]: a kernel of dimension 1, v_i = 0 where c_i = 0
            m = n - 1
            c = rng.integers(0, 3, m)
            c[0] = max(c[0], 1)
            a = np.column_stack([np.diag(rng.integers(1, 3, m)), c]).tolist()
            model = lp.PoissonModel(a, np.exp(rng.uniform(-3.0, 8.0, n)).tolist())
            v = model._query_plan.direction
            for scale in (300, 5000, 10**6, 2**60):
                k = [int(x) for x in rng.integers(0, scale, n)]
                if rng.random() < 0.5:
                    # a falling column at count 0 ends the line there
                    k[int(rng.choice([i for i in range(n) if v[i] < 0]))] = 0
                b = [sum(x * y for x, y in zip(row, k)) for row in a]
                fam = lp.solution_family(model, b)
                if fam.kind != "line":
                    continue
                for _ in range(3):
                    width = int(rng.integers(0, 400))
                    if rng.random() < 0.3:
                        lo, hi = max(fam.jmin, fam.jmax - width), fam.jmax
                    else:
                        lo = int(rng.integers(fam.jmin, fam.jmax + 1))
                        hi = min(fam.jmax, lo + width)
                    pts = block_points(fam, lo, hi)
                    size = model._terms.shape[1]
                    tops = pts.max(axis=0)
                    seen.add("fresh" if size == 0 else "warm")
                    seen.add("pairwise" if n >= P._PAIRWISE else "left to right")
                    if 0 in v:
                        seen.add("zero direction")
                    if any(x < 0 and pts[-1, i] == 0 for i, x in enumerate(v)):
                        seen.add("reversed to 0")
                    if any(pts[:, i].min() < size <= tops[i] for i in range(n)):
                        seen.add("straddles")
                    if tops.max() >= 2.0**59:
                        seen.add("past the table")
                    want = log_terms(pts, model.rates, model.term_constants)
                    assert _hexes(P._line_terms(fam, model, lo, hi)) == _hexes(want)
    assert seen == {"fresh", "warm", "pairwise", "left to right", "zero direction",
                    "reversed to 0", "straddles", "past the table"}


def test_walk_terms_have_the_bits_of_log_terms(monkeypatch):
    """A walk's terms, read from the model's table of log terms (one
    gather of every column's parts, or PoissonModel._column_terms for
    counts past the table), have the bits of
    oracle.log_terms over its float64 points, on seeded walks of n =
    3..12 columns (both sides of _PAIRWISE), on int64 and object point
    arrays and on counts past the table, on a fresh and a warmed table.
    For n >= 4 the matrices are [w | e] over [0 | I]: one row of weights
    w >= 1 over c = 3 or 4 columns plus couplings e, then an identity
    row per other column, so a kernel of dimension c - 1 and a rank of
    n - c + 1 >= 2.  A walk of n = 3 columns has rank 1, which the
    recurrence answers up to t of about 1,800: [[1, w_2, w_3]] with
    w_i >= 1000 is walked past that.  An entry of 2**64 makes the walk's
    points an object array at small counts too."""
    handed = []
    summed = P._summed

    def spy(terms, route, *args):
        handed.append(terms)
        return summed(terms, route, *args)

    monkeypatch.setattr(P, "_summed", spy)
    rng = np.random.default_rng(33)
    cases = [([[1] + rng.integers(1000, 1500, 2).tolist()], [int(rng.integers(1802, 4000))])
             for _ in range(4)]
    cases += [([[1, 1, 1, 0], [0, 1, 2, 2**64]], b) for b in ([3, 4], [30, 40])]
    for n in range(4, 13):
        for _ in range(4):
            c = int(rng.integers(3, min(n - 1, 4) + 1))
            scale = int(rng.choice([40, 3000, 10**7, 2**60]))
            k = rng.integers(0, 6, c).tolist() + [int(x) for x in rng.integers(0, scale, n - c)]
            # a coupling only on small counts: b_0 bounds the walk
            e = [int(rng.integers(0, 3)) if x < 40 else 0 for x in k[c:]]
            a = [rng.integers(1, 3, c).tolist() + e]
            a += [[0] * c + [int(i == j) for j in range(n - c)] for i in range(n - c)]
            cases.append((a, [sum(x * y for x, y in zip(row, k)) for row in a]))
    seen = set()
    for a, b in cases:
        n = len(a[0])
        model = lp.PoissonModel(a, np.exp(rng.uniform(-3.0, 8.0, n)).tolist())
        for _ in range(2):
            seen.add("fresh" if model._terms.shape[1] == 0 else "warm")
            res = lp.pmf(model, b)
            fam = lp.solution_family(model, b)
            assert res.route == "walk" and res.terms == fam.count > 0
            want = log_terms(fam.points(), model.rates, model.term_constants)
            assert _hexes(handed[-1]) == _hexes(want)
        held = "past the table" if max(b) >= model._terms.shape[1] else "in the table"
        seen |= {held, f"{fam.array.dtype} {held}"}
        seen.add("pairwise" if n >= P._PAIRWISE else "left to right")
    assert seen == {"fresh", "warm", "past the table", "in the table", "pairwise",
                    "left to right", "int64 in the table", "int64 past the table",
                    "object in the table", "object past the table"}


@pytest.mark.parametrize("wide", [False, True], ids=["int64", "object"])
@pytest.mark.parametrize("a, basis", [
    # the first free column, 1, has a positive entry in both rows
    ([[1, 2, 0, 1], [1, 2, 1, 0]], (0, 2)),
    ([[1, 1, 1, 0], [0, 1, 2, 1]], (0, 1)),
])
def test_walk_bases_match_the_oracle(a, basis, wide):
    """The walk writes its leaves' basis coordinates through the index
    array on its plan, for a basis that is contiguous and one that is
    not, and its first free column updates each row it touches on its
    own.  At every b up to 12 per row, its points are
    oracle.enumerate_solutions' and pmf has the bits of _summed over
    oracle.log_terms of them.  An added column with an entry of 2**64,
    whose count is 0 at every such b, makes the walk's arrays object
    arrays, as in test_walk_wide_entries_use_python_ints."""
    if wide:
        a = [row + [2**64 if i == 0 else 0] for i, row in enumerate(a)]
    model = lp.PoissonModel(a, [0.7, 2.5, 1.3, 4.0, 0.9][:len(a[0])])
    plan = model._query_plan.walk
    assert plan.basis == basis and plan.basis_at.tolist() == list(basis)
    dtypes = set()
    for b in itertools.product(range(13), repeat=2):
        fam = lp.solution_family(model, b)
        dtypes.add(fam.array.dtype)
        assert family_set(fam) == family_set(enumerate_solutions(a, list(b)))
        want = _summed(log_terms(fam.points(), model.rates, model.term_constants), "walk")
        assert _fields(lp.pmf(model, b)) == _fields(want)
    assert dtypes == {np.dtype(object if wide else np.int64)}


def _term_table_growths(monkeypatch):
    """A spy on PoissonModel._term_table: the (length before, length
    after, size) of each call."""
    calls = []
    term_table = lp.PoissonModel._term_table

    def spy(model, top, size):
        before = model._terms.shape[1]
        table = term_table(model, top, size)
        calls.append((before, table.shape[1], size))
        return table

    monkeypatch.setattr(lp.PoissonModel, "_term_table", spy)
    return calls


# a rank-2 matrix whose kernel has dimension 2: pmf walks it
WALK = [[1, 1, 1, 0], [0, 1, 2, 1]]


def _table_is_log_poisson(model):
    table = model._terms
    want = _log_poisson(np.arange(float(table.shape[1])), model.rates[:, None],
                        model.term_constants[:, None])
    return table.shape[0] == model.n and table.tobytes() == want.tobytes()


def test_model_build_builds_no_term_table():
    """The table of log terms is built by a line, a walk or the PTRS
    sampler (verify), not at build nor by a singleton or an empty query;
    its entries are _log_poisson over np.arange."""
    cases = [(EXAMPLE1, [1.2, 35.0, 2.1], ([3, 1], [-1, 2], [1, 1]),
              lambda model: lp.pmf(model, [40, 60]).route == "line"),
             (WALK, [1.0, 2.0, 3.0, 4.0], ([-1, 0], [2, -1]),
              lambda model: lp.pmf(model, [3, 4]).route == "walk"),
             ([[1]], [40.0], ([40], [-1]),
              lambda model: lp.verify(model, [40], 2_000, 3).hits > 0)]
    for a, rates, quiet, grows in cases:
        model = lp.PoissonModel(a, rates)
        assert "_terms" not in vars(model) and model._terms.shape == (0, 0)
        for b in quiet:  # empty or singleton
            assert lp.pmf(model, b).route in ("empty", "singleton")
        assert "_terms" not in vars(model)
        assert grows(model)
        assert model._terms.shape[1] > 0 and _table_is_log_poisson(model)


def _without_table(model, b):
    """pmf(model, b) with each block's terms formed by oracle.log_terms
    over its points, as before the table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(P, "_line_terms", lambda fam, model, lo, hi: log_terms(
            block_points(fam, lo, hi), model.rates, model.term_constants))
        return lp.pmf(model, b)


def test_term_table_growth_rule(monkeypatch):
    """Each growth adds at most max(length, 4096, the call's counts)
    entries per column and holds the call's largest count.  A first
    query at counts near 10**6 forms its terms directly and builds no
    table; queries of rising counts then grow it, each at most doubling
    it past 4096 entries, and a later query near 10**6 does not grow it.
    Every answer keeps its bits.  Direct calls pin the budget's edge."""
    calls = _term_table_growths(monkeypatch)
    model = lp.PoissonModel([[1, 1, 2], [0, 1, 1]], [3.0, 40.0, 7.0])
    for i, scale in enumerate((10**6, 10, 3000, 5000, 9000, 15_000, 30_000, 10**6)):
        b = [2 * scale, scale]
        res = lp.pmf(model, b)
        assert res.route == "line" and _fields(res) == _fields(_without_table(model, b))
        if i == 0:
            assert calls and all(y == 0 for _, y, _ in calls)
            assert "_terms" not in vars(model)
    grew = [(x, y, size) for x, y, size in calls if y > x]
    assert len(grew) >= 5 and calls[-1][1] == grew[-1][1] < 10**6
    assert all(y - x <= max(x, 4096, size) for x, y, size in grew)
    # the budget's edge: 5001 new entries need a call of 5001 counts
    fresh = lp.PoissonModel([[1, 1]], [3.0, 40.0])
    assert fresh._term_table(5000, 5000).shape[1] == 0
    assert fresh._term_table(5000, 5001).shape == (2, 5001)
    assert fresh._term_table(9000, 0).shape == (2, 10_002)


def test_cold_large_walk_grows_the_table_once(monkeypatch):
    """A walk of 396,066 points at max(b) = 6000 on a fresh model: the
    table grows once, to 6001 entries, past _TABLE_STEP because the walk
    would otherwise form its 1,980,330 counts directly, with one lgamma
    call per entry; the same walk again makes no call."""
    calls = _term_table_growths(monkeypatch)
    lgammas = [0]
    lgamma = math.lgamma

    def counting_lgamma(x):
        lgammas[0] += 1
        return lgamma(x)

    monkeypatch.setattr(math, "lgamma", counting_lgamma)
    model = lp.PoissonModel([[1, 1, 1, 0, 0], [0, 0, 0, 1, 1]], [2.0, 3.0, 4.0, 50.0, 5.0])
    res = lp.pmf(model, [10, 6000])
    assert (res.route, res.terms) == ("walk", 66 * 6001)
    assert [(x, y) for x, y, _ in calls if y > x] == [(0, 6001)]
    assert lgammas[0] == 6001 > model_module._TABLE_STEP
    lgammas[0] = 0
    assert lp.pmf(model, [10, 6000]) == res and lgammas[0] == 0


def test_term_table_never_passes_the_cap(monkeypatch):
    """With _TABLE_CAP at 2**13, lines of rising counts grow the table
    to the cap and no further; the counts past it are formed directly,
    with the bits of oracle.log_terms."""
    monkeypatch.setattr(model_module, "_TABLE_CAP", 1 << 13)
    calls = _term_table_growths(monkeypatch)
    model = lp.PoissonModel(EXAMPLE1, [1.2, 35.0, 2.1])
    for b in ([50, 50], [2000, 2000], [4000, 4000], [7000, 7000], [8100, 8100],
              [9000, 9000], [20_000, 20_000]):
        fam = lp.solution_family(model, b)
        assert _hexes(P._line_terms(fam, model, fam.jmin, fam.jmax)) == _hexes(
            log_terms(fam.points(), model.rates, model.term_constants))
        assert model._terms.shape[1] <= 1 << 13
    assert model._terms.shape[1] == 1 << 13
    assert max(y for _, y, _ in calls) == 1 << 13


def test_sums_past_the_float_range_answer_zero_without_a_warning():
    """A term whose parts add up past the float64 range is -inf: pmf
    answers log_prob -inf and prob 0.0 on every route, with no numpy
    warning.  numpy's row sum printed "overflow encountered in reduce"
    (an error under this suite's warning filter) on the singleton of
    the 10 x 10 identity at b_i = 2**1012, and on lines and walks whose
    fixed columns hold counts near 2**1012."""
    big = 2**1012 + 2**1011

    def line(m):
        # m - 1 fixed columns, and columns 0 and m moving on row 0
        return [[int(i == j) for j in range(m)] + [int(i == 0)] for i in range(m)]

    walk = [[1, 1, 1, 0, 0, 0, 0]] + [[0] * (3 + i) + [1] + [0] * (3 - i) for i in range(4)]
    cases = [(lp.int_identity(10).tolist(), [1e5] * 10, [2**1012] * 10, "singleton"),
             (line(5), [1e-5] * 6, [100] + [big] * 4, "line"),
             (line(5), [1e-5] * 6, [1000] + [big] * 4, "line"),
             (line(9), [1e-5] * 10, [100] + [big] * 8, "line"),
             (line(9), [1e-5] * 10, [1000] + [big] * 8, "line"),
             (walk, [1e-5] * 7, [3] + [big] * 4, "walk")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, rates, b, route in cases:
            res = lp.pmf(lp.PoissonModel(a, rates), b)
            assert (res.route, res.log_prob, res.prob) == (route, -math.inf, 0.0)


def test_empty_answer_skips_the_array_route(monkeypatch):
    """b negative, off the lattice, against a dependent row or on a line
    with no nonnegative point reaches none of SolutionFamily.points,
    the model's table of log terms, _add_parts and logsumexp, and every
    field has the bits of the log-sum of no terms.
    SolutionFamily.empty() is one shared family."""
    cases = [(EXAMPLE1, [1.0, 1.0, 1.0], [-1, 2]),
             (EXAMPLE1, [1.0, 1.0, 1.0], [0, 1]),
             ([[1, 2], [2, 4]], [0.5, 7.0], [3, 7]),
             (EXAMPLE3, [1.0, 2.0, 3.0], [1, 1, 1]),
             ([[2, 2]], [1.0, 2.0], [3])]
    want = _fields(_summed(np.empty(0), "empty"))
    assert lp.SolutionFamily.empty() is lp.SolutionFamily.empty()

    def refuse(*args, **kwargs):
        raise AssertionError("array route reached by an empty family")

    monkeypatch.setattr(P, "_add_parts", refuse)
    monkeypatch.setattr(lp.PoissonModel, "_term_table", refuse)
    monkeypatch.setattr(P, "logsumexp", refuse)
    monkeypatch.setattr(S.SolutionFamily, "points", refuse)
    for a, rates, b in cases:
        assert _fields(lp.pmf(lp.PoissonModel(a, rates), b)) == want


def test_empty_answers_share_one_frozen_record():
    """A negative b, a b off the lattice and a b against a dependent-row
    relation each get the one shared empty record, and it is frozen."""
    cases = [(EXAMPLE1, [1.0, 1.0, 1.0], [-1, 2]),
             ([[2, 4, 6, 8]], [1.0, 1.0, 1.0, 1.0], [3]),
             ([[1, 2], [2, 4]], [0.5, 7.0], [3, 7])]
    want = lp.PmfResult(-math.inf, 0.0, "empty", 0, False, 0, 0.0)
    results = [lp.pmf(lp.PoissonModel(a, rates), b) for a, rates, b in cases]
    assert results == [want] * 3 and all(res is results[0] for res in results)
    with pytest.raises(dataclasses.FrozenInstanceError):
        results[0].prob = 1.0


def test_singleton_skips_the_array_route(monkeypatch):
    """A singleton pmf call (a trivial kernel, dependent rows, a line of
    one point, 8 or more columns, no column left) reaches none of the
    model's table of log terms, _add_parts, logsumexp and
    SolutionFamily.points, and every field of its result has the bits of
    the array route over the same point (oracle.log_terms)."""
    cases = [(EXAMPLE3, [1.0, 2.0, 3.0], [200, 370, 260]),
             ([[1, 2], [2, 4], [0, 1]], [0.5, 7.0], [9, 18, 3]),
             ([[1, 1]], [2.0, 3.0], [0]),
             (lp.int_identity(12).tolist(), [0.1 * (j + 1) for j in range(12)],
              [j * 37 for j in range(12)]),
             ([[1, 0], [1, 0]], [4.0, 5.0], [2**60 + 1, 2**60 + 1]),
             ([[0, 0]], [1.0, 2.0], [0])]
    want = []
    for a, rates, b in cases:
        model = lp.PoissonModel(a, rates)
        fam = lp.solution_family(model, b)
        assert fam.kind == "singleton"
        t = log_terms(fam.points(), model.rates, model.term_constants)
        want.append(_fields(_summed(t, "singleton")))

    def refuse(name):
        def spy(*args, **kwargs):
            raise AssertionError(f"{name} reached by a singleton")
        return spy

    monkeypatch.setattr(P, "_add_parts", refuse("_add_parts"))
    monkeypatch.setattr(lp.PoissonModel, "_term_table", refuse("_term_table"))
    monkeypatch.setattr(P, "logsumexp", refuse("logsumexp"))
    monkeypatch.setattr(S.SolutionFamily, "points", refuse("points"))
    for (a, rates, b), fields in zip(cases, want):
        res = lp.pmf(lp.PoissonModel(a, rates), b)
        assert res.route == "singleton" and _fields(res) == fields


def test_one_routine_forms_the_poisson_log_term():
    """model._log_poisson gives the bits of k ln lam - lam - lgamma(k + 1)
    formed per entry in Python floats, and of oracle.log_terms over a
    one-column array, for int64 and float64 counts and for one int or
    float count: k = 0, counts a model's table of log terms holds,
    counts past its cap and past 2**53."""
    cap = model_module._TABLE_CAP
    grids = [list(range(41)),
             [0, 1, cap - 1, cap, cap + 5, 10**7, 2**40, 2**53 + 2, 2**62]]

    def one_count(ks, lam, log_lam):
        # each count as an int and as a float, each term a Python float
        got = [_log_poisson(x, lam, log_lam) for k in ks for x in (k, float(k))]
        assert all(type(x) is float for x in got)
        return [x.hex() for x in got]

    for lam in (2.5e-8, 0.3, 29.9, 30.0, 45.5, 1e4, 2.0**34, 1e15):
        log_lam = math.log(lam)
        consts = lp.PoissonModel([[1]], [lam]).term_constants
        assert consts.tolist() == [log_lam]
        for ks in grids:
            want = [k * log_lam - lam - math.lgamma(k + 1.0) for k in map(float, ks)]
            pairs = [x.hex() for x in want for _ in range(2)]
            assert one_count(ks, lam, log_lam) == pairs
            for dtype in (np.int64, np.float64):
                assert _log_poisson(np.array(ks, dtype=dtype), lam, log_lam).tolist() == want
            col = np.array(ks, dtype=np.float64)[:, None]
            assert log_terms(col, np.array([lam]), consts).tolist() == want


def test_log_factorials_equal_lgamma_per_entry():
    """The ln k! routine gives the bits of one math.lgamma(k + 1.0) per
    entry, with the array's shape, for int64 and float64 counts, empty,
    and past 2**53."""
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


def test_counts_past_the_float_range_of_ln_k_factorial():
    """Below 2**1013 a count's ln k! and k ln lambda are finite for every
    float lambda; from 2**1013 on the count is an InputError.  At 1e306
    lgamma raised OverflowError, a traceback."""
    below = np.nextafter(2.0**1013, 0.0)
    top = sys.float_info.max
    assert math.isfinite(_log_poisson(np.array([below]), top, math.log(top))[0])
    assert math.isfinite(_log_poisson(below, top, math.log(top)))
    for k in (2.0**1013, 1e306, 2.0**1023):
        with pytest.raises(InputError, match="exceed the float64 range"):
            _log_poisson(np.array([k]), top, math.log(top))
    # one count, an int or a float, and one past the float64 range
    for k in (2.0**1013, 2**1013, 1e306, 10**400):
        with pytest.raises(InputError, match="exceed the float64 range"):
            _log_poisson(k, top, math.log(top))
    with pytest.raises(InputError, match="exceed the float64 range"):
        lp.pmf(lp.PoissonModel([[1]], [1e308]), [10**306])
    # the singleton route's message for counts past ln k!'s range and
    # past the float64 range (tests/test_cli.py TABLE exits 2 on them)
    for b in (2**1013, 10**400):
        with pytest.raises(InputError, match="^solution counts exceed the float64 range$"):
            lp.pmf(lp.PoissonModel([[1]], [1.0]), [b])


def test_ln_fact_table_shared_by_threads():
    """Lines, walks and verify(threads=2), run from 4 threads at once
    while two fresh models' tables of log terms grow from empty, return
    what serial calls return, and each model keeps a table whose every
    entry is _log_poisson's.  Each model has a PTRS column, so pmf and
    the sampler grow one table at once: the line model's lines and the
    walk model's walks, with verify on both.  A short switch interval
    lets the threads interleave inside the growths."""
    line_bs = [[2 * s, 2 * s + 30] for s in (5, 40, 300, 2_000, 9_000)]
    walk_bs = [[s, s + 45] for s in (3, 10, 30, 60)]

    def models():
        return lp.PoissonModel(EXAMPLE1, [1.2, 35.0, 2.1]), lp.PoissonModel(WALK, [2.0, 3.0, 1.5,
                                                                                   40.0])

    def jobs(line, walk):
        return ([("pmf", b, line) for b in line_bs] + [("pmf", b, walk) for b in walk_bs]
                + [("verify", [10, 72], line), ("verify", [3, 70], line),
                   ("verify", [6, 52], walk)])

    def run(job):
        kind, b, model = job
        if kind == "pmf":
            return lp.pmf(model, b)
        return lp.verify(model, b, 20_000, 17, threads=2)

    serial = [run(job) for job in jobs(*models())]
    assert {r.route for r in serial[:9]} == {"line", "walk"}
    assert all(r.hits for r in serial[9:])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            line, walk = models()
            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(run, jobs(line, walk) * 2)) == serial * 2
            assert _table_is_log_poisson(line) and _table_is_log_poisson(walk)
            assert line._terms.shape[1] > 0 and walk._terms.shape[1] > 0
    finally:
        sys.setswitchinterval(interval)


def test_pmf_line_partly_live(model1):
    # a zero rate on k1 drops it at build: of the 11 points on the line
    # of the full matrix, the one with k1 = 0 is the reduced singleton
    model = lp.PoissonModel(EXAMPLE1, [0.0, 1.5, 2.0])
    assert model.removed_columns == (0,)
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
    assert (model.n, model.removed_columns) == (2, (0,))
    res = lp.pmf(model, [40])
    assert res.terms == 41 and res.route == "line"
    assert res == lp.pmf(lp.PoissonModel([[1, 1]], [1.0, 2.0]), [40])
    assert math.isclose(res.prob, float(log_poisson(40, 3.0).exp()), rel_tol=REL)
    none = lp.PoissonModel([[1, 1]], [0.0, 0.0])
    assert none.n == 0 and none.removed_columns == (0, 1)
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
    assert sure.route == "singleton" and math.copysign(1.0, sure.log_prob) == 1.0
    # every column removed by its rate: the empty product at b = 0
    zero_rates = lp.PoissonModel([[1, 2], [0, 3]], [0.0, 0.0])
    assert zero_rates.n == 0
    res = lp.pmf(zero_rates, [0, 0])
    assert (res.log_prob.hex(), res.prob, res.route, res.terms, res.summed) == \
        ((0.0).hex(), 1.0, "singleton", 1, 1)
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
    return _summed(log_terms(fam.points(), model.rates, model.term_constants), "walk")


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
    assume(model._query_plan.w is not None)
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
        plan = model._query_plan
        assert res.summed == b[plan.row] // plan.g + 1
    else:
        assert dataclasses.replace(res, route="walk") == ref
    assert res.tail_bound == 0.0


def test_recurrence_counts_and_sums_past_the_walk():
    """1x8 all ones at rate 1 is Poisson(8): at b = 60 the walk would
    hold 869,648,208 points and its frontier is refused, the recurrence
    takes 61 steps.  The reference is the 40-digit oracle."""
    res = lp.pmf(lp.PoissonModel([[1] * 8], [1.0] * 8), [60])
    assert res.terms == math.comb(67, 7) == 869_648_208
    assert res.summed == 61
    assert rel_gap(res.log_prob, float(log_poisson(60, 8.0))) <= REL


@pytest.mark.parametrize("rates, b, want", [
    # sum l = 760: e**-760 underflows, the values are shifted down
    ([200.0, 200.0, 200.0, 160.0], 760, float(log_poisson(760, 760.0))),
    # sum l = 1 at b = 400: 1/400! underflows, the values are shifted up
    ([0.25] * 4, 400, float(log_poisson(400, 1.0))),
])
def test_recurrence_beyond_the_float_range(rates, b, want):
    """Poisson(sum l) at b against the 40-digit oracle."""
    assert math.exp(-sum(rates)) == 0.0 or math.exp(want) == 0.0
    res = P._recurrence(lp.PoissonModel([[1] * 4], rates)._query_plan, [b])
    assert res is not None and res.terms == math.comb(b + 3, 3)
    assert rel_gap(res.log_prob, want) <= REL


def test_recurrence_step_cap(monkeypatch):
    # n (t + 1) = 3 * 21 = 63 steps
    model = lp.PoissonModel([[1, 1, 2]], [1.0, 2.0, 3.0])
    monkeypatch.setattr(S, "MAX_POINTS", 63)
    assert P._recurrence(model._query_plan, [20]).terms == 121
    monkeypatch.setattr(S, "MAX_POINTS", 62)
    assert P._recurrence(model._query_plan, [20]) is None
    # pmf walks instead, and its frontier of 121 points is refused too
    with pytest.raises(InputError, match="walk frontier"):
        lp.pmf(model, [20])


@pytest.mark.parametrize("a, rates, b", [
    # 5 (t + 1) 2**-53 > RECURRENCE_TOL: t = 2300 is walked
    ([[1, 1, 1]], [1.0, 1.0, 1.0], [2300]),
    # the coefficient of weight 1 is below 2**-200
    ([[1, 2, 2]], [1e-70, 1.0, 1.0], [30]),
    # rates past 2**200 in total: the query plan has no primitive row
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
    assert model._query_plan.steps == ((1, 1.5), (2, 1.0))
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
    res = P._recurrence(lp.PoissonModel([w], rates)._query_plan, [t])
    assert res.log_prob == want


def test_recurrence_window_shift():
    u = [2.0 ** 301, 0.0, 2.0 ** -300]
    assert P._shift_window(u, 0, 3) == 302
    assert u == [0.5, 0.0, 2.0 ** -602]
    # a nonzero value below _TINY after the shift: u is left as it was
    u = [2.0 ** 301, 2.0 ** -400]
    assert P._shift_window(u, 0, 2) is None
    assert u == [2.0 ** 301, 2.0 ** -400]


# ------------------------------------- large counts, 40-digit oracle

def test_oracle_matches_mpmath_and_exact_factorials():
    """log_poisson against three 40-digit mpmath values, to 20 digits
    and more; ln_factorial's Stirling series against the ln of the exact
    k! just past the switch and further out."""
    for k, lam, want in ((60, 8.0, "-71.861680922881435492186629"),
                         (760, 760.0, "-4.235707398961340285920657"),
                         (400, 1.0, "-2001.500697983241389116455")):
        want = Decimal(want)
        assert abs(log_poisson(k, lam) - want) <= Decimal("1e-20") * abs(want)
    with localcontext() as ctx:
        ctx.prec = 45
        for k in (STIRLING_FROM - 1, STIRLING_FROM, STIRLING_FROM + 1, 100, 1000):
            exact = Decimal(math.factorial(k)).ln()
            assert abs(ln_factorial(k) - exact) <= Decimal("1e-40") * exact
    assert log_poisson(0, 0.0) == 0 and log_poisson(3, 0.0) == Decimal("-Infinity")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("a, rates, b, route", [
    *[pytest.param([[1]], [float(10**e)], [10**e], "singleton", id=f"singleton-1e{e}")
      for e in (12, 15, 16, 20)],
    pytest.param([[1, 1]], [1e12, 1e12], [2 * 10**12], "line", id="line-2e12"),
])
def test_large_counts_match_the_oracle(a, rates, b, route):
    """P(Y = b) at lambda = b = 10**e (singleton) and on a line at
    2 * 10**12, within 1e-12 relative of the 40-digit oracle: Y is
    Poisson(sum lambda) for an all-ones row.  The float64 log terms
    cancel at such counts; at e = 16 and 20 pmf returned prob 1.0."""
    res = lp.pmf(lp.PoissonModel(a, rates), b)
    assert res.route == route
    assert rel_gap(res.log_prob, float(log_poisson(b[0], sum(rates)))) <= REL


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
               "poisson_cdf_table", "BlockHits", "PreprocessReport", "rate_constants",
               "gf_eval_series"]
    for name in ("linpois", "linpois.errors", "linpois.intlinalg", "linpois.pmf",
                 "linpois.solutions", "linpois.montecarlo", "linpois.kernels", "linpois.model"):
        mod = importlib.import_module(name)
        for attr in removed:
            assert not hasattr(mod, attr), f"{name}.{attr}"
        assert not set(removed) & set(getattr(mod, "__all__", ())), name
    assert sorted(lp.__all__) == sorted([
        "LinpoisError", "InputError", "InternalInvariantError", "int_matrix", "int_identity",
        "int_vector", "SnfDecomposition", "snf", "parse_matrix_text", "format_matrix_text",
        "SolutionFamily", "PoissonModel", "model_from_dict",
        "load_model_file", "PmfResult", "logsumexp", "solution_family", "pmf", "gf_eval",
        "pmf_table", "SampleReport", "verify", "default_backend", "__version__"])
    assert all(hasattr(lp, name) for name in lp.__all__)
    # the walk is a private step of solution_family
    assert not hasattr(lp.PoissonModel, "walk_plan")
    # a family is a record: its points are read from its fields
    for attr in ("vectors", "solutions", "as_set", "finite"):
        assert not hasattr(lp.SolutionFamily, attr)
    # the console script's entry point is the one CLI function
    assert not hasattr(importlib.import_module("linpois.cli"), "run")
    # the model is the one record of its reduced system; preprocess,
    # whose tuple changed meaning, is reached only through linpois.model
    assert not hasattr(lp.PoissonModel, "report") and not hasattr(lp, "preprocess")
    assert callable(model_module.preprocess)
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
            assert rel_close(r.prob, float(log_poisson(b, total).exp()))


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
    assert (res.route, res.terms, res.summed, res.tail_bound) == ("walk", 2, 2, 0.0)
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
    assert rel_close(gf_eval_series(model, [0.5], 3), math.exp(-1.0))
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


def test_gf_eval_matches_the_series_oracle(model1):
    direct = lp.gf_eval(model1, [0.5, 0.25])
    series = gf_eval_series(model1, [0.5, 0.25], 40)
    assert abs(direct - series) <= 1e-9
    assert math.isclose(direct, series, rel_tol=1e-9)


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
            gf_eval_series(model1, bad, 10)


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
            series = gf_eval_series(model, z, 40)
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
        assert rel_close(table[b], float(log_poisson(b, 800.0).exp()), 1e-9)
    direct = lp.gf_eval(model, [0.5])
    assert direct > 1e-174
    assert rel_close(gf_eval_series(model, [0.5], 900), direct, 1e-11)


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
            gf_eval_series(model1, [0.5, 0.5], bad)
    assert lp.pmf_table(model1, np.int64(3)).shape == (4, 4)
    assert gf_eval_series(model1, [0.5, 0.5], np.int64(3)) == gf_eval_series(
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
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00 not text")
    with pytest.raises(InputError, match="cannot read"):
        lp.load_model_file(binary)
