"""Acceptance gate: one test per release criterion, each printing a
single PASS/FAIL line and enforcing its stated runtime cap."""

import ast
import itertools
import math
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import linpois as lp
from linpois.pmf import pmf, solution_family

from oracle import (det_exact, enumerate_solutions, family_set, gf_eval_series, log_poisson,
                    minor_gcd, reference_log_prob)

REL = 1e-12


@contextmanager
def criterion(num, cap=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}")
        raise
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num} ({elapsed:.3f}s)")
    if cap is not None:
        assert elapsed < cap, f"criterion {num} took {elapsed:.3f}s, cap {cap}s"


def rel_ok(got, want, tol=REL):
    if want == 0.0:
        return got == 0.0
    return abs(got - want) / abs(want) <= tol


def test_criterion_1_line_reduction_vs_enumeration(model1):
    with criterion(1, cap=1.0):
        assert model1.n - model1.snf.rank == 1
        rng = np.random.default_rng(101)
        for _ in range(50):
            b = rng.integers(0, 11, size=2)
            fam = solution_family(model1, b)
            brute = enumerate_solutions(model1.a, b)
            assert family_set(fam) == family_set(brute)
            res = pmf(model1, b)
            assert res.route == fam.kind and res.terms == brute.count
            ref = reference_log_prob(model1.rates.tolist(), family_set(brute))
            assert rel_ok(res.prob, math.exp(ref))


def test_criterion_2_wide_system_reduction(model2):
    with criterion(2, cap=5.0):
        assert (model2.n, model2.snf.rank) == (4, 3)
        assert tuple(int(d) for d in model2.snf.divisors) == (1, 1, 1)
        a = np.array([[int(x) for x in row] for row in model2.a], dtype=np.int64)
        rng = np.random.default_rng(202)
        for _ in range(20):
            k = rng.integers(0, 4, size=4)
            b = a @ k
            fam = solution_family(model2, b)
            brute = enumerate_solutions(model2.a, b)
            assert tuple(int(x) for x in k) in family_set(fam)
            assert family_set(fam) == family_set(brute)
            res = pmf(model2, b)
            assert res.route == fam.kind and res.terms == brute.count
            ref = reference_log_prob(model2.rates.tolist(), family_set(brute))
            assert res.prob > 0
            assert rel_ok(res.prob, math.exp(ref))


def test_criterion_3_invertible_closed_form():
    with criterion(3):
        a = [[1, 5, 3], [2, 10, 5], [0, 1, 8]]
        rates = [0.7, 1.3, 0.2]
        model = lp.PoissonModel(a, rates, name="unimodular-3x3")
        assert model.n == model.snf.rank == 3
        assert det_exact(model.a) == 1
        inv = [[75, -37, -5], [-16, 8, 1], [2, -1, 0]]
        for i in range(3):
            for j in range(3):
                assert sum(a[i][t] * inv[t][j] for t in range(3)) == int(i == j)
        am = np.array(a, dtype=np.int64)
        rng = np.random.default_rng(303)
        for _ in range(20):
            k = rng.integers(0, 6, size=3)
            b = am @ k
            fam = lp.solution_family(model, b)
            want = tuple(sum(inv[i][j] * int(b[j]) for j in range(3)) for i in range(3))
            assert want == tuple(int(x) for x in k)
            assert fam.kind == "singleton" and family_set(fam) == {want}
            res = pmf(model, b)
            want = float(sum(log_poisson(k[i], rates[i]) for i in range(3)).exp())
            assert res.terms == 1 and res.route == "singleton"
            assert rel_ok(res.prob, want)


def test_criterion_4_smith_normal_form_suite():
    with criterion(4, cap=10.0):
        rng = np.random.default_rng(404)
        for _ in range(200):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 6))
            a = lp.int_matrix(rng.integers(-9, 10, size=(m, n)))
            dec = lp.snf(a)
            assert np.array_equal(dec.p @ a @ dec.q, dec.d)
            assert abs(det_exact(dec.p)) == 1
            assert abs(det_exact(dec.q)) == 1
            divs = [int(d) for d in dec.divisors]
            assert all(d > 0 for d in divs)
            for x, y in zip(divs, divs[1:]):
                assert y % x == 0
            prev = 1
            for i, d in enumerate(divs, start=1):
                delta = minor_gcd(a, i)
                assert delta == prev * d
                prev = delta


def test_criterion_5_marginal_collapse():
    with criterion(5):
        rng = np.random.default_rng(505)
        for n in range(1, 5):
            rates = rng.uniform(0.1, 3.0, size=n)
            model = lp.PoissonModel([[1] * n], rates)
            mu = float(rates.sum())
            for b in range(21):
                want = float(log_poisson(b, mu).exp())
                assert rel_ok(pmf(model, [b]).prob, want)


def test_criterion_6_generating_function_identity():
    with criterion(6, cap=30.0):
        rng = np.random.default_rng(606)
        built = 0
        while built < 20:
            m = int(rng.integers(1, 3))
            n = int(rng.integers(1, 5))
            a = rng.integers(0, 4, size=(m, n))
            if not a.any():
                continue
            rates = rng.uniform(0.1, 2.0, size=n)
            model = lp.PoissonModel(a, rates)
            for z in itertools.product((0.1, 0.3, 0.5), repeat=m):
                direct = lp.gf_eval(model, z)
                series = gf_eval_series(model, z, degree_bound=40)
                assert abs(direct - series) <= 1e-9
            built += 1


@pytest.mark.parametrize("which", ["model1", "model2", "model3"])
def test_criterion_7_normalization_sweep(which, request):
    model = request.getfixturevalue(which)
    num = f"7[{which}]"
    with criterion(num):
        n = model.n_full
        a = np.array([[int(x) for x in row] for row in model.a_full], dtype=np.int64)
        grid = np.indices((31,) * n).reshape(n, -1).T
        grid = grid[grid.sum(axis=1) <= 30]
        # unit rates: log term(k) = -sum lgamma(k_i + 1) - n
        ln_fact = np.array([math.lgamma(j + 1.0) for j in range(31)])
        log_t = -ln_fact[grid].sum(axis=1) - n
        bs = grid @ a.T
        _, inverse = np.unique(bs, axis=0, return_inverse=True)
        groups = np.zeros(inverse.max() + 1)
        np.add.at(groups, inverse, np.exp(log_t))
        total = float(groups.sum())
        assert 1 - 1e-8 <= total <= 1 + 1e-12, total
        # the largest groups must individually match the library pmf
        uniq = np.unique(bs, axis=0)
        for gi in np.argsort(groups)[-5:]:
            assert rel_ok(pmf(model, uniq[gi]).prob, float(groups[gi]), tol=1e-10)


def test_criterion_8_monte_carlo_check(model1):
    with criterion(8, cap=10.0):
        rep = lp.verify(model1, [2, 2], n_samples=1_000_000, seed=2024)
        assert math.isclose(rep.exact_prob, math.exp(-3.0), rel_tol=1e-12)
        assert abs(rep.z_score) <= 4.0, rep


def test_readme_quickstart_runs_with_its_commented_values():
    """README's Python quick start runs as written, and each line whose
    comment opens with a Python literal gives that value, by its repr:
    the route 'line', 2 terms, ('line', 2), the float64 points and the
    exact-int rows among them.  The z-score line checks itself."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope, checked = {}, []
    for line in block.splitlines():
        code, _, comment = line.partition("  #")
        exec(code, scope)
        try:
            want = ast.literal_eval(comment.strip().split("  ")[0])
        except (SyntaxError, ValueError):
            continue
        assert repr(eval(code, scope)) == repr(want), line
        checked.append(want)
    assert "line" in checked and 2 in checked and ("line", 2) in checked
    assert [[0.0, 0.0, 2.0], [2.0, 1.0, 0.0]] in checked
    assert [[0, 0, 1], [0, 1, 0], [1, 0, 0]] in checked
    assert abs(scope["rep"].z_score) <= 4
