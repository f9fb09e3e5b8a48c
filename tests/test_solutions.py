"""Solution families of A k = b: the SNF solver
(singleton and line), the free-coordinate walk, the cap on lattice
points, and preprocessing, checked against the depth-first enumeration
oracle of tests/oracle.py (itself tested here too)."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linpois as lp
from linpois import solutions as S
from linpois.cli import main
from linpois.errors import InputError, InternalInvariantError

from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3, EXAMPLE3_INVERSE
from oracle import (det_exact, enumerate_solutions, family_set, finite_family, hand_reduced,
                    line_points, reference_log_prob)


# the environment of a child interpreter that imports this checkout and
# the test oracles
SRC_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).resolve().parent),
     os.environ.get("PYTHONPATH", "")]))


def solve(a, b):
    # b as pmf's query step hands it on: a list of ints
    return S._snf_family(lp.snf(a), [int(x) for x in b])


# deterministic pool of matrices with a kernel of dimension 1, found by
# seeded search over small natural matrices (rank = rows = cols-1, any
# elementary divisors)
def _single_index_pool():
    rng = np.random.default_rng(1318)
    pool = [lp.int_matrix(EXAMPLE1), lp.int_matrix(EXAMPLE2)]
    while len(pool) < 8:
        m = int(rng.integers(1, 4))
        cand = rng.integers(0, 4, size=(m, m + 1))
        a, _, rep = lp.preprocess(cand, [1.0] * (m + 1))
        if not rep.removed_columns and lp.snf(a).rank == m:
            pool.append(a)
    return pool


SINGLE_INDEX_POOL = _single_index_pool()


# ------------------------------------------------------------ routes

def test_dependent_rows_keep_the_line_route():
    """Dependent rows are not rejected: the route follows n - rank."""
    assert lp.pmf(lp.PoissonModel([[1, 2], [2, 4]], [1.0, 1.0]), [4, 8]).route == "line"
    # the model removes the zero column first, which leaves a line
    model = lp.PoissonModel([[1, 0, 1], [2, 0, 2]], [1.0, 1.0, 1.0])
    assert model.a.tolist() == [[1, 1], [2, 2]]
    assert lp.pmf(model, [3, 6]).route == "line"


def test_divisors_above_one_keep_the_line_route():
    """A divisor above 1 does not gate the line route."""
    a = [[2, 2, 0], [0, 2, 2]]
    assert lp.snf(a).divisors == (2, 2)
    # k1 + k2 = 2, k2 + k3 = 2: three points
    res = lp.pmf(lp.PoissonModel(a, [1.0, 1.0, 1.0]), [4, 4])
    assert (res.route, res.terms) == ("line", 3)
    assert lp.pmf(lp.PoissonModel([[2, 2]], [1.0, 1.0]), [4]).route == "line"


# ------------------------------------------------------ single index

def test_parametrize_known_solution_sets():
    dec = lp.snf(EXAMPLE1)
    fam = S._snf_family(dec, [2, 2])
    assert family_set(fam) == {(0, 0, 2), (2, 1, 0)}
    assert fam.count == 2
    # k3 = 1 - 2 k2 forces k1 = -1; no nonnegative solution
    assert S._snf_family(dec, [0, 1]).kind == "empty"
    assert S._snf_family(dec, [0, 0]).kind == "singleton"
    # divisor 2: 2 k1 + 2 k2 = b is a line of b/2 + 1 points for even b
    dec = lp.snf([[2, 2]])
    fam = S._snf_family(dec, [200])
    assert fam.kind == "line" and fam.count == 101
    assert family_set(fam) == {(j, 100 - j) for j in range(101)}
    assert S._snf_family(dec, [201]).kind == "empty"


@given(st.integers(0, 12), st.integers(0, 12))
def test_parametrize_matches_closed_form(b1, b2):
    # hand-derived family for [[1,0,1],[0,2,1]]: (b1-b2+2j, j, b2-2j)
    expect = set()
    for j in range(0, b2 + 1):
        k = (b1 - b2 + 2 * j, j, b2 - 2 * j)
        if all(x >= 0 for x in k):
            expect.add(k)
    fam = solve(EXAMPLE1, [b1, b2])
    assert family_set(fam) == expect


def test_parametrize_rejects_wrong_shape():
    # any kernel dimension is accepted; a kernel of dimension 2 or more
    # is left to enumeration
    assert family_set(solve(EXAMPLE3, [1, 2, 3])) == set()
    assert solve([[1, 1, 1]], [4]) is None
    # b is checked once, by the query step that solution_family and pmf
    # share
    model = lp.PoissonModel(EXAMPLE1, [1.0, 1.0, 1.0])
    for bad in ([1, 2, 3], [1, 2.5]):
        with pytest.raises(InputError):
            lp.solution_family(model, bad)


def test_unbounded_line_is_an_input_error():
    # a zero column or a negative entry makes the kernel direction
    # one-signed: infinitely many solutions.  The model refuses the
    # negative entry and removes the zero column, so the Smith-form step
    # never sees either
    with pytest.raises(InputError, match="negative"):
        lp.PoissonModel([[1, -1]], [1.0, 1.0])
    fam = lp.solution_family(lp.PoissonModel([[1, 0]], [1.0, 1.0]), [1])
    assert family_set(fam) == {(1,)}
    for a, b in (([[1, 0]], [1]), ([[1, -1]], [0])):
        with pytest.raises(InternalInvariantError, match="one-signed"):
            solve(a, b)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_single_index_equals_enumeration(data):
    a = data.draw(st.sampled_from(SINGLE_INDEX_POOL))
    a = lp.int_matrix(a)
    b = [data.draw(st.integers(0, 6)) for _ in range(a.shape[0])]
    fam = solve(a, b)
    assert family_set(fam) == family_set(enumerate_solutions(a, b))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_line_invariants(data):
    a = lp.int_matrix(data.draw(st.sampled_from(SINGLE_INDEX_POOL)))
    b = [data.draw(st.integers(0, 8)) for _ in range(a.shape[0])]
    fam = solve(a, b)
    if fam.kind != "line":
        return
    u = np.array(fam.base, dtype=object)
    v = np.array(fam.direction, dtype=object)
    bvec = lp.int_vector(b)
    # the direction spans the kernel and must point both ways
    assert any(x > 0 for x in v) and any(x < 0 for x in v)
    assert all(x == 0 for x in a @ v)
    for j in (fam.jmin, fam.jmax):
        k = u + j * v
        assert all(x >= 0 for x in k)
        assert all(x == y for x, y in zip(a @ k, bvec))
    # one step outside the interval turns some coordinate negative
    assert any(x < 0 for x in u + (fam.jmin - 1) * v)
    assert any(x < 0 for x in u + (fam.jmax + 1) * v)


# ------------------------------------------------------- invertible

def test_solve_invertible_cases():
    a = lp.int_matrix(EXAMPLE3)
    inv = lp.int_matrix(EXAMPLE3_INVERSE)
    assert (a @ inv).tolist() == lp.int_identity(3).tolist()
    b = a @ lp.int_vector([1, 1, 1])
    assert family_set(solve(a, b)) == {(1, 1, 1)}
    # k = inv b = (75, -16, 2) has a negative entry
    assert (inv @ lp.int_vector([1, 0, 0])).tolist() == [75, -16, 2]
    assert solve(a, [1, 0, 0]).kind == "empty"
    assert family_set(solve(a, [0, 0, 0])) == {(0, 0, 0)}


def test_solve_invertible_non_integral():
    assert solve([[2]], [1]).kind == "empty"
    assert family_set(solve([[2]], [6])) == {(3,)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_invertible_equals_enumeration(data):
    n = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)]
    a = lp.int_matrix(rows)
    if det_exact(a) == 0 or any(all(a[i, j] == 0 for i in range(n)) for j in range(n)):
        return
    b = [data.draw(st.integers(0, 8)) for _ in range(n)]
    got = family_set(solve(a, b))
    assert got == family_set(enumerate_solutions(a, b))


@st.composite
def natural_systems(draw):
    """A natural matrix with no zero column and kernel dimension 0 or 1,
    often with dependent rows and divisors above 1, plus b drawn near
    the lattice A N^n: some b are A k for a k >= 0, others are perturbed
    off the lattice or off a dependent-row relation."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    rows = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    if m >= 2 and draw(st.booleans()):
        # replace the last row by an integer combination of the others
        coef = [draw(st.integers(0, 2)) for _ in range(m - 1)]
        rows[-1] = [sum(c * rows[i][j] for i, c in enumerate(coef)) for j in range(n)]
    a = lp.int_matrix([[scale * x for x in row] for row in rows])
    k = [draw(st.integers(0, 5)) for _ in range(n)]
    b = [int(x) for x in a @ lp.int_vector(k)]
    i = draw(st.integers(0, m - 1))
    b[i] += draw(st.sampled_from([0, 0, 1, -1, 2]))
    return a, b


@settings(max_examples=400, deadline=None)
@given(natural_systems())
def test_snf_family_equals_enumeration(system):
    a, b = system
    m, n = a.shape
    if any(all(a[i, j] == 0 for i in range(m)) for j in range(n)):
        return
    dec = lp.snf(a)
    fam = S._snf_family(dec, b)
    want = family_set(enumerate_solutions(a, b))
    if n - dec.rank >= 2:
        # left to the walk unless b is off the lattice
        assert fam is None or (fam.kind == "empty" and not want)
        return
    assert fam is not None
    assert family_set(fam) == want
    assert fam.count == len(want)
    if not want:
        assert fam.kind == "empty"


# ------------------------------------------------- free-coordinate walk

@st.composite
def wide_kernel_systems(draw):
    """A natural matrix with kernel dimension >= 2 and no zero column,
    often with dependent rows and divisors above 1, rates with zeros,
    and b drawn near the lattice A N^n as in natural_systems, sometimes
    negative."""
    m = draw(st.integers(1, 3))
    n = m + 2 if m > 1 else draw(st.integers(3, 4))
    rows = [[draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    if m >= 2 and draw(st.booleans()):
        coef = [draw(st.integers(0, 2)) for _ in range(m - 1)]
        rows[-1] = [sum(c * rows[i][j] for i, c in enumerate(coef)) for j in range(n)]
    for j in range(n):
        if not any(row[j] for row in rows):
            rows[draw(st.integers(0, m - 1))][j] = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1, 1, 2, 3]))
    a = lp.int_matrix([[scale * x for x in row] for row in rows])
    k = [draw(st.integers(0, 3)) for _ in range(n)]
    b = [int(x) for x in a @ lp.int_vector(k)]
    b[draw(st.integers(0, m - 1))] += draw(st.sampled_from([0, 0, 1, -1, 2, -100]))
    rates = [draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])) for _ in range(n)]
    return a, b, rates


def _cli_solve(path, b):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["solve", str(path), "--b", *map(str, b), "--format", "json"]) == 0
    return json.loads(out.getvalue())


@settings(max_examples=300, deadline=None)
@given(system=wide_kernel_systems())
def test_walk_equals_enumeration(system, tmp_path_factory):
    """The walk and the CLI against the depth-first search over model.a,
    which keeps the columns of positive rate; the model reduced by hand
    gives the same result."""
    a, b, rates = system
    model = lp.PoissonModel(a, rates)
    assert model.n == sum(r > 0.0 for r in rates)
    want = enumerate_solutions(model.a, b)
    fam = lp.solution_family(model, b)
    assert family_set(fam) == family_set(want)
    assert fam.count == want.count
    # the walk alone, where solution_family hands it b: on the lattice
    # and nonnegative
    if min(b) >= 0 and S._snf_family(model.snf, b) is None:
        assert family_set(S._walk_family(model._walk_plan, b)) == family_set(want)
    auto = lp.pmf(model, b)
    ref = reference_log_prob(model.rates.tolist(), family_set(want))
    assert auto.terms == want.count
    if model.n == a.shape[1]:
        assert auto.route in ("empty", "walk", "recurrence")
    assert auto.log_prob == ref or math.isclose(auto.log_prob, ref, rel_tol=1e-12)
    hand = hand_reduced(a, rates)
    if hand is not None:
        assert lp.pmf(hand, b) == auto
    path = tmp_path_factory.getbasetemp() / "walk-model.json"
    path.write_text(json.dumps({"a": a.tolist(), "lambda": rates}))
    out = _cli_solve(path, b)
    assert out["count"] == want.count
    assert out["kind"] == fam.kind
    if fam.kind == "line":
        # zero rates can leave a kernel of dimension 1, read off as a line
        assert (out["base"], out["direction"], out["jmin"], out["jmax"]) == (
            [int(x) for x in fam.base], [int(x) for x in fam.direction], fam.jmin, fam.jmax)
    else:
        assert fam.kind == want.kind
        if want.count:
            assert out["solutions"] == [list(k) for k in sorted(family_set(want))]


def test_walk_plan_takes_first_independent_block():
    # dependent rows: rank 1, and column 0 alone has D = 1
    plan = S._WalkPlan(lp.int_matrix([[1, 1, 2], [2, 2, 4]]))
    assert (plan.basis, plan.free, plan.det) == ((0,), (1, 2), 1)
    plan = S._WalkPlan(lp.int_matrix([[1, 1, 1, 0], [0, 1, 2, 1]]))
    assert plan.free == (2, 3)
    assert plan.basis == (0, 1) and plan.det == 1 and plan.adj == ((1, -1), (0, 1))
    # column 0 has det 2 and stays: the walk drops the inexact leaves
    plan = S._WalkPlan(lp.int_matrix([[2, 1, 1]]))
    assert (plan.basis, plan.det, plan.adj) == ((0,), 2, ((1,),))
    for b in range(7):
        fam, want = S._walk_family(plan, [b]), enumerate_solutions([[2, 1, 1]], [b])
        assert family_set(fam) == family_set(want) and fam.count == want.count
    plan = S._WalkPlan(lp.int_matrix([[6, 10, 15, 4], [12, 20, 30, 8]]))
    assert (plan.basis, plan.det) == ((0,), 6)


def test_walk_plan_solves_leaves_from_every_row():
    # row 2 = row 0 + row 1; the basis block [[2, 0], [0, 2], [2, 2]] has
    # Smith divisors 2 and 2, so D = 2 and adj has one column per row
    a = [[2, 0, 2, 1, 1], [0, 2, 2, 1, 3], [2, 2, 4, 2, 4]]
    plan = S._WalkPlan(lp.int_matrix(a))
    assert (plan.basis, plan.free, plan.det) == ((0, 1), (2, 3, 4), 2)
    block = np.array([row[:2] for row in a], dtype=object)
    assert np.array_equal(np.array(plan.adj, dtype=object) @ block, 2 * np.eye(2, dtype=int))
    for k in [(0, 0, 0, 1, 0), (1, 0, 0, 1, 1), (2, 1, 2, 0, 1), (2, 2, 2, 2, 2)]:
        b = [sum(x * y for x, y in zip(row, k)) for row in a]
        fam, want = S._walk_family(plan, b), enumerate_solutions(a, b)
        assert family_set(fam) == family_set(want) and fam.count == want.count


def test_dependent_rows_are_checked_before_the_walk():
    # row 1 = 2 * row 0: b = [3, 7] is off the lattice, so _snf_family
    # answers it and the walk never sees it
    model = lp.PoissonModel([[1, 1, 2], [2, 2, 4]], [1.0, 1.0, 1.0])
    for fam in (S._snf_family(model.snf, [3, 7]), lp.solution_family(model, [3, 7])):
        assert fam.kind == "empty" and family_set(fam) == set()
    assert lp.pmf(model, [3, 7]).prob == 0.0
    assert S._snf_family(model.snf, [3, 6]) is None
    fam = lp.solution_family(model, [3, 6])
    assert fam.count == 6 and family_set(fam) == {
        (0, 1, 1), (0, 3, 0), (1, 0, 1), (1, 2, 0), (2, 1, 0), (3, 0, 0)}
    assert lp.solution_family(model, [3, -1]).kind == "empty"
    with pytest.raises(InputError):
        lp.solution_family(model, [3])


def test_walk_wide_entries_use_python_ints():
    """Entries beyond int64 or b large enough that int64 cannot be
    proven safe run the walk on object arrays of Python ints."""
    a = [[1, 2**64, 2**64]]
    model = lp.PoissonModel(a, [1.0, 1.0, 1.0])
    fam = lp.solution_family(model, [2**65 + 3])
    assert fam.array.dtype == object
    assert fam.count == 6 and family_set(fam) == {
        (3, 0, 2), (3, 1, 1), (3, 2, 0),
        (2**64 + 3, 0, 1), (2**64 + 3, 1, 0), (2**65 + 3, 0, 0),
    }
    res = lp.pmf(model, [2**65 + 3])
    # the oracle: three terms with k_0 = 3 dominate; the others vanish
    big = [-3.0 - math.lgamma(k0 + 1) - math.lgamma(k1 + 1) - math.lgamma(k2 + 1)
           for k0, k1, k2 in family_set(fam)]
    hi = max(big)
    ref = hi + math.log(math.fsum(math.exp(t - hi) for t in big))
    assert res.terms == 6 and math.isclose(res.log_prob, ref, rel_tol=1e-12)
    assert res.route == "walk"
    # k_1 + k_2 = s for s = 0..3: 1 + 2 + 3 + 4 points
    assert lp.solution_family(model, [2**65 + 2**64 + 3]).count == 10

    cases = [
        ([[2**64, 2**64 + 1, 2**65]], [1, 1, 1]),
        ([[2**63, 1, 2**63 + 1, 5], [1, 2**63, 3, 2**64]], [1, 2, 1, 1]),
        ([[10**12, 10**12, 2 * 10**12]], [1, 1, 1]),
    ]
    for a, k in cases:
        b = [int(x) for x in lp.int_matrix(a) @ lp.int_vector(k)]
        model = lp.PoissonModel(a, [1.0] * len(k))
        fam = lp.solution_family(model, b)
        want = enumerate_solutions(a, b)
        assert fam.array.dtype == object
        assert family_set(fam) == family_set(want) and fam.count == want.count
        assert tuple(k) in family_set(want)
    # the same entries with b small enough to prove int64 safe
    a = [[10**11, 10**11, 2 * 10**11]]
    fam = lp.solution_family(lp.PoissonModel(a, [1.0] * 3), [4 * 10**11])
    want = enumerate_solutions(a, [4 * 10**11])
    assert fam.array.dtype == np.int64
    assert family_set(fam) == family_set(want) and fam.count == want.count


# ------------------------------------------------------ point cap

def test_walk_frontier_cap():
    # the second free column would expand 10**4 + 1 rows to ~5 * 10**7;
    # pmf walks, since the recurrence's error bound declines t = 10**4
    model = lp.PoissonModel([[1] * 6], [1.0] * 6)
    with pytest.raises(InputError, match="walk frontier"):
        lp.pmf(model, [10**4])


def test_point_cap_on_every_route(monkeypatch):
    monkeypatch.setattr(S, "MAX_POINTS", 14)
    model = lp.PoissonModel([[1, 1, 1]], [1.0] * 3)
    # k1 + k2 + k3 = 4 has 15 solutions, 4 has 15 leaves; the rank-1
    # recurrence would take 3 * 5 = 15 steps, past the cap, so pmf walks
    with pytest.raises(InputError, match="walk frontier"):
        lp.pmf(model, [4])
    with pytest.raises(InputError, match="walk frontier"):
        S._walk_family(model._walk_plan, [4])
    # the oracle's depth-first search honours the same cap
    with pytest.raises(InputError, match="enumerated"):
        enumerate_solutions(model.a, [4])
    assert lp.pmf(model, [3]).terms == enumerate_solutions(model.a, [3]).count == 10
    # pmf answers [3] by the rank-1 recurrence in 12 steps; the walk
    # itself stays under the cap there
    assert S._walk_family(model._walk_plan, [3]).count == 10
    line = lp.PoissonModel([[1, 1]], [1.0, 1.0])
    assert lp.pmf(line, [13]).terms == 14
    # a line is summed in blocks of at most MAX_POINTS points, so its
    # length is not capped: 15 points in two blocks, against Poisson(2)
    res = lp.pmf(line, [14])
    assert res.terms == res.summed == 15
    assert math.isclose(res.log_prob, 14 * math.log(2.0) - 2.0 - math.lgamma(15), rel_tol=1e-12)
    # holding the whole line at once is still refused
    fam = lp.solution_family(line, [14])
    with pytest.raises(InputError, match="solution set of 15"):
        fam.points()


def test_oracle_dfs_is_bounded():
    # six solutions, but a depth-first search without a node budget
    # loops over all 2**65 values of k_0; the oracle refuses at once,
    # and the walk answers
    code = ("import linpois as lp\n"
            "from oracle import enumerate_solutions\n"
            "try:\n"
            "    enumerate_solutions([[1, 2**64, 2**64]], [2**65 + 3])\n"
            "except lp.InputError as exc:\n"
            "    print(exc)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env=SRC_ENV)
    assert out.returncode == 0 and "cap" in out.stdout
    assert lp.pmf(lp.PoissonModel([[1, 2**64, 2**64]], [1.0] * 3), [2**65 + 3]).terms == 6


# ------------------------------------------------------ enumeration

def test_enumerate_known():
    assert family_set(enumerate_solutions(EXAMPLE1, [2, 2])) == {(0, 0, 2), (2, 1, 0)}
    assert family_set(enumerate_solutions(EXAMPLE1, [0, 0])) == {(0, 0, 0)}
    assert family_set(enumerate_solutions(lp.int_identity(2), [3, 1])) == {(3, 1)}


def test_enumerate_simplex_count():
    # k1 + k2 + k3 = 4 has C(6, 2) = 15 nonnegative solutions
    fam = enumerate_solutions([[1, 1, 1]], [4])
    assert fam.count == 15
    assert all(sum(k) == 4 for k in family_set(fam))


def test_enumerate_negative_b_is_empty():
    assert enumerate_solutions(EXAMPLE1, [-1, 2]).kind == "empty"


def test_enumerate_rejects_zero_column():
    with pytest.raises(InputError):
        enumerate_solutions([[1, 0], [1, 0]], [1, 1])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_enumerate_solutions_are_valid_and_bounded(data):
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 4))
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(m)]
    a = lp.int_matrix(rows)
    if any(all(a[i, j] == 0 for i in range(m)) for j in range(n)):
        return
    b = [data.draw(st.integers(0, 6)) for _ in range(m)]
    fam = enumerate_solutions(a, b)
    bvec = lp.int_vector(b)
    cap = max(int(x) for x in b)
    points = [tuple(k) for k in fam.array.tolist()]
    assert len(points) == len(family_set(fam))
    for k in points:
        assert all(x >= 0 for x in k)
        assert max(k) <= cap
        assert all(x == y for x, y in zip(a @ np.array(k, dtype=object), bvec))


# ------------------------------------------------------- preprocess

def test_preprocess_removes_zero_column():
    a, rates, rep = lp.preprocess([[1, 0, 1], [0, 0, 1]], [1.0, 9.0, 2.0])
    assert a.tolist() == [[1, 1], [0, 1]]
    assert rates.tolist() == [1.0, 2.0]
    assert rep.removed_columns == (1,)
    assert rep.original_shape == (2, 3)


def test_preprocess_removes_zero_rate_columns():
    # a zero-rate variable is 0 almost surely: dropped like a zero column
    a, rates, rep = lp.preprocess([[1, 0, 2, 1], [1, 0, 1, 0]], [0.0, 4.0, 3.0, 0.0])
    assert a.tolist() == [[2], [1]]
    assert rates.tolist() == [3.0]
    assert rep.removed_columns == (0, 1, 3)
    assert rep.rates.tolist() == [0.0, 4.0, 3.0, 0.0]
    model = lp.PoissonModel([[1, 0, 2, 1], [1, 0, 1, 0]], [0.0, 4.0, 3.0, 0.0])
    assert model.n == 1 and model.rates_full.tolist() == [0.0, 4.0, 3.0, 0.0]
    assert model.report == rep


def test_preprocess_proportional_rows():
    a, rates, rep = lp.preprocess([[1, 2], [2, 4]], [1.0, 1.0])
    assert a.tolist() == [[1, 2], [2, 4]]
    model = lp.PoissonModel([[1, 2], [2, 4]], [1.0, 1.0])
    assert family_set(lp.solution_family(model, [3, 6])) == {(3, 0), (1, 1)}
    assert lp.pmf(model, [3, 6]).prob > 0
    assert lp.solution_family(model, [3, 7]).kind == "empty"
    assert lp.pmf(model, [3, 7]).prob == 0.0


def test_preprocess_mixed_dependence():
    # row2 = row0 + row1
    a, rates, rep = lp.preprocess([[1, 0], [0, 1], [1, 1]], [1.0, 1.0])
    assert a.tolist() == [[1, 0], [0, 1], [1, 1]]
    model = lp.PoissonModel([[1, 0], [0, 1], [1, 1]], [1.0, 1.0])
    assert family_set(lp.solution_family(model, [2, 3, 5])) == {(2, 3)}
    assert lp.pmf(model, [2, 3, 5]).prob > 0
    assert lp.solution_family(model, [2, 3, 6]).kind == "empty"
    assert lp.pmf(model, [2, 3, 6]).prob == 0.0


def test_preprocess_full_rank_is_trivial():
    a, rates, rep = lp.preprocess(EXAMPLE1, [1.0, 1.0, 1.0])
    assert a.tolist() == lp.int_matrix(EXAMPLE1).tolist()
    assert rep.removed_columns == ()


def test_preprocess_zero_matrix():
    a, rates, rep = lp.preprocess([[0, 0]], [1.0, 2.0])
    assert a.shape == (1, 0)
    assert rates.shape == (0,)
    assert rep.removed_columns == (0, 1)
    model = lp.PoissonModel([[0, 0]], [1.0, 2.0])
    assert family_set(lp.solution_family(model, [0])) == {()}
    assert lp.pmf(model, [0]).prob == 1.0
    assert lp.solution_family(model, [1]).kind == "empty"
    assert lp.pmf(model, [1]).prob == 0.0


def test_preprocess_validation():
    with pytest.raises(InputError):
        lp.preprocess([[1, 2]], [1.0])
    with pytest.raises(InputError):
        lp.preprocess([[1, -2]], [1.0, 1.0])
    with pytest.raises(InputError):
        lp.preprocess([[1, 2]], [1.0, -0.5])
    with pytest.raises(InputError):
        lp.preprocess([[1, 2]], [1.0, float("nan")])
    # non-numeric rates: InputError, not numpy's ValueError or TypeError
    for bad in (["x"], [{}]):
        with pytest.raises(InputError):
            lp.preprocess([[1]], bad)


@pytest.mark.parametrize("rates", [
    ["1.5", True, 1],  # numpy read these as the rates (1.5, 1, 1)
    [True, 1, 1],  # np.asarray gives plain int64: no bool dtype to see
    [1.0, b"2", 1.0],
    np.array([True, True, False]),
    [1.0, 2.0, 10**400],  # OverflowError from numpy's float conversion
    [1.0, 2.0, -10**5000],  # ValueError from the repr in the message
    [1.0, np.float32("inf"), 1.0],  # float max rounds to inf in float32
])
def test_rates_are_real_numbers(rates):
    # the one rate check refuses what is not a real number, as int_matrix
    # refuses a bool entry, in the model and in a JSON model alike
    with pytest.raises(InputError, match="rate"):
        lp.PoissonModel(EXAMPLE1, rates)
    with pytest.raises(InputError, match="rate"):
        lp.model_from_dict({"a": EXAMPLE1, "lambda": rates})


# --------------------------------------------------- family plumbing

def test_family_count_and_vectors():
    line = lp.SolutionFamily.line([0, 0, 2], [2, 1, -2], 0, 1)
    assert line.count == 2
    assert line.points().tolist() == [[0, 0, 2], [2, 1, 0]]
    assert family_set(line) == {(0, 0, 2), (2, 1, 0)}
    assert lp.SolutionFamily.empty().count == 0
    assert family_set(lp.SolutionFamily.singleton([1, 2])) == {(1, 2)}


def test_family_equality():
    """A family is its kind and its point set: the rows of a finite
    family may come in any order, and the kind of a point set follows
    from its size, whichever route built it."""
    F = lp.SolutionFamily

    def key(fam):
        return fam.kind, frozenset(family_set(fam))

    assert key(F.empty()) == key(F.empty())
    assert key(F.line([0, 0, 2], [2, 1, -2], 0, 1)) == key(F.line([0, 0, 2], [2, 1, -2], 0, 1))
    assert key(F.line([0, 0, 2], [2, 1, -2], 0, 1)) != key(F.line([0, 0, 2], [2, 1, -2], 0, 2))
    assert key(F.singleton([1, 2])) == key(F.singleton([1, 2])) != key(F.singleton([2, 1]))
    assert key(finite_family([(0, 3), (1, 1)])) == key(finite_family([(1, 1), (0, 3)]))
    assert key(finite_family([(1, 2)])) == key(F.singleton([1, 2]))
    assert key(finite_family([])) == key(F.empty())
    assert (finite_family([]).kind, finite_family([(1, 2)]).kind) == ("empty", "singleton")
    wide = key(finite_family([(2**70, 0)]))
    assert wide == key(finite_family([(2**70, 0)])) != key(finite_family([(0, 2**70)]))
    assert len({key(F.empty()), key(F.empty()), key(finite_family([(0, 3), (1, 1)])),
                key(finite_family([(1, 1), (0, 3)]))}) == 2
    assert F.empty() != "empty"
    walked = lp.solution_family(lp.PoissonModel([[1, 1, 1]], [1.0] * 3), [2])
    assert key(walked) == key(enumerate_solutions([[1, 1, 1]], [2]))


def test_family_points_match_vectors():
    # a far-out line start: the exact integer anchor keeps every row exact
    families = [
        lp.SolutionFamily.line([0, 0, 2], [2, 1, -2], 0, 1),
        lp.SolutionFamily.line([-(2**60), 5, 2**61 + 4], [1, 0, -2], 2**60, 2**60 + 2),
        lp.SolutionFamily.singleton([1, 2]),
        finite_family([(0, 3), (1, 1)]),
        finite_family([()]),
    ]
    for fam in families:
        pts = fam.points()
        assert pts.dtype == np.float64
        rows = [tuple(int(x) for x in row) for row in pts.tolist()]
        assert len(rows) == fam.count and set(rows) == family_set(fam)
        if fam.kind == "line":
            # in the order of j
            assert rows == line_points(fam)
    assert finite_family([()]).points().shape == (1, 0)
    for empty in (lp.SolutionFamily.empty(), finite_family([])):
        assert empty.points().shape == (0, 0)
    with pytest.raises(InputError):
        lp.SolutionFamily.singleton([10**400]).points()
