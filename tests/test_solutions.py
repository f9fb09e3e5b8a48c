"""Solution families of A k = b: classification, the one-parameter
line, enumeration (the oracle), and preprocessing."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linpois as lp
from linpois import MethodTag
from linpois.errors import InputError, MethodNotApplicableError

from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3


def family_set(fam):
    return set(fam.vectors())


# deterministic pool of matrices classifying as single-index, found by
# seeded search over small natural matrices (rank = rows = cols-1,
# all elementary divisors 1)
def _single_index_pool():
    rng = np.random.default_rng(1318)
    pool = [lp.int_matrix(EXAMPLE1), lp.int_matrix(EXAMPLE2)]
    while len(pool) < 8:
        m = int(rng.integers(1, 4))
        cand = rng.integers(0, 4, size=(m, m + 1))
        a, _, rep = lp.preprocess(cand, [1.0] * (m + 1))
        if a.shape != (m, m + 1) or not rep.is_trivial:
            continue
        if lp.classify(a) is MethodTag.SINGLE_INDEX:
            pool.append(a)
    return pool


SINGLE_INDEX_POOL = _single_index_pool()


# ---------------------------------------------------------- classify

def test_classify_known():
    assert lp.classify(EXAMPLE1) is MethodTag.SINGLE_INDEX
    assert lp.classify(EXAMPLE3) is MethodTag.INVERTIBLE
    # m = 1, n = 4: dimensions alone rule out the single-index form
    assert lp.classify([[1, 1, 1, 1]]) is MethodTag.ENUMERATE


def test_classify_rejects_dependent_rows():
    with pytest.raises(InputError):
        lp.classify([[1, 2], [2, 4]])
    with pytest.raises(InputError):
        lp.classify([[1, 0, 1], [2, 0, 2]])


def test_classify_divisor_gate():
    # right shape but a divisor of 2: must fall back to enumeration
    a = [[2, 0, 0], [0, 2, 0]]
    dec = lp.snf(a)
    assert dec.divisors == (2, 2)
    assert lp.classify(a) is MethodTag.ENUMERATE


# ------------------------------------------------------ single index

def test_parametrize_known_solution_sets():
    dec = lp.snf(EXAMPLE1)
    fam = lp.parametrize_single_index(dec, [2, 2])
    assert family_set(fam) == {(0, 0, 2), (2, 1, 0)}
    assert fam.count == 2
    # k3 = 1 - 2 k2 forces k1 = -1; no nonnegative solution
    assert lp.parametrize_single_index(dec, [0, 1]).kind == "empty"
    assert lp.parametrize_single_index(dec, [0, 0]).kind == "singleton"


@given(st.integers(0, 12), st.integers(0, 12))
def test_parametrize_matches_closed_form(b1, b2):
    # hand-derived family for [[1,0,1],[0,2,1]]: (b1-b2+2j, j, b2-2j)
    expect = set()
    for j in range(0, b2 + 1):
        k = (b1 - b2 + 2 * j, j, b2 - 2 * j)
        if all(x >= 0 for x in k):
            expect.add(k)
    fam = lp.parametrize_single_index(lp.snf(EXAMPLE1), [b1, b2])
    assert family_set(fam) == expect


def test_parametrize_rejects_wrong_shape():
    with pytest.raises(MethodNotApplicableError):
        lp.parametrize_single_index(lp.snf(EXAMPLE3), [1, 2, 3])
    with pytest.raises(InputError):
        lp.parametrize_single_index(lp.snf(EXAMPLE1), [1, 2, 3])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_single_index_equals_enumeration(data):
    a = data.draw(st.sampled_from(SINGLE_INDEX_POOL))
    a = lp.int_matrix(a)
    b = [data.draw(st.integers(0, 6)) for _ in range(a.shape[0])]
    fam = lp.parametrize_single_index(lp.snf(a), b)
    assert family_set(fam) == family_set(lp.enumerate_solutions(a, b))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_line_invariants(data):
    a = lp.int_matrix(data.draw(st.sampled_from(SINGLE_INDEX_POOL)))
    b = [data.draw(st.integers(0, 8)) for _ in range(a.shape[0])]
    fam = lp.parametrize_single_index(lp.snf(a), b)
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
    inv = lp.inverse_rational(EXAMPLE3)
    a = lp.int_matrix(EXAMPLE3)
    b = a @ lp.int_vector([1, 1, 1])
    assert family_set(lp.solve_invertible(inv, b)) == {(1, 1, 1)}
    # k = (75, -16, 2) has a negative entry
    assert lp.solve_invertible(inv, [1, 0, 0]).kind == "empty"
    assert family_set(lp.solve_invertible(inv, [0, 0, 0])) == {(0, 0, 0)}


def test_solve_invertible_non_integral():
    inv = lp.inverse_rational([[2]])
    assert lp.solve_invertible(inv, [1]).kind == "empty"
    assert family_set(lp.solve_invertible(inv, [6])) == {(3,)}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_solve_invertible_equals_enumeration(data):
    n = data.draw(st.integers(1, 3))
    rows = [[data.draw(st.integers(0, 3)) for _ in range(n)] for _ in range(n)]
    a = lp.int_matrix(rows)
    if lp.det_exact(a) == 0 or any(all(a[i, j] == 0 for i in range(n)) for j in range(n)):
        return
    b = [data.draw(st.integers(0, 8)) for _ in range(n)]
    got = family_set(lp.solve_invertible(lp.inverse_rational(a), b))
    assert got == family_set(lp.enumerate_solutions(a, b))


# ------------------------------------------------------ enumeration

def test_enumerate_known():
    assert family_set(lp.enumerate_solutions(EXAMPLE1, [2, 2])) == {(0, 0, 2), (2, 1, 0)}
    assert family_set(lp.enumerate_solutions(EXAMPLE1, [0, 0])) == {(0, 0, 0)}
    assert family_set(lp.enumerate_solutions(lp.int_identity(2), [3, 1])) == {(3, 1)}


def test_enumerate_simplex_count():
    # k1 + k2 + k3 = 4 has C(6, 2) = 15 nonnegative solutions
    fam = lp.enumerate_solutions([[1, 1, 1]], [4])
    assert fam.count == 15
    assert all(sum(k) == 4 for k in fam.vectors())


def test_enumerate_negative_b_is_empty():
    assert lp.enumerate_solutions(EXAMPLE1, [-1, 2]).kind == "empty"


def test_enumerate_rejects_zero_column():
    with pytest.raises(InputError):
        lp.enumerate_solutions([[1, 0], [1, 0]], [1, 1])


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
    fam = lp.enumerate_solutions(a, b)
    bvec = lp.int_vector(b)
    cap = max(int(x) for x in b)
    seen = set()
    for k in fam.vectors():
        assert k not in seen
        seen.add(k)
        assert all(x >= 0 for x in k)
        assert max(k) <= cap
        assert all(x == y for x, y in zip(a @ np.array(k, dtype=object), bvec))


# ------------------------------------------------------- preprocess

def test_preprocess_removes_zero_column():
    a, rates, rep = lp.preprocess([[1, 0, 1], [0, 0, 1]], [1.0, 9.0, 2.0])
    assert a.tolist() == [[1, 1], [0, 1]]
    assert rates.tolist() == [1.0, 2.0]
    assert rep.removed_columns == (1,)
    assert rep.kept_rows == (0, 1)
    assert rep.relations == ()


def test_preprocess_proportional_rows():
    a, rates, rep = lp.preprocess([[1, 2], [2, 4]], [1.0, 1.0])
    assert a.tolist() == [[1, 2]]
    assert rep.kept_rows == (0,)
    (rel,) = rep.relations
    assert rel.row == 1
    assert rel.coeffs == ((0, Fraction(2)),)
    assert rel.holds([3, 6])
    assert not rel.holds([3, 7])


def test_preprocess_mixed_dependence():
    # row2 = row0 + row1
    a, rates, rep = lp.preprocess([[1, 0], [0, 1], [1, 1]], [1.0, 1.0])
    assert a.tolist() == [[1, 0], [0, 1]]
    (rel,) = rep.relations
    assert rel.row == 2
    assert dict(rel.coeffs) == {0: Fraction(1), 1: Fraction(1)}
    assert rep.is_consistent([2, 3, 5])
    assert not rep.is_consistent([2, 3, 6])


def test_preprocess_full_rank_is_trivial():
    a, rates, rep = lp.preprocess(EXAMPLE1, [1.0, 1.0, 1.0])
    assert a.tolist() == lp.int_matrix(EXAMPLE1).tolist()
    assert rep.is_trivial


def test_preprocess_zero_matrix():
    a, rates, rep = lp.preprocess([[0, 0]], [1.0, 2.0])
    assert a.shape == (0, 0)
    assert rates.shape == (0,)
    assert rep.removed_columns == (0, 1)
    assert rep.is_consistent([0])
    assert not rep.is_consistent([1])


def test_preprocess_validation():
    with pytest.raises(InputError):
        lp.preprocess([[1, 2]], [1.0])
    with pytest.raises(InputError):
        lp.preprocess([[1, -2]], [1.0, 1.0])
    with pytest.raises(InputError):
        lp.preprocess([[1, 2]], [1.0, -0.5])
    with pytest.raises(InputError):
        lp.preprocess([[1, 2]], [1.0, float("nan")])


# --------------------------------------------------- family plumbing

def test_family_count_and_vectors():
    line = lp.SolutionFamily.line([0, 0, 2], [2, 1, -2], 0, 1)
    assert line.count == 2
    assert list(line.vectors()) == [(0, 0, 2), (2, 1, 0)]
    assert lp.SolutionFamily.empty().count == 0
    assert lp.SolutionFamily.singleton([1, 2]).solutions == ((1, 2),)


def test_family_points_match_vectors():
    # a far-out line start: the exact integer anchor keeps every row exact
    families = [
        lp.SolutionFamily.line([0, 0, 2], [2, 1, -2], 0, 1),
        lp.SolutionFamily.line([-(2**60), 5, 2**61 + 4], [1, 0, -2], 2**60, 2**60 + 2),
        lp.SolutionFamily.singleton([1, 2]),
        lp.SolutionFamily.finite([(0, 3), (1, 1)]),
        lp.SolutionFamily.finite([()]),
    ]
    for fam in families:
        pts = fam.points()
        assert pts.dtype == np.float64
        assert [tuple(int(x) for x in row) for row in pts.tolist()] == list(fam.vectors())
    assert lp.SolutionFamily.finite([()]).points().shape == (1, 0)
    for empty in (lp.SolutionFamily.empty(), lp.SolutionFamily.finite([])):
        assert empty.points().shape == (0, 0)
    with pytest.raises(InputError):
        lp.SolutionFamily.singleton([10**400]).points()
