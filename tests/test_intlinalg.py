"""Exact integer linear algebra: SNF, and the determinant and minor-gcd
oracles of tests/oracle.py.

The heavier properties are checked against independent in-test oracles:
plain Fraction Gaussian elimination for the determinant and the SNF
rank, and the minor-gcd quotient formula for the elementary divisors.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linpois as lp
from linpois.errors import InputError

from conftest import EXAMPLE1, EXAMPLE2, EXAMPLE3, EXAMPLE3_INVERSE
from oracle import det_exact, minor_gcd


# ---------------------------------------------------------- oracles

def frac_det(rows):
    """Textbook Gaussian elimination over Fraction; independent of Bareiss."""
    w = [[Fraction(x) for x in r] for r in rows]
    n = len(w)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if w[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            w[c], w[piv] = w[piv], w[c]
            det = -det
        det *= w[c][c]
        inv = 1 / w[c][c]
        for i in range(c + 1, n):
            f = w[i][c] * inv
            if f:
                w[i] = [x - f * y for x, y in zip(w[i], w[c])]
    assert det.denominator == 1
    return int(det)


def frac_rank(rows):
    w = [[Fraction(x) for x in r] for r in rows]
    m = len(w)
    n = len(w[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if w[i][c] != 0), None)
        if piv is None:
            continue
        w[r], w[piv] = w[piv], w[r]
        for i in range(r + 1, m):
            f = w[i][c] / w[r][c]
            if f:
                w[i] = [x - f * y for x, y in zip(w[i], w[r])]
        r += 1
    return r


@st.composite
def int_matrices(draw, max_rows=4, max_cols=5, lo=-9, hi=9):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return [[draw(st.integers(lo, hi)) for _ in range(n)] for _ in range(m)]


@st.composite
def square_matrices(draw, max_n=4, lo=-9, hi=9):
    n = draw(st.integers(1, max_n))
    return [[draw(st.integers(lo, hi)) for _ in range(n)] for _ in range(n)]


# ----------------------------------------------------- constructors

def test_int_matrix_entries_become_python_ints():
    a = lp.int_matrix(np.array([[2**62, 1], [0, -5]], dtype=np.int64))
    assert all(type(x) is int for x in a.ravel())
    # arbitrary precision survives arithmetic that would wrap int64
    assert (a @ a)[0, 0] == 2**124


@pytest.mark.parametrize("bad", [
    [[1.0, 2.0]],
    [[True, False]],
    [1, 2, 3],
    [["1", "2"]],
    5,
])
def test_int_matrix_rejects_non_integer_input(bad):
    with pytest.raises(InputError):
        lp.int_matrix(bad)


def test_int_vector():
    v = lp.int_vector(np.array([3, -1], dtype=np.int8))
    assert v.tolist() == [3, -1]
    with pytest.raises(InputError):
        lp.int_vector([[1, 2]])
    with pytest.raises(InputError):
        lp.int_vector([1.5])


def test_int_identity():
    assert lp.int_identity(3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


# ------------------------------------------------------------- snf

def test_snf_known_2x3():
    dec = lp.snf(EXAMPLE1)
    assert dec.rank == 2
    assert dec.divisors == (1, 1)
    assert dec.d.tolist() == [[1, 0, 0], [0, 1, 0]]


def test_snf_known_3x4():
    dec = lp.snf(EXAMPLE2)
    assert dec.rank == 3
    assert dec.divisors == (1, 1, 1)
    assert dec.d.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]


def test_snf_identity_and_zero():
    assert lp.snf(lp.int_identity(3)).divisors == (1, 1, 1)
    zero = lp.snf([[0, 0], [0, 0]])
    assert zero.rank == 0
    assert zero.divisors == ()
    assert zero.d.tolist() == [[0, 0], [0, 0]]


def test_snf_deterministic():
    a = [[4, 6, 2], [6, 4, 8]]
    d1 = lp.snf(a)
    d2 = lp.snf(a)
    assert np.array_equal(d1.p, d2.p)
    assert np.array_equal(d1.q, d2.q)
    assert np.array_equal(d1.d, d2.d)


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_snf_invariants(rows):
    a = lp.int_matrix(rows)
    dec = lp.snf(a)
    # reconstruction is checked inside snf; repeat here explicitly
    assert np.array_equal(dec.p @ a @ dec.q, dec.d)
    assert abs(det_exact(dec.p)) == 1
    assert abs(det_exact(dec.q)) == 1
    # diagonal, nonnegative, divisibility chain
    m, n = a.shape
    for i in range(m):
        for j in range(n):
            if i != j:
                assert dec.d[i, j] == 0
    divs = dec.divisors
    assert all(d > 0 for d in divs)
    for x, y in zip(divs, divs[1:]):
        assert y % x == 0
    assert dec.rank == frac_rank(rows) == len(divs)
    # minor-gcd quotient oracle: d_i = gcd(i-minors) / gcd((i-1)-minors)
    prev = 1
    for i, d in enumerate(divs, start=1):
        delta = minor_gcd(a, i)
        assert d == delta // prev
        prev = delta


# ------------------------------------------------------ determinant

def test_det_known_values():
    assert det_exact(EXAMPLE3) == 1
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact(lp.int_identity(4)) == 1
    with pytest.raises(InputError):
        det_exact(EXAMPLE1)


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_matches_fraction_elimination(rows):
    assert det_exact(rows) == frac_det(rows)


@given(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9))
def test_det_2x2_formula(a, b, c, d):
    assert det_exact([[a, b], [c, d]]) == a * d - b * c


# ---------------------------------------------------------- inverse

def test_inverse_known_integer_inverse():
    # E3 is unimodular, so d = I and p A q = I gives A^-1 = q p
    dec = lp.snf(EXAMPLE3)
    assert dec.divisors == (1, 1, 1)
    assert (dec.q @ dec.p).tolist() == EXAMPLE3_INVERSE


# -------------------------------------------------------- minor gcd

def test_minor_gcd_by_hand():
    a = [[2, 4], [6, 8]]
    assert minor_gcd(a, 1) == 2
    assert minor_gcd(a, 2) == 8  # |2*8 - 4*6| = 8
    assert lp.snf(a).divisors == (2, 4)  # 2, 8/2


def test_minor_gcd_guards():
    with pytest.raises(InputError):
        minor_gcd(lp.int_identity(7), 2)
    with pytest.raises(InputError):
        minor_gcd([[1, 2], [3, 4]], 3)
    with pytest.raises(InputError):
        minor_gcd([[1, 2], [3, 4]], 0)


# ------------------------------------------------------ text format

def test_matrix_text_roundtrip():
    a = lp.int_matrix([[1, -2, 3], [0, 5, -6]])
    assert np.array_equal(lp.parse_matrix_text(lp.format_matrix_text(a)), a)


def test_matrix_text_accepts_blank_lines():
    assert lp.parse_matrix_text("1 2\n\n3 4\n").tolist() == [[1, 2], [3, 4]]


@pytest.mark.parametrize("bad", ["", "1 2\n3", "1 x\n2 3"])
def test_matrix_text_rejects_malformed(bad):
    with pytest.raises(InputError):
        lp.parse_matrix_text(bad)
