"""Independent reference implementations the tests compare against.

None of these is used by the package: brute-force enumeration of the
solution set, a family built from a list of points, the points of a
solution family as a set, an exact determinant by fraction-free
elimination, the gcd of all minors (which fixes the elementary
divisors), one product term and a log-sum formed with math.fsum, the
array route's log terms over float64 points (the bits every route of
pmf keeps) and the float64 points of a block of a line, a model reduced
by hand, the Poisson log probability to 40 digits in
decimal arithmetic, the truncated generating-function series, and the
scalar reference of the sampling kernels' RNG contract (mix64,
uniform53).
"""

import math
import operator
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from linpois import PoissonModel, pmf_table, solutions
from linpois.errors import InputError
from linpois.intlinalg import int_matrix, int_vector
from linpois.model import _log_poisson
from linpois.pmf import _PAIRWISE
from linpois.solutions import SolutionFamily

_MASK64 = (1 << 64) - 1
_GOLDEN_I = 0x9E3779B97F4A7C15
_INV53 = 2.0 ** -53

# minor_gcd enumerates all i-by-i minors, which is exponential in the
# matrix size; refuse anything past this bound.
MINOR_GCD_MAX_DIM = 6


def enumerate_solutions(a, b) -> SolutionFamily:
    """All k in N^n with A k = b, by depth-first search column by column.

    Each column must contain a positive entry (preprocess removes zero
    columns), which bounds k_j by min_i floor(b_i / a_ij) and keeps the
    search finite.  Solutions come out in lexicographic order.
    InputError once more than MAX_POINTS solutions are found, or before
    the search would visit more than n * MAX_POINTS nodes in all (the
    budget a walk over n levels of at most MAX_POINTS points each has).
    MAX_POINTS is read from linpois.solutions at each call.
    """
    a = int_matrix(a)
    b = int_vector(b)
    m, n = a.shape
    if b.shape[0] != m:
        raise InputError(f"observation length {b.shape[0]} != row count {m}")
    cols = [[int(a[i, j]) for i in range(m)] for j in range(n)]
    for j, col in enumerate(cols):
        if all(x == 0 for x in col):
            raise InputError(f"column {j} is all zero; preprocess the matrix first")
    if any(int(x) < 0 for x in b):
        return SolutionFamily.empty()

    cap = solutions.MAX_POINTS
    residual = [int(x) for x in b]
    current = [0] * n
    out = []
    # nodes the search has committed to visit, checked before each loop
    budget = n * cap
    visited = [0]

    def rec(j: int) -> None:
        if j == n:
            if all(r == 0 for r in residual):
                if len(out) == cap:
                    raise InputError(f"the enumerated solution set exceeds the cap of "
                                     f"MAX_POINTS = {cap} lattice points")
                out.append(tuple(current))
            return
        col = cols[j]
        ub = min(residual[i] // col[i] for i in range(m) if col[i] > 0)
        if ub < 0:
            return
        visited[0] += ub + 1
        if visited[0] > budget:
            raise InputError(
                f"the enumerated search tree of more than {budget} nodes exceeds the cap "
                f"of n * MAX_POINTS = {n} * {cap}")
        for k in range(ub + 1):
            current[j] = k
            rec(j + 1)
            for i in range(m):
                residual[i] -= col[i]
        for i in range(m):
            residual[i] += (ub + 1) * col[i]
        current[j] = 0

    if n == 0:
        return finite_family([()] if all(r == 0 for r in residual) else [])
    rec(0)
    return finite_family(out)


def finite_family(sols) -> SolutionFamily:
    """The family of the given points (sequences of ints), held as the
    package holds a set of points: the rows of one int64 array, or
    object when an entry does not fit."""
    return SolutionFamily(array=solutions._int_rows([int(x) for x in k] for k in sols))


def line_points(fam) -> list:
    """The points base + j * direction of a line family as tuples of
    Python ints, in the order j = jmin..jmax."""
    return [tuple(u + j * v for u, v in zip(fam.base, fam.direction))
            for j in range(fam.jmin, fam.jmax + 1)]


def family_set(fam) -> set:
    """The points of a SolutionFamily as a set of tuples of Python ints:
    line_points on a line, the rows of its array otherwise."""
    if fam.base is not None:
        return set(line_points(fam))
    return set() if fam.array is None else set(map(tuple, fam.array.tolist()))


def det_exact(a) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    a = int_matrix(a)
    m, n = a.shape
    if m != n:
        raise InputError(f"determinant requires a square matrix, got {m}x{n}")
    if n == 0:
        return 1
    w = [[a[i, j] for j in range(n)] for i in range(m)]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if w[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if w[i][k] != 0), None)
            if swap is None:
                return 0
            w[k], w[swap] = w[swap], w[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                w[i][j] = (w[i][j] * w[k][k] - w[i][k] * w[k][j]) // prev
            w[i][k] = 0
        prev = w[k][k]
    return sign * w[n - 1][n - 1]


def minor_gcd(a, i: int) -> int:
    """gcd of the absolute values of all i-by-i minors.

    Combinatorial-cost verification oracle for the elementary divisors:
    refuses matrices with min(rows, cols) > MINOR_GCD_MAX_DIM.
    """
    a = int_matrix(a)
    m, n = a.shape
    if min(m, n) > MINOR_GCD_MAX_DIM:
        raise InputError(
            f"minor_gcd is an enumeration oracle, limited to min dim <= {MINOR_GCD_MAX_DIM}"
        )
    if not 1 <= i <= min(m, n):
        raise InputError(f"minor order {i} out of range 1..{min(m, n)}")
    g = 0
    for rows in combinations(range(m), i):
        for cols in combinations(range(n), i):
            sub = a[np.ix_(rows, cols)]
            g = math.gcd(g, abs(det_exact(sub)))
            if g == 1:
                return 1
    return g


def reference_term(k, rates):
    """ln of one product term as the math.fsum of its math.log and
    math.lgamma parts; -inf where a zero rate meets a positive count."""
    if any(ki > 0 and lam == 0.0 for ki, lam in zip(k, rates)):
        return float("-inf")
    parts = [ki * math.log(lam) for ki, lam in zip(k, rates) if lam > 0.0]
    return math.fsum(parts + [-lam for lam in rates] + [-math.lgamma(ki + 1) for ki in k])


def log_terms(points, rates, log_rates):
    """ln of every product term, one per row of float64 points, formed
    as pmf formed a walk's terms before its table of log terms: each
    column's part by model._log_poisson over the array, then the parts
    summed per row, column-major left to right below _PAIRWISE parts
    and row-major, in numpy's pairwise order, from there on.  Lines,
    walks and single points must give every term these bits."""
    if points.shape[0] == 0:
        return np.empty(0)
    parts = _log_poisson(points, rates, log_rates)
    if parts.shape[1] >= _PAIRWISE:
        parts = np.ascontiguousarray(parts)
    return parts.sum(axis=1)


def block_points(fam, lo, hi):
    """The points j = lo..hi of a line family as float64 rows, anchored
    at the exact point at lo, as SolutionFamily.points forms a line's."""
    return SolutionFamily.line(fam.base, fam.direction, lo, hi).points()


def reference_log_sum(terms):
    """ln of the sum of exp(t) over the finite terms, by a max-shifted
    math.fsum."""
    live = [t for t in terms if t > float("-inf")]
    if not live:
        return float("-inf")
    hi = max(live)
    return hi + math.log(math.fsum(math.exp(t - hi) for t in live))


def reference_log_prob(rates, points):
    """ln P(Y = b) from the points of the solution set: reference_term
    for every point, combined by reference_log_sum."""
    return reference_log_sum([reference_term(k, rates) for k in points])


def hand_reduced(a, rates):
    """The model of only the columns of a with a positive rate, built by
    hand; None when no such column is left."""
    live = [j for j, lam in enumerate(rates) if lam > 0.0]
    if not live:
        return None
    return PoissonModel([[row[j] for j in live] for row in a], [rates[j] for j in live])


# log_poisson's significant digits, and the count from which ln k! is
# the Stirling series: at k >= 40 its first omitted term,
# |B_40| / (40 * 39 * k**39), is below 1e-49
DIGITS = 40
STIRLING_FROM = 40


def _bernoulli(top: int) -> list:
    """B_0..B_top as Fractions, from sum_{j=0}^{m} C(m+1, j) B_j = 0."""
    b = [Fraction(1)]
    for m in range(1, top + 1):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


# B_2n / (2n (2n - 1)) for n = 1..19, the coefficient of k**-(2n - 1)
# in ln k! - (k + 1/2) ln k + k - ln(2 pi) / 2
_STIRLING = [bn / (i * (i - 1)) for i, bn in enumerate(_bernoulli(38)) if i >= 2 and i % 2 == 0]


@lru_cache(maxsize=None)
def _half_ln_2pi(digits: int) -> Decimal:
    """ln(2 pi) / 2 to digits significant digits; pi by Machin's formula
    16 acot 5 - 4 acot 239 in integer fixed point with 10 guard digits."""
    one = 10 ** (digits + 10)

    def acot(x):
        total = term = one // x
        n, sign = 3, -1
        while term:
            term //= x * x
            total += sign * (term // n)
            n, sign = n + 2, -sign
        return total

    with localcontext() as ctx:
        ctx.prec = digits
        pi = Decimal(16 * acot(5) - 4 * acot(239)).scaleb(-(digits + 10))
        return (2 * pi).ln() / 2


def ln_factorial(k: int) -> Decimal:
    """ln k! at the precision of the current decimal context: the ln of
    the exact k! below STIRLING_FROM, the Stirling series with the exact
    Bernoulli numbers up to B_38 from there on."""
    if k < STIRLING_FROM:
        return Decimal(math.factorial(k)).ln()
    x = Decimal(k)
    s = (x + Decimal("0.5")) * x.ln() - x + _half_ln_2pi(getcontext().prec)
    for n, c in enumerate(_STIRLING):
        s += Decimal(c.numerator) / (c.denominator * x ** (2 * n + 1))
    return s


def log_poisson(k, lam) -> Decimal:
    """ln(lam**k e**-lam / k!), the log probability of count k under
    Poisson(lam), to about DIGITS significant digits.

    lam is taken as the exact value of its float.  The work runs at
    DIGITS plus the digits of k: the parts of k ln lam - lam - ln k!
    grow like k and cancel down to about ln k, and the extra digits
    cover what the cancellation loses.  At lam = 0 it is 0 for k = 0
    and -Infinity above.  The result keeps every digit of that
    precision; arithmetic on it rounds to the current context.
    """
    k = operator.index(k)
    with localcontext() as ctx:
        ctx.prec = DIGITS + len(str(k))
        x = Decimal(float(lam))
        if x == 0:
            return Decimal(0) if k == 0 else Decimal("-Infinity")
        return k * x.ln() - x - ln_factorial(k)


def gf_eval_series(model: PoissonModel, z, degree_bound: int = 40) -> float:
    """Truncated series sum_{b in [0,B]^m} P(Y=b) z^b, for cross-checks
    against gf_eval; the omitted tail is nonnegative.  InputError, as in
    pmf_table, for a degree_bound that is not an int >= 0."""
    z = solutions._real_vector(z, "z", 1.0, model.m_full)
    out = pmf_table(model, degree_bound)
    # B + 1 powers per axis, B the bound pmf_table validated
    powers = np.arange(out.shape[0])
    for zi in z:
        out = np.tensordot(zi ** powers, out, axes=(0, 0))
    return float(out)


def mix64(x: int) -> int:
    """SplitMix64 finalizer on a 64-bit word (reference implementation)."""
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _unxorshift(y: int, s: int) -> int:
    # x ^ (x >> s) = y: x = y ^ (y >> s) ^ (y >> 2s) ^ ...
    x = y
    for _ in range(64 // s):
        x = y ^ (x >> s)
    return x


# inverses mod 2^64 of mix64's odd multipliers
_M1_INV = pow(0xBF58476D1CE4E5B9, -1, 1 << 64)
_M2_INV = pow(0x94D049BB133111EB, -1, 1 << 64)


def unmix64(x: int) -> int:
    """The word whose mix64 is x: each xor-shift and each odd multiply
    of mix64 is a bijection of 64-bit words."""
    x = _unxorshift(x & _MASK64, 31)
    x = (x * _M2_INV) & _MASK64
    x = _unxorshift(x, 27)
    x = (x * _M1_INV) & _MASK64
    return _unxorshift(x, 30)


def uniform53(seed: int, key: int, t: int) -> float:
    """The t-th uniform of stream (seed, key), in [0, 1).

    Reference implementation of the documented contract; the array
    generator must reproduce it bit for bit.
    """
    base = mix64((seed + _GOLDEN_I * (key + 1)) & _MASK64)
    x = mix64((base + _GOLDEN_I * (t + 1)) & _MASK64)
    return (x >> 11) * _INV53
