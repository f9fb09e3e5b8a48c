"""Reference answers for P(Y = b), computed without linpois.

Two oracles, neither of which shares code or method with the package's
evaluation routes:

* a single all-ones row: Y is Poisson(sum of rates), and the number of
  lattice points is the stars-and-bars count C(b + n - 1, n - 1);
* anything else: brute force over a box.  A column basis of the
  matrix is picked by Fraction elimination; every assignment of the
  free coordinates within their box bounds is tried, the basis
  coordinates are solved with the integer adjugate, and the candidates
  that are nonnegative, integral and satisfy every row (dependent rows
  included) are kept.  Terms are summed with ``math.fsum``.

Both return (log_prob, point_count).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

NEG_INF = float("-inf")

# candidates tried per call; the workloads stay far below this
MAX_GRID = 4_000_000

_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _echelon(a, cols):
    """Independent rows of ``a`` (restricted to ``cols``) and the pivot
    columns of their echelon form, both as lists of original indices."""
    reduced = []  # (pivot column, row as Fractions)
    rows = []
    for r, row in enumerate(a):
        vec = [Fraction(row[j]) for j in cols]
        for pc, prow in reduced:
            if vec[pc]:
                f = vec[pc] / prow[pc]
                vec = [x - f * y for x, y in zip(vec, prow)]
        pivot = next((j for j, x in enumerate(vec) if x), None)
        if pivot is not None:
            reduced.append((pivot, vec))
            rows.append(r)
    return rows, sorted(cols[pc] for pc, _ in reduced)


def adjugate(m):
    """(integer adjugate, determinant) of a square integer matrix, by
    Gauss-Jordan over the rationals; (None, 0) when it is singular."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    det = Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if aug[r][c]), None)
        if p is None:
            return None, 0
        if p != c:
            aug[c], aug[p] = aug[p], aug[c]
            det = -det
        piv = aug[c][c]
        det *= piv
        aug[c] = [x / piv for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    d = int(det)
    adj = [[int(x * d) for x in row[n:]] for row in aug]
    return adj, d


class Oracle:
    """Reference evaluator for one matrix; rates are given per query."""

    def __init__(self, a):
        self.a = [[int(x) for x in row] for row in a]
        m, n = len(self.a), len(self.a[0])
        self.n = n
        self.all_ones = m == 1 and all(x == 1 for x in self.a[0])
        self.cols = [j for j in range(n) if any(self.a[i][j] for i in range(m))]
        self.rows, self.pivots = _echelon(self.a, self.cols)
        self.free = [j for j in self.cols if j not in self.pivots]
        adj, self.det = adjugate([[self.a[i][j] for j in self.pivots] for i in self.rows])
        self.adj = np.asarray(adj, dtype=np.int64)
        self.full = np.asarray(self.a, dtype=np.int64)
        self.a_free = np.asarray([[self.a[i][j] for j in self.free] for i in self.rows],
                                 dtype=np.int64).reshape(len(self.rows), len(self.free))

    def points(self, b) -> np.ndarray:
        """Every k >= 0 over the nonzero columns with A k = b, as rows
        indexed like ``self.cols``-filtered original columns (zero
        columns are left at 0)."""
        b = [int(x) for x in b]
        empty = np.zeros((0, self.n), dtype=np.int64)
        if any(x < 0 for x in b):
            return empty
        if max(b, default=0) * int(np.abs(self.adj).max(initial=1)) * len(b) > 2 ** 60:
            raise ValueError("reference would overflow int64; shrink the workload")
        bounds = [min(b[i] // self.a[i][j] for i in range(len(b)) if self.a[i][j] > 0)
                  for j in self.free]
        size = math.prod(u + 1 for u in bounds)
        if size > MAX_GRID:
            raise ValueError(f"reference box of {size} candidates is too large")
        if bounds and min(bounds) < 0:
            return empty
        axes = [np.arange(u + 1, dtype=np.int64) for u in bounds]
        if axes:
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(self.free))
        else:
            grid = np.zeros((1, 0), dtype=np.int64)
        b_rows = np.asarray([b[i] for i in self.rows], dtype=np.int64)
        num = (b_rows[None, :] - grid @ self.a_free.T) @ self.adj.T
        ok = np.all(num % self.det == 0, axis=1)
        basis = num // self.det
        ok &= np.all(basis >= 0, axis=1)
        k = np.zeros((grid.shape[0], self.n), dtype=np.int64)
        k[:, self.free] = grid
        k[:, self.pivots] = basis
        k = k[ok]
        return k[np.all(k @ self.full.T == np.asarray(b, dtype=np.int64), axis=1)]

    def evaluate(self, rates, b) -> tuple[float, int]:
        """(log P(Y = b), number of lattice points) for these rates."""
        rates = [float(x) for x in rates]
        if self.all_ones:
            y = int(b[0])
            if y < 0:
                return NEG_INF, 0
            lam = math.fsum(rates)
            count = math.comb(y + self.n - 1, self.n - 1)
            return y * math.log(lam) - lam - math.lgamma(y + 1), count
        k = self.points(b)
        if k.shape[0] == 0:
            return NEG_INF, 0
        cols = self.cols
        lam = np.asarray([rates[j] for j in cols])
        kc = k[:, cols]
        logs = (kc * np.log(lam)).sum(axis=1) - _lgamma(kc + 1).astype(np.float64).sum(axis=1)
        terms = logs - math.fsum(lam)
        hi = float(terms.max())
        return hi + math.log(math.fsum(np.exp(terms - hi).tolist())), int(k.shape[0])


def log_close(got: float, want: float, rel: float = 1e-9) -> bool:
    """Log-space agreement: both -inf, or within rel * max(1, |want|)."""
    if want == NEG_INF or got == NEG_INF:
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))
