"""Exact linear algebra over arbitrary-precision integers.

Matrices are numpy arrays with ``dtype=object`` holding Python ints.
Object arrays keep numpy's indexing and ``dot`` while every entry stays
exact; fixed-width dtypes are never used here because entries can grow
far beyond 64 bits during elimination.  The Smith normal form is the
one lattice representation the solvers use; ``det_exact`` and
``minor_gcd`` are kept as independent oracles for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import InputError, InternalInvariantError

__all__ = [
    "int_matrix",
    "int_identity",
    "int_vector",
    "SnfDecomposition",
    "snf",
    "det_exact",
    "minor_gcd",
    "parse_matrix_text",
    "format_matrix_text",
]

# minor_gcd enumerates all i-by-i minors, which is exponential in the
# matrix size; refuse anything past this bound.
MINOR_GCD_MAX_DIM = 6


def int_matrix(data) -> np.ndarray:
    """Validate *data* as a 2-D integer matrix and return an object array.

    Every entry is converted to a Python int, so later arithmetic is
    arbitrary precision even when the input came in as numpy int64.
    """
    arr = np.asarray(data, dtype=object)
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D matrix, got ndim={arr.ndim}")
    rows, cols = arr.shape
    out = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            v = arr[i, j]
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise InputError(f"entry ({i},{j}) is not an integer: {v!r}")
            out[i, j] = int(v)
    return out


def int_identity(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def int_vector(data) -> np.ndarray:
    """1-D counterpart of :func:`int_matrix`."""
    arr = np.asarray(data, dtype=object)
    if arr.ndim != 1:
        raise InputError(f"expected a vector, got ndim={arr.ndim}")
    out = np.empty(arr.shape[0], dtype=object)
    for i, v in enumerate(arr):
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
            raise InputError(f"entry {i} is not an integer: {v!r}")
        out[i] = int(v)
    return out


@dataclass(frozen=True)
class SnfDecomposition:
    """Smith normal form ``p @ a @ q == d`` with unimodular ``p``, ``q``.

    ``d`` is diagonal, ``divisors`` are its positive nonzero diagonal
    entries and satisfy ``divisors[i] | divisors[i+1]``.
    """

    p: np.ndarray
    d: np.ndarray
    q: np.ndarray
    rank: int
    divisors: tuple[int, ...]


def _min_abs_pivot(d: np.ndarray, t: int):
    """Position of the minimal-|entry| nonzero in ``d[t:, t:]``.

    Ties break at the lowest (row, col); returns None if the block is zero.
    """
    rows, cols = d.shape
    best = None
    best_abs = None
    for i in range(t, rows):
        for j in range(t, cols):
            v = d[i, j]
            if v == 0:
                continue
            a = -v if v < 0 else v
            if best_abs is None or a < best_abs:
                best, best_abs = (i, j), a
    return best


def snf(a) -> SnfDecomposition:
    """Smith normal form of an integer matrix.

    Classical gcd reduction: at each step the pivot is the minimal
    nonzero absolute value of the remaining block (ties by position),
    its row and column are cleared by exact division steps, and the
    divisibility chain is enforced by folding offending rows into the
    pivot row.  Fully deterministic: the same input always yields the
    same (p, d, q).
    """
    a = int_matrix(a)
    m, n = a.shape
    d = a.copy()
    p = int_identity(m)
    q = int_identity(n)

    t = 0
    while t < min(m, n):
        pos = _min_abs_pivot(d, t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            d[[t, i], :] = d[[i, t], :]
            p[[t, i], :] = p[[i, t], :]
        if j != t:
            d[:, [t, j]] = d[:, [j, t]]
            q[:, [t, j]] = q[:, [j, t]]

        piv = d[t, t]
        dirty = False
        for r in range(t + 1, m):
            if d[r, t] != 0:
                f = d[r, t] // piv
                if f:
                    d[r, :] -= f * d[t, :]
                    p[r, :] -= f * p[t, :]
                if d[r, t] != 0:
                    dirty = True
        for c in range(t + 1, n):
            if d[t, c] != 0:
                f = d[t, c] // piv
                if f:
                    d[:, c] -= f * d[:, t]
                    q[:, c] -= f * q[:, t]
                if d[t, c] != 0:
                    dirty = True
        if dirty:
            continue

        # Pivot row/col are clear; make the pivot divide the rest of the
        # block, otherwise the divisor chain would fail later.
        fixup = None
        for r in range(t + 1, m):
            for c in range(t + 1, n):
                if d[r, c] % piv != 0:
                    fixup = r
                    break
            if fixup is not None:
                break
        if fixup is not None:
            d[t, :] += d[fixup, :]
            p[t, :] += p[fixup, :]
            continue

        if d[t, t] < 0:
            d[t, :] = -d[t, :]
            p[t, :] = -p[t, :]
        t += 1

    divisors = []
    for i in range(min(m, n)):
        if d[i, i] != 0:
            divisors.append(int(d[i, i]))

    if not np.array_equal(p @ a @ q, d):
        raise InternalInvariantError("snf: p @ a @ q != d")
    return SnfDecomposition(p=p, d=d, q=q, rank=len(divisors), divisors=tuple(divisors))


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


def parse_matrix_text(text: str) -> np.ndarray:
    """Parse the shared matrix text format: one row per line, entries as
    decimal integers separated by whitespace."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError as exc:
            raise InputError(f"matrix line {lineno}: {exc}") from None
    if not rows:
        raise InputError("matrix text is empty")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise InputError("matrix rows have inconsistent lengths")
    return int_matrix(rows)


def format_matrix_text(a) -> str:
    a = np.asarray(a, dtype=object)
    return "\n".join(" ".join(str(int(x)) for x in row) for row in a)
