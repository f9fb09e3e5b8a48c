"""Exact linear algebra over arbitrary-precision integers.

Matrices are numpy arrays with ``dtype=object`` holding Python ints.
Object arrays keep numpy's indexing and ``dot`` while every entry stays
exact; fixed-width dtypes are never used here because entries can grow
far beyond 64 bits during elimination.  The Smith normal form is the
one lattice representation and the one elimination routine the solvers
use; the determinant and minor-gcd oracles that check it live with the
tests.

The package's one integer rule lives here (_is_int): an int or a numpy
integer, never a bool.  int_matrix and int_vector apply it to every
entry, _int_arg to every scalar count, index, seed and degree bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, InternalInvariantError

__all__ = [
    "int_matrix",
    "int_identity",
    "int_vector",
    "SnfDecomposition",
    "snf",
    "parse_matrix_text",
    "format_matrix_text",
]


_UINT64_MAX = (1 << 64) - 1


def _is_int(v) -> bool:
    # the one integer rule; np.bool_ is not a numpy integer
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _int_arg(value, what: str, lo: int = 0, u64: bool = True) -> int:
    """value as an int by the integer rule, InputError unless value >= lo
    and, when u64, value < 2**64: seeds, sample indices and sample counts
    are unsigned 64-bit words in the kernels."""
    if not _is_int(value):
        raise InputError(f"{what} must be an integer")
    value = int(value)
    if value < lo:
        raise InputError(f"{what} must be >= {lo}")
    if u64 and value > _UINT64_MAX:
        raise InputError(f"{what} must fit in an unsigned 64-bit integer")
    return value


_to_int = np.frompyfunc(int, 1, 1)  # int() of each entry of an object array


def _int_array(data, ndim: int) -> np.ndarray:
    """*data* as an object array of Python ints with ndim dimensions,
    every entry checked by the integer rule."""
    arr = np.asarray(data, dtype=object)
    if arr.ndim != ndim:
        want = "a vector" if ndim == 1 else "a 2-D matrix, rows of equal length"
        raise InputError(f"expected {want}, got ndim={arr.ndim}")
    for k, v in enumerate(arr.flat):
        if not _is_int(v):
            at = k if ndim == 1 else divmod(k, arr.shape[1])
            raise InputError(f"entry {at} is not an integer: {v!r}")
    return _to_int(arr)


def int_matrix(data) -> np.ndarray:
    """Validate *data* as a 2-D integer matrix and return an object array.

    Every entry is converted to a Python int, so later arithmetic is
    arbitrary precision even when the input came in as numpy int64.
    """
    return _int_array(data, 2)


def int_identity(n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=object)
    for i in range(n):
        out[i, i] = 1
    return out


def int_vector(data) -> np.ndarray:
    """1-D counterpart of :func:`int_matrix`."""
    return _int_array(data, 1)


@dataclass(frozen=True, eq=False)
class SnfDecomposition:
    """Smith normal form ``p @ a @ q == d`` with unimodular ``p``, ``q``.

    ``d`` is diagonal, ``divisors`` are its positive nonzero diagonal
    entries and satisfy ``divisors[i] | divisors[i+1]``.  Equality and
    hashing are by identity: those generated over the array fields would
    raise.
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
    # int_matrix refuses rows of unequal length
    return int_matrix(rows)


def format_matrix_text(a) -> str:
    a = np.asarray(a, dtype=object)
    return "\n".join(" ".join(str(int(x)) for x in row) for row in a)
