"""Model container: Y = A X with independent X_i ~ Poisson(lambda_i)."""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from .errors import InputError
from .intlinalg import SnfDecomposition, int_matrix, snf
from .solutions import PreprocessReport, _RowPlan, _WalkPlan, preprocess

__all__ = ["PoissonModel", "model_from_dict", "load_model_file"]


def rate_constants(rates: np.ndarray) -> np.ndarray:
    """ln(rate) per column, the rate-only part of every log term, for
    finite rates > 0.

    Logs come from math.log, one call per rate, so they match a scalar
    evaluation bit for bit.
    """
    return np.array([math.log(x) for x in rates.tolist()], dtype=np.float64)


# Entry j is ln j! = math.lgamma(j + 1.0), for j below the length.  One
# table serves the whole process; _log_factorials extends it on demand,
# never past _LN_FACT_CAP entries (8 MiB).  An extension builds a new
# array and rebinds the name, so a reader keeps a consistent snapshot.
_LN_FACT_CAP = 1 << 20
_ln_fact = np.empty(0)


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """ln k! for every entry of an array of counts >= 0 (int or float).

    Each entry equals math.lgamma(k + 1.0) bit for bit, past 2**53 too.
    Counts within the process-wide table _ln_fact are read from it.  A
    larger count extends the table to max(max + 1, twice its length)
    entries when that adds at most max(size, length) entries and stays
    within _LN_FACT_CAP, so no call makes more lgamma calls than the
    per-entry map or the table built so far would; otherwise lgamma is
    called once per entry.
    """
    global _ln_fact
    table = _ln_fact
    if not k.size:
        return np.empty(k.shape)
    top = float(k.max())
    n = len(table)
    if top >= n:
        grown = min(max(top + 1.0, 2.0 * n), _LN_FACT_CAP)
        if top >= grown or grown - n > max(k.size, n):
            return np.fromiter(map(math.lgamma, memoryview((k + 1.0).ravel())),
                               dtype=np.float64, count=k.size).reshape(k.shape)
        more = np.fromiter(map(math.lgamma, memoryview(np.arange(n + 1.0, grown + 1.0))),
                           dtype=np.float64, count=int(grown) - n)
        table = np.concatenate((table, more))
        # unless another thread has bound a longer table meanwhile
        if len(_ln_fact) < len(table):
            _ln_fact = table
    return table[k.astype(np.intp)]


class PoissonModel:
    """Immutable model of Y = A X, X_i independent Poisson(lambda_i).

    The input is validated and preprocessed on construction: zero
    columns and zero-rate columns, whose variables cannot move Y, are
    removed and listed in ``report``; every row is kept, since the SNF
    checks dependent rows.  ``a``/``rates`` refer to the reduced system
    used for evaluation; ``a_full``/``rates_full`` keep the original
    shapes.  Derived objects (SNF, the log rates of the terms, the plans
    of the free-coordinate walk and of the rank-1 recurrence) are cached
    on first use.
    """

    def __init__(self, a, rates, name: str | None = None, description: str | None = None):
        a_full = int_matrix(a)
        if a_full.shape[0] == 0 or a_full.shape[1] == 0:
            raise InputError("matrix needs at least one row and one column")
        self._a_full = a_full
        self._a, self._rates, self._report = preprocess(a_full, rates)
        self.name = name
        self.description = description

    @property
    def a(self) -> np.ndarray:
        """Matrix without its zero columns and zero-rate columns; every
        row is kept."""
        return self._a

    @property
    def rates(self) -> np.ndarray:
        return self._rates

    @property
    def report(self) -> PreprocessReport:
        return self._report

    @property
    def a_full(self) -> np.ndarray:
        return self._a_full

    @property
    def rates_full(self) -> np.ndarray:
        return self._report.rates

    @property
    def n(self) -> int:
        return self._a.shape[1]

    @property
    def m_full(self) -> int:
        return self._a_full.shape[0]

    @property
    def n_full(self) -> int:
        return self._a_full.shape[1]

    @cached_property
    def snf(self) -> SnfDecomposition:
        return snf(self._a)

    @cached_property
    def method(self) -> str:
        # the old kernel class by n - rank; nothing in src/ reads it, only
        # perfbench's model builds, and it goes with ROADMAP item 1
        return ("invertible", "single-index", "enumerate")[min(self.n - self.snf.rank, 2)]

    @cached_property
    def term_constants(self) -> np.ndarray:
        # on first pmf call, not at build, so building a model costs only
        # preprocess; preprocess already validated the rates
        return rate_constants(self._rates)

    @cached_property
    def _walk_plan(self) -> _WalkPlan:
        # built on the first query that walks a kernel of dimension >= 2
        return _WalkPlan(self._a)

    @cached_property
    def _row_plan(self) -> _RowPlan | None:
        # the recurrence's plan when the kernel has dimension >= 2, A has
        # rank 1 and the rates total at most 2**200, else None; built on
        # the first pmf query, not at build.  Past that total no sum of
        # rates may overflow, and pmf's error bound declines every b.
        if self.snf.rank != 1 or self.n < 3 or sum(self._rates.tolist()) > 2.0 ** 200:
            return None
        return _RowPlan(self._a, self._rates)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"PoissonModel({self.m_full}x{self.n_full}{tag})"


_MODEL_KEYS = {"a", "lambda", "name", "description"}


def model_from_dict(data) -> PoissonModel:
    """Build a model from the JSON schema {"a": [[...]], "lambda": [...]}.

    Optional keys: name, description.  Anything else is rejected so
    typos in fixtures fail loudly.
    """
    if not isinstance(data, dict):
        raise InputError("model must be a JSON object with keys 'a' and 'lambda'")
    unknown = sorted(set(data) - _MODEL_KEYS)
    if unknown:
        raise InputError(f"unknown model keys: {unknown}")
    for key in ("a", "lambda"):
        if key not in data:
            raise InputError(f"model is missing key '{key}'")
    for key in ("name", "description"):
        if key in data and not isinstance(data[key], str):
            raise InputError(f"model key '{key}' must be a string")
    return PoissonModel(
        data["a"],
        data["lambda"],
        name=data.get("name"),
        description=data.get("description"),
    )


def load_model_file(path) -> PoissonModel:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read model file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"model file {path} is not valid JSON: {exc}") from None
    return model_from_dict(data)
