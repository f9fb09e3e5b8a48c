"""Model container: Y = A X with independent X_i ~ Poisson(lambda_i)."""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from .errors import InputError
from .intlinalg import SnfDecomposition, int_matrix, snf
from .solutions import MethodTag, PreprocessReport, _WalkPlan, classify, preprocess

__all__ = ["PoissonModel", "model_from_dict", "load_model_file"]


def rate_constants(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The rate-only parts of every log term, for finite rates >= 0.

    Returns ln(rate) per column (0.0 on a zero-rate column) and the 0/1
    indicator of the zero-rate columns, None when every rate is
    positive.  Logs come from math.log, one call per rate, so they match
    a scalar evaluation bit for bit.
    """
    log_rates = np.array([math.log(x) if x > 0.0 else 0.0 for x in rates.tolist()],
                         dtype=np.float64)
    dead = (rates == 0.0).astype(np.float64)
    return log_rates, dead if dead.any() else None


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """ln k! for every entry of an array of counts >= 0 (int or float).

    Each entry equals math.lgamma(k + 1.0) bit for bit, past 2**53 too.
    When the counts are small next to the array (max + 1 <= size), a
    table with one lgamma call per value 0..max is indexed instead of
    calling lgamma once per entry.
    """
    top = float(k.max()) if k.size else 0.0
    if top + 1.0 <= k.size:
        table = np.fromiter(map(math.lgamma, memoryview(np.arange(1.0, top + 2.0))),
                            dtype=np.float64, count=int(top) + 1)
        return table[k.astype(np.intp)]
    return np.fromiter(map(math.lgamma, memoryview((k + 1.0).ravel())),
                       dtype=np.float64, count=k.size).reshape(k.shape)


class PoissonModel:
    """Immutable model of Y = A X, X_i independent Poisson(lambda_i).

    The matrix is preprocessed on construction: zero columns are
    removed and listed in ``report``; every row is kept, since the SNF
    checks dependent rows.  ``a``/``rates`` refer to the reduced system
    used for evaluation; ``a_full``/``rates_full`` keep the original
    shapes.  Derived objects (SNF, method tag, the rate constants of the
    log terms, the plan of the free-coordinate walk) are cached on first
    use.
    """

    def __init__(self, a, rates, name: str | None = None, description: str | None = None):
        a_full = int_matrix(a)
        if a_full.shape[0] == 0 or a_full.shape[1] == 0:
            raise InputError("matrix needs at least one row and one column")
        try:
            rates_full = np.asarray(rates, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise InputError(f"rates are not numeric: {exc}") from None
        a_red, rates_red, report = preprocess(a_full, rates_full)
        self._a_full = a_full
        self._rates_full = rates_full
        self._a = a_red
        self._rates = rates_red
        self._report = report
        self.name = name
        self.description = description

    @property
    def a(self) -> np.ndarray:
        """Matrix without its zero columns; every row is kept."""
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
        return self._rates_full

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
    def method(self) -> MethodTag:
        return classify(self.snf)

    @cached_property
    def term_constants(self) -> tuple[np.ndarray, np.ndarray | None]:
        # on first pmf call, not at build, so building a model costs only
        # preprocess and classify; preprocess already validated the rates
        return rate_constants(self._rates)

    @cached_property
    def _walk_plan(self) -> _WalkPlan:
        # built on the first query that walks a kernel of dimension >= 2
        return _WalkPlan(self._a)

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
