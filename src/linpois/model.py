"""Model container: Y = A X with independent X_i ~ Poisson(lambda_i).

Also the one routine that forms the Poisson log term (_log_poisson) and
each model's table of those terms (PoissonModel._term_table), the one
cache of them, which pmf's lines and walks and the PTRS sampler read.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from .errors import InputError
from .intlinalg import SnfDecomposition, _is_int, int_matrix, int_vector, snf
from .solutions import _QueryPlan, _real_vector

__all__ = ["PoissonModel", "model_from_dict", "load_model_file"]


def preprocess(a, rates) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The one check of a model's input, and the columns that can move Y.

    A must be a matrix of natural numbers (int_matrix, then >= 0) with
    at least one row and one column, and rates one real >= 0 per column
    (solutions._real_vector) with a total inside the float64 range.
    Returns (A as an object array of Python ints, the rates as float64,
    kept), kept the indices of the columns with a nonzero entry and a
    positive rate.  A zero column's Poisson variable is unconstrained
    and marginalizes out with total probability 1; a zero-rate variable
    is 0 almost surely.  Either way the column's factor of the
    generating function is 1, so leaving it out preserves every
    probability.  Every row is kept: _snf_solutions checks dependent rows.
    """
    a = int_matrix(a)
    m, n = a.shape
    if m == 0 or n == 0:
        raise InputError("matrix needs at least one row and one column")
    rates = _real_vector(rates, "rate", size=n)
    # -sum(rates) enters every log term and the generating function
    if math.isinf(sum(rates.tolist())):
        raise InputError("the rate total exceeds the float64 range (about 1.8e308)")
    for i in range(m):
        for j in range(n):
            if a[i, j] < 0:
                raise InputError(f"matrix entry ({i},{j}) is negative")
    kept = [j for j in range(n) if rates[j] > 0.0 and any(a[i, j] != 0 for i in range(m))]
    return a, rates, kept


# Below this count, k ln lambda and ln k! are at most 6.6e307 for every
# float lambda
_MAX_COUNT = 2.0**1013
# A model's table of Poisson log terms (PoissonModel._term_table) holds
# at most _TABLE_CAP entries per column (8 MiB) and grows by at most
# max(its length, _TABLE_STEP, the counts of the call) entries per
# column at once
_TABLE_CAP = 1 << 20
_TABLE_STEP = 4096


def _log_factorials(k: np.ndarray) -> np.ndarray:
    """ln k! = math.lgamma(k + 1.0) for every entry of an array of counts
    >= 0 (int or float), one lgamma call each, past 2**53 too.  Counts
    of 2**1013 or more, whose ln k! or k ln lambda would pass the
    float64 range, are an InputError."""
    if k.size and float(k.max()) >= _MAX_COUNT:
        raise InputError("solution counts exceed the float64 range")
    return np.fromiter(map(math.lgamma, memoryview((k + 1.0).ravel())),
                       dtype=np.float64, count=k.size).reshape(k.shape)


def _log_poisson(k, lam, log_lam):
    """ln P(X = k) = k ln lam - lam - ln k!, X ~ Poisson(lam), for counts
    k >= 0 with lam > 0 and log_lam = ln lam.  k is an array (int or
    float), against which lam and log_lam broadcast, or one count, a
    Python int or float, with float lam and log_lam, which gives a
    Python float.  One count is taken as float(k), which rounds as an
    int64 or object array's conversion to float64 does, and its ln k!
    is math.lgamma(k + 1.0), as _log_factorials gives it, so both give
    the same bits.  The one place this term is formed: pmf's one-point
    term and table weights, each model's table of log terms
    (PoissonModel._term_table, which lines, walks and the PTRS accept
    test read) and the counts past that table all call it.  ln k! comes
    first, so a count past its range (2**1013 or more) is refused before
    k ln lam can overflow."""
    if isinstance(k, np.ndarray):
        log_fact = _log_factorials(k)
    else:
        if k >= _MAX_COUNT:
            raise InputError("solution counts exceed the float64 range")
        k = float(k)
        log_fact = math.lgamma(k + 1.0)
    return k * log_lam - lam - log_fact


class PoissonModel:
    """Immutable model of Y = A X, X_i independent Poisson(lambda_i).

    The input is checked once on construction, by preprocess.  Zero
    columns and zero-rate columns, whose variables cannot move Y, are
    left out of the reduced system ``a``/``rates`` that every route
    reads, and listed in ``removed_columns``; every row is kept, since
    the SNF checks dependent rows.  ``a_full``/``rates_full`` keep the
    checked input in its original shape.  Derived objects (SNF, the log
    rates of the terms, pmf's query plan and the sampler's draw plan)
    are cached on first use, and the table of Poisson log terms that
    lines, walks and the PTRS sampler read grows on use (_term_table).
    """

    # (n, length) table of _term_table, empty until a line, a walk or a
    # PTRS draw grows it
    _terms = np.empty((0, 0))

    def __init__(self, a, rates, name: str | None = None, description: str | None = None):
        # preprocess is read from the module globals, where a traced
        # benchmark run replaces it
        self._a_full, self._rates_full, self._kept = preprocess(a, rates)
        self._a = self._a_full[:, self._kept]
        self._rates = self._rates_full[self._kept]
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
    def a_full(self) -> np.ndarray:
        return self._a_full

    @property
    def rates_full(self) -> np.ndarray:
        return self._rates_full

    @property
    def removed_columns(self) -> tuple[int, ...]:
        """The columns of a_full left out of a, in increasing order: the
        zero columns and the columns of rate 0."""
        kept = set(self._kept)
        return tuple(j for j in range(self.n_full) if j not in kept)

    @property
    def n(self) -> int:
        return self._a.shape[1]

    @property
    def m_full(self) -> int:
        return self._a_full.shape[0]

    @property
    def n_full(self) -> int:
        return self._a_full.shape[1]

    def _observation(self, b) -> list:
        """b as a list of m_full ints by int_vector's rule: the one check
        of an observation, for pmf's query step and the sampler.  A list
        or tuple whose entries pass the integer rule is converted
        directly; anything else goes through int_vector, which names
        what is wrong."""
        if isinstance(b, (list, tuple)) and all(map(_is_int, b)):
            b = list(map(int, b))
        else:
            b = int_vector(b).tolist()
        if len(b) != self.m_full:
            raise InputError(f"observation length {len(b)} != row count {self.m_full}")
        return b

    @staticmethod
    def _check(model) -> None:
        # the one check that an argument is a model, for every entry point
        if not isinstance(model, PoissonModel):
            raise InputError(f"expected a PoissonModel, got {type(model).__name__}")

    @cached_property
    def snf(self) -> SnfDecomposition:
        return snf(self._a)

    @cached_property
    def method(self) -> str:
        # the old kernel class by n - rank; nothing in src/ reads it, only
        # perfbench's model builds, and it goes with ROADMAP items 3 and 9
        return ("invertible", "single-index", "enumerate")[min(self.n - self.snf.rank, 2)]

    @cached_property
    def term_constants(self) -> np.ndarray:
        """ln(rate) per column of the reduced system, the rate-only part
        of every log term; one math.log call per rate, so they match a
        scalar evaluation bit for bit.  Built on the first pmf call, not
        at build.  With the rates, they are the columns' constants of
        the table of log terms (_term_table)."""
        return np.array([math.log(x) for x in self._rates.tolist()], dtype=np.float64)

    @cached_property
    def _rate_lists(self) -> tuple[list[float], list[float]]:
        # the rates and term_constants as Python floats, for the routes
        # that read them one column at a time (pmf's one-point term and
        # line mode search)
        return self._rates.tolist(), self.term_constants.tolist()

    def _term_table(self, top: int, size: int) -> np.ndarray:
        """The model's table of Poisson log terms, T[i, k] = ln P(X_i = k)
        for each column i of the reduced system and k below its length,
        each entry formed by the array case of _log_poisson over
        np.arange, so it has the bits of every other route's term: the
        one cache of log terms, which lines, walks and the PTRS accept
        test read.

        top is the largest count a call needs and size the number of
        counts it would otherwise form directly.  Past the length, the
        table grows to max(top + 1, twice the length) entries per
        column, at most _TABLE_CAP, when that adds at most
        max(length, _TABLE_STEP, size) entries per column and holds top;
        otherwise it is returned as it is, and the caller forms the
        counts it does not hold by _log_poisson.  A growth makes one
        lgamma call per new count, so no call makes more than the most
        of _TABLE_STEP, its own counts and the table so far, and no
        query builds a large table for a few counts.  Nothing builds it
        at model build; a growth builds a new array and rebinds it, so a
        reader keeps a consistent snapshot.
        """
        table = self._terms
        have = table.shape[1]
        if top < have:
            return table
        grown = min(max(top + 1, 2 * have), _TABLE_CAP)
        if top >= grown or grown - have > max(have, _TABLE_STEP, size):
            return table
        more = _log_poisson(np.arange(float(have), float(grown)), self._rates[:, None],
                            self.term_constants[:, None])
        table = np.concatenate((table, more), axis=1) if have else more
        # unless another thread has bound a longer table meanwhile
        if self._terms.shape[1] < grown:
            self._terms = table
        return table

    def _column_terms(self, i: int, k: np.ndarray, top: int, size: int,
                      out: np.ndarray | None = None) -> np.ndarray:
        """ln P(X_i = k) for column i and an int64 or object array k of
        counts, each in [0, top]: read from the table of log terms when
        it holds top (_term_table, asked for top and size), into out when
        given, else formed by _log_poisson over k as float64, with the
        same bits.  InputError for a count past the float64 range."""
        table = self._term_table(top, size)
        if top < table.shape[1]:
            return np.take(table[i], k.astype(np.intp, copy=False), out=out, mode="clip")
        try:
            k = k.astype(np.float64)
        except OverflowError:
            raise InputError("solution counts exceed the float64 range") from None
        return _log_poisson(k, self._rates[i], self.term_constants[i])

    @cached_property
    def _query_plan(self) -> _QueryPlan:
        # pmf's one plan, read off the SNF on the first query, not at build
        return _QueryPlan(self.snf, self._a, self._rates)

    @cached_property
    def _draw_plan(self) -> tuple:
        # kernels.hits_block's plan, built on the first sample, not at
        # build; imported here, as kernels imports this module
        from .kernels import _draw_plan
        return _draw_plan(self)

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


def _read_file(path, as_json: bool = False):
    """The text of a file, or its parsed JSON content; InputError when it
    cannot be read, is not UTF-8 or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh) if as_json else fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def load_model_file(path) -> PoissonModel:
    return model_from_dict(_read_file(path, as_json=True))
