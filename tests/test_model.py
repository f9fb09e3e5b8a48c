"""The model record: one check of its input per build, the reduced
system it keeps, and the module attributes perfbench reads and hooks."""

import enum
import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linpois as lp
from linpois import intlinalg, kernels
from linpois.errors import InputError

from conftest import EXAMPLE1, EXAMPLE2

M = importlib.import_module("linpois.model")


def _spy(monkeypatch, module, attr, calls):
    """Replace module.attr by a wrapper that counts its calls in
    calls[attr], the way perfbench/tracing.py wraps the same attributes."""
    orig = getattr(module, attr)

    def spy(*args, **kwargs):
        calls[attr] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)


def test_build_checks_a_once(monkeypatch):
    """Each build runs preprocess once, through linpois.model, and the
    integer rule once over A."""
    calls = Counter()
    _spy(monkeypatch, intlinalg, "_int_array", calls)
    _spy(monkeypatch, M, "preprocess", calls)
    inputs = [
        (EXAMPLE1, [1.0, 1.0, 1.0]),
        (EXAMPLE2, [0.5, 0.0, 2.0, 40.0]),
        (np.array([[1, 0, 3], [2, 0, 1]], dtype=np.int64), np.array([1.0, 2.0, 0.0])),
        ([[0, 0]], [1.0, 2.0]),
    ]
    for k, (a, rates) in enumerate(inputs, start=1):
        lp.PoissonModel(a, rates)
        assert (calls["_int_array"], calls["preprocess"]) == (k, k)
    lp.model_from_dict({"a": EXAMPLE1, "lambda": [1, 2, 3]})
    assert (calls["_int_array"], calls["preprocess"]) == (5, 5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_removed_columns_are_the_zero_and_zero_rate_columns(data):
    """removed_columns lists every column that is all zero or has rate 0,
    and a/rates are the other columns of a_full/rates_full, also when
    every column is removed."""
    m = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 5))
    rows = [[data.draw(st.integers(0, 2)) for _ in range(n)] for _ in range(m)]
    rates = [data.draw(st.sampled_from([0.0, 0.5, 3.0])) for _ in range(n)]
    model = lp.PoissonModel(rows, rates)
    removed = tuple(j for j in range(n) if rates[j] == 0.0 or not any(r[j] for r in rows))
    kept = [j for j in range(n) if j not in removed]
    assert model.removed_columns == removed
    assert (model.m_full, model.n_full, model.n) == (m, n, len(kept))
    assert model.a_full.tolist() == rows and model.rates_full.tolist() == rates
    assert model.a.tolist() == [[r[j] for j in kept] for r in rows]
    assert model.rates.tolist() == [rates[j] for j in kept]
    assert model.a.dtype == object and model.rates.dtype == np.float64


def test_benchmark_hooks_are_reached(monkeypatch):
    """A model build, a pmf query, a solution_family call and a verify
    call reach the module attributes perfbench/tracing.py replaces, and
    the names perfbench/harness.py and run.py read still work."""
    hooks = [(M, "preprocess"), (M, "snf"),
             ("linpois.pmf", "solution_family"), ("linpois.pmf", "logsumexp"),
             ("linpois.montecarlo", "pmf"), ("linpois.montecarlo", "hits_block"),
             (kernels, "_draw_table_np"), (kernels, "_draw_ptrs_np")]
    calls = Counter()
    for module, attr in hooks:
        if isinstance(module, str):
            module = importlib.import_module(module)
        _spy(monkeypatch, module, attr, calls)

    # perfbench's build: the model, then its cached snf and method
    model = lp.PoissonModel([[1, 0, 1], [0, 2, 1]], [1.2, 35.0, 2.1])
    assert model.snf.rank == 2 and model.method == "single-index"
    assert (calls["preprocess"], calls["snf"]) == (1, 1)

    res = lp.pmf(model, [2, 72])
    assert res.route == "line" and calls["logsumexp"] >= 1
    fam = importlib.import_module("linpois.pmf").solution_family(model, [2, 72])
    assert fam.count == res.terms and calls["solution_family"] == 1

    rep = lp.verify(model, [2, 72], 5_000, 11)
    assert calls["pmf"] == 1 and calls["hits_block"] >= 1
    assert calls["_draw_table_np"] >= 1 and calls["_draw_ptrs_np"] >= 1
    assert rep.exact_prob == res.prob
    assert lp.verify(model, [2, 72], 5_000, 11, threads=2) == rep
    assert (calls["pmf"], calls["snf"]) == (2, 1)

    # the other kernel classes, and the full column count with a
    # removed column
    assert lp.PoissonModel([[1, 0], [0, 1]], [1.0, 1.0]).method == "invertible"
    assert lp.PoissonModel([[1, 1, 1]], [1.0, 1.0, 1.0]).method == "enumerate"
    wide = lp.PoissonModel([[1, 0, 1]], [1.0, 1.0, 1.0])
    assert (wide.n_full, wide.n) == (3, 2)
    assert kernels.default_backend() == lp.default_backend() == "numpy"


# PoissonModel._observation, the one check of an observation: a list or
# a tuple of integers is converted directly, anything else through
# int_vector; both give Python ints, and every refusal names what is
# wrong
OBSERVED = lp.PoissonModel(EXAMPLE1, [1.0, 1.0, 1.0])


class _Count(enum.IntEnum):
    TWO = 2
    SEVEN = 7


# an int subclass passes the integer rule and is converted to int
@pytest.mark.parametrize("b", [
    [2, 7], (2, 7), np.array([2, 7]), np.array([2, 7], dtype=np.uint64),
    [np.int64(2), np.uint8(7)], (np.int32(2), 7), [_Count.TWO, 7], (2, _Count.SEVEN)])
def test_observation_gives_python_ints(b):
    out = OBSERVED._observation(b)
    assert type(out) is list and out == [2, 7] and all(type(x) is int for x in out)


@pytest.mark.parametrize("b, message", [
    ([1, True], "entry 1 is not an integer: True"),
    ([np.bool_(True), 1], f"entry 0 is not an integer: {np.bool_(True)!r}"),
    ((1, 2.0), "entry 1 is not an integer: 2.0"),
    (np.array([1.5, 2.0]), "entry 0 is not an integer: 1.5"),
    (["1", 2], "entry 0 is not an integer: '1'"),
    ("12", "expected a vector, got ndim=0"),
    ([[1, 2]], "expected a vector, got ndim=2"),
    ([1, 2, 3], "observation length 3 != row count 2"),
    ((1,), "observation length 1 != row count 2"),
])
def test_observation_refusals_keep_their_message(b, message):
    for query in (OBSERVED._observation, lambda b: lp.pmf(OBSERVED, b)):
        with pytest.raises(InputError) as err:
            query(b)
        assert str(err.value) == message


# every entry point that takes a model, with valid other arguments
MODEL_ENTRIES = {
    "pmf": lambda x: lp.pmf(x, [1]),
    "solution_family": lambda x: lp.solution_family(x, [1]),
    "gf_eval": lambda x: lp.gf_eval(x, [0.5]),
    "pmf_table": lambda x: lp.pmf_table(x, 3),
    "hits_block": lambda x: kernels.hits_block(x, [1], 0, 0, 10),
    "verify": lambda x: lp.verify(x, [1], 100, 0),
}


@pytest.mark.parametrize("entry", sorted(MODEL_ENTRIES))
@pytest.mark.parametrize("arg", [None, [[1]], {"a": [[1]], "lambda": [1.0]}],
                         ids=["none", "matrix", "dict"])
def test_entry_points_refuse_a_non_model(entry, arg):
    """A non-model argument is an InputError (exit 2), not an
    AttributeError traceback from inside the entry point."""
    with pytest.raises(InputError, match="PoissonModel"):
        MODEL_ENTRIES[entry](arg)
    MODEL_ENTRIES[entry](lp.PoissonModel([[1]], [1.0]))
