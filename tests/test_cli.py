"""Command line interface: subcommands, formats, and exit codes.

Everything runs in-process through linpois.cli.main, so coverage tools
see it and failures carry real tracebacks; the one exception is
test_pmf_wide_entries_answer_at_once, whose guard against a search
that never ends is a subprocess timeout.  Each exit-code case is a row
of TABLE, checked by one runner.
"""

import dataclasses
import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import linpois as lp
from linpois import montecarlo
from linpois.cli import main

from oracle import enumerate_solutions, family_set, reference_log_prob

A1 = [[1, 0, 1], [0, 2, 1]]
MODEL1 = {"a": A1, "lambda": [1.0, 1.0, 1.0]}


@pytest.fixture()
def model1_file(tmp_path):
    path = tmp_path / "model1.json"
    path.write_text(json.dumps(MODEL1))
    return str(path)


@pytest.fixture()
def matrix1_file(tmp_path):
    path = tmp_path / "a1.txt"
    path.write_text("1 0 1\n0 2 1\n")
    return str(path)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# ------------------------------------------------------------- snf

def test_snf_json(matrix1_file, capsys):
    assert main(["snf", matrix1_file, "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["rank"] == 2
    assert out["divisors"] == [1, 1]
    p = np.array(out["p"])
    d = np.array(out["d"])
    q = np.array(out["q"])
    assert np.array_equal(p @ np.array(A1) @ q, d)


def test_snf_reads_a_json_matrix(tmp_path, capsys):
    # a bare list of rows, or an object with key "a" such as a model file
    path = tmp_path / "m.json"
    for data in ([[2, 4], [6, 8]], {"a": [[2, 4], [6, 8]], "lambda": [1.0, 1.0]}):
        path.write_text(json.dumps(data))
        assert main(["snf", str(path), "--matrix-format", "json", "--format", "json"]) == 0
        assert _json_out(capsys)["divisors"] == [2, 4]


def test_snf_text(matrix1_file, capsys):
    assert main(["snf", matrix1_file]) == 0
    out = capsys.readouterr().out
    assert "rank: 2" in out
    assert "divisors: 1 1" in out
    for label in ("P:", "D:", "Q:"):
        assert label in out


# ----------------------------------------------------------- solve

def test_solve_line_family(model1_file, capsys):
    assert main(["solve", model1_file, "--b", "2", "2", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert "method" not in out
    assert out["kind"] == "line"
    assert out["count"] == 2
    base = np.array(out["base"])
    direction = np.array(out["direction"])
    sols = {tuple(base + j * direction) for j in range(out["jmin"], out["jmax"] + 1)}
    assert sols == {(0, 0, 2), (2, 1, 0)}


def test_solve_empty(model1_file, capsys):
    assert main(["solve", model1_file, "--b", "0", "1", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["kind"] == "empty" and out["count"] == 0


def test_solve_text(model1_file, capsys):
    assert main(["solve", model1_file, "--b", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "kind: line" in out
    assert "count: 2" in out


def test_solve_dependent_rows_empty(tmp_path, capsys):
    path = tmp_path / "dep.json"
    path.write_text(json.dumps({"a": [[1, 2], [2, 4]], "lambda": [1.0, 1.0]}))
    assert main(["solve", str(path), "--b", "3", "7", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["kind"] == "empty" and out["count"] == 0


def test_solve_walked_empty_set_is_empty(tmp_path, capsys):
    # a kernel of dimension 2 with b = 1 on the lattice but no
    # nonnegative point: the walk finds none
    path = tmp_path / "w235.json"
    path.write_text(json.dumps({"a": [[2, 3, 5]], "lambda": [1.0, 1.0, 1.0]}))
    assert main(["solve", str(path), "--b", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["kind: empty", "count: 0"]


def test_solve_walked_single_point_is_singleton(tmp_path, capsys):
    # dependent rows and a zero column, walked: one point at b = 0
    path = tmp_path / "dep0.json"
    path.write_text(json.dumps({"a": [[1, 1, 2, 0], [2, 2, 4, 0]], "lambda": [1.0] * 4}))
    assert main(["solve", str(path), "--b", "0", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "kind: singleton", "count: 1", "solution: 0 0 0"]


def test_solve_lists_wide_entries_exactly(tmp_path, capsys):
    # entries past int64 are walked on an object array; solve lists its
    # six points as exact ints in lexicographic order
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"a": [[1, 2**64, 2**64]], "lambda": [1.0] * 3}))
    want = [[3, 0, 2], [3, 1, 1], [3, 2, 0],
            [2**64 + 3, 0, 1], [2**64 + 3, 1, 0], [2**65 + 3, 0, 0]]
    assert main(["solve", str(path), "--b", str(2**65 + 3), "--format", "json"]) == 0
    out = _json_out(capsys)
    assert (out["kind"], out["count"]) == ("finite", 6)
    assert out["solutions"] == want
    assert all(type(x) is int for k in out["solutions"] for x in k)
    assert main(["solve", str(path), "--b", str(2**65 + 3)]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("solution:")]
    assert lines == [f"solution: {' '.join(map(str, k))}" for k in want]


# ------------------------------------------------------------- pmf

def test_pmf_auto_matches_enumerate(model1_file, capsys):
    assert main(["pmf", model1_file, "--b", "2", "2", "--format", "json"]) == 0
    auto = _json_out(capsys)
    enum = enumerate_solutions(A1, [2, 2])
    assert auto["route"] == "line"
    assert auto["terms"] == enum.count == 2
    assert math.isclose(auto["log_prob"], reference_log_prob([1.0] * 3, family_set(enum)),
                        rel_tol=1e-12)
    assert auto["clamped"] is False


def test_pmf_text_output(model1_file, capsys):
    assert main(["pmf", model1_file, "--b", "2", "2"]) == 0
    out = capsys.readouterr().out
    assert "route: line" in out
    assert "clamped: false" in out


def test_pmf_matrix_text_with_rates(matrix1_file, capsys):
    assert main(["pmf", matrix1_file, "--matrix-format", "text",
                "--lambda", "1", "1", "1", "--b", "2", "2",
                "--format", "json"]) == 0
    main(["pmf", matrix1_file, "--matrix-format", "text",
         "--lambda", "1", "1", "1", "--b", "2", "2", "--format", "json"])
    first, second = capsys.readouterr().out.strip().splitlines()
    assert json.loads(first) == json.loads(second)
    assert json.loads(first)["terms"] == 2


def test_pmf_single_index_with_divisor_two(tmp_path, capsys):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps({"a": [[2, 2]], "lambda": [1.0, 2.0]}))
    for b in (0, 2, 200):
        assert main(["pmf", str(path), "--b", str(b), "--format", "json"]) == 0
        out = _json_out(capsys)
        # one point at b = 0
        assert out["route"] == ("singleton" if b == 0 else "line")
        assert out["terms"] == b // 2 + 1
        # 2 (X1 + X2) = b with X1 + X2 ~ Poisson(3)
        assert math.isclose(out["prob"], math.exp(-3.0) * 3.0 ** (b // 2) / math.factorial(b // 2),
                            rel_tol=1e-12)


def test_pmf_sums_a_line_of_1e11_points_around_its_mode(tmp_path, capsys):
    # a line of 10**11 points asked numpy for 745 GiB, a traceback and
    # exit 1; it is now summed around its mode and matches Poisson(2)
    path = tmp_path / "ones2.json"
    path.write_text(json.dumps({"a": [[1, 1]], "lambda": [1, 1]}))
    b = 10**11
    assert main(["pmf", str(path), "--b", str(b), "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["terms"] == b + 1 and out["summed"] < 10**7
    assert 0.0 < out["tail_bound"] <= 2.0**-60
    assert math.isclose(out["log_prob"], b * math.log(2.0) - 2.0 - math.lgamma(b + 1),
                        rel_tol=1e-12)
    # the same line is described without its points
    assert main(["solve", str(path), "--b", str(b), "--format", "json"]) == 0
    assert _json_out(capsys)["count"] == b + 1


def test_pmf_reports_summed_terms_and_tail_bound(tmp_path, capsys):
    # E1 at b = (2e4, 2e4) is a line of 10**4 + 1 points, most of them
    # far below the largest term
    path = tmp_path / "e1.json"
    path.write_text(json.dumps({"a": A1, "lambda": [1.2, 35.0, 2.1]}))
    argv = ["pmf", str(path), "--b", "20000", "20000"]
    assert main(argv + ["--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["terms"] == 10_001
    assert 0 < out["summed"] < out["terms"]
    assert 0.0 < out["tail_bound"] <= 2.0**-60
    assert main(argv) == 0
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert int(lines["terms"]) == 10_001
    assert int(lines["summed"]) == out["summed"] < 10_001
    assert float(lines["tail_bound"]) == out["tail_bound"] <= 2.0**-60


def test_pmf_wide_entries_answer_at_once(tmp_path):
    # six solutions, where a depth-first search over all columns would
    # loop over all 2**65 values of k_0; the walk answers at once
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"a": [[1, 2**64, 2**64]], "lambda": [1, 1, 1]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "linpois.cli", "pmf", str(path),
                          "--b", str(2**65 + 3), "--format", "json"],
                         capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 0
    res = json.loads(out.stdout)
    assert res["route"] == "walk" and res["terms"] == 6 and res["prob"] > 0.0


def test_console_script_runs_pmf(model1_file, capsys):
    # the [project.scripts] entry point, resolved as an installer would
    tomllib = pytest.importorskip("tomllib")
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, _, attr = tomllib.loads(pyproject)["project"]["scripts"]["linpois"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main
    assert entry(["pmf", model1_file, "--b", "2", "2", "--format", "json"]) == 0
    assert _json_out(capsys)["route"] == "line"


# -------------------------------------------------------------- gf

def test_gf_at_ones(model1_file, capsys):
    assert main(["gf", model1_file, "--z", "1", "1", "--format", "json"]) == 0
    assert math.isclose(_json_out(capsys)["gf"], 1.0, rel_tol=1e-12)


# ---------------------------------------------------------- sample

def test_sample_json_schema_and_determinism(model1_file, capsys):
    argv = ["sample", model1_file, "--b", "2", "2", "--n", "20000",
            "--seed", "2024", "--format", "json"]
    assert main(argv) == 0
    first = _json_out(capsys)
    assert main(argv) == 0
    second = _json_out(capsys)
    assert first == second
    assert set(first) == {"b", "exact_prob", "empirical_prob", "n_samples",
                          "z_score", "seed", "hits", "draws"}
    assert first["b"] == [2, 2]
    assert 0 < first["draws"] <= 3 * 20000
    assert first["n_samples"] == 20000
    assert abs(first["z_score"]) < 6


def test_sample_nan_z_survives_json(model1_file, capsys):
    # unreachable b: exact probability 0, z undefined; json mode emits
    # NaN (non-strict JSON) and Python reads it back
    assert main(["sample", model1_file, "--b", "0", "1", "--n", "1000",
                "--seed", "1", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["exact_prob"] == 0.0
    assert math.isnan(out["z_score"])


def test_sample_ignores_rate_of_a_zero_column(tmp_path, capsys):
    # the zero column is never drawn, so its rate past MAX_RATE does not
    # stop the sampler; the hits are those of a rate-1 zero column
    path = tmp_path / "zero-col.json"
    argv = ["sample", str(path), "--b", "2", "--n", "5000", "--seed", "4", "--format", "json"]
    hits = []
    for rate in (1e30, 1.0):
        path.write_text(json.dumps({"a": [[1, 0]], "lambda": [1.0, rate]}))
        assert main(argv) == 0
        hits.append(_json_out(capsys)["hits"])
    assert hits[0] == hits[1] > 0


def test_sample_n_past_uint64_exits_2(model1_file, capsys, monkeypatch):
    # sample indices must fit uint64; refused before any draw
    def no_draw(*args):
        raise AssertionError("hits_block called")

    monkeypatch.setattr(montecarlo, "hits_block", no_draw)
    assert main(["sample", model1_file, "--b", "1", "1", "--n", str(2**70), "--seed", "9"]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err


# ------------------------------------------------------ exit codes

@dataclasses.dataclass(frozen=True)
class Row:
    """One CLI call and what it must give.

    file is the content of the one input file: a dict or list is
    written as JSON, a str as text and bytes as they are; None writes
    no file.  argv is split on whitespace, and the word FILE in argv or
    err stands for the file's path.  err must occur in stderr; out
    holds fields of the JSON that a call exiting 0 prints.
    """

    id: str
    file: object
    argv: str
    code: int
    err: str = ""
    out: dict = dataclasses.field(default_factory=dict)


HUGE_RATE = {"a": [[1]], "lambda": [1e40]}
HUGE_TOTAL = {"a": [[1, 1]], "lambda": [1e308, 1e308]}
ONES2 = {"a": [[1, 1]], "lambda": [1, 1]}
TYPOS = {"a": A1, "lambda": ["1.5", True, 1]}
NOT_UTF8 = b"\xff\xfe\x00 not text"
UTF8_ERR = "cannot read FILE: 'utf-8' codec can't decode"
TOTAL_ERR = "the rate total exceeds the float64 range"
TYPO_ERR = "error: rate[0] is not a real number"
CAP_ERR = "the cap of MAX_POINTS"
RATE_ERR = "rates above 17179869184 (2**34) cannot be sampled"

TABLE = [
    # options that are gone: pmf has one route per query, the truncated
    # series is a test oracle, and verify counts in the calling thread
    Row("pmf_method_flag_is_a_usage_error", MODEL1,
        "pmf FILE --b 2 2 --method enumerate", 2, "unrecognized arguments: --method enumerate"),
    Row("gf_check_degree_flag_is_a_usage_error", MODEL1,
        "gf FILE --z 0.5 0.5 --check-degree 3", 2, "unrecognized arguments: --check-degree 3"),
    Row("sample_threads_flag_is_a_usage_error", MODEL1,
        "sample FILE --b 1 1 --n 300 --seed 9 --threads 4", 2,
        "unrecognized arguments: --threads 4"),
    # unreadable input; a file that is not UTF-8 was a traceback, exit 1
    Row("missing_file_exits_2", None, "pmf /nonexistent/model.json --b 1", 2,
        "cannot read /nonexistent/model.json: [Errno 2]"),
    Row("file_that_is_not_utf8_exits_2", NOT_UTF8, "pmf FILE --b 1", 2, UTF8_ERR),
    Row("matrix_text_that_is_not_utf8_exits_2", NOT_UTF8,
        "pmf FILE --matrix-format text --lambda 1 --b 1", 2, UTF8_ERR),
    Row("snf_file_that_is_not_utf8_exits_2", NOT_UTF8, "snf FILE", 2, UTF8_ERR),
    Row("snf_json_file_that_is_not_utf8_exits_2", NOT_UTF8, "snf FILE --matrix-format json", 2,
        UTF8_ERR),
    Row("model_file_that_is_not_json_exits_2", "not json", "pmf FILE --b 1", 2,
        "FILE is not valid JSON"),
    Row("unknown_model_key_exits_2", {"a": A1, "lambda": [1, 1, 1], "rate": 2},
        "pmf FILE --b 1 1", 2, "unknown model keys: ['rate']"),
    Row("text_matrix_without_rates_exits_2", "1 0 1\n0 2 1\n",
        "pmf FILE --matrix-format text --b 1 1", 2, "--matrix-format text requires --lambda"),
    Row("lambda_with_a_json_model_exits_2", MODEL1, "pmf FILE --lambda 1 1 1 --b 1 1", 2,
        "--lambda only applies with --matrix-format text"),
    Row("malformed_matrix_exits_2", "1 2\n3\n", "snf FILE", 2, "rows of equal length"),
    Row("snf_empty_matrix_text_exits_2", "", "snf FILE", 2, "matrix text is empty"),
    Row("snf_json_object_without_a_exits_2", {"b": [[2]]}, "snf FILE --matrix-format json", 2,
        "FILE: JSON matrix object needs key 'a'"),
    Row("snf_reads_a_json_matrix_object", {"a": [[2, 4], [6, 8]]},
        "snf FILE --matrix-format json --format json", 0, out={"divisors": [2, 4]}),
    # -sum(rates) is -inf, so no b can be answered: refused at build
    Row("rate_total_past_the_float_range_exits_2", HUGE_TOTAL, "pmf FILE --b 3", 2, TOTAL_ERR),
    Row("rate_total_past_the_float_range_exits_2", HUGE_TOTAL, "gf FILE --z 0.5", 2, TOTAL_ERR),
    Row("rate_total_past_the_float_range_exits_2", HUGE_TOTAL,
        "sample FILE --b 3 --n 100 --seed 1", 2, TOTAL_ERR),
    # numpy read the string and the bool as the rates 1.5 and 1: exit 0
    Row("rates_that_are_not_numbers_exit_2", TYPOS, "pmf FILE --b 2 72", 2, TYPO_ERR),
    Row("rates_that_are_not_numbers_exit_2", TYPOS, "sample FILE --b 2 72 --n 100 --seed 1", 2,
        TYPO_ERR),
    # pmf: a probability of zero is a success
    Row("pmf_names_the_line_route", MODEL1, "pmf FILE --b 2 2 --format json", 0,
        out={"route": "line", "terms": 2}),
    Row("pmf_zero_probability_is_success", MODEL1, "pmf FILE --b 0 1 --format json", 0,
        out={"prob": 0.0, "log_prob": -math.inf}),
    Row("pmf_negative_b_is_success", MODEL1, "pmf FILE --b -1 2 --format json", 0,
        out={"prob": 0.0}),
    Row("pmf_off_lattice_b_prints_the_empty_record", {"a": [[2, 4, 6, 8]], "lambda": [1] * 4},
        "pmf FILE --b 3 --format json", 0,
        out={"log_prob": -math.inf, "prob": 0.0, "route": "empty", "terms": 0, "summed": 0}),
    Row("wrong_b_length_exits_2", MODEL1, "pmf FILE --b 1 2 3", 2,
        "observation length 3 != row count 2"),
    # more than MAX_POINTS terms above the tail threshold on each side of
    # the mode.  Near 2**63 numpy raised "array is too big", exit 1; at
    # 10**18 and 3 * 10**18 a tail bound of 2.0, read off terms rounded
    # unlike the summed ones, answered with exit 0
    Row("pmf_over_point_cap_exits_2", ONES2, f"pmf FILE --b {10**18}", 2, CAP_ERR),
    Row("pmf_over_point_cap_at_3e18_exits_2", ONES2, f"pmf FILE --b {3 * 10**18}", 2, CAP_ERR),
    Row("pmf_over_point_cap_near_2_63_exits_2", ONES2, "pmf FILE --b 9223372036854775000", 2,
        CAP_ERR),
    # a kernel of dimension 2: the walk refuses its second frontier
    Row("pmf_walk_frontier_over_point_cap_exits_2", {"a": [[1, 1, 1]], "lambda": [1, 1, 1]},
        "pmf FILE --b 100000", 2, CAP_ERR),
    # exp of the cancelled log_prob raised OverflowError (ROADMAP item 1)
    Row("pmf_huge_counts_exit_4_without_a_traceback", HUGE_RATE, f"pmf FILE --b {10**40}", 4,
        "exceeds ln(1 + CLAMP_TOL)"),
    # the ten log terms add up past the float64 range: numpy printed
    # "overflow encountered in reduce" before the answer
    Row("pmf_sum_past_the_float_range_answers_zero_without_a_warning",
        {"a": np.eye(10, dtype=int).tolist(), "lambda": [1e5] * 10},
        f"pmf FILE --b {' '.join([str(2**1012)] * 10)} --format json", 0,
        out={"prob": 0.0, "log_prob": -math.inf}),
    # lgamma of the count raised OverflowError, exit 1
    Row("pmf_count_past_the_float_range_of_ln_k_factorial_exits_2",
        {"a": [[1]], "lambda": [1e308]}, f"pmf FILE --b {10**306}", 2,
        "solution counts exceed the float64 range"),
    # z**e for e = 10**400 raised OverflowError, exit 1
    Row("gf_entry_past_the_float_range_exits_0", {"a": [[10**400]], "lambda": [1.0]},
        "gf FILE --z 0.5 --format json", 0, out={"gf": math.exp(-1.0)}),
    Row("gf_wrong_z_length_exits_2", MODEL1, "gf FILE --z 0.5", 2, "z must be a vector of length"),
    Row("gf_z_above_one_exits_2", MODEL1, "gf FILE --z 0.5 1.5", 2, "error: z[1] is out of [0, 1]"),
    # the int64 sampling kernels cannot take every b that pmf answers;
    # PTRS drew from the wrong law at rate 1e15.  verify asked pmf
    # first, which exits 4 at b = 10**40; the sampler's checks now come first
    Row("sample_b_beyond_int64_exits_2", MODEL1, f"sample FILE --b 2 {2**63} --n 100 --seed 1",
        2, "observation entries must fit in int64 for sampling"),
    Row("sample_rate_past_the_ceiling_exits_2", {"a": [[1]], "lambda": [1e15]},
        "sample FILE --b 1 --n 100 --seed 1", 2, RATE_ERR),
    Row("sample_huge_rate_exits_2", HUGE_RATE, "sample FILE --b 1 --n 100 --seed 1", 2, RATE_ERR),
    Row("sample_huge_rate_and_count_exits_2", HUGE_RATE,
        f"sample FILE --b {10**40} --n 100 --seed 1", 2,
        "observation entries must fit in int64 for sampling"),
    Row("sample_n_zero_exits_2", MODEL1, "sample FILE --b 1 1 --n 0 --seed 1", 2,
        "n_samples must be >= 1"),
    Row("sample_negative_seed_exits_2", MODEL1, "sample FILE --b 1 1 --n 100 --seed -1", 2,
        "seed must be >= 0"),
]


def _run(row, tmp_path, capsys):
    """Call main in-process with the row's file and argv, and check its
    exit code and output.  Any exception but argparse's SystemExit
    escapes and fails the row: it is what would print a traceback."""
    path = tmp_path / "input"
    if isinstance(row.file, bytes):
        path.write_bytes(row.file)
    elif isinstance(row.file, str):
        path.write_text(row.file)
    elif row.file is not None:
        path.write_text(json.dumps(row.file))
    argv = [str(path) if arg == "FILE" else arg for arg in row.argv.split()]
    try:
        code, head = main(argv), "error: "
    except SystemExit as exc:
        code, head = exc.code, "usage: linpois "
    out, err = capsys.readouterr()
    assert code == row.code, err
    assert row.err.replace("FILE", str(path)) in err
    if code == 0:
        payload = json.loads(out)
        assert err == "" and {key: payload[key] for key in row.out} == row.out
    else:
        # main's error is one line; argparse prints its usage first
        assert out == "" and err.startswith(head)
        assert len(err.splitlines()) == (1 if head == "error: " else 2)


def _table_test(rows):
    """The test of the rows that share an id: one row is checked as is,
    several are the cases argv0, argv1, ... of one test."""
    if len(rows) == 1:
        def test(tmp_path, capsys):
            _run(rows[0], tmp_path, capsys)
    else:
        @pytest.mark.parametrize("row", rows, ids=[f"argv{i}" for i in range(len(rows))])
        def test(tmp_path, capsys, row):
            _run(row, tmp_path, capsys)
    return test


# each id is collected as the test test_<id>
for _id in dict.fromkeys(row.id for row in TABLE):
    assert f"test_{_id}" not in globals(), _id
    globals()[f"test_{_id}"] = _table_test([row for row in TABLE if row.id == _id])


# -------------------------------------------------- output records

def test_text_lines_follow_the_json_keys(model1_file, capsys):
    # pmf, sample and gf print one "key: value" line per JSON key, in
    # order: a bool as true/false, a list of ints joined by spaces
    for argv in (["pmf", model1_file, "--b", "2", "2"],
                 ["pmf", model1_file, "--b", "0", "1"],
                 ["sample", model1_file, "--b", "2", "2", "--n", "2000", "--seed", "5"],
                 ["sample", model1_file, "--b", "0", "1", "--n", "100", "--seed", "5"],
                 ["gf", model1_file, "--z", "0.5", "0.25"]):
        assert main(argv + ["--format", "json"]) == 0
        payload = _json_out(capsys)
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        want = []
        for key, value in payload.items():
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, list):
                value = " ".join(str(x) for x in value)
            want.append(f"{key}: {value}")
        assert lines == want


@pytest.mark.parametrize("b", [[2, 2], [0, 1]])
def test_pmf_and_sample_print_their_records(model1_file, capsys, b):
    """pmf and sample print every field of the PmfResult or SampleReport
    the API returns, in field order: the JSON keys are the record's
    fields and the values its values (a NaN z-score as NaN, the b tuple
    as a list), and text mode prints one "name: value" line per field."""
    model = lp.load_model_file(model1_file)
    argv_b = ["--b", *map(str, b)]
    for argv, record in ((["pmf", model1_file, *argv_b], lp.pmf(model, b)),
                         (["sample", model1_file, *argv_b, "--n", "2000", "--seed", "5"],
                          lp.verify(model, b, 2000, 5))):
        names = [f.name for f in dataclasses.fields(record)]
        values = [getattr(record, name) for name in names]
        assert main(argv + ["--format", "json"]) == 0
        out = _json_out(capsys)
        assert list(out) == names
        for got, want in zip(out.values(), values):
            if isinstance(want, float) and math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == (list(want) if isinstance(want, tuple) else want)
                assert type(got) is type(want) or isinstance(want, tuple)
        assert main(argv) == 0
        want_lines = []
        for name, value in zip(names, values):
            if isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, tuple):
                value = " ".join(map(str, value))
            want_lines.append(f"{name}: {value}")
        assert capsys.readouterr().out.splitlines() == want_lines
