"""Command line interface: subcommands, formats, and exit codes.

Everything runs in-process through linpois.cli.main so coverage tools see
it and failures carry real tracebacks.
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
from linpois.errors import InputError

from oracle import enumerate_solutions, family_set, reference_log_prob

A1 = [[1, 0, 1], [0, 2, 1]]


@pytest.fixture()
def model1_file(tmp_path):
    path = tmp_path / "model1.json"
    path.write_text(json.dumps({"a": A1, "lambda": [1.0, 1.0, 1.0]}))
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
    path.write_text(json.dumps({"b": [[2]]}))
    assert main(["snf", str(path), "--matrix-format", "json"]) == 2
    assert "needs key 'a'" in capsys.readouterr().err


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


def test_pmf_zero_probability_is_success(model1_file, capsys):
    assert main(["pmf", model1_file, "--b", "0", "1", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["prob"] == 0.0
    assert out["log_prob"] == -math.inf


def test_pmf_negative_b_is_success(model1_file, capsys):
    assert main(["pmf", model1_file, "--b", "-1", "2", "--format", "json"]) == 0
    assert _json_out(capsys)["prob"] == 0.0


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


# ------------------------------------------------------ exit codes

def test_pmf_method_flag_is_a_usage_error(model1_file, capsys):
    # pmf has one route per query, so there is no --method to force one
    with pytest.raises(SystemExit) as exc:
        main(["pmf", model1_file, "--b", "2", "2", "--method", "enumerate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --method enumerate" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["pmf", "/nonexistent/model.json", "--b", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_wrong_b_length_exits_2(model1_file, capsys):
    assert main(["pmf", model1_file, "--b", "1", "2", "3"]) == 2
    capsys.readouterr()


def test_unknown_model_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"a": A1, "lambda": [1, 1, 1], "rate": 2}))
    assert main(["pmf", str(path), "--b", "1", "1"]) == 2
    capsys.readouterr()


def test_text_matrix_without_rates_exits_2(matrix1_file, capsys):
    assert main(["pmf", matrix1_file, "--matrix-format", "text",
                "--b", "1", "1"]) == 2
    capsys.readouterr()


def test_lambda_with_a_json_model_exits_2(model1_file, capsys):
    assert main(["pmf", model1_file, "--lambda", "1", "1", "1", "--b", "1", "1"]) == 2
    assert "--lambda only applies" in capsys.readouterr().err


def test_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    # the one file reader let UnicodeDecodeError through: a traceback and
    # exit 1, for model files and matrix files alike
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00 not text")
    for argv in (["pmf", str(path), "--b", "1"],
                 ["pmf", str(path), "--matrix-format", "text", "--lambda", "1", "--b", "1"],
                 ["snf", str(path)],
                 ["snf", str(path), "--matrix-format", "json"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and "utf-8" in err
    with pytest.raises(InputError, match="cannot read"):
        lp.load_model_file(path)


def test_malformed_matrix_exits_2(tmp_path, capsys):
    path = tmp_path / "ragged.txt"
    path.write_text("1 2\n3\n")
    assert main(["snf", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["pmf", "--b", "3"], ["gf", "--z", "0.5"],
                                  ["sample", "--b", "3", "--n", "100", "--seed", "1"]])
def test_rate_total_past_the_float_range_exits_2(tmp_path, capsys, argv):
    # -sum(rates) overflows to -inf: no b can be answered, so the model
    # is refused before any command runs
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": [[1, 1]], "lambda": [1e308, 1e308]}))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert "rate total" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [["pmf", "--b", "2", "72"],
                                  ["sample", "--b", "2", "72", "--n", "100", "--seed", "1"]])
def test_rates_that_are_not_numbers_exit_2(tmp_path, capsys, argv):
    # numpy read the string and the bool as the rates 1.5 and 1: exit 0
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"a": A1, "lambda": ["1.5", True, 1]}))
    assert main([argv[0], str(path), *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: rate 0") and captured.out == ""


# -------------------------------------------------------------- gf

def test_gf_check_degree(model1_file, capsys):
    assert main(["gf", model1_file, "--z", "0.5", "0.25",
                "--check-degree", "40", "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["abs_diff"] <= 1e-9
    assert math.isclose(out["gf"], out["gf_series"], rel_tol=1e-9)
    assert out["degree_bound"] == 40


def test_gf_check_degree_past_the_work_cap_exits_2(tmp_path, capsys):
    # a box of 10**6 + 1 entries, convolved 10**6 + 1 times: refused
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"a": [[1]], "lambda": [1.0]}))
    assert main(["gf", str(path), "--z", "0.5", "--check-degree", "1000000"]) == 2
    assert "work cap" in capsys.readouterr().err


def test_gf_entry_past_the_float_range_exits_0(tmp_path, capsys):
    # z**e for e = 10**400 raised OverflowError, a traceback and exit 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"a": [[10**400]], "lambda": [1.0]}))
    for extra in ([], ["--check-degree", "3"]):
        assert main(["gf", str(path), "--z", "0.5", "--format", "json", *extra]) == 0
        assert math.isclose(_json_out(capsys)["gf"], math.exp(-1.0), rel_tol=1e-15)


def test_gf_at_ones(model1_file, capsys):
    assert main(["gf", model1_file, "--z", "1", "1", "--format", "json"]) == 0
    assert math.isclose(_json_out(capsys)["gf"], 1.0, rel_tol=1e-12)


def test_gf_wrong_z_length_exits_2(model1_file, capsys):
    assert main(["gf", model1_file, "--z", "0.5"]) == 2
    capsys.readouterr()


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


def test_pmf_over_point_cap_exits_2(tmp_path, capsys):
    # a line of 10**11 points asked numpy for 745 GiB, one near 2**63
    # points raised "array is too big": both tracebacks, exit 1.  The
    # first is now summed around its mode and matches Poisson(2); the
    # second has more than MAX_POINTS terms above its tail threshold on
    # each side of its mode.  At 10**18 and 3 * 10**18 the window search
    # once read a tail bound of 2.0 off terms that rounded differently
    # from the ones it summed, and answered with exit 0
    path = tmp_path / "ones2.json"
    path.write_text(json.dumps({"a": [[1, 1]], "lambda": [1, 1]}))
    b = 10**11
    assert main(["pmf", str(path), "--b", str(b), "--format", "json"]) == 0
    out = _json_out(capsys)
    assert out["terms"] == b + 1 and out["summed"] < 10**7
    assert 0.0 < out["tail_bound"] <= 2.0**-60
    assert math.isclose(out["log_prob"], b * math.log(2.0) - 2.0 - math.lgamma(b + 1),
                        rel_tol=1e-12)
    for b in (10**18, 3 * 10**18, 9223372036854775000):
        assert main(["pmf", str(path), "--b", str(b)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap" in err
    # the same line is still described without its points
    assert main(["solve", str(path), "--b", "100000000000", "--format", "json"]) == 0
    assert _json_out(capsys)["count"] == 10**11 + 1
    # a kernel of dimension 2: the walk refuses its second frontier
    path.write_text(json.dumps({"a": [[1, 1, 1]], "lambda": [1, 1, 1]}))
    assert main(["pmf", str(path), "--b", "100000"]) == 2
    assert "cap" in capsys.readouterr().err


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


def test_pmf_huge_counts_exit_4_without_a_traceback(tmp_path):
    # the cancelled log_prob came out large and positive, and exp raised
    # OverflowError: a traceback and exit 1
    path = tmp_path / "huge-rate.json"
    path.write_text(json.dumps({"a": [[1]], "lambda": [1e40]}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-m", "linpois.cli", "pmf", str(path),
                          "--b", str(10**40)], capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode == 4
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr


def test_console_script_runs_pmf(model1_file, capsys):
    # the [project.scripts] entry point, resolved as an installer would
    tomllib = pytest.importorskip("tomllib")
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    module, _, attr = tomllib.loads(pyproject)["project"]["scripts"]["linpois"].partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry is main
    assert entry(["pmf", model1_file, "--b", "2", "2", "--format", "json"]) == 0
    assert _json_out(capsys)["route"] == "line"


def test_sample_b_beyond_int64_exits_2(model1_file, capsys):
    # the exact pmf handles any b; the int64 sampling kernels cannot
    assert main(["sample", model1_file, "--b", "2", str(2**63), "--n", "100",
                "--seed", "1"]) == 2
    assert "error:" in capsys.readouterr().err


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


def test_sample_rate_past_the_ceiling_exits_2(tmp_path, capsys):
    # the rejection sampler drew from the wrong law at rate 1e15
    path = tmp_path / "big-rate.json"
    path.write_text(json.dumps({"a": [[1]], "lambda": [1e15]}))
    assert main(["sample", str(path), "--b", "1", "--n", "100", "--seed", "1"]) == 2
    assert "2**34" in capsys.readouterr().err


def test_sample_huge_rate_and_count_exits_2(tmp_path, capsys):
    # verify asked pmf first, whose cancelled log term at b = 10**40
    # exceeded ln(1 + CLAMP_TOL): exit 4, where b = 1 exited 2 on the
    # sampler's rate ceiling.  The sampler's checks now come first
    path = tmp_path / "huge-rate.json"
    path.write_text(json.dumps({"a": [[1]], "lambda": [1e40]}))
    for b, reason in ((1, "2**34"), (10**40, "int64")):
        assert main(["sample", str(path), "--b", str(b), "--n", "100", "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and reason in err and "CLAMP_TOL" not in err


def test_sample_threads_flag_is_a_usage_error(model1_file, capsys):
    # verify counts in the calling thread, so there is no --threads
    with pytest.raises(SystemExit) as exc:
        main(["sample", model1_file, "--b", "1", "1", "--n", "300", "--seed", "9",
             "--threads", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 4" in capsys.readouterr().err


def test_sample_n_past_uint64_exits_2(model1_file, capsys, monkeypatch):
    # sample indices must fit uint64; refused before any draw
    def no_draw(*args):
        raise AssertionError("hits_block called")

    monkeypatch.setattr(montecarlo, "hits_block", no_draw)
    assert main(["sample", model1_file, "--b", "1", "1", "--n", str(2**70), "--seed", "9"]) == 2
    assert "unsigned 64-bit" in capsys.readouterr().err


def test_text_lines_follow_the_json_keys(model1_file, capsys):
    # pmf, sample and gf print one "key: value" line per JSON key, in
    # order: a bool as true/false, a list of ints joined by spaces
    for argv in (["pmf", model1_file, "--b", "2", "2"],
                 ["pmf", model1_file, "--b", "0", "1"],
                 ["sample", model1_file, "--b", "2", "2", "--n", "2000", "--seed", "5"],
                 ["sample", model1_file, "--b", "0", "1", "--n", "100", "--seed", "5"],
                 ["gf", model1_file, "--z", "0.5", "0.25"],
                 ["gf", model1_file, "--z", "0.5", "0.25", "--check-degree", "10"]):
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
