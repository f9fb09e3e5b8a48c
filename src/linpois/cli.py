"""Command line front end.

Subcommands: snf, solve, pmf, gf, sample.  Models are JSON files with
keys "a" and "lambda"; with --matrix-format text the positional file is
a whitespace matrix instead and rates come from --lambda.  Exit codes:
0 success, 2 input error (argparse's usage errors included), 4 internal
invariant failure.  Probability zero is a success, not an error.  The
pmf and solve outputs name the route that answered in "method".
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, InternalInvariantError, LinpoisError
from .intlinalg import format_matrix_text, int_matrix, parse_matrix_text, snf
from .model import PoissonModel, load_model_file
from .montecarlo import verify
from .pmf import gf_eval, gf_eval_series, pmf, solution_family

__all__ = ["build_parser", "run", "main"]


def _read_file(path) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def _load_matrix(path, fmt):
    text = _read_file(path)
    if fmt == "text":
        return parse_matrix_text(text)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    if isinstance(data, dict):
        if "a" not in data:
            raise InputError(f"{path}: JSON matrix object needs key 'a'")
        data = data["a"]
    return int_matrix(data)


def _load_model(args) -> PoissonModel:
    if args.matrix_format == "text":
        if args.rates is None:
            raise InputError("--matrix-format text requires --lambda RATE...")
        return PoissonModel(parse_matrix_text(_read_file(args.model_file)), args.rates)
    if args.rates is not None:
        raise InputError("--lambda only applies with --matrix-format text")
    return load_model_file(args.model_file)


def _emit(args, payload: dict, lines: list) -> int:
    if args.format == "json":
        print(json.dumps(payload, allow_nan=True))
    else:
        for line in lines:
            print(line)
    return 0


def _mat(a) -> list:
    return [[int(x) for x in row] for row in a.tolist()] if a.size else a.tolist()


def _ints(seq) -> str:
    return " ".join(str(int(x)) for x in seq)


def _cmd_snf(args) -> int:
    dec = snf(_load_matrix(args.matrix_file, args.matrix_format))
    payload = {
        "rank": dec.rank,
        "divisors": [int(d) for d in dec.divisors],
        "p": _mat(dec.p),
        "d": _mat(dec.d),
        "q": _mat(dec.q),
    }
    lines = [
        f"rank: {dec.rank}",
        f"divisors: {_ints(dec.divisors)}",
        "P:", format_matrix_text(dec.p),
        "D:", format_matrix_text(dec.d),
        "Q:", format_matrix_text(dec.q),
    ]
    return _emit(args, payload, lines)


def _cmd_solve(args) -> int:
    model = _load_model(args)
    fam, tag = solution_family(model, args.b)
    payload = {"method": str(tag), "kind": fam.kind, "count": fam.count}
    lines = [f"method: {tag}", f"kind: {fam.kind}", f"count: {fam.count}"]
    if fam.kind == "line":
        payload["base"] = [int(x) for x in fam.base]
        payload["direction"] = [int(x) for x in fam.direction]
        payload["jmin"] = fam.jmin
        payload["jmax"] = fam.jmax
        lines += [
            f"base: {_ints(fam.base)}",
            f"direction: {_ints(fam.direction)}",
            f"j-range: {fam.jmin} {fam.jmax}",
        ]
    elif fam.kind in ("singleton", "finite"):
        sols = fam.solutions
        payload["solutions"] = [list(k) for k in sols]
        lines += [f"solution: {_ints(k)}" for k in sols]
    return _emit(args, payload, lines)


def _cmd_pmf(args) -> int:
    model = _load_model(args)
    res = pmf(model, args.b)
    payload = {
        "prob": res.prob,
        "log_prob": res.log_prob,
        "method": str(res.method),
        "terms": res.terms,
        "summed": res.summed,
        "tail_bound": res.tail_bound,
        "clamped": res.clamped,
    }
    lines = [
        f"prob: {res.prob!r}",
        f"log_prob: {res.log_prob!r}",
        f"method: {res.method}",
        f"terms: {res.terms}",
        f"summed: {res.summed}",
        f"tail_bound: {res.tail_bound!r}",
        f"clamped: {'true' if res.clamped else 'false'}",
    ]
    return _emit(args, payload, lines)


def _cmd_gf(args) -> int:
    model = _load_model(args)
    value = gf_eval(model, args.z)
    payload = {"gf": value}
    lines = [f"gf: {value!r}"]
    if args.check_degree is not None:
        series = gf_eval_series(model, args.z, args.check_degree)
        payload["gf_series"] = series
        payload["abs_diff"] = abs(value - series)
        payload["degree_bound"] = args.check_degree
        lines += [
            f"gf_series: {series!r}",
            f"abs_diff: {abs(value - series)!r}",
            f"degree_bound: {args.check_degree}",
        ]
    return _emit(args, payload, lines)


def _cmd_sample(args) -> int:
    model = _load_model(args)
    rep = verify(model, args.b, args.n, args.seed, threads=args.threads)
    payload = {
        "b": [int(x) for x in rep.b],
        "exact_prob": rep.exact_prob,
        "empirical_prob": rep.empirical_prob,
        "n_samples": rep.n_samples,
        "z_score": rep.z_score,
        "seed": rep.seed,
        "hits": rep.hits,
        "n_shards": rep.n_shards,
    }
    lines = [
        f"b: {_ints(rep.b)}",
        f"exact_prob: {rep.exact_prob!r}",
        f"empirical_prob: {rep.empirical_prob!r}",
        f"n_samples: {rep.n_samples}",
        f"z_score: {rep.z_score!r}",
        f"seed: {rep.seed}",
        f"hits: {rep.hits}",
        f"n_shards: {rep.n_shards}",
    ]
    return _emit(args, payload, lines)


def _add_model_args(sp) -> None:
    sp.add_argument("model_file", help="JSON model file (or matrix text with --matrix-format text)")
    sp.add_argument(
        "--matrix-format", choices=("json", "text"), default="json",
        help="text: read the file as a whitespace matrix and take rates from --lambda",
    )
    sp.add_argument("--lambda", dest="rates", type=float, nargs="+", metavar="RATE",
                    help="rates, only with --matrix-format text")
    sp.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linpois",
        description="Exact probabilities for Y = A X with independent Poisson X",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("snf", help="Smith normal form of an integer matrix")
    sp.add_argument("matrix_file")
    sp.add_argument("--matrix-format", choices=("text", "json"), default="text")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_snf)

    sp = sub.add_parser("solve", help="solution family of A k = b")
    _add_model_args(sp)
    sp.add_argument("--b", type=int, nargs="+", required=True, metavar="B")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("pmf", help="P(Y = b)")
    _add_model_args(sp)
    sp.add_argument("--b", type=int, nargs="+", required=True, metavar="B")
    sp.set_defaults(func=_cmd_pmf)

    sp = sub.add_parser("gf", help="generating function G(z)")
    _add_model_args(sp)
    sp.add_argument("--z", type=float, nargs="+", required=True, metavar="Z")
    sp.add_argument("--check-degree", type=int, default=None, metavar="B",
                    help="also evaluate the truncated series up to degree B per axis")
    sp.set_defaults(func=_cmd_gf)

    sp = sub.add_parser("sample", help="Monte Carlo check of P(Y = b)")
    _add_model_args(sp)
    sp.add_argument("--b", type=int, nargs="+", required=True, metavar="B")
    sp.add_argument("--n", type=int, required=True, help="number of samples")
    sp.add_argument("--seed", type=int, required=True, help="unsigned 64-bit seed")
    sp.add_argument("--threads", type=int, default=1)
    sp.set_defaults(func=_cmd_sample)

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except LinpoisError as exc:
        # InputError and anything else user-facing
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
