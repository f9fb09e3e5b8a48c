"""Command line front end.

Subcommands: snf, solve, pmf, gf, sample.  Models are JSON files with
keys "a" and "lambda"; with --matrix-format text the positional file is
a whitespace matrix instead and rates come from --lambda.  Exit codes:
0 success, 2 input error (argparse's usage errors included), 4 internal
invariant failure.  Probability zero is a success, not an error.  The
pmf and solve outputs give the model's kernel class (model.method, from
classify) in "method"; it does not say which route answered this b:
for an "enumerate" model, pmf may walk the points or, when A has rank
1, run the recurrence, where "summed" counts its t + 1 entries.
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


def _text(value) -> str:
    """One value of a JSON payload as text: a bool as true/false, a list
    of ints joined by spaces, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return " ".join(map(str, value))
    return str(value)


def _lines(payload: dict) -> list:
    return [f"{key}: {_text(value)}" for key, value in payload.items()]


def _emit(args, payload: dict, lines: list | None = None) -> int:
    """Print the payload as JSON, or as text: the given lines, by
    default one "key: value" line per key of the payload."""
    if args.format == "json":
        print(json.dumps(payload, allow_nan=True))
    else:
        for line in _lines(payload) if lines is None else lines:
            print(line)
    return 0


def _mat(a) -> list:
    return [[int(x) for x in row] for row in a.tolist()] if a.size else a.tolist()


def _cmd_snf(args) -> int:
    dec = snf(_load_matrix(args.matrix_file, args.matrix_format))
    payload = {"rank": dec.rank, "divisors": [int(d) for d in dec.divisors]}
    lines = _lines(payload) + [
        "P:", format_matrix_text(dec.p),
        "D:", format_matrix_text(dec.d),
        "Q:", format_matrix_text(dec.q),
    ]
    payload.update(p=_mat(dec.p), d=_mat(dec.d), q=_mat(dec.q))
    return _emit(args, payload, lines)


def _cmd_solve(args) -> int:
    model = _load_model(args)
    fam = solution_family(model, args.b)
    payload = {"method": str(model.method), "kind": fam.kind, "count": fam.count}
    if fam.kind == "line":
        payload["base"] = [int(x) for x in fam.base]
        payload["direction"] = [int(x) for x in fam.direction]
        lines = _lines(payload) + [f"j-range: {fam.jmin} {fam.jmax}"]
        payload["jmin"] = fam.jmin
        payload["jmax"] = fam.jmax
    else:
        lines = _lines(payload)
        if fam.count:
            # rows of exact ints, int64 or object, in lexicographic order
            payload["solutions"] = sorted(fam.array.tolist())
            lines += [f"solution: {_text(k)}" for k in payload["solutions"]]
    return _emit(args, payload, lines)


def _cmd_pmf(args) -> int:
    model = _load_model(args)
    res = pmf(model, args.b)
    return _emit(args, {
        "prob": res.prob,
        "log_prob": res.log_prob,
        "method": str(res.method),
        "terms": res.terms,
        "summed": res.summed,
        "tail_bound": res.tail_bound,
        "clamped": res.clamped,
    })


def _cmd_gf(args) -> int:
    model = _load_model(args)
    value = gf_eval(model, args.z)
    payload = {"gf": value}
    if args.check_degree is not None:
        series = gf_eval_series(model, args.z, args.check_degree)
        payload["gf_series"] = series
        payload["abs_diff"] = abs(value - series)
        payload["degree_bound"] = args.check_degree
    return _emit(args, payload)


def _cmd_sample(args) -> int:
    model = _load_model(args)
    rep = verify(model, args.b, args.n, args.seed)
    return _emit(args, {
        "b": [int(x) for x in rep.b],
        "exact_prob": rep.exact_prob,
        "empirical_prob": rep.empirical_prob,
        "n_samples": rep.n_samples,
        "z_score": rep.z_score,
        "seed": rep.seed,
        "hits": rep.hits,
        "draws": rep.draws,
    })


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
