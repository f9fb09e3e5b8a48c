"""Command line front end.

Subcommands: snf, solve, pmf, gf, sample.  Models are JSON files with
keys "a" and "lambda"; with --matrix-format text the positional file is
a whitespace matrix instead and rates come from --lambda.  Exit codes:
0 success, 2 input error (argparse's usage errors included), 4 internal
invariant failure.  Probability zero is a success, not an error.  pmf
and sample print every field of the PmfResult or SampleReport that the
library returned, in field order, so a field added to either record
shows up in both formats with no edit here: ROADMAP item 1 changes the
log terms in model._log_poisson, the one routine that forms them, and
reports its error bound in PmfResult.  solve gives the family's "kind".
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import InputError, InternalInvariantError, LinpoisError
from .intlinalg import format_matrix_text, int_matrix, parse_matrix_text, snf
from .model import PoissonModel, _read_file, load_model_file
from .montecarlo import verify
from .pmf import gf_eval, gf_eval_series, pmf, solution_family

__all__ = ["build_parser", "main"]


def _load_matrix(path, fmt):
    if fmt == "text":
        return parse_matrix_text(_read_file(path))
    data = _read_file(path, as_json=True)
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
    or tuple of ints joined by spaces, anything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
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


def _cmd_snf(args) -> int:
    dec = snf(_load_matrix(args.matrix_file, args.matrix_format))
    payload = {"rank": dec.rank, "divisors": list(dec.divisors)}
    lines = _lines(payload) + [
        "P:", format_matrix_text(dec.p),
        "D:", format_matrix_text(dec.d),
        "Q:", format_matrix_text(dec.q),
    ]
    payload.update(p=dec.p.tolist(), d=dec.d.tolist(), q=dec.q.tolist())
    return _emit(args, payload, lines)


def _cmd_solve(args) -> int:
    model = _load_model(args)
    fam = solution_family(model, args.b)
    payload = {"kind": fam.kind, "count": fam.count}
    if fam.kind == "line":
        payload["base"] = list(fam.base)
        payload["direction"] = list(fam.direction)
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
    return _emit(args, asdict(pmf(_load_model(args), args.b)))


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
    return _emit(args, asdict(verify(_load_model(args), args.b, args.n, args.seed)))


def _model_command(sub, name: str, summary: str, func):
    """The subparser of a command that reads a model file."""
    sp = sub.add_parser(name, help=summary)
    sp.add_argument("model_file", help="JSON model file (or matrix text with --matrix-format text)")
    sp.add_argument(
        "--matrix-format", choices=("json", "text"), default="json",
        help="text: read the file as a whitespace matrix and take rates from --lambda",
    )
    sp.add_argument("--lambda", dest="rates", type=float, nargs="+", metavar="RATE",
                    help="rates, only with --matrix-format text")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=func)
    return sp


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

    sp = _model_command(sub, "solve", "solution family of A k = b", _cmd_solve)
    sp.add_argument("--b", type=int, nargs="+", required=True, metavar="B")

    sp = _model_command(sub, "pmf", "P(Y = b)", _cmd_pmf)
    sp.add_argument("--b", type=int, nargs="+", required=True, metavar="B")

    sp = _model_command(sub, "gf", "generating function G(z)", _cmd_gf)
    sp.add_argument("--z", type=float, nargs="+", required=True, metavar="Z")
    sp.add_argument("--check-degree", type=int, default=None, metavar="B",
                    help="also evaluate the truncated series up to degree B per axis")

    sp = _model_command(sub, "sample", "Monte Carlo check of P(Y = b)", _cmd_sample)
    sp.add_argument("--b", type=int, nargs="+", required=True, metavar="B")
    sp.add_argument("--n", type=int, required=True, help="number of samples")
    sp.add_argument("--seed", type=int, required=True, help="unsigned 64-bit seed")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LinpoisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a library bug, or an InputError and anything else user-facing
        return 4 if isinstance(exc, InternalInvariantError) else 2


if __name__ == "__main__":
    sys.exit(main())
