"""Command-line front end.

Subcommands: ``term`` (one value), ``table`` (a range), ``series``
(generating-function coefficients vs recurrence terms), ``verify`` (the full
machine-verification suite as a JSON report).

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
All rationals cross the wire as exact "p/q" strings. Output is deterministic
unless --timestamps is given. Note argparse needs the ``--a=-3/2`` form for
negative values.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from fractions import Fraction
from itertools import islice

from .exact import Mat2, parse_rational
from .identities import default_grid, run_full_suite, run_series_suite
from .matrixseq import (
    fib_matrix_binet,
    fib_matrix_closed,
    fib_matrix_rec,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec,
    lucas_matrix_rec_iter,
)
from .sequences import SeqParams, l, q
from .series import lucas_generating_series

SCALAR_KINDS = ("fib", "lucas")
MATRIX_KINDS = ("fib-matrix", "lucas-matrix")


class CliError(Exception):
    """Validation problem; rendered to stderr with exit code 2."""


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational 'p/q' or integer: {text!r}")


def _make_params(a: Fraction, b: Fraction) -> SeqParams:
    try:
        return SeqParams(a, b)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _resolve_source(source: str | None, kind: str) -> str:
    if kind in SCALAR_KINDS:
        if source not in (None, "rec"):
            raise CliError("--source applies to matrix kinds only")
        return "rec"
    return source or "closed"


def _matrix_value(params: SeqParams, kind: str, n: int, source: str) -> Mat2:
    rec, closed, binet = (
        (fib_matrix_rec, fib_matrix_closed, fib_matrix_binet)
        if kind == "fib-matrix"
        else (lucas_matrix_rec, lucas_matrix_closed, lucas_matrix_binet)
    )
    if source in ("rec", "binet") and n < 0:
        raise CliError(f"source '{source}' requires n >= 0; use --source closed")
    if source == "binet" and not params.binet_allowed:
        raise CliError("ab = -4 is degenerate: alpha = beta, Binet route unavailable")
    if source == "closed":
        return closed(params, n)
    if source == "rec":
        return rec(params, n)
    if source == "binet":
        return binet(params, n)
    values = [closed(params, n)]
    if n >= 0:
        values.append(rec(params, n))
        if params.binet_allowed:
            values.append(binet(params, n))
    if any(v != values[0] for v in values[1:]):
        raise CliError("computation routes disagree; please report this")
    return values[0]


def _values(params: SeqParams, kind: str, indices, source: str) -> list[tuple]:
    if kind in SCALAR_KINDS:
        return [(n, q(params, n) if kind == "fib" else l(params, n)) for n in indices]
    return [(n, _matrix_value(params, kind, n, source)) for n in indices]


def _matrix_json(m: Mat2) -> list[list[str]]:
    return [[str(e) for e in row] for row in m.rows()]


def _csv_lines(header: str, rows: list[str]) -> str:
    return "\n".join([header, *rows])


def _values_csv(kind: str, values) -> str:
    if kind in SCALAR_KINDS:
        return _csv_lines("index,value", [f"{n},{v}" for n, v in values])
    return _csv_lines(
        "index,e11,e12,e21,e22",
        [f"{n},{m.e11},{m.e12},{m.e21},{m.e22}" for n, m in values],
    )


def cmd_term(args) -> int:
    params = _make_params(args.a, args.b)
    source = _resolve_source(args.source, args.kind)
    values = _values(params, args.kind, [args.n], source)
    if args.format == "json":
        render = str if args.kind in SCALAR_KINDS else _matrix_json
        out = json.dumps(render(values[0][1]), separators=(",", ":"))
    elif args.format == "csv":
        out = _values_csv(args.kind, values)
    else:
        out = str(values[0][1])
    print(out)
    return 0


def cmd_table(args) -> int:
    params = _make_params(args.a, args.b)
    source = _resolve_source(args.source, args.kind)
    if args.n_max < args.n:
        raise CliError("--n-max must be >= --n")
    values = _values(params, args.kind, range(args.n, args.n_max + 1), source)
    if args.format == "json":
        key, render = ("value", str) if args.kind in SCALAR_KINDS else ("matrix", _matrix_json)
        out = json.dumps(
            [{"index": n, key: render(v)} for n, v in values], separators=(",", ":")
        )
    elif args.format == "csv":
        out = _values_csv(args.kind, values)
    else:
        out = "\n".join(f"{n}: {v}" for n, v in values)
    print(out)
    return 0


def cmd_series(args) -> int:
    if args.order < 1:
        raise CliError("order must be >= 1")
    params = _make_params(args.a, args.b)
    expansion = lucas_generating_series(params, args.order)
    rows = []
    for k, term in enumerate(islice(lucas_matrix_rec_iter(params), args.order)):
        coeff = expansion.coefficient(k)
        rows.append((k, coeff, term, coeff == term))
    if args.format == "json":
        out = json.dumps(
            [
                {
                    "index": k,
                    "series": _matrix_json(c),
                    "recurrence": _matrix_json(t),
                    "match": ok,
                }
                for k, c, t, ok in rows
            ],
            separators=(",", ":"),
        )
    elif args.format == "csv":
        header = "index,s11,s12,s21,s22,r11,r12,r21,r22,match"
        out = _csv_lines(
            header,
            [
                f"{k},{c.e11},{c.e12},{c.e21},{c.e22},"
                f"{t.e11},{t.e12},{t.e21},{t.e22},{str(ok).lower()}"
                for k, c, t, ok in rows
            ],
        )
    else:
        out = "\n".join(
            f"{k}: series={c} recurrence={t} match={ok}" for k, c, t, ok in rows
        )
    print(out)
    return 0


def _resolve_grid(args) -> list[SeqParams]:
    if args.a is not None or args.b is not None:
        if args.a is None or args.b is None:
            raise CliError("provide both --a and --b, or neither")
        return [_make_params(args.a, args.b)]
    return default_grid()


def cmd_verify(args) -> int:
    if args.n_max < 0:
        raise CliError("--n-max must be >= 0")
    if args.order < 1:
        raise CliError("order must be >= 1")
    grid = _resolve_grid(args)
    report = run_full_suite(grid, args.n_max)
    report = report.merged_with(run_series_suite(grid, args.n_max, args.order), suite="full")
    doc = report.to_json_dict()
    if args.timestamps:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    print(json.dumps(doc, indent=2))
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biperiodic",
        description="Exact bi-periodic Fibonacci/Lucas sequences, their 2x2 "
        "matrix companions, and machine verification of their identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p, required=True):
        p.add_argument("--a", type=_rational, required=required,
                       help="rational parameter a, e.g. 2 or -3/2 (use --a=-3/2)")
        p.add_argument("--b", type=_rational, required=required, help="rational parameter b")

    term = sub.add_parser("term", help="print a single term")
    term.add_argument("--kind", required=True, choices=SCALAR_KINDS + MATRIX_KINDS)
    add_params(term)
    term.add_argument("--n", type=int, required=True)
    term.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    term.add_argument("--source", choices=("rec", "closed", "binet", "all"),
                      help="computation route for matrix kinds (default: closed)")
    term.set_defaults(func=cmd_term)

    table = sub.add_parser("table", help="print terms n..n-max")
    table.add_argument("--kind", required=True, choices=SCALAR_KINDS + MATRIX_KINDS)
    add_params(table)
    table.add_argument("--n", type=int, required=True)
    table.add_argument("--n-max", type=int, required=True, dest="n_max")
    table.add_argument("--format", choices=("plain", "json", "csv"), default="csv")
    table.add_argument("--source", choices=("rec", "closed", "binet", "all"))
    table.set_defaults(func=cmd_table)

    ser = sub.add_parser(
        "series", help="generating-function coefficients vs recurrence terms"
    )
    add_params(ser)
    ser.add_argument("--order", type=int, default=40)
    ser.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    ser.set_defaults(func=cmd_series)

    verify = sub.add_parser("verify", help="run the verification suite (JSON report)")
    add_params(verify, required=False)
    verify.add_argument("--grid", choices=("default",), default="default",
                        help="built-in parameter grid (ignored when --a/--b given)")
    verify.add_argument("--n-max", type=int, default=12, dest="n_max")
    verify.add_argument("--order", type=int, default=40,
                        help="series truncation order for the expansion checks")
    verify.add_argument("--timestamps", action="store_true",
                        help="add a generated_at field (off by default so output is reproducible)")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Exact terms outgrow the interpreter's int-to-str digit limit (4300 by
    # default where it exists), so printing them needs it lifted. Only for
    # the command itself: argument parsing keeps the limit on untrusted input.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limited:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
