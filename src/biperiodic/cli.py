"""Command-line front end.

Subcommands: ``term`` (one value), ``table`` (a range), ``series``
(generating-function coefficients vs recurrence terms), ``verify`` (the full
machine-verification suite as a JSON report).

Exit codes: 0 success, 1 verification failure or stdout closed early, 2
usage or validation error. ``term`` and ``table`` read one producer of entry
texts, a term being the one-row range; they and ``series`` write each row as
soon as it is made, through one line template per command. All rationals
cross the wire as exact "p/q" strings. Output is deterministic unless
--timestamps is given. Note argparse needs the ``--a=-3/2`` form for
negative values.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache

from .exact import _fraction_text, _spelled, parse_rational
from .identities import default_grid, run_full_suite
from .matrixseq import (
    _closed_texts,
    _rec_range,
    fib_matrix_binet,
    fib_matrix_closed,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec_iter,
)
from .sequences import SeqParams, _range
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


def _rows(args, last: int):
    """(n, *texts) for n = ``args.n``..``last``, the entry texts of
    ``args.kind`` at n, after every check of the range against its source,
    so a rejected call writes nothing."""
    params = _make_params(args.a, args.b)
    kind, source, lo = args.kind, args.source, args.n
    if kind in SCALAR_KINDS and source not in (None, "rec"):
        raise CliError("--source applies to matrix kinds only")
    if last < lo:
        raise CliError("--n-max must be >= --n")
    if kind in SCALAR_KINDS:
        terms = _range(params._q if kind == "fib" else params._l, lo, last)
        return ((n, _fraction_text(*v)) for n, v in enumerate(terms, lo))
    source = source or "closed"
    if source in ("rec", "binet") and lo < 0:
        raise CliError(f"source '{source}' requires n >= 0; use --source closed")
    if source == "binet" and not params.binet_allowed:
        raise CliError("ab = -4 is degenerate: alpha = beta, Binet route unavailable")
    if source == "closed":
        texts = _closed_texts(params, kind == "fib-matrix", lo, last)
    else:
        texts = map(_spelled, _matrix_values(params, kind == "fib-matrix", source, lo, last))
    return ((n, *t) for n, t in enumerate(texts, lo))


def _matrix_values(params: SeqParams, fib: bool, source: str, lo: int, hi: int):
    """F_n (``fib``) or L_n for n = lo..hi by ``source``: Binet one power per
    row, ``rec`` one walk of the range and ``all`` the checked closed forms."""
    closed, binet = ((fib_matrix_closed, fib_matrix_binet) if fib
                     else (lucas_matrix_closed, lucas_matrix_binet))
    if source == "binet":
        return (binet(params, n) for n in range(lo, hi + 1))
    walk = _rec_range(params, fib, max(lo, 0), hi)
    return walk if source == "rec" else _checked(params, closed, binet, walk, lo, hi)


def _checked(params: SeqParams, closed, binet, walk, lo: int, hi: int):
    """The closed form of each row n = lo..hi, once ``walk``'s next matrix and
    Binet agree with it; below 0 only the closed form is defined, and Binet
    needs ab != -4."""
    for n in range(lo, hi + 1):
        values = [closed(params, n)]
        if n >= 0:
            values.append(next(walk))
            if params.binet_allowed:
                values.append(binet(params, n))
        if any(v != values[0] for v in values[1:]):
            raise CliError("computation routes disagree; please report this")
        yield values[0]


# The templates of a row's fields by format: a rational and a matrix
_RATIONAL = {"plain": "{}", "csv": "{}", "json": '"{}"'}
_MATRIX = {"plain": "[[{}, {}], [{}, {}]]", "csv": "{},{},{},{}",
           "json": '[["{}","{}"],["{}","{}"]]'}
# By kind: the csv header of a term's or table's rows, their one field's key and templates
_LAYOUT = {**dict.fromkeys(SCALAR_KINDS, ("index,value", "value", _RATIONAL)),
           **dict.fromkeys(MATRIX_KINDS, ("index,e11,e12,e21,e22", "matrix", _MATRIX))}


def _write_rows(fmt: str, header: str, fields, rows) -> None:
    """Write each (index, *texts) of ``rows`` to stdout as soon as it is
    made, through one line template joined from ``fields``' (key, template)
    pairs: csv lines after ``header``, one JSON array of objects, or plain
    "index: value" lines (``key=value`` fields when a row has several)."""
    write = sys.stdout.write
    if fmt == "csv":
        write(header + "\n")
        line = ",".join(["{}", *(t for _, t in fields)]) + "\n"
    elif fmt == "json":
        write("[")
        line = '{{"index":{}' + "".join(f',"{key}":{t}' for key, t in fields) + "}}"
    elif len(fields) == 1:
        line = "{}: " + fields[0][1] + "\n"
    else:
        line = "{}: " + " ".join(f"{key}={t}" for key, t in fields) + "\n"
    rest = "," + line if fmt == "json" else line
    for row in rows:
        write(line.format(*row))
        line = rest
    if fmt == "json":
        write("]\n")


def cmd_term(args) -> int:
    row = next(_rows(args, args.n))
    header, key, field = _LAYOUT[args.kind]
    if args.format == "csv":
        _write_rows("csv", header, [(key, field["csv"])], [row])
    else:
        sys.stdout.write(field[args.format].format(*row[1:]) + "\n")
    return 0


def cmd_table(args) -> int:
    header, key, field = _LAYOUT[args.kind]
    _write_rows(args.format, header, [(key, field[args.format])], _rows(args, args.n_max))
    return 0


def cmd_series(args) -> int:
    if args.order < 1:
        raise CliError("order must be >= 1")
    params = _make_params(args.a, args.b)
    fmt = args.format
    expansion = lucas_generating_series(params, args.order)
    match = ("False", "True") if fmt == "plain" else ("false", "true")
    rows = ((k, *_spelled(c), *_spelled(t), match[c == t])
            for k, (c, t) in enumerate(zip(expansion, lucas_matrix_rec_iter(params))))
    fields = [("series", _MATRIX[fmt]), ("recurrence", _MATRIX[fmt]), ("match", "{}")]
    _write_rows(fmt, "index,s11,s12,s21,s22,r11,r12,r21,r22,match", fields, rows)
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
    report = run_full_suite(_resolve_grid(args), args.n_max, "full", args.order)
    doc = report.to_json_dict()
    if args.timestamps:
        from datetime import datetime, timezone

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


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser :func:`main` reuses for every call in a process; parsing
    leaves no state in it, and building one costs about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    # argparse before 3.13 turns "--opt=--" into an empty list, unconverted
    if [] in vars(args).values():
        parser.error("'--' is not a value for an option")
    # Exact terms outgrow the interpreter's int-to-str digit limit (4300 by
    # default where it exists), so printing them needs it lifted. Only for
    # the command itself: argument parsing keeps the limit on untrusted input.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        old_limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout early, as `| head` does. As the Python docs'
        # SIGPIPE note advises, point stdout at devnull so that the flush at
        # exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        if limited:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
