"""Reference answers for benchmark requests, computed without ``biperiodic``.

Scalars come from the defining recurrences (q: coefficient a on even steps,
b on odd, q_0 = 0, q_1 = 1; l: b on even, a on odd, l_0 = 2, l_1 = a; below
zero the same recurrence runs backward). A range starts from an integer
two-step transfer-matrix power, a different algorithm from the library's
memoised recurrence, and then steps over plain Fractions. Matrix terms come
from the paper's closed form over those scalars:

    F_n = [[(b/a)^eps(n) q_{n+1}, (b/a) q_n], [q_n, (b/a)^eps(n) q_{n-1}]]
    L_n = [[(a/b)^eps(n) l_{n+1}, l_n], [(a/b) l_n, (a/b)^eps(n) l_{n-1}]]

``expected_stdout`` renders the exact text the CLI must print, so a request
counts as correct only if every value and the format agree.
"""

from __future__ import annotations

import json
from fractions import Fraction

SCALAR_KINDS = ("fib", "lucas")


def _mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _pair(v0, v1, even, odd, m):
    """(v_{2m}, v_{2m+1}) for m >= 0.

    An even step then an odd step maps (v_{2k}, v_{2k+1}) by
    [[1, even], [odd, 1 + odd*even]], which is integral after scaling by
    den = even.denominator * odd.denominator, so the power runs on ints and
    divides once at the end.
    """
    den = even.denominator * odd.denominator
    mat = (
        den,
        even.numerator * odd.denominator,
        odd.numerator * even.denominator,
        den + even.numerator * odd.numerator,
    )
    res = (1, 0, 0, 1)
    scale = den**m
    while m:
        if m & 1:
            res = _mul(res, mat)
        mat = _mul(mat, mat)
        m >>= 1
    return (res[0] * v0 + res[1] * v1) / scale, (res[2] * v0 + res[3] * v1) / scale


def scalar_terms(kind: str, a: Fraction, b: Fraction, lo: int, hi: int) -> dict:
    """{k: q_k or l_k} for lo <= k <= hi."""
    if kind == "fib":
        v0, v1, even, odd = Fraction(0), Fraction(1), a, b
    else:
        v0, v1, even, odd = Fraction(2), a, b, a
    vals = {}
    if lo >= 0:
        start = lo - lo % 2
        vals[start], vals[start + 1] = _pair(v0, v1, even, odd, start // 2)
    else:
        start = 0
        vals[0], vals[1] = v0, v1
        for m in range(-1, lo - 1, -1):
            # c(m+2) has the parity of m
            vals[m] = vals[m + 2] - (even if m % 2 == 0 else odd) * vals[m + 1]
    for k in range(start + 2, hi + 1):
        vals[k] = (even if k % 2 == 0 else odd) * vals[k - 1] + vals[k - 2]
    return {k: vals[k] for k in range(lo, hi + 1)}


def matrix_terms(kind: str, a: Fraction, b: Fraction, lo: int, hi: int) -> dict:
    """{n: (e11, e12, e21, e22)} of F_n ("fib-matrix") or L_n, lo <= n <= hi."""
    if kind == "fib-matrix":
        v = scalar_terms("fib", a, b, lo - 1, hi + 1)
        r = b / a
        return {
            n: (r ** (n & 1) * v[n + 1], r * v[n], v[n], r ** (n & 1) * v[n - 1])
            for n in range(lo, hi + 1)
        }
    v = scalar_terms("lucas", a, b, lo - 1, hi + 1)
    r = a / b
    return {
        n: (r ** (n & 1) * v[n + 1], v[n], r * v[n], r ** (n & 1) * v[n - 1])
        for n in range(lo, hi + 1)
    }


def _mat_str(m) -> str:
    return f"[[{m[0]}, {m[1]}], [{m[2]}, {m[3]}]]"


def _mat_json(m) -> list:
    return [[str(m[0]), str(m[1])], [str(m[2]), str(m[3])]]


def _mat_csv(m) -> str:
    return f"{m[0]},{m[1]},{m[2]},{m[3]}"


def _opts(argv: list[str]) -> dict:
    """'--key value' and '--key=value' pairs of one CLI request."""
    opts = {}
    it = iter(argv[1:])
    for tok in it:
        key, sep, val = tok.partition("=")
        opts[key.lstrip("-")] = val if sep else next(it)
    return opts


def expected_stdout(argv: list[str]) -> str:
    """Exact stdout of a ``term``, ``table`` or ``series`` request."""
    cmd, o = argv[0], _opts(argv)
    a, b = Fraction(o["a"]), Fraction(o["b"])
    if cmd == "series":
        order = int(o["order"])
        fmt = o.get("format", "plain")
        terms = matrix_terms("lucas-matrix", a, b, 0, order - 1)
        rows = [(k, terms[k]) for k in range(order)]
        if fmt == "json":
            out = json.dumps(
                [
                    {"index": k, "series": _mat_json(m), "recurrence": _mat_json(m), "match": True}
                    for k, m in rows
                ],
                separators=(",", ":"),
            )
        elif fmt == "csv":
            out = "\n".join(
                ["index,s11,s12,s21,s22,r11,r12,r21,r22,match"]
                + [f"{k},{_mat_csv(m)},{_mat_csv(m)},true" for k, m in rows]
            )
        else:
            out = "\n".join(
                f"{k}: series={_mat_str(m)} recurrence={_mat_str(m)} match=True"
                for k, m in rows
            )
        return out + "\n"

    kind = o["kind"]
    if cmd == "term":
        lo = hi = int(o["n"])
        fmt = o.get("format", "plain")
    else:
        lo, hi = int(o["n"]), int(o["n-max"])
        fmt = o.get("format", "csv")
    scalar = kind in SCALAR_KINDS
    values = scalar_terms(kind, a, b, lo, hi) if scalar else matrix_terms(kind, a, b, lo, hi)
    rows = sorted(values.items())
    if cmd == "term":
        ((n, v),) = rows
        if scalar:
            out = {"json": json.dumps(str(v)), "csv": f"index,value\n{n},{v}"}.get(fmt, str(v))
        elif fmt == "json":
            out = json.dumps(_mat_json(v), separators=(",", ":"))
        elif fmt == "csv":
            out = f"index,e11,e12,e21,e22\n{n},{_mat_csv(v)}"
        else:
            out = _mat_str(v)
    elif scalar:
        if fmt == "json":
            out = json.dumps(
                [{"index": n, "value": str(v)} for n, v in rows], separators=(",", ":")
            )
        elif fmt == "csv":
            out = "\n".join(["index,value"] + [f"{n},{v}" for n, v in rows])
        else:
            out = "\n".join(f"{n}: {v}" for n, v in rows)
    elif fmt == "json":
        out = json.dumps(
            [{"index": n, "matrix": _mat_json(m)} for n, m in rows], separators=(",", ":")
        )
    elif fmt == "csv":
        out = "\n".join(["index,e11,e12,e21,e22"] + [f"{n},{_mat_csv(m)}" for n, m in rows])
    else:
        out = "\n".join(f"{n}: {_mat_str(m)}" for n, m in rows)
    return out + "\n"


def verify_problem(argv: list[str], exit_code, stdout: str) -> str | None:
    """Why a ``verify --a --b`` reply is wrong, or None if it is right.

    Right means: exit 0, the single requested pair echoed, no failures,
    exactly the negative controls that must fail listed as expected
    failures, and the Binet comparisons skipped exactly when ab = -4.
    """
    if exit_code != 0:
        return f"exit code {exit_code}"
    o = _opts(argv)
    a, b = Fraction(o["a"]), Fraction(o["b"])
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    want_neg = ["invsum.finite.negctl", "invsum.infinite.negctl"]
    if a * a != b * b:
        want_neg.insert(0, "thm6.iii.negctl")
    want_skip = (
        ["triple.fib.binet-closed", "triple.lucas.binet-closed"] if a * b == -4 else []
    )
    got = (
        doc.get("suite"),
        doc.get("params"),
        doc.get("failures"),
        [x["name"] for x in doc.get("expected_failures", [])],
        [s["name"] for s in doc.get("skipped", [])],
    )
    want = ("full", [{"a": str(a), "b": str(b)}], [], want_neg, want_skip)
    if got != want:
        return f"report {got!r} differs from {want!r}"
    if not isinstance(doc.get("checks_run"), int) or doc["checks_run"] <= 0:
        return "checks_run missing or not positive"
    return None
