"""Exact verification of the paper's identities: the product/power
identities tying F_n and L_n together, the scalar and determinant
cross-checks, and the series facts (generating function, inverse-power sums,
partial sums), with a uniform JSON-serializable report.

Every check is data, a row of the :data:`FAMILIES` table. One loop, :func:`_run`,
evaluates them all, over a grid for :func:`run_full_suite` and one row at one
index tuple for :func:`family_checks`. Failures are data, not exceptions: a
report with a populated ``failures`` list is still a well-formed result.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial
from itertools import islice
from typing import Callable, NamedTuple

from .exact import Mat2, _spelled, parse_rational
from .matrixseq import (
    cassini_lucas_sides,
    fib_matrix_binet,
    fib_matrix_closed,
    fib_matrix_rec_iter,
    lucas_det,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec_iter,
)
from .sequences import SeqParams, eps, fib_from_lucas_sides, l, lucas_from_fib_sides
from .series import (
    cleared_inverse_sums,
    direct_partial_sums,
    finite_inverse_sum_mismatch,
    first_generating_mismatch,
    first_infinite_mismatch,
    infinite_inverse_sum_series,
    lucas_generating_series,
    lucas_partial_sum,
)

GRID_VALUES = (Fraction(1), Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2),
               Fraction(-3, 2), Fraction(5, 3))


def default_grid() -> list[SeqParams]:
    """The built-in 7x7 parameter grid: signs, non-integers, a != b."""
    return [SeqParams(a, b) for a in GRID_VALUES for b in GRID_VALUES]


class ReportFormatError(ValueError):
    """A document given to :meth:`SuiteReport.from_json_dict` is not a
    well-formed suite report (missing key, wrong type, unparsable value)."""


class IdentityCheck(NamedTuple):
    """One checked relation: both sides at the given indices for ``params``,
    and whether they are equal. An immutable named tuple: fields by name or
    position, built positionally or by keyword; assigning a field raises
    AttributeError, and ``_replace`` makes a changed copy. A suite report
    keeps one per failing check; :func:`family_checks` returns one per check."""

    name: str
    index_args: tuple[int, ...]
    params: SeqParams
    lhs: Mat2 | Fraction | None
    rhs: Mat2 | Fraction | None
    holds: bool


class SkipRecord(NamedTuple):
    name: str
    reason: str


class ExpectedFailure(NamedTuple):
    check: IdentityCheck
    reason: str


def render_value(v):
    """Fraction -> "p/q" string, Mat2 -> nested string lists, None -> None."""
    if v is None:
        return None
    if isinstance(v, Mat2):
        e11, e12, e21, e22 = _spelled(v)
        return [[e11, e12], [e21, e22]]
    return str(v)


def parse_value(v):
    if v is None:
        return None
    if isinstance(v, str):
        return parse_rational(v)
    (r11, r12), (r21, r22) = v
    return Mat2(*map(parse_rational, (r11, r12, r21, r22)))


def _check_to_dict(c: IdentityCheck) -> dict:
    return {
        "name": c.name,
        "indices": list(c.index_args),
        "lhs": render_value(c.lhs),
        "rhs": render_value(c.rhs),
        "params": {"a": str(c.params.a), "b": str(c.params.b)},
    }


def _params_from_dict(d: dict) -> SeqParams:
    return SeqParams(parse_rational(d["a"]), parse_rational(d["b"]))


def _typed(value, kind: type, what: str):
    """``value`` if its type is exactly ``kind`` (so a bool is not an int),
    else TypeError."""
    if type(value) is not kind:
        raise TypeError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
    return value


def _check_from_dict(d: dict, holds: bool) -> IdentityCheck:
    params = _params_from_dict(d["params"])
    indices = tuple(_typed(i, int, "an index") for i in _typed(d["indices"], list, "indices"))
    return IdentityCheck(
        _typed(d["name"], str, "a name"), indices, params, parse_value(d["lhs"]),
        parse_value(d["rhs"]), holds,
    )


class SuiteReport:
    """Aggregate outcome of a verification run; order-independent tallies.
    Reports with equal fields are equal; each list defaults to a new one."""

    _FIELDS = ("suite", "params", "checks_run", "failures", "skipped", "expected_failures")

    def __init__(self, suite: str, params: list[SeqParams] | None = None, checks_run: int = 0,
                 failures: list[IdentityCheck] | None = None,
                 skipped: list[SkipRecord] | None = None,
                 expected_failures: list[ExpectedFailure] | None = None):
        self.suite, self.checks_run = suite, checks_run
        self.params, self.failures, self.skipped, self.expected_failures = (
            [] if v is None else v for v in (params, failures, skipped, expected_failures))

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._FIELDS)
        return f"SuiteReport({fields})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name, idx, params, lhs, rhs, negctl: str | None = None) -> None:
        """Count one check; a record is built only if it fails. A check with
        a ``negctl`` reason must fail: see :meth:`negative_control`."""
        if negctl is not None:
            check = IdentityCheck(name, tuple(idx), params, lhs, rhs, lhs == rhs)
            return self.negative_control(check, negctl)
        self.checks_run += 1
        if lhs != rhs:
            self.failures.append(IdentityCheck(name, tuple(idx), params, lhs, rhs, False))

    def negative_control(self, check: IdentityCheck, reason: str) -> None:
        """Count a check that must fail: failing, it is an expected failure;
        holding, it is a failure named ``<name>.unexpectedly-true``."""
        self.checks_run += 1
        if check.holds:
            self.failures.append(
                check._replace(name=f"{check.name}.unexpectedly-true", holds=False)
            )
        else:
            self.expected_failures.append(ExpectedFailure(check, reason))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": [{"a": str(p.a), "b": str(p.b)} for p in self.params],
            "checks_run": self.checks_run,
            "failures": [_check_to_dict(c) for c in self.failures],
            "skipped": [{"name": s.name, "reason": s.reason} for s in self.skipped],
            "expected_failures": [
                {**_check_to_dict(x.check), "reason": x.reason}
                for x in self.expected_failures
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> SuiteReport:
        """Rebuild a report from :meth:`to_json_dict` output.

        Raises :class:`ReportFormatError` if ``d`` is not such a document.
        """
        try:
            return cls(
                suite=_typed(d["suite"], str, "'suite'"),
                params=[_params_from_dict(p) for p in d["params"]],
                checks_run=_typed(d["checks_run"], int, "'checks_run'"),
                failures=[_check_from_dict(c, holds=False) for c in d["failures"]],
                skipped=[SkipRecord(_typed(s["name"], str, "a name"),
                                    _typed(s["reason"], str, "a reason")) for s in d["skipped"]],
                expected_failures=[ExpectedFailure(_check_from_dict(c, holds=False),
                                                   _typed(c["reason"], str, "a reason"))
                                   for c in d.get("expected_failures", [])],
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ReportFormatError(f"malformed suite report: {exc!r}") from exc


class PairSides:
    """The matrix sides one pair's checks share, each computed once.

    ``fib`` and ``lucas`` map k to F_k and L_k by the closed form, each
    index computed once, and ``fib_ab4`` maps k to (ab+4) F_k. For such
    terms X and Y the store keeps the products X_i Y_j, the powers X_k^m,
    the scaled sides (b/a)^e X_k^m and the terms of each one-step walk it
    reads, so a side that several checks share is made once. Build one per
    pair and drop it with the pair.
    """

    __slots__ = ("params", "by", "fib", "lucas", "fib_ab4",
                 "_products", "_powers", "_scaled", "_walks")

    def __init__(self, params: SeqParams):
        fib = cache(lambda k: fib_matrix_closed(params, k))
        lucas = cache(lambda k: lucas_matrix_closed(params, k))
        self.params, self.fib, self.lucas = params, fib, lucas
        self.by = params.ratio_times
        ab4 = params.ab + 4
        self.fib_ab4 = cache(lambda k: ab4 * fib(k))
        self._products, self._powers, self._scaled, self._walks = {}, {}, {}, {}

    def product(self, x, i: int, y, j: int) -> Mat2:
        """x(i) * y(j)."""
        value = self._products.get((x, i, y, j))
        if value is None:
            value = self._products[x, i, y, j] = x(i) * y(j)
        return value

    def power(self, term, k: int, m: int) -> Mat2:
        """term(k) ** m for m >= 0 (ValueError for m < 0): the square is a
        product, and a higher power is grown as term(k) ** (m-1) * term(k),
        so a run over increasing m costs one multiply per step."""
        value = self._powers.get((term, k, m))
        if value is None:
            if m < 0:
                raise ValueError("a power needs m >= 0")
            value = self._powers[term, k, m] = (
                self.power(term, k, m - 1) * term(k) if m > 2
                else self.product(term, k, term, k) if m == 2
                else term(k) if m else Mat2.identity())
        return value

    def scaled(self, e: int, term, k: int, m: int = 1) -> Mat2:
        """(b/a)^e * term(k) ** m."""
        value = self._scaled.get((e, term, k, m))
        if value is None:
            value = self._scaled[e, term, k, m] = self.by(e, self.power(term, k, m))
        return value

    def walked(self, start, k: int, *args):
        """Term k >= 0 of the one-step walk ``start(params, *args)``, such as
        :func:`fib_matrix_rec_iter` or :func:`direct_partial_sums`: started
        once per ``(start, *args)``, its terms kept."""
        key = (start, *args)
        if key not in self._walks:
            self._walks[key] = ([], start(self.params, *args))
        terms, steps = self._walks[key]
        terms.extend(islice(steps, max(0, k + 1 - len(terms))))
        return terms[k]


class Record(NamedTuple):
    """One relation of the paper: ``members(sides, *indices)`` reads its
    members from the pair's :class:`PairSides`, and ``checks`` names each
    checked equality ``(name, i, j)`` of members i and j, so a chained or
    commuted relation fails check by check. Where ``when(sides, *indices)``
    is false the suite skips it, reporting a ``skip`` reason once per pair.
    A ``negctl`` record is false by construction: its checks must fail. If
    ``extra`` is set, member ``extra`` is a tuple of indices its checks
    report after the domain's, such as where a series first differs."""

    members: Callable[..., tuple]
    checks: tuple[tuple[str, int, int], ...]
    when: Callable[..., bool] | None = None
    skip: str | None = None
    negctl: str | None = None
    extra: int | None = None


class Family(NamedTuple):
    """Records run at each index tuple of ``domain(max_index, order)``, in
    order. A ``series`` family needs a series order, and a suite lists its
    output after that of every pair's other families."""

    domain: Callable[[int, int | None], list[tuple[int, ...]]]
    records: tuple[Record, ...]
    series: bool = False


def _eq(name: str, members, **kw) -> Record:
    return Record(members, ((name, 0, 1),), **kw)


def _series(domain, name: str, members, extra: int | None = 2, negctl=None) -> Family:
    return Family(domain, (_eq(name, members, extra=extra, negctl=negctl),), series=True)


def _first_mismatch(s: PairSides, order: int, mismatch, expand, **kw) -> tuple:
    """The series ``expand`` against L_k of the pair's walk at the first k <
    order where ``mismatch`` finds them apart: (coefficient, L_k, (k,)), or
    (None, None, ()); long division is prefix-stable, so k + 1 suffice."""
    rec = partial(s.walked, lucas_matrix_rec_iter)
    k = mismatch(s.params, order, lucas=rec, **kw)
    if k is None:
        return None, None, ()
    return expand(s.params, k + 1, **kw)[k], rec(k), (k,)


def _finite_sum(s: PairSides, n: int, negative_control: bool = False) -> tuple:
    """The cleared sides of the truncated inverse-power sum at n, at their
    first differing exponent e: (lhs, rhs, (e,)), or (None, None, ())."""
    lhs = s.walked(cleared_inverse_sums, n, s.lucas)
    mismatch = finite_inverse_sum_mismatch(s.params, n, negative_control, s.lucas, lhs)
    if mismatch is None:
        return None, None, ()
    e, lhs, rhs = mismatch
    return lhs, rhs, (e,)


_upto = lambda N, _: [(n,) for n in range(N + 1)]
_at_order = lambda _, order: [(order,)]
_BINET = dict(when=lambda s, n: s.params.binet_allowed,
              skip="ab = -4 degenerate (a={p.a}, b={p.b})")

_NEGCTL_REASON = (
    "negative control: this transcription variant is false by construction; "
    "its failure proves the checker can fail"
)

# What verify checks: one family per index domain, in run order. ``s`` is the
# pair's PairSides: s.fib, s.lucas and s.fib_ab4 are k -> F_k, L_k and
# (ab+4) F_k by the closed form, and s.by(e, x) is (b/a)^e x. The series rows
# call the series functions by their names here, so a rebinding is seen.
FAMILIES = {
    # scalar forms, determinant and entries of L_n, Cassini; n = -N..N
    "cross": Family(lambda N, _: [(n,) for n in range(-N, N + 1)], (
        _eq("lucas-from-fib", lambda s, n: lucas_from_fib_sides(s.params, n)),
        _eq("fib-from-lucas", lambda s, n: fib_from_lucas_sides(s.params, n)),
        _eq("det.formula", lambda s, n: (lucas_det(s.params, n), s.lucas(n).det())),
        _eq("entries.l", lambda s, n: (s.lucas(n).e12, l(s.params, n))),
        _eq("entries.l-scaled", lambda s, n: (s.lucas(n).e21, s.params.a_over_b * l(s.params, n))),
        _eq("cassini", lambda s, n: cassini_lucas_sides(s.params, n), when=lambda s, n: n >= 1),
    )),
    # the one-step walk and Binet against the closed form; n = 0..N
    "triple": Family(_upto, (
        _eq("triple.fib.rec-closed", lambda s, n: (s.walked(fib_matrix_rec_iter, n), s.fib(n))),
        _eq("triple.lucas.rec-closed",
            lambda s, n: (s.walked(lucas_matrix_rec_iter, n), s.lucas(n))),
        _eq("triple.fib.binet-closed", lambda s, n: (fib_matrix_binet(s.params, n), s.fib(n)),
            **_BINET),
        _eq("triple.lucas.binet-closed",
            lambda s, n: (lucas_matrix_binet(s.params, n), s.lucas(n)), **_BINET),
    )),
    # Theorem 6, L_0 and F_1 products; n = 0..N. The middle member of iii
    # is the brute-force-validated ratio; the control inverts it.
    "thm6": Family(_upto, (
        Record(lambda s, n: (s.product(s.lucas, 0, s.fib, n), s.scaled(eps(n), s.lucas, n),
                             s.by(-eps(n + 1), s.fib(n - 1) + s.fib(n + 1))),
               (("thm6.i.1", 0, 1), ("thm6.i.2", 1, 2))),
        _eq("thm6.ii",
            lambda s, n: (s.product(s.fib, n, s.lucas, 0), s.product(s.lucas, 0, s.fib, n))),
        Record(lambda s, n: (s.product(s.fib, 1, s.lucas, n),
                             s.by(-eps(n), s.fib(n + 2) + s.fib(n)),
                             s.scaled(eps(n + 1), s.lucas, n + 1)),
               (("thm6.iii.1", 0, 1), ("thm6.iii.2", 1, 2))),
        _eq("thm6.iv",
            lambda s, n: (s.product(s.lucas, n, s.fib, 1), s.product(s.fib, 1, s.lucas, n))),
    )),
    # F_1 L_n against (b/a)^eps(n) (F_{n+2} + F_n): false at odd n when
    # a^2 != b^2, the true form when b/a = +-1; n = 1 if N >= 1
    "thm6 control": Family(lambda N, _: [(1,)] if N >= 1 else [], (
        _eq("thm6.iii.negctl",
            lambda s, n: (s.product(s.fib, 1, s.lucas, n), s.by(eps(n), s.fib(n + 2) + s.fib(n))),
            when=lambda s, n: s.params.a ** 2 != s.params.b ** 2,
            negctl="negative control: inverted-ratio middle member is "
                   "false at odd n whenever a^2 != b^2"),
    )),
    # Theorem 7, addition laws, commuted and closed; m, n = 0..N
    "thm7": Family(lambda N, _: [(m, n) for m in range(N + 1) for n in range(N + 1)], (
        Record(lambda s, m, n: (s.product(s.fib, m, s.fib, n), s.product(s.fib, n, s.fib, m),
                                s.scaled(eps(m * n), s.fib, m + n)),
               (("thm7.i.comm", 0, 1), ("thm7.i.closed", 0, 2))),
        Record(lambda s, m, n: (s.product(s.fib, m, s.lucas, n), s.product(s.lucas, n, s.fib, m),
                                s.scaled(eps(m) * eps(n + 1), s.lucas, m + n)),
               (("thm7.ii.comm", 0, 1), ("thm7.ii.closed", 0, 2))),
        Record(lambda s, m, n: (s.product(s.lucas, m, s.lucas, n),
                                s.product(s.lucas, n, s.lucas, m),
                                s.scaled(eps(m + 1) * eps(n + 1) - 2, s.fib_ab4, m + n)),
               (("thm7.iii.comm", 0, 1), ("thm7.iii.closed", 0, 2))),
    )),
    # Theorem 8, powers F_n^m (F^0 = I); n = 0..N outer, m = 0..N inner
    "thm8 power": Family(lambda N, _: [(m, n) for n in range(N + 1) for m in range(N + 1)], (
        _eq("thm8.i",
            lambda s, m, n: (s.power(s.fib, n, m), s.scaled((m // 2) * eps(n), s.fib, m * n))),
        _eq("thm8.ii", lambda s, m, n: (s.power(s.fib, n + 1, m), s.by(
            -((m + 1) // 2) * eps(n), s.power(s.fib, 1, m) * s.fib(m * n)))),
        _eq("thm8.v", lambda s, m, n: (s.power(s.lucas, 0, m) * s.fib(m * n), s.by(
            ((m + 1) // 2) * eps(n), s.power(s.lucas, n, m)))),
    )),
    # Theorem 8, products at spread n - r, n + r; n = 0..N, r = 0..n. The
    # sign (-1)^n is written 1 - 2 eps(n), an int for n < 0 too.
    "thm8 spread": Family(lambda N, _: [(n, r) for n in range(N + 1) for r in range(n + 1)], (
        Record(lambda s, n, r: (s.product(s.fib, n - r, s.fib, n + r),
                                s.scaled(eps(n - r), s.fib, 2, n),
                                s.scaled((1 - 2 * eps(n)) * eps(r), s.fib, n, 2)),
               (("thm8.iii.1", 0, 1), ("thm8.iii.2", 1, 2))),
        _eq("thm8.iv", lambda s, n, r: (s.product(s.lucas, n - r, s.lucas, n + r),
                                        s.scaled((2 * eps(n) - 1) * eps(r), s.lucas, n, 2))),
    )),
    # The series facts of L_k, each reported where it first fails: the
    # generating function and the full inverse-power sum to ``order``
    # coefficients, the truncated sum at n = 0..N, the closed partial sum
    # at n = 1..N against the direct one, and two sign-slipped controls.
    "genfunc.coeffs": _series(_at_order, "genfunc.coeffs", lambda s, order: _first_mismatch(
        s, order, first_generating_mismatch, lucas_generating_series)),
    "invsum.finite": _series(_upto, "invsum.finite", _finite_sum),
    "invsum.infinite": _series(_at_order, "invsum.infinite", lambda s, order: _first_mismatch(
        s, order, first_infinite_mismatch, infinite_inverse_sum_series)),
    "partialsum": _series(lambda N, _: [(n,) for n in range(1, N + 1)], "partialsum", lambda s, n: (
        lucas_partial_sum(s.params, n, s.lucas), s.walked(direct_partial_sums, n)), extra=None),
    "invsum.finite.negctl": _series(lambda *_: [(2,)], "invsum.finite.negctl",
                                    lambda s, n: _finite_sum(s, n, True), negctl=_NEGCTL_REASON),
    "invsum.infinite.negctl": _series(
        lambda *_: [(8,)], "invsum.infinite.negctl", lambda s, order: _first_mismatch(
            s, order, first_infinite_mismatch, infinite_inverse_sum_series, negative_control=True),
        negctl=_NEGCTL_REASON),
}


def _run(records, indices, sides: PairSides, emit, skipped: dict | None = None) -> int:
    """The one loop that evaluates a check: at each of ``indices``, each
    record makes its members once and passes each check to ``emit(name, idx,
    params, lhs, rhs, negctl)``, idx extended by the record's ``extra``
    member if it has one. ``skipped``, if given, makes it a suite run: the
    predicates are on, each ruled-out record's checks map to its skip reason,
    and a holding check of a record with no ``negctl`` or ``extra`` is only
    counted. Returns that count."""
    params = sides.params
    held = 0
    for idx in indices:
        args = (sides, *idx)
        for members, pairs, when, skip, negctl, extra in records:
            if when is not None and skipped is not None and not when(*args):
                if skip is not None:
                    skipped[pairs] = skip
                continue
            s = members(*args)
            counted = skipped is not None and negctl is None and extra is None
            at = idx if extra is None else idx + s[extra]
            for name, i, j in pairs:
                if counted and s[i] == s[j]:
                    held += 1
                else:
                    emit(name, at, params, s[i], s[j], negctl)
    return held


def family_checks(family: str, params: SeqParams, *idx: int) -> list[IdentityCheck]:
    """The checks of the :data:`FAMILIES` row ``family`` at ``idx`` for
    ``params``, one :class:`IdentityCheck` per check: ``family_checks("thm7",
    p, m, n)`` or ``family_checks("thm6", p, n)``. Its predicates are set
    aside, so the ``triple`` row raises ``BinetDegenerate`` at ab = -4.
    Raises ValueError for an unknown family or a wrong number of indices."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; one of {', '.join(map(repr, FAMILIES))}")
    # every domain holds an index tuple at N = 1
    arity = len(FAMILIES[family].domain(1, 1)[0])
    if len(idx) != arity:
        raise ValueError(f"family {family!r} takes {arity} indices, not {len(idx)}")
    checks = []
    _run(FAMILIES[family].records, [idx], PairSides(params),
         lambda name, at, p, lhs, rhs, _: checks.append(
             IdentityCheck(name, at, p, lhs, rhs, lhs == rhs)))
    return checks


# Two runners that are ``_run`` under the names perfbench's tracer patches and
# its verify-grid must-work list reads (ROADMAP item 1); run_full_suite looks
# them up by module name on each run, so a patched one is the one it calls.
def thm6_suite(records, indices, sides: PairSides, emit, skipped: dict | None = None) -> int:
    return _run(records, indices, sides, emit, skipped)


def thm7_suite(records, indices, sides: PairSides, emit, skipped: dict | None = None) -> int:
    return _run(records, indices, sides, emit, skipped)


def run_full_suite(grid, max_index: int, suite: str = "identities",
                   order: int | None = None) -> SuiteReport:
    """The one suite entry point: run the families of :data:`FAMILIES` over
    every grid pair, one :class:`PairSides` per pair, for all indices up to
    max_index. The ``series`` families run only if a series ``order`` is
    given, and their output is listed after every pair's other output.
    Returns counts plus the failing records only; degenerate (ab = -4) pairs
    skip the Binet rows with a reason. Each family is one call per pair: of
    :func:`thm6_suite` or :func:`thm7_suite` for its row, else of ``_run``."""
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    report = SuiteReport(suite=suite, params=list(grid))
    tail = SuiteReport(suite=suite)
    runners = {"thm6": thm6_suite, "thm7": thm7_suite}
    plan = [(runners.get(name, _run), family, family.domain(max_index, order))
            for name, family in FAMILIES.items() if order is not None or not family.series]
    for params in report.params:
        # one store per pair, so the pair's shared sides are freed with it
        sides = PairSides(params)
        for run, family, indices in plan:
            out = tail if family.series else report
            skipped = {}
            held = run(family.records, indices, sides, out.record, skipped)
            out.checks_run += held  # after the run, whose emits add to the count too
            out.skipped.extend(SkipRecord(check, why.format(p=params))
                               for pairs, why in skipped.items() for check, _, _ in pairs)
    report.checks_run += tail.checks_run
    report.failures += tail.failures
    report.skipped += tail.skipped
    report.expected_failures += tail.expected_failures
    return report
