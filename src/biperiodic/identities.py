"""Exact verification of the product/power identities tying F_n and L_n
together, the scalar and determinant cross-checks, and the series facts
(generating function, inverse-power sums, partial sums), with a uniform
JSON-serializable report.

The identities are data, the :data:`FAMILIES` table, and one loop runs them.
Failures are data, not exceptions: a report with a populated ``failures``
list is still a well-formed result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import islice
from typing import Callable, NamedTuple

from .exact import Mat2, parse_rational
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
    keeps one per failing check; the theorem views return one per check."""

    name: str
    index_args: tuple[int, ...]
    params: SeqParams
    lhs: Mat2 | Fraction | None
    rhs: Mat2 | Fraction | None
    holds: bool


@dataclass(frozen=True)
class SkipRecord:
    name: str
    reason: str


@dataclass(frozen=True)
class ExpectedFailure:
    check: IdentityCheck
    reason: str


def render_value(v):
    """Fraction -> "p/q" string, Mat2 -> nested string lists, None -> None."""
    if v is None:
        return None
    if isinstance(v, Mat2):
        return [[str(v.e11), str(v.e12)], [str(v.e21), str(v.e22)]]
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


@dataclass
class SuiteReport:
    """Aggregate outcome of a verification run; order-independent tallies."""

    suite: str
    params: list[SeqParams] = field(default_factory=list)
    checks_run: int = 0
    failures: list[IdentityCheck] = field(default_factory=list)
    skipped: list[SkipRecord] = field(default_factory=list)
    expected_failures: list[ExpectedFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def tally(self, *checks: IdentityCheck) -> None:
        self.checks_run += len(checks)
        self.failures.extend(c for c in checks if not c.holds)

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

    def merged_with(self, other: SuiteReport, suite: str | None = None) -> SuiteReport:
        params = list(self.params)
        params.extend(p for p in other.params if p not in params)
        return SuiteReport(
            suite=suite if suite is not None else self.suite,
            params=params,
            checks_run=self.checks_run + other.checks_run,
            failures=self.failures + other.failures,
            skipped=self.skipped + other.skipped,
            expected_failures=self.expected_failures + other.expected_failures,
        )

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


def pair_providers(params):
    """k -> F_k and k -> L_k by the closed form, each index computed once.
    The suite runners take it as their ``providers``; a cached copy shared
    by two runs builds each matrix once."""
    return (cache(lambda k: fib_matrix_closed(params, k)),
            cache(lambda k: lucas_matrix_closed(params, k)))


class PairSides:
    """The matrix sides one pair's checks share, each computed once.

    ``fib`` and ``lucas`` are the pair's providers, both or neither given
    (default :func:`pair_providers`), and ``fib_ab4`` maps k to (ab+4) F_k.
    For such terms X and Y the store keeps the products X_i Y_j, the powers
    X_k^m, the scaled sides (b/a)^e X_k^m and the terms of each one-step
    walk it reads, so a side that several checks share is made once. Build
    one per pair and drop it with the pair.
    """

    __slots__ = ("params", "by", "fib", "lucas", "fib_ab4",
                 "_products", "_powers", "_scaled", "_walks")

    def __init__(self, params: SeqParams, fib=None, lucas=None):
        if fib is None:
            fib, lucas = pair_providers(params)
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
        """term(k) ** m for m >= 0: the square is a product, and a higher
        power is grown as term(k) ** (m-1) * term(k), so a run over
        increasing m costs one multiply per step."""
        value = self._powers.get((term, k, m))
        if value is None:
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

    def walked(self, start, k: int) -> Mat2:
        """Term k >= 0 of the one-step walk ``start(params)``, such as
        :func:`fib_matrix_rec_iter`: started once, its terms kept."""
        if start not in self._walks:
            self._walks[start] = ([], start(self.params))
        terms, steps = self._walks[start]
        terms.extend(islice(steps, max(0, k + 1 - len(terms))))
        return terms[k]


class Record(NamedTuple):
    """One relation of the paper: ``members(sides, *indices)`` reads its
    members from the pair's :class:`PairSides`, and ``checks`` names each
    checked equality ``(name, i, j)`` of members i and j, so a chained or
    commuted relation fails check by check. Where ``when(sides, *indices)``
    is false the suite skips it, reporting a ``skip`` reason once per pair.
    A ``negctl`` record is false by construction: its checks must fail."""

    members: Callable[..., tuple]
    checks: tuple[tuple[str, int, int], ...]
    when: Callable[..., bool] | None = None
    skip: str | None = None
    negctl: str | None = None


class Family(NamedTuple):
    """Records run at each index tuple of ``domain(max_index)``, in order."""

    domain: Callable[[int], list[tuple[int, ...]]]
    records: tuple[Record, ...]


def _eq(name: str, members, **kw) -> Record:
    return Record(members, ((name, 0, 1),), **kw)


_upto = lambda N: [(n,) for n in range(N + 1)]
_BINET = dict(when=lambda s, n: s.params.binet_allowed,
              skip="ab = -4 degenerate (a={p.a}, b={p.b})")

# What run_full_suite checks: one family per index domain, in run order. ``s``
# is the pair's PairSides: s.fib, s.lucas and s.fib_ab4 are k -> F_k, L_k and
# (ab+4) F_k by the closed form, and s.by(e, x) is (b/a)^e x.
FAMILIES = {
    # scalar forms, determinant and entries of L_n, Cassini; n = -N..N
    "cross": Family(lambda N: [(n,) for n in range(-N, N + 1)], (
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
    "thm6 control": Family(lambda N: [(1,)] if N >= 1 else [], (
        _eq("thm6.iii.negctl",
            lambda s, n: (s.product(s.fib, 1, s.lucas, n), s.by(eps(n), s.fib(n + 2) + s.fib(n))),
            when=lambda s, n: s.params.a ** 2 != s.params.b ** 2,
            negctl="negative control: inverted-ratio middle member is "
                   "false at odd n whenever a^2 != b^2"),
    )),
    # Theorem 7, addition laws, commuted and closed; m, n = 0..N
    "thm7": Family(lambda N: [(m, n) for m in range(N + 1) for n in range(N + 1)], (
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
    "thm8 power": Family(lambda N: [(m, n) for n in range(N + 1) for m in range(N + 1)], (
        _eq("thm8.i",
            lambda s, m, n: (s.power(s.fib, n, m), s.scaled((m // 2) * eps(n), s.fib, m * n))),
        _eq("thm8.ii", lambda s, m, n: (s.power(s.fib, n + 1, m), s.by(
            -((m + 1) // 2) * eps(n), s.power(s.fib, 1, m) * s.fib(m * n)))),
        _eq("thm8.v", lambda s, m, n: (s.power(s.lucas, 0, m) * s.fib(m * n), s.by(
            ((m + 1) // 2) * eps(n), s.power(s.lucas, n, m)))),
    )),
    # Theorem 8, products at spread n - r, n + r; n = 0..N, r = 0..n
    "thm8 spread": Family(lambda N: [(n, r) for n in range(N + 1) for r in range(n + 1)], (
        Record(lambda s, n, r: (s.product(s.fib, n - r, s.fib, n + r),
                                s.scaled(eps(n - r), s.fib, 2, n),
                                s.scaled((-1) ** n * eps(r), s.fib, n, 2)),
               (("thm8.iii.1", 0, 1), ("thm8.iii.2", 1, 2))),
        _eq("thm8.iv", lambda s, n, r: (s.product(s.lucas, n - r, s.lucas, n + r),
                                        s.scaled(-(-1) ** n * eps(r), s.lucas, n, 2))),
    )),
}


def _run(records, indices, sides: PairSides, emit, skipped: dict | None = None) -> None:
    """The one loop that evaluates table records: at each of ``indices``, each
    record makes its members once and passes each check to ``emit(name, idx,
    params, lhs, rhs, negctl)``. ``skipped``, if given, turns the predicates
    on and maps each ruled-out record's checks to its skip reason."""
    params = sides.params
    for idx in indices:
        args = (sides, *idx)
        for members, pairs, when, skip, negctl in records:
            if when is not None and skipped is not None and not when(*args):
                if skip is not None:
                    skipped[pairs] = skip
                continue
            s = members(*args)
            for name, i, j in pairs:
                emit(name, idx, params, s[i], s[j], negctl)


def _view(family: str, params: SeqParams, idx: tuple, sides=None, emit=None) -> list[IdentityCheck]:
    """The checks of ``family``'s records at ``idx``, predicates aside, as
    full records; given ``emit``, they go there instead."""
    checks = []
    if emit is None:
        def emit(name, index_args, p, lhs, rhs, _):
            checks.append(IdentityCheck(name, index_args, p, lhs, rhs, lhs == rhs))
    _run(FAMILIES[family].records, [idx], sides or PairSides(params), emit)
    return checks


def thm6_suite(params: SeqParams, n: int, *, sides: PairSides | None = None,
               emit=None) -> list[IdentityCheck]:
    """Theorem 6's L_0/F_1 product identities at index n (six records; n may
    be 0 or negative). ``sides``, a :class:`PairSides` for ``params``, shares
    its sides; ``emit``, such as :meth:`SuiteReport.record`, takes the checks
    instead of the returned list."""
    return _view("thm6", params, (n,), sides, emit)


def thm6_iii_variant(params: SeqParams, n: int) -> IdentityCheck:
    """Negative control: the thm6.iii middle member with the ratio inverted,
    F_1 L_n vs (b/a)^eps(n) (F_{n+2} + F_n). False for every odd n whenever
    a^2 != b^2 (exponent search over the grid returns -eps(n) uniquely); the
    true form when b/a is +-1."""
    return _view("thm6 control", params, (n,))[0]


def thm7_suite(params: SeqParams, m: int, n: int, *, sides: PairSides | None = None,
               emit=None) -> list[IdentityCheck]:
    """Theorem 7's addition laws F_m F_n, F_m L_n, L_m L_n, commuted and
    closed (six records). ``sides`` and ``emit`` are as in :func:`thm6_suite`."""
    return _view("thm7", params, (m, n), sides, emit)


def thm8_suite(params: SeqParams, m: int, n: int, r: int) -> list[IdentityCheck]:
    """Theorem 8's identities for F_n^m and for products at spread n-r, n+r."""
    if m < 0 or r < 0 or n < r:
        raise ValueError("need m >= 0 and n >= r >= 0")
    sides = PairSides(params)
    return _view("thm8 power", params, (m, n), sides) + _view("thm8 spread", params, (n, r), sides)


def run_full_suite(grid, max_index: int, suite: str = "identities",
                   providers=pair_providers) -> SuiteReport:
    """Run every family of :data:`FAMILIES` over every grid pair, for all
    indices up to max_index. Returns counts plus the failing records only;
    degenerate (ab = -4) pairs skip the Binet rows with a reason. Each
    pair's k -> F_k and k -> L_k come from ``providers(params)``."""
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    report = SuiteReport(suite=suite, params=list(grid))
    # perfbench traces thm6_suite and thm7_suite by name, and its rot guard
    # fails if either span reads zero on verify-grid. So these two families
    # run through their views, looked up by module name on each call and
    # emitting into the report, until the must-work lists stop naming them.
    views = {"thm6": thm6_suite, "thm7": thm7_suite}
    for params in report.params:
        # one store per pair, so the pair's shared sides are freed with it
        sides = PairSides(params, *providers(params))
        for name, family in FAMILIES.items():
            indices = family.domain(max_index)
            if name in views:
                for idx in indices:
                    views[name](params, *idx, sides=sides, emit=report.record)
                continue
            skipped = {}
            _run(family.records, indices, sides, report.record, skipped)
            report.skipped.extend(SkipRecord(check, why.format(p=params))
                                  for pairs, why in skipped.items() for check, _, _ in pairs)
    return report


_NEGCTL_REASON = (
    "negative control: this transcription variant is false by construction; "
    "its failure proves the checker can fail"
)


def _coefficient_check(name, params, order, lucas, first_mismatch, expand, **kw) -> IdentityCheck:
    """The series ``expand`` against ``lucas(k)`` at its first mismatch k, if any."""
    k = first_mismatch(params, order, **kw)
    if k is None:
        return IdentityCheck(name, (order,), params, None, None, True)
    got = expand(params, order, **kw)[k]
    return IdentityCheck(name, (order, k), params, got, lucas(k), False)


def _finite_inverse_sum_check(name, params, n, lucas, negative_control=False) -> IdentityCheck:
    mismatch = finite_inverse_sum_mismatch(params, n, negative_control, lucas)
    if mismatch is None:
        return IdentityCheck(name, (n,), params, None, None, True)
    exponent, lhs, rhs = mismatch
    return IdentityCheck(name, (n, exponent), params, lhs, rhs, False)


def run_series_suite(grid, max_index: int, order: int,
                     providers=pair_providers) -> SuiteReport:
    """Check the series facts of the Lucas matrix sequence for every grid
    pair: the generating function and the full inverse-power sum to
    ``order`` coefficients, the truncated inverse-power sum and the closed
    partial sum for n up to max_index, and two negative controls.
    ``providers(params)`` gives each pair's k -> L_k (second item)."""
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    report = SuiteReport(suite="series", params=list(grid))
    for params in report.params:
        _, lucas = providers(params)
        report.tally(_coefficient_check(
            "genfunc.coeffs", params, order, lucas, first_generating_mismatch,
            lucas_generating_series,
        ))
        for n in range(0, max_index + 1):
            report.tally(_finite_inverse_sum_check("invsum.finite", params, n, lucas))
        report.tally(_coefficient_check(
            "invsum.infinite", params, order, lucas, first_infinite_mismatch,
            infinite_inverse_sum_series,
        ))
        sums = islice(direct_partial_sums(params), 1, max_index + 1)
        for n, direct in enumerate(sums, start=1):
            report.record("partialsum", (n,), params, lucas_partial_sum(params, n, lucas), direct)
        report.negative_control(
            _finite_inverse_sum_check("invsum.finite.negctl", params, 2, lucas, True),
            _NEGCTL_REASON,
        )
        report.negative_control(
            _coefficient_check(
                "invsum.infinite.negctl", params, 8, lucas, first_infinite_mismatch,
                infinite_inverse_sum_series, negative_control=True,
            ),
            _NEGCTL_REASON,
        )
    return report
