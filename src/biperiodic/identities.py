"""Exact verification of the product/power identities tying F_n and L_n
together, the scalar and determinant cross-checks, and the series facts
(generating function, inverse-power sums, partial sums), with a uniform
JSON-serializable report.

Chained equalities are split into pairwise records so a failure localizes;
commutation and closed-form halves are separate records for the same reason.
Failures are data, not exceptions: a report with a populated ``failures``
list is still a well-formed result.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, partial
from itertools import islice

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

GRID_VALUES = (
    Fraction(1),
    Fraction(2),
    Fraction(3),
    Fraction(-1),
    Fraction(1, 2),
    Fraction(-3, 2),
    Fraction(5, 3),
)


def default_grid() -> list[SeqParams]:
    """The built-in 7x7 parameter grid: signs, non-integers, a != b."""
    return [SeqParams(a, b) for a in GRID_VALUES for b in GRID_VALUES]


class ReportFormatError(ValueError):
    """A document given to :meth:`SuiteReport.from_json_dict` is not a
    well-formed suite report (missing key, wrong type, unparsable value)."""


@dataclass(frozen=True)
class IdentityCheck:
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


def _mk(name, idx, params, lhs, rhs) -> IdentityCheck:
    return IdentityCheck(name, tuple(idx), params, lhs, rhs, lhs == rhs)


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


def _check_from_dict(d: dict, holds: bool) -> IdentityCheck:
    params = _params_from_dict(d["params"])
    return IdentityCheck(
        d["name"], tuple(d["indices"]), params, parse_value(d["lhs"]),
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

    def record(self, name, idx, params, lhs, rhs) -> None:
        self.tally(_mk(name, idx, params, lhs, rhs))

    def negative_control(self, check: IdentityCheck, reason: str) -> None:
        """Count a check that must fail: failing, it is an expected failure;
        holding, it is a failure named ``<name>.unexpectedly-true``."""
        self.checks_run += 1
        if check.holds:
            self.failures.append(
                replace(check, name=f"{check.name}.unexpectedly-true", holds=False)
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
            report = cls(
                suite=d["suite"],
                params=[_params_from_dict(p) for p in d["params"]],
                checks_run=d["checks_run"],
                failures=[_check_from_dict(c, holds=False) for c in d["failures"]],
                skipped=[SkipRecord(s["name"], s["reason"]) for s in d["skipped"]],
                expected_failures=[
                    ExpectedFailure(_check_from_dict(c, holds=False), c["reason"])
                    for c in d.get("expected_failures", [])
                ],
            )
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise ReportFormatError(f"malformed suite report: {exc!r}") from exc
        if not isinstance(report.suite, str) or type(report.checks_run) is not int:
            raise ReportFormatError(
                "malformed suite report: 'suite' must be a string and "
                "'checks_run' an integer"
            )
        return report


def _providers(params, fib=None, lucas=None):
    """k -> F_k and k -> L_k: the given ones, else the closed form, each
    index computed once."""
    if fib is None:
        fib = cache(lambda k: fib_matrix_closed(params, k))
    if lucas is None:
        lucas = cache(lambda k: lucas_matrix_closed(params, k))
    return fib, lucas


def _cached_power(powers: dict, term, k: int, m: int) -> Mat2:
    """term(k) ** m, grown as term(k) ** (m-1) * term(k) and kept in
    ``powers``, so a run over increasing m costs one multiply per step."""
    if m < 2:
        return term(k) if m else Mat2.identity()
    value = powers.get((term, k, m))
    if value is None:
        value = powers[term, k, m] = _cached_power(powers, term, k, m - 1) * term(k)
    return value


def thm6_suite(params: SeqParams, n: int, fib=None, lucas=None) -> list[IdentityCheck]:
    """L_0/F_1 product identities at index n (six pairwise records).

    The iii chain is F_1 L_n = (a/b)^eps(n) (F_{n+2} + F_n)
    = (b/a)^eps(n+1) L_{n+1}; the middle ratio is the brute-force-validated
    one (see :func:`thm6_iii_variant` for the inverted-ratio negative
    control). n may be 0 or negative: index n-1 falls back to the closed
    form's backward extension.
    """
    fib, lucas = _providers(params, fib, lucas)
    ba, ab_r = params.b_over_a, params.a_over_b
    e, e1 = eps(n), eps(n + 1)
    l0_fn = lucas(0) * fib(n)
    mid_i = ba**e * lucas(n)
    f1_ln = fib(1) * lucas(n)
    mid_iii = ab_r**e * (fib(n + 2) + fib(n))
    return [
        _mk("thm6.i.1", (n,), params, l0_fn, mid_i),
        _mk("thm6.i.2", (n,), params, mid_i, ab_r**e1 * (fib(n - 1) + fib(n + 1))),
        _mk("thm6.ii", (n,), params, fib(n) * lucas(0), l0_fn),
        _mk("thm6.iii.1", (n,), params, f1_ln, mid_iii),
        _mk("thm6.iii.2", (n,), params, mid_iii, ba**e1 * lucas(n + 1)),
        _mk("thm6.iv", (n,), params, lucas(n) * fib(1), f1_ln),
    ]


def thm6_iii_variant(params: SeqParams, n: int, fib=None, lucas=None) -> IdentityCheck:
    """Negative control: the thm6.iii middle member with the ratio inverted,
    F_1 L_n vs (b/a)^eps(n) (F_{n+2} + F_n).

    False for every odd n whenever a^2 != b^2 (exponent search over the grid
    returns -eps(n) uniquely); coincides with the true form when the ratio
    b/a is +-1.
    """
    fib, lucas = _providers(params, fib, lucas)
    ba = params.b_over_a
    return _mk(
        "thm6.iii.negctl", (n,), params,
        fib(1) * lucas(n), ba ** eps(n) * (fib(n + 2) + fib(n)),
    )


def thm7_suite(params: SeqParams, m: int, n: int, fib=None, lucas=None) -> list[IdentityCheck]:
    """Addition-law identities F_m F_n, F_m L_n, L_m L_n (comm + closed)."""
    fib, lucas = _providers(params, fib, lucas)
    ba, ab_r = params.b_over_a, params.a_over_b
    fm_fn = fib(m) * fib(n)
    fm_ln = fib(m) * lucas(n)
    lm_ln = lucas(m) * lucas(n)
    return [
        _mk("thm7.i.comm", (m, n), params, fm_fn, fib(n) * fib(m)),
        _mk("thm7.i.closed", (m, n), params, fm_fn, ba ** eps(m * n) * fib(m + n)),
        _mk("thm7.ii.comm", (m, n), params, fm_ln, lucas(n) * fib(m)),
        _mk(
            "thm7.ii.closed", (m, n), params, fm_ln,
            ba ** (eps(m) * eps(n + 1)) * lucas(m + n),
        ),
        _mk("thm7.iii.comm", (m, n), params, lm_ln, lucas(n) * lucas(m)),
        _mk(
            "thm7.iii.closed", (m, n), params, lm_ln,
            ab_r ** (2 - eps(m + 1) * eps(n + 1)) * ((params.ab + 4) * fib(m + n)),
        ),
    ]


def _thm8_power_checks(params, m, n, fib, lucas, power) -> list[IdentityCheck]:
    ba, ab_r = params.b_over_a, params.a_over_b
    en = eps(n)
    return [
        _mk(
            "thm8.i", (m, n), params, power(fib, n, m),
            ba ** ((m // 2) * en) * fib(m * n),
        ),
        _mk(
            "thm8.ii", (m, n), params, power(fib, n + 1, m),
            ab_r ** (((m + 1) // 2) * en) * (power(fib, 1, m) * fib(m * n)),
        ),
        _mk(
            "thm8.v", (m, n), params, power(lucas, 0, m) * fib(m * n),
            ba ** (((m + 1) // 2) * en) * power(lucas, n, m),
        ),
    ]


def _thm8_spread_checks(params, n, r, fib, lucas, power) -> list[IdentityCheck]:
    ba, ab_r = params.b_over_a, params.a_over_b
    sign = (-1) ** n
    mid = ba ** eps(n - r) * power(fib, 2, n)
    return [
        _mk("thm8.iii.1", (n, r), params, fib(n - r) * fib(n + r), mid),
        _mk("thm8.iii.2", (n, r), params, mid, ba ** (sign * eps(r)) * power(fib, n, 2)),
        _mk(
            "thm8.iv", (n, r), params, lucas(n - r) * lucas(n + r),
            ab_r ** (sign * eps(r)) * power(lucas, n, 2),
        ),
    ]


def thm8_suite(params: SeqParams, m: int, n: int, r: int, fib=None, lucas=None) -> list[IdentityCheck]:
    """Power identities for F_n^m, products at spread n-r / n+r (m = 0 uses
    the empty-product convention: any matrix to the 0th power is I)."""
    if m < 0 or r < 0 or n < r:
        raise ValueError("need m >= 0 and n >= r >= 0")
    fib, lucas = _providers(params, fib, lucas)
    power = lambda term, k, e: term(k) ** e
    return _thm8_power_checks(params, m, n, fib, lucas, power) + _thm8_spread_checks(
        params, n, r, fib, lucas, power
    )


def _cross_checks(report: SuiteReport, params: SeqParams, max_index: int) -> None:
    for n in range(-max_index, max_index + 1):
        report.record("lucas-from-fib", (n,), params, *lucas_from_fib_sides(params, n))
        report.record("fib-from-lucas", (n,), params, *fib_from_lucas_sides(params, n))
        closed = lucas_matrix_closed(params, n)
        report.record("det.formula", (n,), params, lucas_det(params, n), closed.det())
        report.record("entries.l", (n,), params, closed.e12, l(params, n))
        report.record(
            "entries.l-scaled", (n,), params, closed.e21, params.a_over_b * l(params, n)
        )
        if n >= 1:
            report.record("cassini", (n,), params, *cassini_lucas_sides(params, n))

    rec_f = fib_matrix_rec_iter(params)
    rec_l = lucas_matrix_rec_iter(params)
    for n in range(0, max_index + 1):
        cf = fib_matrix_closed(params, n)
        cl = lucas_matrix_closed(params, n)
        report.record("triple.fib.rec-closed", (n,), params, next(rec_f), cf)
        report.record("triple.lucas.rec-closed", (n,), params, next(rec_l), cl)
        if params.binet_allowed:
            report.record(
                "triple.fib.binet-closed", (n,), params,
                fib_matrix_binet(params, n), cf,
            )
            report.record(
                "triple.lucas.binet-closed", (n,), params,
                lucas_matrix_binet(params, n), cl,
            )
    if not params.binet_allowed:
        why = f"ab = -4 degenerate (a={params.a}, b={params.b})"
        report.skipped.append(SkipRecord("triple.fib.binet-closed", why))
        report.skipped.append(SkipRecord("triple.lucas.binet-closed", why))


def run_full_suite(grid, max_index: int, suite: str = "identities") -> SuiteReport:
    """Run the sequence/matrix cross-checks and the full identity suite over
    every grid pair for all indices up to max_index.

    Returns counts plus the failing records only; degenerate (ab = -4)
    pairs skip the Binet comparisons with an annotated reason and run
    everything else.
    """
    if max_index < 0:
        raise ValueError("max_index must be >= 0")
    report = SuiteReport(suite=suite, params=list(grid))
    indices = range(0, max_index + 1)
    for params in report.params:
        fib, lucas = _providers(params)
        _cross_checks(report, params, max_index)
        for n in indices:
            report.tally(*thm6_suite(params, n, fib, lucas))
        if max_index >= 1 and params.a * params.a != params.b * params.b:
            report.negative_control(
                thm6_iii_variant(params, 1, fib, lucas),
                "negative control: inverted-ratio middle member is "
                "false at odd n whenever a^2 != b^2",
            )
        for m in indices:
            for n in indices:
                report.tally(*thm7_suite(params, m, n, fib, lucas))
        # the powers are shared across records: F_{n+1}^m at step n is
        # F_n^m at step n+1, and F_1^m, L_0^m recur at every n
        power = partial(_cached_power, {})
        for n in indices:
            for m in indices:
                report.tally(*_thm8_power_checks(params, m, n, fib, lucas, power))
        for n in indices:
            for r in range(0, n + 1):
                report.tally(*_thm8_spread_checks(params, n, r, fib, lucas, power))
    return report


_NEGCTL_REASON = (
    "negative control: this transcription variant is false by construction; "
    "its failure proves the checker can fail"
)


def _coefficient_check(name, params, order, first_mismatch, expand, **kw) -> IdentityCheck:
    """The series ``expand`` against L_k at its first mismatch k, if any."""
    k = first_mismatch(params, order, **kw)
    if k is None:
        return IdentityCheck(name, (order,), params, None, None, True)
    got = expand(params, order, **kw).coefficient(k)
    return IdentityCheck(name, (order, k), params, got, lucas_matrix_closed(params, k), False)


def _finite_inverse_sum_check(name, params, n, negative_control=False) -> IdentityCheck:
    mismatch = finite_inverse_sum_mismatch(params, n, negative_control)
    if mismatch is None:
        return IdentityCheck(name, (n,), params, None, None, True)
    exponent, lhs, rhs = mismatch
    return IdentityCheck(name, (n, exponent), params, lhs, rhs, False)


def run_series_suite(grid, max_index: int, order: int) -> SuiteReport:
    """Check the series facts of the Lucas matrix sequence for every grid
    pair: the generating function and the full inverse-power sum to
    ``order`` coefficients, the truncated inverse-power sum and the closed
    partial sum for n up to max_index, and two negative controls."""
    report = SuiteReport(suite="series", params=list(grid))
    for params in report.params:
        report.tally(_coefficient_check(
            "genfunc.coeffs", params, order, first_generating_mismatch, lucas_generating_series
        ))
        for n in range(0, max_index + 1):
            report.tally(_finite_inverse_sum_check("invsum.finite", params, n))
        report.tally(_coefficient_check(
            "invsum.infinite", params, order, first_infinite_mismatch, infinite_inverse_sum_series
        ))
        sums = islice(direct_partial_sums(params), 1, max_index + 1)
        for n, direct in enumerate(sums, start=1):
            report.record("partialsum", (n,), params, lucas_partial_sum(params, n), direct)
        report.negative_control(
            _finite_inverse_sum_check("invsum.finite.negctl", params, 2, True), _NEGCTL_REASON
        )
        report.negative_control(
            _coefficient_check(
                "invsum.infinite.negctl", params, 8, first_infinite_mismatch,
                infinite_inverse_sum_series, negative_control=True,
            ),
            _NEGCTL_REASON,
        )
    return report
