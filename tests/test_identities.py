import copy
import pickle
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biperiodic import identities, matrixseq, series
from biperiodic.exact import Mat2
from biperiodic.identities import (
    GRID_VALUES,
    ExpectedFailure,
    IdentityCheck,
    ReportFormatError,
    SuiteReport,
    default_grid,
    family_checks,
    run_full_suite,
)
from biperiodic.matrixseq import fib_matrix_closed, lucas_matrix_closed
from biperiodic.sequences import BinetDegenerate, SeqParams, eps, l, q

ASYM = [SeqParams(2, 3), SeqParams(F(1, 2), 4), SeqParams(F(5, 3), F(1, 2)), SeqParams(3, -1)]


# a well-formed failure record, as SuiteReport.to_json_dict writes one
RECORD = {
    "name": "thm7.i.closed", "indices": [1, 2], "lhs": "1", "rhs": "2",
    "params": {"a": "1", "b": "1"},
}


def assert_all_hold(checks):
    bad = [c for c in checks if not c.holds]
    assert not bad, bad


def thm8(p, m, n, r):
    return family_checks("thm8 power", p, m, n) + family_checks("thm8 spread", p, n, r)


class TestThm6:
    def test_classical_example_n1(self):
        p = SeqParams(1, 1)
        prod = lucas_matrix_closed(p, 0) * fib_matrix_closed(p, 1)
        assert prod == Mat2(3, 1, 1, 2)
        assert prod == lucas_matrix_closed(p, 1)
        assert_all_hold(family_checks("thm6", p, 1))

    @pytest.mark.parametrize("p", ASYM, ids=str)
    def test_holds_including_boundary(self, p):
        for n in range(0, 12):
            assert_all_hold(family_checks("thm6", p, n))

    def test_negative_index(self):
        assert_all_hold(family_checks("thm6", SeqParams(2, 3), -3))

    def test_middle_member_exponent_is_unique(self):
        # brute-force derivation of the thm6.iii ratio, as an oracle
        p = SeqParams(2, 3)
        ba = p.b / p.a
        for n in range(0, 8):
            lhs = fib_matrix_closed(p, 1) * lucas_matrix_closed(p, n)
            core = fib_matrix_closed(p, n + 2) + fib_matrix_closed(p, n)
            exponents = [e for e in range(-3, 4) if lhs == ba**e * core]
            assert exponents == [-eps(n)]

    def test_variant_fails_at_odd_n_for_skew_ratio(self):
        for p in ASYM:
            assert not family_checks("thm6 control", p, 1)[0].holds
            assert not family_checks("thm6 control", p, 5)[0].holds
            assert family_checks("thm6 control", p, 4)[0].holds  # even n: exponent is 0

    def test_variant_degenerates_when_ratio_is_unit(self):
        assert family_checks("thm6 control", SeqParams(1, 1), 3)[0].holds
        assert family_checks("thm6 control", SeqParams(2, -2), 3)[0].holds

    def test_scalar_shadow_of_first_identity(self):
        # e12 of L_0 F_n = (b/a)^eps(n) L_n reads
        # b q_n + 2 (b/a)^eps(n) q_{n-1} = (b/a)^eps(n) l_n
        for p in ASYM:
            ba = p.b / p.a
            for n in range(-6, 15):
                lhs = p.b * q(p, n) + 2 * ba ** eps(n) * q(p, n - 1)
                assert lhs == ba ** eps(n) * l(p, n), (p, n)


class TestThm7:
    def test_squared_seed(self):
        p = SeqParams(1, 1)
        l0 = lucas_matrix_closed(p, 0)
        assert l0 * l0 == Mat2(5, 0, 0, 5)
        assert_all_hold(family_checks("thm7", p, 0, 0))

    def test_identity_factor(self):
        p = SeqParams(2, 3)
        for n in range(0, 6):
            assert_all_hold(family_checks("thm7", p, 0, n))

    @pytest.mark.parametrize("p", ASYM, ids=str)
    def test_holds_on_grid_corner(self, p):
        for m in range(0, 8):
            for n in range(0, 8):
                assert_all_hold(family_checks("thm7", p, m, n))

    def test_example_m3_n4(self):
        assert_all_hold(family_checks("thm7", SeqParams(1, 2), 3, 4))

    def test_exponents_are_unique(self):
        p = SeqParams(F(5, 3), F(1, 2))
        ba = p.b / p.a
        ab_r = p.a / p.b
        for m in range(0, 6):
            for n in range(0, 6):
                fm_ln = fib_matrix_closed(p, m) * lucas_matrix_closed(p, n)
                found = [
                    e for e in range(-3, 4)
                    if fm_ln == ba**e * lucas_matrix_closed(p, m + n)
                ]
                assert found == [eps(m) * eps(n + 1)], (m, n)
                lm_ln = lucas_matrix_closed(p, m) * lucas_matrix_closed(p, n)
                target = (p.ab + 4) * fib_matrix_closed(p, m + n)
                found = [e for e in range(-1, 5) if lm_ln == ab_r**e * target]
                assert found == [2 - eps(m + 1) * eps(n + 1)], (m, n)


class TestThm8:
    def test_first_power_is_trivial(self):
        p = SeqParams(2, 3)
        for n in range(0, 6):
            checks = {c.name: c for c in thm8(p, 1, n, 0)}
            assert checks["thm8.i"].holds

    def test_m_zero_empty_product(self):
        for p in ASYM:
            assert_all_hold(thm8(p, 0, 3, 2))

    def test_equal_spread(self):
        # n = r makes the left factor the identity matrix
        p = SeqParams(2, 3)
        for n in range(0, 7):
            assert_all_hold(thm8(p, 2, n, n))

    def test_classical_example(self):
        p = SeqParams(1, 1)
        l0 = lucas_matrix_closed(p, 0)
        l3 = lucas_matrix_closed(p, 3)
        assert l0**2 * fib_matrix_closed(p, 6) == l3**2
        assert_all_hold(thm8(p, 2, 3, 1))

    @pytest.mark.parametrize("p", ASYM, ids=str)
    def test_holds_on_block(self, p):
        for m in range(0, 6):
            for n in range(0, 6):
                for r in range(0, n + 1):
                    assert_all_hold(thm8(p, m, n, r))

    def test_iv_holds_at_negative_indices(self):
        # the record's sign (-1)^n is an int at n < 0 too, where a float
        # power would reach Mat2 as a float factor
        record = identities.FAMILIES["thm8 spread"].records[1]
        assert record.checks[0][0] == "thm8.iv"
        block = [(n, r) for n in range(-5, 6) for r in range(-5, 6)]
        held = []
        for p in default_grid():
            identities._run([record], block, identities.PairSides(p),
                            lambda name, idx, p, lhs, rhs, _: held.append(lhs == rhs))
        assert (len(held), all(held)) == (5929, True)


class TestRunFullSuite:
    def test_empty_grid(self):
        report = run_full_suite([], 10)
        assert report.checks_run == 0
        assert report.ok

    def test_small_grid_clean(self):
        report = run_full_suite([SeqParams(2, 3), SeqParams(1, 1)], 6)
        assert report.ok
        assert report.checks_run > 0
        assert not report.skipped

    def test_degenerate_pair_skips_binet_and_passes(self):
        report = run_full_suite([SeqParams(2, -2)], 8)
        assert report.ok
        names = {s.name for s in report.skipped}
        assert names == {"triple.fib.binet-closed", "triple.lucas.binet-closed"}
        assert all("ab = -4 degenerate" in s.reason for s in report.skipped)

    def test_expected_failures_are_recorded(self):
        report = run_full_suite([SeqParams(2, 3)], 4)
        names = [x.check.name for x in report.expected_failures]
        assert names == ["thm6.iii.negctl"]
        assert all(x.reason for x in report.expected_failures)

    def test_max_index_validation(self):
        with pytest.raises(ValueError):
            run_full_suite([], -1)

    def test_thm6_and_thm7_runners_run_once_per_pair(self, monkeypatch):
        # the tracer patches the two runners by name; the suite finds a patched one
        calls = Counter()
        for name in ("thm6_suite", "thm7_suite"):
            runner = getattr(identities, name)
            monkeypatch.setattr(identities, name, lambda *a, name=name, runner=runner: (
                calls.update([name]) or runner(*a)))
        assert run_full_suite(default_grid()[:3], 4).ok
        assert calls == {"thm6_suite": 3, "thm7_suite": 3}

    def test_default_grid_check_count(self):
        report = run_full_suite(default_grid(), 20)
        assert report.checks_run == 249_793
        assert report.ok

    def test_grid_constants(self):
        grid = default_grid()
        assert len(grid) == 49
        assert len(GRID_VALUES) == 7
        assert not any(p.ab == -4 for p in grid)


class TestPairSides:
    PAIR = SeqParams(F(-3, 2), F(5, 3))

    def test_shared_store_gives_the_same_records(self):
        # the runner's path: one store for the pair, each check sent to emit
        p, sides, got, want = self.PAIR, identities.PairSides(self.PAIR), [], []
        emit = lambda name, idx, q, lhs, rhs, _: got.append(
            IdentityCheck(name, idx, q, lhs, rhs, lhs == rhs))
        for runner, family, indices in (
            (identities.thm6_suite, "thm6", [(n,) for n in range(-4, 7)]),
            (identities.thm7_suite, "thm7", [(m, n) for m in range(0, 6) for n in range(0, 6)]),
        ):
            runner(identities.FAMILIES[family].records, indices, sides, emit)
            for idx in indices:
                want += family_checks(family, p, *idx)
        assert got == want
        assert (len(got), all(c.holds for c in got)) == (11 * 6 + 36 * 6, True)

    def test_each_side_is_made_once(self, monkeypatch):
        made = []
        for name in ("fib_matrix_closed", "lucas_matrix_closed"):
            closed = getattr(identities, name)
            monkeypatch.setattr(identities, name,
                                lambda p, k, closed=closed: made.append(k) or closed(p, k))
        sides = identities.PairSides(self.PAIR)
        fib, lucas = sides.fib, sides.lucas
        first = sides.product(fib, 2, lucas, 3)
        assert sides.product(fib, 2, lucas, 3) is first
        assert sides.scaled(1, lucas, 3) is sides.scaled(1, lucas, 3)
        assert sides.power(fib, 2, 4) == fib_matrix_closed(self.PAIR, 2) ** 4
        assert sides.power(fib, 2, 2) is sides.product(fib, 2, fib, 2)
        assert sorted(made) == [2, 3]

    def test_negative_power_raises(self):
        sides = identities.PairSides(self.PAIR)
        with pytest.raises(ValueError, match="m >= 0"):
            sides.power(sides.fib, 3, -1)

    @pytest.mark.parametrize("family, k", [("triple", -3), ("invsum.finite", -1)])
    def test_walk_before_its_start_raises(self, family, k):
        # a row that reads a one-step walk at k < 0 gets a ValueError naming
        # the bound, as a negative power does
        with pytest.raises(ValueError, match="k >= 0"):
            family_checks(family, SeqParams(2, 3), k)


class TestFailureRecords:
    """A failing side reaches the report as one full record, and the check
    count does not depend on which checks fail."""

    PAIR = SeqParams(F(1, 2), 3)
    N = 4

    def run(self):
        return run_full_suite([self.PAIR], self.N)

    def assert_single_failure(self, report, name, indices, lhs, rhs):
        assert report.checks_run == self.run().checks_run
        (failure,) = report.failures
        assert (failure.name, failure.index_args, failure.params) == (name, indices, self.PAIR)
        assert (failure.lhs, failure.rhs, failure.holds) == (lhs, rhs, False)
        assert SuiteReport.from_json_dict(report.to_json_dict()).failures == report.failures

    def test_failing_thm8_side(self, monkeypatch):
        product = identities.PairSides.product

        def faulty(sides, x, i, y, j):
            value = product(sides, x, i, y, j)
            # L_0 L_{2N} is thm8.iv's left side at n = r = N and nowhere else
            if (x, i, y, j) == (sides.lucas, 0, sides.lucas, 2 * self.N):
                return value + Mat2.identity()
            return value

        monkeypatch.setattr(identities.PairSides, "product", faulty)
        big_l = lambda k: lucas_matrix_closed(self.PAIR, k)
        self.assert_single_failure(
            self.run(), "thm8.iv", (self.N, self.N),
            big_l(0) * big_l(2 * self.N) + Mat2.identity(), big_l(self.N) ** 2,
        )

    def test_failing_cross_check_side(self, monkeypatch):
        det = identities.lucas_det
        monkeypatch.setattr(identities, "lucas_det", lambda p, n: det(p, n) + (1 if n == 2 else 0))
        self.assert_single_failure(
            self.run(), "det.formula", (2,),
            det(self.PAIR, 2) + 1, lucas_matrix_closed(self.PAIR, 2).det(),
        )


NON_CONTROL_RECORDS = [
    (family, k) for family, f in identities.FAMILIES.items()
    for k, record in enumerate(f.records) if record.negctl is None
]


@pytest.mark.parametrize(
    "family, k", NON_CONTROL_RECORDS,
    ids=[identities.FAMILIES[f].records[k].checks[0][0] for f, k in NON_CONTROL_RECORDS],
)
def test_perturbed_member_fails_exactly_its_records_checks(monkeypatch, family, k):
    """Shift one member of one table record, the one its checks all read:
    every check of that record fails wherever it runs, and nothing else. A
    series row that holds reports no sides (None); the shift replaces it."""
    pair, n_max, order = SeqParams(F(1, 2), 3), 4, 12
    clean = run_full_suite([pair], n_max, order=order)
    table = identities.FAMILIES[family]
    record = table.records[k]
    (member, *_) = set.intersection(*({i, j} for _, i, j in record.checks))
    runs = []

    def perturbed(*args):
        members = list(record.members(*args))
        if members[member] is None:
            members[member] = Mat2.identity()
        else:
            members[member] += Mat2.identity() if isinstance(members[member], Mat2) else 1
        runs.append(args[1:])
        return tuple(members)

    records = list(table.records)
    records[k] = record._replace(members=perturbed)
    monkeypatch.setitem(identities.FAMILIES, family, table._replace(records=tuple(records)))
    report = run_full_suite([pair], n_max, order=order)
    assert report.checks_run == clean.checks_run
    assert runs
    assert sorted((c.name, c.index_args) for c in report.failures) == sorted(
        (name, idx) for name, _, _ in record.checks for idx in runs
    )
    assert report.expected_failures == clean.expected_failures
    doc = report.to_json_dict()
    back = SuiteReport.from_json_dict(doc)
    assert back == report
    assert back.to_json_dict() == doc


class TestNegativeControl:
    REASON = "negative control: false by construction"

    def test_failing_control_is_an_expected_failure(self):
        report = SuiteReport("demo")
        check = family_checks("thm6 control", SeqParams(2, 3), 1)[0]
        assert not check.holds
        report.negative_control(check, self.REASON)
        assert report.checks_run == 1
        assert report.ok
        assert report.expected_failures == [ExpectedFailure(check, self.REASON)]

    def test_holding_control_is_a_failure(self):
        report = SuiteReport("demo")
        check = family_checks("thm6 control", SeqParams(2, 3), 4)[0]  # even n: the ratio drops out
        assert check.holds
        report.negative_control(check, self.REASON)
        assert report.checks_run == 1
        assert not report.ok
        assert not report.expected_failures
        (failure,) = report.failures
        assert failure.name == "thm6.iii.negctl.unexpectedly-true"
        assert not failure.holds
        assert (failure.index_args, failure.params, failure.lhs, failure.rhs) == (
            check.index_args, check.params, check.lhs, check.rhs,
        )

    def test_series_control_that_holds_fails_the_report(self, monkeypatch):
        # pretend the sign-slipped inverse-power series matched the recurrence
        monkeypatch.setattr(identities, "first_infinite_mismatch", lambda *a, **kw: None)
        report = run_full_suite([SeqParams(2, 3)], 2, order=8)
        assert [c.name for c in report.failures] == ["invsum.infinite.negctl.unexpectedly-true"]
        assert report.failures[0].index_args == (8,)
        assert [x.check.name for x in report.expected_failures] == [
            "thm6.iii.negctl", "invsum.finite.negctl",
        ]


class TestSeriesSuite:
    """The series families, which ``run_full_suite`` runs when an order is given."""

    GRID = [SeqParams(2, 3), SeqParams(F(1, 2), 4)]

    def test_max_index_validation(self):
        with pytest.raises(ValueError, match="max_index must be >= 0"):
            run_full_suite([SeqParams(2, 3)], -1, order=8)

    def test_counts_and_controls(self):
        report = run_full_suite(self.GRID, 3, order=12)
        identity = run_full_suite(self.GRID, 3)
        # genfunc + finite n=0..3 + infinite + partial sums n=1..3 + 2 controls
        assert report.checks_run - identity.checks_run == 2 * (1 + 4 + 1 + 3 + 2)
        assert report.ok
        series = report.expected_failures[len(identity.expected_failures):]
        assert [x.check.name for x in series] == [
            "invsum.finite.negctl", "invsum.infinite.negctl",
        ] * 2

    def test_full_suite_lists_series_output_last(self):
        grid = self.GRID
        report = run_full_suite(grid, 3, "full", order=12)
        assert [(x.check.name, x.check.params) for x in report.expected_failures] == [
            ("thm6.iii.negctl", grid[0]), ("thm6.iii.negctl", grid[1]),
            ("invsum.finite.negctl", grid[0]), ("invsum.infinite.negctl", grid[0]),
            ("invsum.finite.negctl", grid[1]), ("invsum.infinite.negctl", grid[1]),
        ]
        assert report.suite == "full" and report.ok


# rationals of up to six digits over up to six digits, and b free, equal to
# a, equal to -a, or with ab = -4
RATIONALS = st.builds(F, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 10**6))
PAIRS = RATIONALS.flatmap(lambda a: st.one_of(
    RATIONALS, RATIONALS, st.sampled_from((a, -a, -4 / a))).map(lambda b: SeqParams(a, b)))
BINET_ROWS = {"triple.fib.binet-closed", "triple.lucas.binet-closed"}


@settings(max_examples=47, derandomize=True, deadline=None)
@example(SeqParams(F(999_983, 1000), F(999_983, 1000)))
@example(SeqParams(F(-65_537, 3), F(65_537, 3)))
@example(SeqParams(F(-999_999, 1_000_000), F(4_000_000, 999_999)))
@given(PAIRS)
def test_every_family_on_large_rational_pairs(pair):
    """Every row of FAMILIES, series rows included, holds at n <= 8 and
    order 12 on pairs far from the grid, and each control fails wherever it
    applies."""
    report = run_full_suite([pair], 8, order=12)
    assert report.ok, report.failures[:3]
    controls = ["thm6.iii.negctl"] if pair.a ** 2 != pair.b ** 2 else []
    assert [x.check.name for x in report.expected_failures] == controls + [
        "invsum.finite.negctl", "invsum.infinite.negctl",
    ]
    assert {x.name for x in report.skipped} == (BINET_ROWS if pair.ab == -4 else set())


def test_suite_does_each_pairs_series_and_seed_work_once(monkeypatch):
    """One pair at the verify defaults: the series rows expand 40 + 40
    coefficients, the sign-slipped control 8 and then its first 3 again to
    read coefficient 2; the series module starts one L_k walk, the partial
    sums'; and the seed matrices and the series rows' constants in L_0, L_1
    are built once each."""
    work = Counter()
    for modules, name, key, size in (
        ((series,), "expand_rational", "coefficients", lambda *a: a[2]),
        ((series,), "lucas_matrix_rec_iter", "series walks", lambda *a: 1),
        ((series,), "_pair_constants", "constants", lambda *a: 1),
        ((matrixseq,), "_fib_seed", "seeds", lambda *a: 1),
        # one wrapper wherever it is imported, so the memo keeps one entry
        ((matrixseq, series), "_lucas_seed", "seeds", lambda *a: 1),
    ):
        fn = getattr(modules[0], name)
        wrapped = lambda *a, fn=fn, key=key, size=size, **kw: (
            work.update({key: size(*a)}) or fn(*a, **kw))
        for module in modules:
            monkeypatch.setattr(module, name, wrapped)
    report = run_full_suite([SeqParams(F(1, 2), F(5, 3))], 12, "full", 40)
    assert report.ok
    assert report.checks_run == 2091
    assert work == {"coefficients": 40 + 40 + 8 + 3, "series walks": 1, "seeds": 2,
                    "constants": 1}


def _deep_pairs(rng: random.Random, count: int) -> list[SeqParams]:
    pairs = []
    while len(pairs) < count:
        a, b = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(2))
        if a and b and a * b != -4:
            pairs.append(SeqParams(a, b))
    return pairs


def test_triple_and_thm7_hold_at_deep_indices_within_budget():
    """The triple row at n in 2000..3000 and the thm7 row at m in 200..400,
    n in 400..800, on four seeded pairs of small height: every check holds,
    within 3 s."""
    rng = random.Random(11)
    start = time.perf_counter()
    for p in _deep_pairs(rng, 4):
        n = rng.randint(2000, 3000)
        m, k = rng.randint(200, 400), rng.randint(400, 800)
        for checks in (family_checks("triple", p, n), family_checks("thm7", p, m, k)):
            assert checks and all(c.holds for c in checks), (p, n, m, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"deep triple and thm7 checks took {elapsed:.2f}s, budget 3s"


class TestReportSerialization:
    def test_round_trip(self):
        report = run_full_suite([SeqParams(2, -2), SeqParams(2, 3)], 3)
        doc = report.to_json_dict()
        back = SuiteReport.from_json_dict(doc)
        assert back.to_json_dict() == doc
        assert back.checks_run == report.checks_run
        assert back.params == report.params

    def test_pickle_and_deepcopy_round_trip(self):
        report = run_full_suite([SeqParams(2, 3)], 3)
        for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            back = copy_of(report)
            assert back == report
            assert back.to_json_dict() == report.to_json_dict()

    def test_schema_fields(self):
        doc = run_full_suite([SeqParams(1, 1)], 2).to_json_dict()
        assert set(doc) == {
            "suite", "params", "checks_run", "failures", "skipped",
            "expected_failures",
        }
        assert doc["params"] == [{"a": "1", "b": "1"}]
        assert isinstance(doc["checks_run"], int)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc.pop("checks_run"),
            lambda doc: doc["params"][0].pop("b"),
            lambda doc: doc.update(params=5),
            lambda doc: doc.update(checks_run="12"),
            lambda doc: doc.update(failures=[{"name": "x"}]),
            lambda doc: doc["params"][0].update(a="1/0"),
            lambda doc: doc["params"][0].update(a="1e-5"),
            lambda doc: doc["params"][0].update(b="0.5"),
            lambda doc: doc.update(failures=[{**RECORD, "name": 5}]),
            lambda doc: doc.update(expected_failures=[{**RECORD, "reason": 5}]),
            lambda doc: doc.update(skipped=[{"name": None, "reason": "why"}]),
            lambda doc: doc.update(skipped=[{"name": "x", "reason": ["why"]}]),
            lambda doc: doc.update(failures=[{**RECORD, "indices": "ab"}]),
            lambda doc: doc.update(failures=[{**RECORD, "indices": [1.5, 2]}]),
            lambda doc: doc.update(failures=[{**RECORD, "indices": [True, 2]}]),
            lambda doc: doc.update(failures=[{**RECORD, "indices": [1.5, True]}]),
        ],
        ids=["missing-key", "missing-param-key", "params-not-list",
             "checks-run-str", "partial-failure", "bad-rational",
             "exponent-rational", "decimal-rational", "name-not-str",
             "reason-not-str", "skip-name-not-str", "skip-reason-not-str",
             "indices-str", "indices-float", "indices-bool", "indices-float-bool"],
    )
    def test_malformed_doc_raises_report_format_error(self, mutate):
        doc = run_full_suite([SeqParams(1, 1)], 1).to_json_dict()
        mutate(doc)
        with pytest.raises(ReportFormatError) as exc:
            SuiteReport.from_json_dict(doc)
        assert isinstance(exc.value, ValueError)

    def test_well_formed_records_parse(self):
        doc = run_full_suite([SeqParams(1, 1)], 1).to_json_dict()
        doc.update(
            failures=[RECORD],
            expected_failures=[{**RECORD, "reason": "why"}],
            skipped=[{"name": "x", "reason": "why"}],
        )
        back = SuiteReport.from_json_dict(doc)
        assert back.to_json_dict() == doc
        assert back.failures[0].index_args == (1, 2)

    def test_failure_records_serialize_matrices(self):
        from biperiodic.identities import IdentityCheck, _check_to_dict

        check = IdentityCheck(
            "demo", (1, 2), SeqParams(2, 3), Mat2(1, F(1, 2), 0, -1), F(5, 3), False
        )
        doc = _check_to_dict(check)
        assert doc["lhs"] == [["1", "1/2"], ["0", "-1"]]
        assert doc["rhs"] == "5/3"
        assert doc["indices"] == [1, 2]


class TestIdentityCheckRecord:
    FIELDS = ("name", "index_args", "params", "lhs", "rhs", "holds")

    def make(self):
        return identities.IdentityCheck(
            "demo", (1, 2), SeqParams(F(1, 2), 3), Mat2(1, F(1, 2), 0, -1), F(5, 3), False
        )

    def test_positional_construction_and_field_order(self):
        check = self.make()
        assert check._fields == self.FIELDS
        assert tuple(getattr(check, f) for f in self.FIELDS) == tuple(check)
        assert check == identities.IdentityCheck(**dict(zip(self.FIELDS, check)))
        assert (check.name, check.index_args, check.holds) == ("demo", (1, 2), False)

    @pytest.mark.parametrize("field", FIELDS)
    def test_assignment_raises(self, field):
        check = self.make()
        with pytest.raises(AttributeError):
            setattr(check, field, None)
        with pytest.raises(AttributeError):
            check.extra = 1

    def test_pickle_and_deepcopy_round_trip(self):
        check = self.make()
        for copy_of in (lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy):
            back = copy_of(check)
            assert type(back) is identities.IdentityCheck
            assert back == check
            assert back.lhs is not check.lhs

    def test_unexpectedly_true_rename_leaves_the_control_unchanged(self):
        check = identities.IdentityCheck("ctl", (4,), SeqParams(2, 3), F(1), F(1), True)
        report = SuiteReport("demo")
        report.negative_control(check, "false by construction")
        (failure,) = report.failures
        assert type(failure) is identities.IdentityCheck
        assert failure == check._replace(name="ctl.unexpectedly-true", holds=False)
        assert (check.name, check.holds) == ("ctl", True)


class TestFamilyChecksArguments:
    def test_unknown_family_is_named(self):
        with pytest.raises(ValueError, match="unknown family 'thm9'"):
            family_checks("thm9", SeqParams(2, 3), 1)

    @pytest.mark.parametrize("family, idx, arity", [
        ("thm7", (1,), 2), ("thm6", (1, 2), 1), ("thm8 spread", (), 2),
        ("genfunc.coeffs", (8, 1), 1),
    ])
    def test_wrong_index_count_is_named(self, family, idx, arity):
        message = f"family '{family}' takes {arity} indices, not {len(idx)}"
        with pytest.raises(ValueError, match=message):
            family_checks(family, SeqParams(2, 3), *idx)

    def test_every_family_takes_its_domain_tuples(self):
        p = SeqParams(2, 3)
        for name, family in identities.FAMILIES.items():
            for idx in family.domain(2, 4):
                assert family_checks(name, p, *idx)

    def test_binet_checks_raise_at_ab_minus_4(self):
        # the predicates that skip them in a suite are set aside
        with pytest.raises(BinetDegenerate):
            family_checks("triple", SeqParams(2, -2), 3)
