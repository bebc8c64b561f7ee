"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
happen. Everything is exact arithmetic: zero tolerance on every comparison,
the only numeric bounds are the two stated wall-clock budgets.
"""

import json
import time
from fractions import Fraction as F
from itertools import islice

import pytest

from biperiodic import cli
from biperiodic.exact import Mat2
from biperiodic.identities import (
    SuiteReport,
    default_grid,
    run_full_suite,
)
from biperiodic.matrixseq import (
    fib_matrix_binet,
    fib_matrix_closed,
    fib_matrix_rec_iter,
    lucas_det,
    lucas_matrix_binet,
    lucas_matrix_closed,
    lucas_matrix_rec_iter,
)
from biperiodic.sequences import BinetDegenerate, SeqParams, l, q
from biperiodic.series import (
    finite_inverse_sum_mismatch,
    first_infinite_mismatch,
    lucas_generating_series,
    lucas_partial_sum,
)

GRID = default_grid()


def report_line(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def test_criterion_1_triple_agreement():
    start = time.monotonic()
    for params in GRID:
        rec_f = fib_matrix_rec_iter(params)
        rec_l = lucas_matrix_rec_iter(params)
        for n in range(0, 41):
            cf = fib_matrix_closed(params, n)
            cl = lucas_matrix_closed(params, n)
            assert next(rec_f) == cf, (params, n, "fib rec vs closed")
            assert next(rec_l) == cl, (params, n, "lucas rec vs closed")
            assert fib_matrix_binet(params, n) == cf, (params, n, "fib binet")
            assert lucas_matrix_binet(params, n) == cl, (params, n, "lucas binet")
    elapsed = time.monotonic() - start
    report_line(
        "criterion 1: triple agreement, 49 pairs, n = 0..40, exact",
        elapsed < 10.0,
        f"{elapsed:.2f}s, budget 10s",
    )


def test_criterion_2_determinant_and_cassini():
    ok = True
    for params in GRID:
        ba = params.b / params.a
        ab4 = params.ab + 4
        for n in range(-10, 51):
            if lucas_matrix_closed(params, n).det() != lucas_det(params, n):
                ok = False
        for n in range(1, 51):
            lhs = ba ** ((n + 1) % 2) * l(params, n + 1) * l(params, n - 1)
            lhs -= ba ** (n % 2) * l(params, n) ** 2
            if lhs != ab4 * (-1) ** (n + 1):
                ok = False
    report_line(
        "criterion 2: det(L_n) formula (-10..50) and Cassini (1..50), 49 pairs",
        ok,
    )


def test_criterion_3_series_facts():
    ok_gen = ok_finite = ok_infinite = ok_partial = True
    for params in GRID:
        series = lucas_generating_series(params, 40)
        rec = lucas_matrix_rec_iter(params)
        for k in range(40):
            if series[k] != next(rec):
                ok_gen = False
        if not all(finite_inverse_sum_mismatch(params, n) is None for n in range(0, 16)):
            ok_finite = False
        if first_infinite_mismatch(params, 30) is not None:
            ok_infinite = False
        if not all(
            lucas_partial_sum(params, n)
            == sum(islice(lucas_matrix_rec_iter(params), n), Mat2.zero())
            for n in range(1, 51)
        ):
            ok_partial = False
    report_line("criterion 3i: generating function, 40 coefficients", ok_gen)
    report_line("criterion 3ii: truncated inverse-power identity, n = 0..15", ok_finite)
    report_line("criterion 3iii: inverse-power series, 30 coefficients", ok_infinite)
    report_line("criterion 3iv: partial-sum formula, n = 1..50", ok_partial)


def test_criterion_4_identity_suites():
    report = run_full_suite(GRID, 20)
    unexplained = list(report.failures)
    explained = all(x.reason for x in report.expected_failures)
    report_line(
        "criterion 4: relationship suites, m, n <= 20, r <= n, 49 pairs",
        not unexplained and explained,
        f"{report.checks_run} checks, {len(unexplained)} unexplained failures, "
        f"{len(report.expected_failures)} documented expected failures",
    )


def test_criterion_5_classical_specializations():
    # independent oracles: the classical recurrences computed right here
    fib = [0, 1]
    luc = [2, 1]
    pell = [0, 1]
    pell_luc = [2, 2]
    for _ in range(25):
        fib.append(fib[-1] + fib[-2])
        luc.append(luc[-1] + luc[-2])
        pell.append(2 * pell[-1] + pell[-2])
        pell_luc.append(2 * pell_luc[-1] + pell_luc[-2])
    assert luc[:8] == [2, 1, 3, 4, 7, 11, 18, 29]
    assert fib[:7] == [0, 1, 1, 2, 3, 5, 8]
    assert pell_luc[:5] == [2, 2, 6, 14, 34]

    ones = SeqParams(1, 1)
    twos = SeqParams(2, 2)
    ok = True
    for n in range(0, 21):
        if q(ones, n) != fib[n] or l(ones, n) != luc[n]:
            ok = False
        if q(twos, n) != pell[n] or l(twos, n) != pell_luc[n]:
            ok = False
        # the same values must sit in the matrix entries
        if lucas_matrix_closed(ones, n) != Mat2(
            luc[n + 1], luc[n], luc[n], luc[n - 1] if n else -1
        ):
            ok = False
        if fib_matrix_closed(twos, n).e21 != pell[n]:
            ok = False
        if lucas_matrix_closed(twos, n).e12 != pell_luc[n]:
            ok = False
    report_line(
        "criterion 5: a=b=1 gives Fibonacci/Lucas, a=b=2 gives Pell companions, n <= 20",
        ok,
    )


def test_criterion_6_degenerate_handling(capsys):
    params = SeqParams(2, -2)
    raised = 0
    for fn in (fib_matrix_binet, lucas_matrix_binet):
        try:
            fn(params, 5)
        except BinetDegenerate:
            raised += 1
    report = run_full_suite([params], 12)
    code = cli.main(["verify", "--a", "2", "--b=-2", "--n-max", "8"])
    doc = json.loads(capsys.readouterr().out)
    annotated = bool(doc["skipped"]) and all(
        "ab = -4 degenerate" in s["reason"] for s in doc["skipped"]
    )
    report_line(
        "criterion 6: ab = -4 raises BinetDegenerate, non-Binet checks pass, verify exits 0",
        raised == 2 and report.ok and code == 0 and not doc["failures"] and annotated,
    )


def test_criterion_7_cli_contract(capsys, monkeypatch):
    # exit 0 and the documented schema on the default grid, within budget
    start = time.monotonic()
    code_ok = cli.main(["verify", "--grid", "default", "--n-max", "12"])
    elapsed = time.monotonic() - start
    doc = json.loads(capsys.readouterr().out)
    round_trip = SuiteReport.from_json_dict(doc).to_json_dict() == doc
    schema_ok = (
        {"suite", "params", "checks_run", "failures", "skipped"} <= set(doc)
        and len(doc["params"]) == 49
        and doc["failures"] == []
    )

    # exit 2 on validation errors
    code_bad_param = cli.main(["term", "--kind", "fib", "--a", "0", "--b", "1", "--n", "1"])
    capsys.readouterr()

    # exit 1 needs a failing check; every true identity passes, so inject one
    def fake_suite(grid, max_index, suite="identities", order=None):
        rep = SuiteReport(suite=suite, params=list(grid))
        rep.record("forced", (0,), grid[0], 0, 1)
        return rep

    monkeypatch.setattr(cli, "run_full_suite", fake_suite)
    code_fail = cli.main(["verify", "--a", "1", "--b", "1", "--n-max", "0"])
    capsys.readouterr()

    report_line(
        "criterion 7: exit codes 0/1/2, schema round-trip, default verify in budget",
        code_ok == 0
        and code_bad_param == 2
        and code_fail == 1
        and round_trip
        and schema_ok
        and elapsed < 60.0,
        f"verify took {elapsed:.1f}s, budget 60s",
    )
