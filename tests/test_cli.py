import hashlib
import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from biperiodic import cli
from biperiodic.identities import IdentityCheck, SuiteReport
from biperiodic.sequences import SeqParams


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTerm:
    def test_scalar_lucas(self, capsys):
        code, out, _ = run_cli(capsys, "term", "--kind", "lucas", "--a", "1", "--b", "1", "--n", "6")
        assert code == 0
        assert out == "18\n"

    def test_matrix_json_exact_bytes(self, capsys):
        code, out, _ = run_cli(
            capsys, "term", "--kind", "lucas-matrix", "--a", "1", "--b", "1",
            "--n", "0", "--format", "json",
        )
        assert code == 0
        assert out == '[["1","2"],["2","-1"]]\n'

    def test_zero_parameter_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "term", "--kind", "fib", "--a", "0", "--b", "1", "--n", "3")
        assert code == 2
        assert "parameter a must be nonzero" in err

    def test_scalar_fractional_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "term", "--kind", "fib", "--a=1/2", "--b", "3", "--n", "4"
        )
        assert code == 0
        # q = 0, 1, 1/2, 5/2, 7/4 for a=1/2, b=3
        assert out == "7/4\n"

    def test_negative_index_closed_form(self, capsys):
        code, out, _ = run_cli(
            capsys, "term", "--kind", "fib-matrix", "--a", "2", "--b", "3",
            "--n", "-1", "--format", "json",
        )
        assert code == 0
        assert json.loads(out) == [["0", "3/2"], ["1", "-3"]]

    def test_term_beyond_int_str_digit_limit(self, capsys):
        # F_21000 has 4389 digits, over the interpreter's default limit of 4300
        has_limit = hasattr(sys, "get_int_max_str_digits")
        limit = sys.get_int_max_str_digits() if has_limit else None
        code, out, _ = run_cli(
            capsys, "term", "--kind", "fib", "--a", "1", "--b", "1", "--n", "21000"
        )
        assert code == 0
        if has_limit:
            assert sys.get_int_max_str_digits() == limit
        prev, cur = 0, 1
        for _ in range(21000 - 1):
            prev, cur = cur, prev + cur
        if has_limit:
            sys.set_int_max_str_digits(0)
        try:
            expected = f"{cur}\n"
        finally:
            if has_limit:
                sys.set_int_max_str_digits(limit)
        assert out == expected

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_argument_parsing_keeps_digit_limit(self, capsys):
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SystemExit) as exc:
            cli.main(["term", "--kind", "fib", "--a", "1", "--b", "1", "--n", huge])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err

    def test_binet_source_on_degenerate_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "term", "--kind", "lucas-matrix", "--a", "2", "--b=-2",
            "--n", "3", "--source", "binet",
        )
        assert code == 2
        assert "degenerate" in err

    def test_all_sources_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "term", "--kind", "fib-matrix", "--a", "2", "--b", "3",
            "--n", "7", "--source", "all",
        )
        assert code == 0

    def test_source_rejected_for_scalars(self, capsys):
        code, _, err = run_cli(
            capsys, "term", "--kind", "fib", "--a", "1", "--b", "1",
            "--n", "3", "--source", "binet",
        )
        assert code == 2

    def test_rec_source_needs_nonnegative_index(self, capsys):
        code, _, err = run_cli(
            capsys, "term", "--kind", "fib-matrix", "--a", "1", "--b", "1",
            "--n", "-2", "--source", "rec",
        )
        assert code == 2
        assert "n >= 0" in err

    def test_bad_rational_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            cli.main(["term", "--kind", "fib", "--a", "x", "--b", "1", "--n", "1"])
        assert info.value.code == 2


class TestRationalArguments:
    @pytest.mark.parametrize(
        "text", ["1e-5", "0.5", "1/0", " 3 ", "1_0", "1e3", "+3", "3/-2", "1e-2000000"]
    )
    def test_other_spellings_exit_2(self, capsys, text):
        with pytest.raises(SystemExit) as info:
            cli.main(["term", "--kind", "fib", f"--a={text}", "--b", "1", "--n", "1"])
        assert info.value.code == 2
        assert "not a rational 'p/q' or integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, value", [("-3/2", "-3/2"), ("5/3", "5/3"), ("35", "35"), ("-4/6", "-2/3")]
    )
    def test_grammar_is_accepted(self, capsys, text, value):
        # l_1 = a
        code, out, _ = run_cli(
            capsys, "term", "--kind", "lucas", f"--a={text}", "--b", "1", "--n", "1"
        )
        assert code == 0
        assert out == f"{value}\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_digit_limit_applies_to_rationals(self, capsys):
        huge = "1/" + "3" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(SystemExit) as info:
            cli.main(["term", "--kind", "fib", f"--a={huge}", "--b", "1", "--n", "1"])
        assert info.value.code == 2


class TestTable:
    def test_fib_csv_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--a", "2", "--b", "1",
            "--n", "0", "--n-max", "5", "--format", "csv",
        )
        assert code == 0
        assert out == "index,value\n0,0\n1,1\n2,2\n3,3\n4,8\n5,11\n"

    def test_lucas_classical_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "lucas", "--a", "1", "--b", "1",
            "--n", "0", "--n-max", "4", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[1:] == ["0,2", "1,1", "2,3", "3,4", "4,7"]

    def test_single_row_when_range_collapses(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "lucas", "--a", "1", "--b", "1",
            "--n", "3", "--n-max", "3", "--format", "csv",
        )
        assert code == 0
        assert out == "index,value\n3,4\n"

    def test_reversed_range_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "table", "--kind", "lucas", "--a", "1", "--b", "1",
            "--n", "3", "--n-max", "2",
        )
        assert code == 2
        assert "--n-max" in err

    def test_matrix_csv_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "lucas-matrix", "--a", "1", "--b", "1",
            "--n", "0", "--n-max", "1", "--format", "csv",
        )
        assert code == 0
        assert out == "index,e11,e12,e21,e22\n0,1,2,2,-1\n1,3,1,1,2\n"

    def test_json_round_trips_rationals(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--a=1/2", "--b", "3",
            "--n", "0", "--n-max", "6", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        params = SeqParams(F(1, 2), 3)
        from biperiodic.sequences import q

        for row in rows:
            assert F(row["value"]) == q(params, row["index"])

    def test_lf_line_endings(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "--kind", "fib", "--a", "1", "--b", "1",
            "--n", "0", "--n-max", "2", "--format", "csv",
        )
        assert "\r" not in out


class TestSeries:
    def test_five_rows_all_match(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--a", "1", "--b", "1", "--order", "5"
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all("match=True" in line for line in lines)

    def test_negative_b_three_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--a", "3", "--b=-1", "--order", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].endswith(",match")
        assert len(lines) == 4
        assert all(line.endswith(",true") for line in lines[1:])

    def test_zero_order_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "series", "--a", "1", "--b", "1", "--order", "0")
        assert code == 2
        assert "order must be >= 1" in err

    def test_json_structure(self, capsys):
        code, out, _ = run_cli(
            capsys, "series", "--a", "2", "--b", "1", "--order", "4", "--format", "json"
        )
        rows = json.loads(out)
        assert [r["index"] for r in rows] == [0, 1, 2, 3]
        assert all(r["match"] for r in rows)
        assert rows[0]["series"] == rows[0]["recurrence"]


class TestVerify:
    def test_single_pair_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2", "--b", "3", "--n-max", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        assert doc["checks_run"] > 0
        assert doc["suite"] == "full"

    def test_degenerate_pair_skips_annotated(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2", "--b=-2", "--n-max", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["failures"] == []
        reasons = [s["reason"] for s in doc["skipped"]]
        assert reasons and all("ab = -4 degenerate" in r for r in reasons)

    def test_boundary_n_max_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "1", "--b", "1", "--n-max", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks_run"] > 0

    def test_expected_failures_documented(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--a", "2", "--b", "3", "--n-max", "4")
        doc = json.loads(out)
        names = {x["name"] for x in doc["expected_failures"]}
        assert names == {
            "thm6.iii.negctl", "invsum.finite.negctl", "invsum.infinite.negctl",
        }
        assert all(x["reason"] for x in doc["expected_failures"])

    def test_schema_round_trip(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "--a", "2", "--b", "3", "--n-max", "3")
        doc = json.loads(out)
        assert SuiteReport.from_json_dict(doc).to_json_dict() == doc

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--a", "1", "--b", "2", "--n-max", "3")
        _, second, _ = run_cli(capsys, "verify", "--a", "1", "--b", "2", "--n-max", "3")
        assert first == second

    def test_timestamps_flag_adds_field(self, capsys):
        _, plain, _ = run_cli(capsys, "verify", "--a", "1", "--b", "2", "--n-max", "2")
        _, stamped, _ = run_cli(
            capsys, "verify", "--a", "1", "--b", "2", "--n-max", "2", "--timestamps"
        )
        assert "generated_at" not in json.loads(plain)
        assert "generated_at" in json.loads(stamped)

    def test_exit_1_when_a_check_fails(self, capsys, monkeypatch):
        # no true identity ever fails, so force one through the suite runner
        def fake_suite(grid, max_index, suite="identities"):
            report = SuiteReport(suite=suite, params=list(grid))
            report.tally(
                IdentityCheck(
                    "thm7.i.closed", (1, 2), grid[0],
                    None, None, False,
                )
            )
            return report

        monkeypatch.setattr(cli, "run_full_suite", fake_suite)
        code, out, _ = run_cli(capsys, "verify", "--a", "1", "--b", "1", "--n-max", "2")
        assert code == 1
        doc = json.loads(out)
        assert doc["failures"][0]["name"] == "thm7.i.closed"

    def test_mismatched_param_flags(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--a", "2", "--n-max", "2")
        assert code == 2
        assert "--a and --b" in err


GOLDEN_DEFAULT = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden_verify.json").read_text()
)


class TestGoldenReports:
    """sha256 of the whole verify report: any change to a record, its order
    or its rendering changes the digest."""

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            ((), 0, GOLDEN_DEFAULT["stdout_sha256"]),
            # ab = -4: the Binet comparisons are skip records
            (("--a", "2", "--b=-2", "--n-max", "6"), 0,
             "a46c5c27e01ee30fe36084ddad994f9e8c4f594d7cd66dbfc177206dfc88e28d"),
            # a^2 = b^2: no thm6 negative control
            (("--a", "1", "--b", "1", "--n-max", "4"), 0,
             "b857aace85d115fc063344676e6456f7b84406d292f6de191f8164b1ddfc5cbb"),
            (("--a=-3/2", "--b=5/3", "--n-max", "8"), 0,
             "11ecc4127497e7030424f3c7f3586cc78f27b2f9af5f4f7db4e4cf8c4ca1bec0"),
        ],
        ids=["default", "degenerate", "unit-ratio", "rational"],
    )
    def test_report_digest(self, capsys, argv, code, digest):
        got_code, out, _ = run_cli(capsys, "verify", *argv)
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "biperiodic", "term", "--kind", "lucas",
         "--a", "1", "--b", "1", "--n", "6"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "18\n"


def test_rational_round_trip_through_wire_format():
    for value in [F(5, 6), F(-3, 2), F(7), F(0), F(-1, 9)]:
        assert F(str(value)) == value
