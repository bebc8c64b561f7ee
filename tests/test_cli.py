import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

from biperiodic import cli, identities, matrixseq, series
from biperiodic.exact import Mat2, _spelled
from biperiodic.identities import SuiteReport
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

    def test_failed_calls_leave_the_reused_parser_intact(self, capsys):
        # main() keeps one parser per process: a rejected call must not
        # change what the next call parses or prints
        assert cli._parser() is cli._parser()
        with pytest.raises(SystemExit) as exc:
            cli.main(["term", "--kind", "fib", "--a", "0.5", "--b", "1", "--n", "3"])
        assert exc.value.code == 2
        assert "not a rational" in capsys.readouterr().err
        code, _, err = run_cli(capsys, "table", "--kind", "fib", "--a", "1", "--b", "1",
                               "--n", "5", "--n-max", "2")
        assert code == 2 and "--n-max must be >= --n" in err
        code, out, err = run_cli(capsys, "term", "--kind", "fib-matrix", "--a", "2",
                                 "--b", "3", "--n", "-1", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == [["0", "3/2"], ["1", "-3"]]
        code, out, _ = run_cli(capsys, "table", "--kind", "fib", "--a", "1", "--b", "1",
                               "--n", "0", "--n-max", "3")
        assert code == 0
        assert out == "index,value\n0,0\n1,1\n2,1\n3,2\n"

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

    def test_every_source_at_negative_index_equals_closed(self, capsys):
        argv = ["term", "--kind", "fib-matrix", "--a", "1", "--b", "1", "--n", "-2"]
        closed = run_cli(capsys, *argv, "--source", "closed")
        assert closed == (0, "[[1, -1], [-1, 2]]\n", "")
        for source in ("rec", "binet", "all"):
            assert run_cli(capsys, *argv, "--source", source) == closed, source

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

    @pytest.mark.parametrize("flag", ["--a", "--n", "--format"])
    def test_double_dash_value_exits_2(self, capsys, flag):
        argv = ["term", "--kind", "fib", "--a", "1", "--b", "1", "--n", "1", f"{flag}=--"]
        with pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 2
        assert "'--'" in capsys.readouterr().err

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

    @pytest.mark.parametrize("kind", ["fib-matrix", "lucas-matrix"])
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_closed_rows_match_the_closed_matrices(self, capsys, kind, fmt):
        # each row the three-term window spells is the closed matrix's entry
        # texts, and the whole table is the bytes of --source all, which builds
        # every matrix (only the closed one below 0)
        closed = (matrixseq.fib_matrix_closed if kind == "fib-matrix"
                  else matrixseq.lucas_matrix_closed)
        for a, b, lo, hi in (("1/2", "5/3", -9, 9), ("5", "7", 3, 12),
                             ("3/2", "-2/3", -20, -11), ("2", "-2", 0, 0), ("-1", "1", 1, 1)):
            p = SeqParams(F(a), F(b))
            rows = matrixseq._closed_texts(SeqParams(F(a), F(b)), kind == "fib-matrix", lo, hi)
            for n, row in zip(range(lo, hi + 1), rows, strict=True):
                assert row == _spelled(closed(p, n)), (a, b, n)
            argv = ["table", "--kind", kind, f"--a={a}", f"--b={b}", f"--n={lo}",
                    "--n-max", str(hi), "--format", fmt]
            _, out, _ = run_cli(capsys, *argv)
            _, out_all, _ = run_cli(capsys, *argv, "--source", "all")
            assert out == out_all

    @pytest.mark.parametrize("kind", ["fib-matrix", "lucas-matrix"])
    @pytest.mark.parametrize("a, b", [("5", "7"), ("1/2", "5/3"), ("3/2", "-2/3"), ("2", "-2"),
                                      ("1/2", "-3/5")],
                             ids=["fast", "slow", "bounded", "ab=-4", "D<0"])
    def test_walked_rows_match_the_per_index_routes(self, capsys, kind, a, b):
        # rec rows are one walk from two transfer powers and all rows check it
        # row by row; each row is the per-index transfer power (rec) or the
        # closed form (all), from even and odd starts, on either side of 0 and
        # across it, and in one-row ranges
        p = SeqParams(F(a), F(b))
        fib = kind == "fib-matrix"
        routes = {"rec": matrixseq.fib_matrix_rec if fib else matrixseq.lucas_matrix_rec,
                  "all": matrixseq.fib_matrix_closed if fib else matrixseq.lucas_matrix_closed}
        ranges = [(0, 0), (1, 1), (9, 9), (0, 12), (1, 13), (8, 20), (9, 21),
                  (-7, 6), (-6, 0), (-3, 1), (-9, -2), (-5, -5)]
        for source, lo, hi in [*(("rec", *r) for r in ranges), *(("all", *r) for r in ranges)]:
            code, out, err = run_cli(capsys, "table", "--kind", kind, f"--a={a}", f"--b={b}",
                                     f"--n={lo}", "--n-max", str(hi), "--source", source)
            rows = "".join(f"{n},{','.join(_spelled(routes[source](p, n)))}\n"
                           for n in range(lo, hi + 1))
            assert (code, out, err) == (0, "index,e11,e12,e21,e22\n" + rows, ""), (source, lo)


# Every exit-2 call of TestTerm and TestTable, and the range and route checks
# a call makes before its first row
REJECTED = [
    ["term", "--kind", "fib", "--a", "0", "--b", "1", "--n", "3"],
    ["term", "--kind", "fib", "--a", "x", "--b", "1", "--n", "1"],
    ["term", "--kind", "fib", "--a", "0.5", "--b", "1", "--n", "3"],
    ["term", "--kind", "fib", "--a", "1", "--b", "1", "--n", "3", "--source", "binet"],
    ["term", "--kind", "lucas-matrix", "--a", "2", "--b=-2", "--n", "3", "--source", "binet"],
    ["term", "--kind", "fib-matrix", "--a", "2", "--b=-2", "--n=-2", "--source", "binet"],
    ["table", "--kind", "lucas", "--a", "1", "--b", "1", "--n", "3", "--n-max", "2"],
    ["table", "--kind", "fib", "--a", "1", "--b", "1", "--n", "0", "--n-max", "4",
     "--source", "closed"],
    ["table", "--kind", "lucas-matrix", "--a=5/3", "--b=1/2", "--n=-3", "--n-max=-5",
     "--source", "rec"],
    ["table", "--kind", "fib-matrix", "--a=-1", "--b", "4", "--n=-1", "--n-max", "4",
     "--source", "binet"],
    ["table", "--kind", "lucas-matrix", "--a", "2", "--b=-2", "--n", "0", "--n-max", "4",
     "--source", "binet"],
]


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
@pytest.mark.parametrize("argv", REJECTED, ids=" ".join)
def test_rejected_call_prints_nothing(capsys, argv, fmt):
    try:
        code = cli.main([*argv, "--format", fmt])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err


@pytest.mark.parametrize("fmt", ["plain", "json", "csv"])
def test_route_disagreement_exits_2_after_the_rows_written(capsys, monkeypatch, fmt):
    # a Binet route that is wrong from n = 3 on: a term stops before it
    # writes, and a table keeps the rows written before the disagreement
    binet = cli.fib_matrix_binet
    monkeypatch.setattr(cli, "fib_matrix_binet",
                        lambda p, n: binet(p, n) + Mat2.identity() if n >= 3 else binet(p, n))
    params = ["--kind", "fib-matrix", "--a=1/2", "--b=5/3", "--format", fmt]
    _, agreed, _ = run_cli(capsys, "table", *params, "--n", "0", "--n-max", "2")
    message = "error: computation routes disagree; please report this\n"
    assert run_cli(capsys, "term", *params, "--n", "3", "--source", "all") == (2, "", message)
    code, out, err = run_cli(capsys, "table", *params, "--n=-2", "--n-max", "5",
                             "--source", "all")
    _, below, _ = run_cli(capsys, "table", *params, "--n=-2", "--n-max", "-1")
    assert (code, err) == (2, message)
    if fmt == "json":
        assert out == below[:-2] + "," + agreed[1:-2]
    elif fmt == "csv":
        assert out == below + agreed.split("\n", 1)[1]
    else:
        assert out == below + agreed


def test_closed_pipe_exits_1_quietly():
    # the table is megabytes long, so the reader closes it mid-stream
    proc = subprocess.Popen(
        [sys.executable, "-m", "biperiodic", "table", "--kind", "fib", "--a", "1",
         "--b", "1", "--n", "0", "--n-max", "5000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    with proc.stdout, proc.stderr:
        assert proc.stdout.read(16) == b"index,value\n0,0\n"
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


class _ByteCounter:
    """A stdout that keeps nothing but the number of bytes written to it."""

    def __init__(self):
        self.written = 0

    def write(self, text):
        self.written += len(text.encode())
        return len(text)

    def flush(self):
        pass


def _table_peak(argv):
    """The tracemalloc peak of one in-process call and the bytes it wrote."""
    sink = _ByteCounter()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak, sink.written


def test_table_holds_one_row_not_the_range():
    # the range holds the bare and ratio-scaled texts of l_0..l_700, read
    # signed below 0 and then again from 0 up (the peak reads 0.40 of the
    # 2.0 MB written), so this bounds the rows kept beside them: building the
    # whole table first peaks at about 5x its size
    peak, written = _table_peak(
        ["table", "--kind", "lucas-matrix", "--a=5/3", "--b=1/2", "--n=-700",
         "--n-max", "700", "--format", "json", "--source", "closed"])
    assert peak < written


def test_table_from_zero_keeps_no_terms():
    # from n = 0 up, the rows come from one walk that stores nothing, so the
    # peak is a few rows: it reads 0.01 of the 3.9 MB written, and the bound
    # leaves 5x of that; a memo of l_0..l_1401 would read 0.16
    peak, written = _table_peak(
        ["table", "--kind", "lucas-matrix", "--a=5/3", "--b=1/2", "--n=0",
         "--n-max", "1400", "--format", "json"])
    assert peak < 0.05 * written


def test_rec_table_keeps_two_rows_not_the_range():
    # the walk holds the two matrices it steps from: the peak reads 0.034 of
    # the 3.9 MB written, and a walk kept whole would read 0.44
    peak, written = _table_peak(
        ["table", "--kind", "lucas-matrix", "--a=5/3", "--b=1/2", "--n=0",
         "--n-max", "1400", "--format", "json", "--source", "rec"])
    assert peak < 0.1 * written


@pytest.mark.parametrize("kind", ["fib-matrix", "lucas-matrix"])
@pytest.mark.parametrize("source", ["rec", "all"])
def test_a_range_makes_two_transfer_powers(capsys, monkeypatch, kind, source):
    # v_lo and v_lo+1 by transfer power, the rest by one step each, and a
    # term by its one power; a range across 0 is one walk from below 0 too
    made = []
    for name in ("fib_matrix_rec", "lucas_matrix_rec"):
        rec = getattr(matrixseq, name)
        monkeypatch.setattr(matrixseq, name, lambda p, n, rec=rec: made.append(n) or rec(p, n))
    params = ["--kind", kind, "--a=1/2", "--b=5/3", "--source", source]
    cases = [(["table", "--n", "0", "--n-max", "1"], [0, 1]),
             (["table", "--n", "7", "--n-max", "60"], [7, 8]),
             (["term", "--n", "7"], [7]),
             (["table", "--n=-3", "--n-max", "30"], [-3, -2])]
    for argv, powers in cases:
        made.clear()
        code, _, _ = run_cli(capsys, *argv, *params)
        assert (code, made) == (0, powers), argv


@pytest.mark.parametrize("argv", [
    ["--kind", "fib", "--a=5", "--b=7", "--n", "4000", "--format", "csv"],
    ["--kind", "lucas-matrix", "--a=5/3", "--b=1/2", "--n", "1400", "--format", "json"],
])
def test_term_keeps_one_term_not_the_memo(argv):
    # a term from 0 up is a one-row walk that stores nothing: the peaks read
    # 5.3x (fib) and 3.2x (lucas-matrix) of the bytes written, and the bound
    # leaves about 4x over the higher; a memo of the terms up to n reads
    # about 1,000x and 108x
    cli._parser()
    peak, written = _table_peak(["term", *argv])
    assert peak < 20 * written, (peak, written)


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

    def test_suites_build_each_lucas_term_once(self, capsys, monkeypatch):
        # the identity and series suites share one k -> L_k per pair
        built = []
        for module in (identities, series):
            closed = module.lucas_matrix_closed
            monkeypatch.setattr(module, "lucas_matrix_closed",
                                lambda p, k, closed=closed: built.append(k) or closed(p, k))
        code, _, _ = run_cli(capsys, "verify", "--a=1/2", "--b=3", "--n-max", "12")
        assert code == 0
        assert sorted(built) == list(range(-12, 25))

    def test_verify_products_are_bounded(self, capsys, monkeypatch):
        # counts work, not time: every Mat2 product, by a matrix or a
        # scalar, as perfbench/tracing.py counts exact.mat2_mul.calls
        calls = []
        for name in ("__mul__", "__rmul__"):
            method = Mat2.__dict__[name]
            monkeypatch.setattr(
                Mat2, name, lambda x, y, method=method: calls.append(1) or method(x, y)
            )
        code, _, _ = run_cli(capsys, "verify", "--a=1/2", "--b=3")
        assert code == 0
        assert len(calls) <= 2400

    def test_exit_1_when_a_check_fails(self, capsys, monkeypatch):
        # no true identity ever fails, so force one through the suite runner
        def fake_suite(grid, max_index, suite="identities", order=None):
            report = SuiteReport(suite=suite, params=list(grid))
            report.record("thm7.i.closed", (1, 2), grid[0], 1, 2)
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


def test_benchmark_trace_mode_installs():
    # perfbench/tracing.py patches package functions and Mat2/QuadElement
    # methods by name; renaming one must fail here, not only under --trace
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    proc = subprocess.run(
        [sys.executable, "-c", "import biperiodic.cli, tracing; tracing.Tracer().install()"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr


def test_rational_round_trip_through_wire_format():
    for value in [F(5, 6), F(-3, 2), F(7), F(0), F(-1, 9)]:
        assert F(str(value)) == value
