"""In-process fuzz of the CLI: bounded argument lists for every subcommand,
with good and malformed rationals, must end in exit code 0, 1 or 2 (returned
by ``cli.main`` or raised by argparse as ``SystemExit``) and never in any
other exception. Costs are kept small by the bounds: |n| <= 60, order <= 30,
and ``verify`` always on one given pair with n-max <= 2.

The tests set no deadline anywhere. Where ``CI`` is set, recent Hypothesis
releases load their built-in ``ci`` profile, which ``conftest.py`` keeps, so
CI runs them derandomized: the same examples on every run. That is wanted:
a CI failure then replays from the commit alone, and local runs keep drawing
new examples."""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biperiodic import cli

good_rationals = st.fractions(min_value=-12, max_value=12, max_denominator=9).map(str)
bad_rationals = st.one_of(
    st.sampled_from(
        ["", "abc", "1/0", "0/0", "1.5", "1e3", "+3", "1//2", " 1", "1/-2", "--", "2/", "/3"]
    ),
    st.text(alphabet="0123456789/-+. e", max_size=6),
)
rationals = st.one_of(good_rationals, good_rationals, bad_rationals)
indices = st.integers(-60, 60)
kinds = st.sampled_from(cli.SCALAR_KINDS + cli.MATRIX_KINDS)
formats = st.sampled_from((None, "plain", "json", "csv"))
sources = st.sampled_from((None, "rec", "closed", "binet", "all"))


def _opt(flag, value):
    return [] if value is None else [f"{flag}={value}"]


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(("term", "table", "series", "verify")))
    argv = [command, f"--a={draw(rationals)}", f"--b={draw(rationals)}"]
    if command in ("term", "table"):
        argv += [f"--kind={draw(kinds)}", f"--n={draw(indices)}"]
        if command == "table":
            argv.append(f"--n-max={draw(indices)}")
        argv += _opt("--format", draw(formats)) + _opt("--source", draw(sources))
    elif command == "series":
        argv += [f"--order={draw(st.integers(-2, 30))}"] + _opt("--format", draw(formats))
    else:
        argv += [f"--n-max={draw(st.integers(-2, 2))}", f"--order={draw(st.integers(-2, 30))}"]
    if command != "verify" and draw(st.booleans()):
        # a missing required option or a stray token is a usage error
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_exits_0_1_or_2_without_escaping_exceptions(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
