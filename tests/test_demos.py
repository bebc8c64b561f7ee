"""The demo scripts and README's library tour run against the current API,
and every name the package exports exists, so a deletion that breaks any of
them fails here."""

import re
import runpy
from pathlib import Path

import pytest

import biperiodic

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_every_export_resolves():
    missing = [name for name in biperiodic.__all__ if not hasattr(biperiodic, name)]
    assert not missing
    assert len(set(biperiodic.__all__)) == len(biperiodic.__all__)


def test_readme_library_tour_runs():
    readme = (ROOT / "README.md").read_text()
    (tour,) = re.findall(r"## Library tour\n\n```python\n(.*?)```", readme, re.S)
    namespace = {}
    exec(tour, namespace)
    assert namespace["lhs"] == namespace["rhs"]
    assert namespace["report"].ok
