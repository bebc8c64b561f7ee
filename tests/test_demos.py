"""The demo scripts run against the current API, and every name the package
exports exists, so a deletion that breaks either fails here."""

import runpy
from pathlib import Path

import pytest

import biperiodic

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


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
