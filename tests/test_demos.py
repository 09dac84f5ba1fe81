"""Smoke test: every narrative demo runs to completion."""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(path, capsys):
    try:
        runpy.run_path(str(path), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
