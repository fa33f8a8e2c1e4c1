"""Tests for the harness CLI (``repro harness run``), :func:`run_all` and
the console scripts ``pyproject.toml`` declares."""

from __future__ import annotations

import importlib
import tomllib
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.suite import run_all

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


class TestCli:
    def test_selected_analytic_experiments(self, capsys):
        exit_code = main(["harness", "run", "table2", "fig09", "--no-cache"])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "table2" in out and "fig09" in out
        assert "0 failed" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_all(ids=["fig99"], cache_dir=None, verbose=False)

    def test_run_all_returns_results(self):
        results = run_all(ids=["table1", "table4"], cache_dir=None, verbose=False)
        assert [r.exp_id for r in results] == ["table1", "table4"]
        assert all(r.all_passed for r in results)

    def test_notes_carry_timing(self):
        results = run_all(ids=["table2"], cache_dir=None, verbose=False)
        assert "s]" in results[0].notes


@pytest.mark.parametrize(
    "name,target", sorted(tomllib.loads(PYPROJECT.read_text())["project"]["scripts"].items())
)
def test_console_script_resolves_to_a_callable(name, target):
    # A console script left pointing at a deleted function fails here,
    # not at install time.
    module, _, attr = target.partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None)), target
