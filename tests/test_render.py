"""Tests for the terminal chart renderer and the CLI output options."""

from __future__ import annotations

import json

from repro.cli import main
from repro.harness.render import render_experiment, render_series
from repro.harness.report import Check, ExperimentResult


class TestRenderSeries:
    def test_bars_scale_to_peak(self):
        text = render_series("s", {"a": 2.0, "b": 1.0})
        lines = text.splitlines()
        bar_a = lines[1].split()[1]
        bar_b = lines[2].split()[1]
        assert len(bar_a) > len(bar_b)

    def test_empty_for_non_numeric(self):
        assert render_series("s", {"a": "text"}) == ""

    def test_zero_values_safe(self):
        text = render_series("s", {"a": 0.0, "b": 0.0})
        assert "a" in text  # renders labels without dividing by zero


class TestRenderExperiment:
    def test_flat_and_nested_series(self):
        result = ExperimentResult(
            "figX", "Title",
            series={
                "flat": {"a": 1.0, "b": 2.0},
                "nested": {"net1": {"x": 0.5}, "net2": {"x": 0.7}},
            },
        )
        text = render_experiment(result)
        assert "figX" in text
        assert "flat" in text
        assert "nested / net1" in text and "nested / net2" in text

    def test_skips_unchartable(self):
        result = ExperimentResult("figY", "T", series={"meta": {"a": "str"}})
        text = render_experiment(result)
        assert "figY" in text and "meta" not in text


class TestCliOutputs:
    def test_chart_flag(self, capsys):
        assert main(["harness", "run", "fig09", "--no-cache", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "█" in out

    def test_json_export(self, tmp_path, capsys):
        assert main(
            ["harness", "run", "table2", "--no-cache", "--json-dir", str(tmp_path)]
        ) == 0
        payload = json.loads((tmp_path / "table2.json").read_text())
        assert payload["id"] == "table2"
        assert all(check["passed"] for check in payload["checks"])
