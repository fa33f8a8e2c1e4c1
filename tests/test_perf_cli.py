"""Tests for the ``repro simulate`` subcommand and the small-sample
statistics in :mod:`repro.perf.stats`."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf.stats import compare_samples, mann_whitney_u, summarize


class TestSimulateCli:
    def test_light_run_prints_table(self, capsys, tmp_path):
        exit_code = main([
            "simulate", "gru", "--fidelity", "light", "--cache-dir", str(tmp_path),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "gru" in out and "cycles" in out

    def test_json_output(self, capsys, tmp_path):
        exit_code = main([
            "simulate", "gru", "--fidelity", "light", "--json",
            "--cache-dir", str(tmp_path),
        ])
        assert exit_code == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["network"] == "gru"
        assert rows[0]["total_cycles"] > 0
        assert rows[0]["kernels"] > 0

    def test_no_cache_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        exit_code = main(["simulate", "gru", "--fidelity", "light", "--no-cache"])
        assert exit_code == 0
        assert not (tmp_path / "cache").exists()

    def test_cache_reused_across_invocations(self, capsys, tmp_path):
        args = ["simulate", "gru", "--fidelity", "light", "--json",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        first = json.loads(capsys.readouterr().out)
        assert list((tmp_path / "runs").glob("*.json"))
        assert main(args) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_parallel_jobs_match_serial(self, capsys, tmp_path):
        serial_args = ["simulate", "gru", "lstm", "--fidelity", "light", "--json",
                       "--no-cache"]
        assert main(serial_args) == 0
        serial = json.loads(capsys.readouterr().out)
        parallel_args = ["simulate", "gru", "lstm", "--fidelity", "light", "--json",
                         "--jobs", "2", "--cache-dir", str(tmp_path)]
        assert main(parallel_args) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert serial == parallel  # same results, same (input) order

    def test_unknown_network_rejected(self, capsys):
        assert main(["simulate", "nonesuch", "--fidelity", "light"]) == 2
        assert "unknown network" in capsys.readouterr().err


class TestStats:
    def test_summarize_single_sample(self):
        stats = summarize([2.5])
        assert stats == {"n": 1, "mean": 2.5, "std": 0.0, "ci95": 0.0}

    def test_summarize_known_values(self):
        stats = summarize([1.0, 2.0, 3.0])
        assert stats["mean"] == 2.0
        assert stats["std"] == pytest.approx(1.0)
        # t(0.975, df=2) = 4.303; CI = t * s / sqrt(n)
        assert stats["ci95"] == pytest.approx(4.303 / 3 ** 0.5, rel=1e-3)

    def test_summarize_rejects_empty(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_mann_whitney_separated_samples(self):
        test = mann_whitney_u([1, 2, 3, 4, 5], [6, 7, 8, 9, 10])
        assert test["u"] == 25.0  # candidate wins every pair
        assert test["p"] < 0.01

    def test_mann_whitney_identical_samples(self):
        assert mann_whitney_u([1, 2, 3], [1, 2, 3])["p"] > 0.5
        assert mann_whitney_u([5, 5, 5], [5, 5, 5])["p"] == 1.0

    def test_mann_whitney_direction_is_one_sided(self):
        # A *faster* candidate must never look significant.
        test = mann_whitney_u([6, 7, 8, 9, 10], [1, 2, 3, 4, 5])
        assert test["p"] > 0.95

    def test_compare_requires_threshold_and_significance(self):
        slow = compare_samples(
            [1.0, 1.02, 0.98, 1.01, 0.99], [2.0, 2.02, 1.98, 2.01, 1.99]
        )
        assert slow["slower"] and slow["method"] == "mann-whitney"
        # Significant but under the ratio threshold: not a regression.
        small = compare_samples(
            [1.0, 1.02, 0.98, 1.01, 0.99],
            [1.05, 1.07, 1.03, 1.06, 1.04],
            threshold=1.10,
        )
        assert small["p"] < 0.05 and not small["slower"]
        # Over the threshold but pure noise: not a regression either.
        noisy = compare_samples([1.0, 2.0, 0.5], [1.1, 2.2, 0.55], threshold=1.05)
        assert not noisy["slower"]

    def test_compare_single_sample_falls_back_to_ratio(self):
        verdict = compare_samples([1.0], [1.5])
        assert verdict["method"] == "ratio-only"
        assert verdict["p"] is None
        assert verdict["slower"]
        assert not compare_samples([1.0], [1.05])["slower"]


@pytest.mark.parametrize("argv", [
    ["simulate", "gru", "--engine", "fast"],
    ["serve", "--loop", "heap"],
    ["bench", "--serve", "--gate"],
    ["bench", "gru", "--repeats", "3"],
    ["bench", "--serve"],
    ["simulate", "gru", "--fidelity", "light", "--no-cache", "--engine", "seed"],
    ["simulate", "gru", "--light", "--no-cache"],
    ["bench", "gru"],
])
def test_removed_options_are_rejected(capsys, argv):
    # Selectors of deleted engines, loops, gates and benches, and the
    # retired --light spelling, must be refused, never silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("command", [["simulate"], ["trace", "simulate"]],
                         ids=["simulate", "trace-simulate"])
def test_unknown_platform_is_a_one_line_error(capsys, command):
    assert main(command + ["gru", "--platform", "nonesuch", "--no-cache"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: unknown platform 'nonesuch'; available: ")
