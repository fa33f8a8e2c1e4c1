"""Tests for the ``repro serve`` and ``repro cache`` subcommands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestServeCli:
    def test_light_poisson_run_json(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102,tx1",
            "--rps", "400", "--requests", "300", "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--seed", "1", "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["scheduler"] == "latency-aware"
        assert stats["offered"] == 300
        assert stats["completed"] + stats["shed"] == 300
        assert len(stats["devices"]) == 2

    def test_seed_reproducibility(self, capsys, tmp_path):
        args = [
            "serve", "--networks", "gru", "--devices", "gp102",
            "--rps", "200", "--requests", "200", "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--seed", "9", "--json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_scheduler_comparison_text_and_report(self, capsys, tmp_path):
        report = tmp_path / "serve.md"
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102,tx1",
            "--rps", "300", "--requests", "200", "--fidelity", "light",
            "--cache-dir", str(tmp_path),
            "--scheduler", "round-robin,latency-aware",
            "--report", str(report),
        ])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "scheduler=round-robin" in out
        assert "scheduler=latency-aware" in out
        text = report.read_text()
        assert "| scheduler" in text and "round-robin" in text

    def test_extension_network_served(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "mobilenet", "--devices", "gp102",
            "--rps", "100", "--requests", "50", "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["per_network"].get("mobilenet", {}).get("completed", 0) > 0

    def test_trace_workload(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps([
            {"time_ms": 0.0, "network": "gru"},
            {"time_ms": 1.0, "network": "gru"},
            {"time_ms": 2.0, "network": "gru"},
        ]))
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102",
            "--arrival", "trace", "--trace", str(trace), "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        assert json.loads(capsys.readouterr().out)["offered"] == 3

    def test_trace_without_path_errors(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "gru", "--arrival", "trace",
            "--fidelity", "light", "--cache-dir", str(tmp_path),
        ])
        assert exit_code == 2

    def test_unknown_network_errors(self, capsys):
        assert main(["serve", "--networks", "transformer"]) == 2

    def test_unknown_scheduler_errors(self, capsys):
        assert main([
            "serve", "--networks", "gru", "--scheduler", "fifo",
        ]) == 2

    def test_bad_fleet_errors(self, capsys):
        assert main([
            "serve", "--networks", "gru", "--devices", "warpdrive",
        ]) == 2

    @pytest.mark.parametrize("flag,value,message", [
        ("--batch", "0", "serve: max_batch must be >= 1, got 0"),
        ("--batch-timeout-ms", "-1", "serve: batch_timeout_ms must be >= 0, got -1.0"),
        ("--queue", "0", "serve: max_queue must be >= 1, got 0"),
        ("--slo-ms", "0", "serve: slo_ms must be > 0, got 0.0"),
        ("--rps", "0", "serve: rps must be > 0"),
    ])
    def test_out_of_range_knob_is_one_line_diagnosis(
        self, capsys, tmp_path, flag, value, message
    ):
        exit_code = main([
            "serve", "--networks", "gru", "--rps", "100", "--requests", "200",
            "--fidelity", "light", "--cache-dir", str(tmp_path), flag, value,
        ])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == message + "\n"
        # Rejected before any profile was built.
        assert not any(tmp_path.iterdir())

    def test_failed_profile_run_is_one_line_diagnosis(
        self, capsys, tmp_path, hopeless_platform
    ):
        exit_code = main([
            "serve", "--networks", "cifarnet", "--devices", "hopeless",
            "--rps", "100", "--requests", "50", "--fidelity", "light",
            "--cache-dir", str(tmp_path),
        ])
        assert exit_code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cifarnet on Hopeless: MappingError: conv1: a 1-channel, "
            "1-row, 1-input-channel conv tile still exceeds 64 bytes on "
            "Hopeless\n"
        )


SCENARIO_TOML = """\
[scenario]
name = "cli-test"
seed = 3

[fleet]
devices = "gp102:2"

[serving]
scheduler = "least-loaded"
slo_ms = 30.0
max_queue = 16

[admission]
policy = "slo-aware"

[[tenants]]
name = "rt"
slo_ms = 5.0
[tenants.arrival]
kind = "poisson"
rps = 800.0
requests = 200
networks = ["gru"]

[[tenants]]
name = "bulk"
slo_ms = 60.0
priority = 2
[tenants.arrival]
kind = "closed"
clients = 4
requests = 100
networks = ["gru"]
think_ms = 1.0
"""


class TestScenarioCli:
    def write_scenario(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(SCENARIO_TOML)
        return path

    def test_scenario_json_schema(self, capsys, tmp_path):
        path = self.write_scenario(tmp_path)
        exit_code = main([
            "serve", "--scenario", str(path), "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["scheduler"] == "least-loaded"
        assert stats["offered"] == 300
        # The documented per-tenant schema: SLO attainment and
        # cost-per-request for every declared tenant.
        assert set(stats["per_tenant"]) == {"rt", "bulk"}
        for tenant in stats["per_tenant"].values():
            assert {"slo_attainment", "goodput_ratio",
                    "cost_per_request_j", "shed"} <= set(tenant)
        assert {"total_j", "cost_per_request_j"} <= set(stats["energy"])
        assert sum(stats["shed_reasons"].values()) == stats["shed"]

    def test_malformed_scenario_is_one_line_diagnosis(self, capsys, tmp_path):
        # An unknown key (here an event-loop selector) makes a scenario
        # malformed: exit 2 with one stderr line, never a traceback.
        path = tmp_path / "scenario.toml"
        path.write_text(
            SCENARIO_TOML.replace("seed = 3\n", 'seed = 3\nloop = "fast"\n')
        )
        exit_code = main([
            "serve", "--scenario", str(path), "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "serve scenario: unknown key 'loop' in [scenario]; "
            "known keys: name, description, seed\n"
        )

    def test_out_of_range_scenario_knob_is_one_line_diagnosis(
        self, capsys, tmp_path
    ):
        path = tmp_path / "scenario.toml"
        path.write_text(
            SCENARIO_TOML.replace("max_queue = 16\n", "max_queue = 16\nmax_batch = 0\n")
        )
        exit_code = main([
            "serve", "--scenario", str(path), "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--json",
        ])
        assert exit_code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "serve scenario: max_batch must be >= 1, got 0\n"

    def test_scenario_text_output_mentions_tenants(self, capsys, tmp_path):
        path = self.write_scenario(tmp_path)
        assert main([
            "serve", "--scenario", str(path), "--fidelity", "light",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "rt" in out and "bulk" in out

    def test_scenario_flags_conflict_with_workload_flags(self, tmp_path):
        path = self.write_scenario(tmp_path)
        # --scenario owns the workload; a bad scenario path must fail
        # loudly rather than fall back to flag defaults.
        assert main([
            "serve", "--scenario", str(tmp_path / "missing.toml"),
            "--fidelity", "light", "--cache-dir", str(tmp_path),
        ]) == 2

    def test_admission_flag_without_scenario(self, capsys, tmp_path):
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102",
            "--rps", "2000", "--requests", "400", "--fidelity", "light",
            "--cache-dir", str(tmp_path), "--slo-ms", "2",
            "--queue", "8", "--admission", "slo-aware", "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["shed"] > 0
        assert set(stats["shed_reasons"]) <= {"overflow", "priority", "slo"}


class TestCacheCli:
    def test_stats_empty_dir(self, capsys, tmp_path):
        exit_code = main([
            "cache", "stats", "--cache-dir", str(tmp_path / "nope"), "--json",
        ])
        assert exit_code == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0 and stats["bytes"] == 0

    def test_stats_then_clear_roundtrip(self, capsys, tmp_path):
        # Populate the cache through a simulation run.
        assert main([
            "simulate", "gru", "--fidelity", "light", "--cache-dir", str(tmp_path),
        ]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] > 0
        assert stats["bytes"] > 0
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", str(tmp_path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_stats_text_output(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cache dir:" in out and "entries:" in out
