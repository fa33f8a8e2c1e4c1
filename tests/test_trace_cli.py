"""Tests for ``repro trace simulate|serve`` (Chrome-trace artifacts)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.obs import validate_chrome_trace


def _span_counts(payload: dict) -> Counter:
    """Complete-span count per category of one Chrome-trace payload."""
    return Counter(e.get("cat") for e in payload["traceEvents"] if e.get("ph") == "X")


class TestTraceSimulate:
    def test_writes_valid_chrome_trace_with_kernel_spans(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "gru", "--fidelity", "light",
                     "--no-cache", "--output", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        kernels = [e for e in payload["traceEvents"]
                   if e.get("ph") == "X" and e.get("cat") == "kernel"]
        assert kernels
        assert payload["otherData"]["command"] == "trace simulate"
        assert payload["otherData"]["dropped_events"] == 0

    def test_refreshes_even_when_store_is_warm(self, capsys, tmp_path):
        cache = tmp_path / "store"
        out = tmp_path / "trace.json"
        args = ["trace", "simulate", "gru", "--fidelity", "light",
                "--cache-dir", str(cache), "--output", str(out)]
        assert main(args) == 0
        first = json.loads(out.read_text())
        assert main(args) == 0
        second = json.loads(out.read_text())
        # A warm store must not starve the trace of GPU spans: the
        # second trace re-simulates every kernel, warps and stalls
        # included.
        for payload in (first, second):
            assert any(e.get("cat") == "kernel"
                       for e in payload["traceEvents"])
        before, after = _span_counts(first), _span_counts(second)
        for cat in ("warp", "stall"):
            assert after[cat] == before[cat] > 0, cat

    def test_no_warps_drops_stall_spans(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "gru", "--fidelity", "light", "--no-cache",
                     "--no-warps", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        cats = {e.get("cat") for e in payload["traceEvents"]}
        assert "kernel" in cats and "stall" not in cats

    def test_prints_kernel_host_time_table(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        argv = ["trace", "simulate", "squeezenet", "--fidelity", "light",
                "--no-warps", "--no-cache", "--output", str(out)]
        # Host seconds are wall clock: on a shared host, one preempted
        # launch can outrank pool10 in a single run, so allow three runs.
        for _ in range(3):
            assert main(argv) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines[0].startswith(f"wrote {out}")
            header = lines.index(next(line for line in lines if line.startswith("kernel ")))
            assert lines[header - 1].startswith("squeezenet on GP102: 31 kernels")
            rows = [line.split() for line in lines[header + 1:]]
            assert len(rows) == 31
            host_ms = [float(row[-2]) for row in rows]
            assert host_ms == sorted(host_ms, reverse=True)
            if rows[0][0] == "pool10":
                break
        # SqueezeNet's single-block pool10 costs the most host time.
        assert rows[0][:3] == ["pool10", "Pooling", "fresh"]

    def test_json_prints_payload_to_stdout(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "gru", "--fidelity", "light", "--no-cache",
                     "--output", str(out), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == json.loads(out.read_text())

    def test_max_events_overflow_is_counted(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "gru", "--fidelity", "light", "--no-cache",
                     "--max-events", "10", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["otherData"]["dropped_events"] > 0
        assert "dropped" in capsys.readouterr().out

    def test_unknown_network_exits_2(self, capsys, tmp_path):
        assert main(["trace", "simulate", "nope", "--no-cache",
                     "--output", str(tmp_path / "t.json")]) == 2
        assert "unknown network" in capsys.readouterr().err

    def test_l1_sweep_tags_kernels_served_from_another_size(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "cifarnet", "--fidelity", "light", "--no-cache",
                     "--no-warps", "--l1-kb", "0,64,128",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["l1_kb"] == [0, 64, 128]
        sources = [e["args"]["source"] for e in payload["traceEvents"]
                   if e.get("ph") == "X" and e.get("cat") == "kernel"]
        per_size = len(sources) // 3
        # The bypassed L1 and the first cached size simulate; 128 KB
        # replays 64 KB's eviction-free waves.
        assert set(sources[:2 * per_size]) == {"fresh"}
        reused = sources.count("l1_reuse")
        assert reused > 0
        counters = payload["metrics"]["counters"]
        assert counters["gpu.wave_l1_reused"]["value"] == reused
        assert counters["gpu.kernel_l1_reuse"]["value"] == reused
        # One attempt loop covers the sweep: 64 KB takes the bypassed
        # run's nine decoded programs (128 KB replays waves, needing none).
        assert counters["gpu.program_reused"]["value"] == 9

    def test_tags_kernels_served_from_the_runs_wave_cache(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "resnet", "--fidelity", "light", "--no-warps",
                     "--no-cache", "--output", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines.index(next(line for line in lines if line.startswith("kernel ")))
        rows = [line.split() for line in lines[header + 1:]]
        expected = {"fresh": 47, "wave": 8, "local": 173}
        assert Counter(row[2] for row in rows) == expected
        # Extent-only variants of an earlier launch of the run.
        assert {row[0] for row in rows if row[2] == "wave"} == {
            "res2a_branch2c", "res3a_branch1", "res4a_branch1", "res5a_branch1",
            "relu_res2a", "relu_res3a", "relu_res4a", "relu_res5a",
        }
        payload = json.loads(out.read_text())
        sources = Counter(e["args"]["source"] for e in payload["traceEvents"]
                          if e.get("ph") == "X" and e.get("cat") == "kernel")
        assert sources == expected
        assert payload["metrics"]["counters"]["gpu.kernel_wave"]["value"] == 8

    def test_each_run_gets_its_own_kernel_track(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "simulate", "gru", "--l1-kb", "0,64", "--no-cache",
                     "--no-warps", "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        tracks = {(e["pid"], e["tid"]) for e in payload["traceEvents"]
                  if e.get("ph") == "X" and e.get("cat") == "kernel"}
        assert len(tracks) == 2
        names = {e["args"]["name"] for e in payload["traceEvents"]
                 if e.get("ph") == "M" and e.get("name") == "thread_name"}
        assert {"gru@GP102 l1=0K gto", "gru@GP102 l1=64K gto"} <= names

    def test_compile_span_closes_a_first_run(self, tmp_path):
        # A fresh interpreter compiles GRU inside its run: kernel host
        # seconds plus the compile span account for the run span.
        out = tmp_path / "trace.json"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        argv = [sys.executable, "-m", "repro", "trace", "simulate", "gru",
                "--no-warps", "--no-cache", "--output", str(out)]
        # Host seconds are wall clock and the uncovered rest is about
        # 0.2 ms: one preemption there can miss the bound, so allow
        # three runs.
        for _ in range(3):
            subprocess.run(argv, env=env, check=True, capture_output=True, timeout=300)
            spans = [e for e in json.loads(out.read_text())["traceEvents"]
                     if e.get("ph") == "X"]
            (run,) = [e for e in spans if e["cat"] == "run"]
            (compile_span,) = [e for e in spans if e["cat"] == "compile"]
            assert compile_span["name"] == "compile gru"
            host_us = sum(e["args"]["host_s"] for e in spans if e["cat"] == "kernel") * 1e6
            if host_us + compile_span["dur"] >= 0.99 * run["dur"]:
                break
        assert host_us + compile_span["dur"] >= 0.99 * run["dur"]

    def test_bad_l1_sizes_exit_2(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "simulate", "gru", "--l1-kb", "64,big",
                  "--no-cache", "--output", str(tmp_path / "t.json")])
        assert exit_info.value.code == 2
        assert "comma-separated KB" in capsys.readouterr().err


class TestTraceServe:
    def test_captures_all_three_layers(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "serve", "--networks", "gru",
                     "--devices", "tx1", "--requests", "40",
                     "--rps", "200", "--fidelity", "light", "--no-cache",
                     "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        cats = {e.get("cat") for e in payload["traceEvents"]
                if e.get("ph") in ("X", "i")}
        # GPU, executor and serving spans all present in one trace.
        assert "kernel" in cats
        assert "run" in cats
        assert "batch" in cats and "request" in cats
        counters = payload["metrics"]["counters"]
        assert counters["serve.completed"]["value"] > 0

    def test_refreshes_even_when_store_is_warm(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        args = ["trace", "serve", "--networks", "gru", "--devices", "gp102",
                "--requests", "50", "--rps", "50", "--fidelity", "light",
                "--cache-dir", str(tmp_path / "store"), "--output", str(out)]
        assert main(args) == 0
        first = _span_counts(json.loads(out.read_text()))
        assert main(args) == 0
        second = _span_counts(json.loads(out.read_text()))
        # Profile builds re-simulate on a warm store, as trace simulate does.
        for cat in ("warp", "stall"):
            assert second[cat] == first[cat] > 0, cat

    def test_bad_scheduler_exits_2(self, capsys, tmp_path):
        assert main(["trace", "serve", "--scheduler", "nope",
                     "--no-cache", "--output", str(tmp_path / "t.json")]) == 2
        assert "unknown scheduler" in capsys.readouterr().err
