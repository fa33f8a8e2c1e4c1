"""Checks on the benchmark's own code.

    PYTHONPATH=src python -m pytest tangobench/tests -q

A failed output check or a run that raises counts as a failed operation
and never ends a pass; run.py refuses to report from a directory
without the package; the traced run's self times add up to its wall
time and its Chrome trace validates; the host-speed probe samples and
scales a window, however short.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "tangobench"))

from layers import LAYERS, LayerTracer  # noqa: E402
from workloads import PAPER_SUITE_IDS, L1Sweep, PaperSuite, ServeDay  # noqa: E402

FIXTURE_GOLDEN = ROOT / "tests/golden/fixture_series.json"
SMOKE_FRONTIER = ROOT / "examples/smoke_frontier.json"

#: A small serving scenario: seconds instead of day_in_the_life's minute.
SMALL_SCENARIO = """
[scenario]
name = "small"
seed = 7

[fleet]
devices = "gp102:2"

[[tenants]]
name = "only"
slo_ms = 5.0

[tenants.arrival]
kind = "poisson"
rps = 2000.0
requests = 400
networks = ["gru"]
"""


def paper_suite(tmp_path: Path, golden: dict | None = None) -> PaperSuite:
    """paper-suite over the tier-1 fixture context: two networks, light."""
    from repro.gpu.config import SimOptions
    from repro.runs import PlanContext

    golden_path = tmp_path / "golden.json"
    golden_path.write_text(json.dumps(golden or json.loads(FIXTURE_GOLDEN.read_text())))
    ctx = PlanContext(networks=("cifarnet", "gru"), options=SimOptions().light())
    workload = PaperSuite(ROOT, seed=0, ctx=ctx, golden_path=golden_path)
    workload.setup(tmp_path / "store")
    return workload


def smoke_sweep(tmp_path: Path, golden: dict | None = None) -> L1Sweep:
    """l1-sweep's pass over the 8-point smoke campaign."""
    golden_path = tmp_path / "frontier.json"
    golden_path.write_text(json.dumps(golden or json.loads(SMOKE_FRONTIER.read_text())))
    workload = L1Sweep(ROOT, seed=0, spec_path=ROOT / "examples/smoke_campaign.toml",
                       golden_path=golden_path)
    workload.setup(tmp_path / "store")
    return workload


def small_serve(tmp_path: Path, seed: int, digest: str) -> ServeDay:
    scenario = tmp_path / "small.toml"
    scenario.write_text(SMALL_SCENARIO)
    workload = ServeDay(ROOT, seed=seed, scenario_path=scenario, digest=digest)
    workload.setup(tmp_path / "store")
    return workload


@pytest.fixture
def failing_gru(monkeypatch):
    """Every gru simulation raises."""
    import repro.gpu.simulator as simulator

    original = simulator.simulate_network

    def simulate(name, *args, **kwargs):
        if name == "gru":
            raise RuntimeError("injected failure")
        return original(name, *args, **kwargs)

    monkeypatch.setattr(simulator, "simulate_network", simulate)


class TestPaperSuite:
    def test_clean_cold_and_warm(self, tmp_path):
        workload = paper_suite(tmp_path)
        cold = workload.cold(tmp_path / "store")
        assert cold.problems == []
        assert cold.attempted == len(workload.plan.specs) + len(PAPER_SUITE_IDS)
        assert workload.warm(tmp_path / "store").problems == []

    def test_corrupted_golden_is_one_failed_operation(self, tmp_path):
        golden = json.loads(FIXTURE_GOLDEN.read_text())
        golden["fig01"] = {"corrupted": [1.0]}
        outcome = paper_suite(tmp_path, golden).cold(tmp_path / "store")
        assert outcome.failed == 1
        assert outcome.problems[0].startswith("fig01: series differ")

    def test_raising_run_is_counted_not_raised(self, tmp_path, failing_gru):
        outcome = paper_suite(tmp_path).cold(tmp_path / "store")
        assert any("RuntimeError: injected failure" in p for p in outcome.problems)
        assert outcome.failed < outcome.attempted


class TestL1Sweep:
    def test_clean_pass(self, tmp_path):
        outcome = smoke_sweep(tmp_path).cold(tmp_path / "store")
        assert (outcome.attempted, outcome.problems) == (8, [])

    def test_corrupted_golden_frontier_is_a_failed_operation(self, tmp_path):
        golden = json.loads(SMOKE_FRONTIER.read_text())
        golden["points"][0]["metrics"]["latency_ms"] /= 2
        outcome = smoke_sweep(tmp_path, golden).cold(tmp_path / "store")
        assert outcome.failed == 1
        assert outcome.problems[0].startswith("frontier regressed")

    def test_raising_run_skips_its_points(self, tmp_path, failing_gru):
        outcome = smoke_sweep(tmp_path).cold(tmp_path / "store")
        assert outcome.failed >= 4  # the four gru points, plus the frontier
        assert any("injected failure" in p for p in outcome.problems)


class TestServeDay:
    def test_wrong_digest_is_a_failed_operation(self, tmp_path):
        outcome = small_serve(tmp_path, seed=7, digest="0" * 64).cold(tmp_path / "store")
        assert outcome.failed == 1
        assert outcome.problems[0].startswith("stats digest")

    def test_other_seed_is_checked_for_conservation(self, tmp_path):
        workload = small_serve(tmp_path, seed=3, digest="0" * 64)
        cold = workload.cold(tmp_path / "store")
        assert (cold.attempted, cold.problems) == (1, [])
        warm = workload.warm(tmp_path / "store")
        assert (warm.attempted, warm.problems) == (0, [])  # a rebuild is no operation


class TestHostProbe:
    def test_windows_are_scaled_by_the_probe_mean(self):
        import time

        from child import PROBE_REF_S, HostProbe, scaled_seconds

        with HostProbe() as probe:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                pass
            end = time.perf_counter()
        short = probe.window(start, start + 0.001)  # borrows samples around it
        whole = probe.window(start, end)
        assert len(probe.durations) >= 20
        assert short[2] > 0 and whole[2] > 0
        assert scaled_seconds(whole) == pytest.approx((end - start) * PROBE_REF_S / whole[2])


class TestLayerTracer:
    def test_self_times_partition_the_wall_time(self, tmp_path):
        tracer = LayerTracer()
        tracer.install()
        try:
            workload = smoke_sweep(tmp_path)
            with tracer.phase("cold"):
                workload.cold(tmp_path / "store")
        finally:
            tracer.uninstall()
        import time

        wall = time.perf_counter() - tracer.t0
        metrics = tracer.metrics(wall)
        layer_sum = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
        assert metrics["unattributed_s"][0] >= 0
        assert layer_sum + metrics["unattributed_s"][0] == pytest.approx(wall)
        assert metrics["gpu.sim_warp_insts"][0] > 0
        assert metrics["campaign.points"][0] == 8
        assert tracer.missing == []
        assert tracer.export(tmp_path / "trace.json", {}) == []
        spans = json.loads((tmp_path / "trace.json").read_text())["traceEvents"]
        ids = {e["args"]["id"] for e in spans if e.get("ph") == "X"}
        assert all(e["args"]["parent"] in ids for e in spans
                   if e.get("ph") == "X" and e["args"]["parent"])

    def test_uninstall_restores_the_originals(self):
        import repro.gpu.simulator as simulator
        import repro.runs.executor as executor

        before = (simulator.simulate_network, executor.result_from_payload,
                  executor.Executor.run)
        tracer = LayerTracer()
        tracer.install()
        assert simulator.simulate_network is not before[0]
        tracer.uninstall()
        assert (simulator.simulate_network, executor.result_from_payload,
                executor.Executor.run) == before


def test_run_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tangobench/run.py"), "--workload", "paper-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
