"""Tests for the tracing/metrics subsystem (:mod:`repro.obs`).

Covers the tracer and metrics primitives, the Chrome-trace export and
its schema check, the zero-retention guarantee of the disabled path,
and the span shapes the instrumented layers emit (GPU kernels/warps,
executor runs, serve batches with requests nested inside).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.obs import (
    CYCLES,
    NULL_TRACER,
    SIM_MS,
    WALL_S,
    MetricsRegistry,
    Tracer,
    capture_trace,
    get_tracer,
    set_tracer,
    to_chrome_trace,
    validate_chrome_trace,
    write_trace,
)
from repro.serve import PoissonWorkload, ServeConfig, ServeDevice, run_serve
from repro.serve.profiles import KernelTerm, LatencyProfile


class TestTracer:
    def test_span_and_instant_recorded(self):
        tracer = Tracer()
        tracer.span("k", "kernel", CYCLES, 0.0, 10.0,
                    process="gpu", thread="t", args={"a": 1})
        tracer.instant("hit", "cache", WALL_S, 0.5, process="runs", thread="t")
        assert len(tracer.spans) == 1 and len(tracer.instants) == 1
        span = tracer.spans[0]
        assert span.name == "k" and span.dur == 10.0 and span.args == {"a": 1}

    def test_max_events_counts_overflow(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.span("s", "c", CYCLES, float(i), 1.0,
                        process="p", thread="t")
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3

    def test_wall_clock_is_monotonic(self):
        tracer = Tracer()
        first = tracer.wall()
        second = tracer.wall()
        assert 0.0 <= first <= second

    def test_set_tracer_returns_previous(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            assert set_tracer(previous) is tracer
        assert get_tracer() is previous

    def test_capture_trace_installs_and_restores(self):
        before = get_tracer()
        with capture_trace() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before


class TestNullTracer:
    def test_default_tracer_is_disabled(self):
        tracer = get_tracer()
        assert tracer is NULL_TRACER
        assert not tracer.enabled and not tracer.warps

    def test_noop_calls_allocate_nothing(self):
        # __slots__ = () means the null tracer *cannot* retain state.
        assert NULL_TRACER.__slots__ == ()
        NULL_TRACER.span("s", "c", CYCLES, 0.0, 1.0, process="p", thread="t")
        NULL_TRACER.instant("i", "c", CYCLES, 0.0, process="p", thread="t")
        NULL_TRACER.metrics.counter("x").inc()
        NULL_TRACER.metrics.histogram("y").observe(1.0)
        assert not hasattr(NULL_TRACER, "spans")
        assert all(not v for v in NULL_TRACER.metrics.to_dict().values())

    def test_disabled_simulation_retains_no_events(self, light_options):
        from repro.gpu.simulator import simulate_network
        from repro.platforms import make_config

        assert get_tracer() is NULL_TRACER
        simulate_network("gru", make_config("gp102"), light_options)
        assert not hasattr(NULL_TRACER, "spans")
        assert all(not v for v in NULL_TRACER.metrics.to_dict().values())


class TestMetrics:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(2.5)
        registry.gauge("g", domain=SIM_MS).set(3.0, ts=1.0)
        registry.gauge("g").set(5.0, ts=2.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("h").observe(value)
        data = registry.to_dict()
        assert data["counters"]["c"]["value"] == 3.5
        assert data["gauges"]["g"]["last"] == 5.0
        assert data["gauges"]["g"]["max"] == 5.0
        assert data["histograms"]["h"]["count"] == 4
        assert data["histograms"]["h"]["mean"] == 2.5

    def test_kind_clash_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(TypeError):
            registry.histogram("name")

    def test_histogram_percentiles_nearest_rank(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in range(1, 101):
            hist.observe(float(value))
        assert hist.percentile(50) == 50.0
        assert hist.percentile(99) == 99.0


class TestChromeExport:
    def test_export_validates_and_separates_clock_domains(self):
        tracer = Tracer()
        tracer.span("a", "kernel", CYCLES, 0.0, 5.0, process="gpu", thread="t")
        tracer.span("b", "run", WALL_S, 0.0, 0.1, process="runs", thread="t")
        tracer.instant("c", "serve", SIM_MS, 1.0, process="serve", thread="t")
        payload = to_chrome_trace(tracer, meta={"origin": "test"})
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        # Each (domain, process) pair gets its own pid so cycle and
        # wall timestamps never share a track.
        pids = {e["pid"] for e in events if e["ph"] in ("X", "i")}
        assert len(pids) == 3
        assert payload["otherData"]["origin"] == "test"

    def test_write_trace_round_trips(self, tmp_path):
        import json

        tracer = Tracer()
        tracer.span("a", "kernel", CYCLES, 0.0, 5.0, process="gpu", thread="t")
        path = tmp_path / "trace.json"
        payload = write_trace(tracer, path)
        assert json.loads(path.read_text()) == payload
        assert validate_chrome_trace(payload) == []

    def test_validator_flags_malformed_events(self):
        problems = validate_chrome_trace({"traceEvents": [
            {"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0},
            {"ph": "X", "name": "", "pid": 1, "tid": 1, "ts": 0, "dur": 1},
            {"ph": "X", "name": "ok", "pid": 1, "tid": 1, "ts": -1, "dur": 1},
        ]})
        assert len(problems) == 3

    def test_gauge_timelines_become_counter_events(self):
        tracer = Tracer()
        tracer.metrics.gauge("depth", domain=SIM_MS).set(2.0, ts=1.0)
        tracer.metrics.gauge("depth", domain=SIM_MS).set(4.0, ts=3.0)
        payload = to_chrome_trace(tracer)
        counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [2.0, 4.0]
        assert validate_chrome_trace(payload) == []


class TestGpuSpans:
    def test_kernel_spans_tile_the_network_timeline(self, light_options):
        from repro.gpu.simulator import simulate_network
        from repro.platforms import make_config

        with capture_trace(warps=False) as tracer:
            result = simulate_network("gru", make_config("gp102"), light_options)
        kernels = [s for s in tracer.spans if s.cat == "kernel"]
        assert len(kernels) == len(result.kernels)
        # Back-to-back: each span starts where the previous one ended.
        offset = 0.0
        for span, kr in zip(kernels, result.kernels):
            assert span.ts == pytest.approx(offset)
            assert span.dur == pytest.approx(kr.stats.cycles)
            offset += kr.stats.cycles
        assert not any(s.cat == "stall" for s in tracer.spans)

    def test_kernel_spans_carry_host_seconds(self, light_options):
        from repro.kernels.compile import compiled_network
        from repro.platforms import make_config
        from repro.runs import Executor, RunSpec

        # Compiling runs once per process, before the first launch and
        # inside no kernel span; compile first so the run times launches.
        launches = compiled_network("squeezenet")
        with capture_trace(warps=False) as tracer:
            Executor().run(RunSpec("squeezenet", make_config("gp102"), light_options))
        kernels = [s for s in tracer.spans if s.cat == "kernel"]
        (run,) = [s for s in tracer.spans if s.cat == "run"]
        assert len(kernels) == len(launches)
        host_s = [span.args["host_s"] for span in kernels]
        assert all(seconds >= 0.0 for seconds in host_s)
        # The launches' loop iterations lie inside the run's wall span
        # and cover nearly all of it; payload encoding and span
        # bookkeeping take the rest.
        assert 0.95 * run.dur <= sum(host_s) <= run.dur

    def test_warp_phases_nest_inside_warp_life(self, light_options):
        from repro.gpu.simulator import simulate_network
        from repro.platforms import make_config

        with capture_trace(warps=True) as tracer:
            simulate_network("gru", make_config("gp102"), light_options)
        lives = {s.thread: s for s in tracer.spans if s.cat == "warp"}
        stalls = [s for s in tracer.spans if s.cat == "stall"]
        assert lives and stalls
        for stall in stalls:
            life = lives[stall.thread]
            assert life.ts <= stall.ts
            assert stall.ts + stall.dur <= life.ts + life.dur + 1e-9


class TestServeSpans:
    def _run_traced_serve(self):
        profile = LatencyProfile(
            "net", "Fast", 1.0, 5.0e6, (KernelTerm(0.5e6, 1, 1, 1),)
        )
        device = ServeDevice("fast#0", replace_platform_name("Fast"))
        workload = PoissonWorkload(rps=150.0, requests=60, networks=["net"])
        with capture_trace(warps=False) as tracer:
            stats = run_serve(
                [device], {("net", "Fast"): profile}, workload,
                ServeConfig(seed=3, max_batch=4),
            )
        return tracer, stats

    def test_request_spans_nest_under_batch_spans(self):
        tracer, stats = self._run_traced_serve()
        batches = {
            s.args["batch_id"]: s for s in tracer.spans if s.cat == "batch"
        }
        requests = [s for s in tracer.spans if s.cat == "request"]
        assert batches and requests
        assert len(requests) == stats.completed
        for request in requests:
            batch = batches[request.args["batch_id"]]
            # Same device track, interval contained in the batch's.
            assert request.thread == batch.thread
            assert batch.ts <= request.ts
            assert request.ts + request.dur <= batch.ts + batch.dur + 1e-9

    def test_queue_spans_end_at_batch_launch(self):
        tracer, _ = self._run_traced_serve()
        batches = {
            s.args["batch_id"]: s for s in tracer.spans if s.cat == "batch"
        }
        queues = [s for s in tracer.spans if s.cat == "queue"]
        assert queues
        for queue in queues:
            batch = batches[queue.args["batch_id"]]
            assert queue.ts + queue.dur == pytest.approx(batch.ts)

    def test_serve_metrics_recorded(self):
        tracer, stats = self._run_traced_serve()
        metrics = tracer.metrics.to_dict()
        assert metrics["counters"]["serve.completed"]["value"] == stats.completed
        assert metrics["histograms"]["serve.latency_ms"]["count"] == stats.completed
        assert "serve.queue_depth.fast#0" in metrics["gauges"]


def replace_platform_name(name: str):
    """A tiny GpuConfig stand-in platform for serve tests."""
    from repro.gpu.config import GpuConfig

    return GpuConfig(
        name=name,
        num_sms=4,
        cores_per_sm=128,
        clock_ghz=1.0,
        registers_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        shared_mem_per_sm=96 * 1024,
        l1_size=32 * 1024,
        l2_size=512 * 1024,
        dram_gb_per_s=100.0,
    )
