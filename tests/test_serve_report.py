"""Tests for serve markdown reporting, including observability sections.

The report's histogram/gauge sections render the per-run
``MetricsRegistry.to_dict()`` snapshots captured by ``repro serve
--report``; without a snapshot the report must stay byte-identical to
the pre-observability format.
"""

from __future__ import annotations

from dataclasses import replace

from repro.cli import main
from repro.obs import Tracer, set_tracer
from repro.serve import PoissonWorkload, ServeConfig, ServeDevice, run_serve
from repro.serve.profiles import KernelTerm, LatencyProfile
from repro.serve.report import serve_markdown, write_serve_report


def _run_traced(tiny_gpu):
    device = ServeDevice("dev#0", replace(tiny_gpu, name="Dev"))
    profile = LatencyProfile(
        "net", "Dev", 1.0, 5.0 * 1e6, (KernelTerm(0.5 * 1e6, 1, 1, 1),)
    )
    workload = PoissonWorkload(rps=150.0, requests=120, networks=["net"])
    tracer = Tracer(warps=False)
    previous = set_tracer(tracer)
    try:
        stats = run_serve(
            [device], {("net", "Dev"): profile}, workload,
            ServeConfig(seed=7, scheduler="latency-aware"),
        )
    finally:
        set_tracer(previous)
    return stats, tracer.metrics.to_dict()


class TestServeMarkdownMetrics:
    def test_metrics_sections_render(self, tiny_gpu):
        stats, snapshot = _run_traced(tiny_gpu)
        text = serve_markdown([stats], {"seed": 7}, metrics=[snapshot])
        assert "Latency/batch histograms — latency-aware" in text
        assert "Queue-depth gauges — latency-aware" in text
        assert "serve.latency_ms" in text
        assert "serve.batch_size" in text
        assert "serve.queue_depth.dev#0" in text
        # histogram/gauge tables carry the distribution summary columns
        assert "| metric" in text and "| p99" in text
        assert "| gauge" in text and "| samples |" in text

    def test_no_metrics_no_sections(self, tiny_gpu):
        stats, _ = _run_traced(tiny_gpu)
        bare = serve_markdown([stats], {"seed": 7})
        assert "histograms" not in bare
        assert "gauges" not in bare
        assert bare == serve_markdown([stats], {"seed": 7}, metrics=[])

    def test_empty_snapshot_omits_sections(self, tiny_gpu):
        stats, _ = _run_traced(tiny_gpu)
        empty = {"histograms": {"serve.latency_ms": {"count": 0}}, "gauges": {}}
        text = serve_markdown([stats], {"seed": 7}, metrics=[empty])
        assert "histograms" not in text
        assert "gauges" not in text

    def test_write_serve_report_threads_metrics(self, tiny_gpu, tmp_path):
        stats, snapshot = _run_traced(tiny_gpu)
        path = write_serve_report(
            tmp_path / "serve.md", [stats], {"seed": 7}, metrics=[snapshot]
        )
        assert "Queue-depth gauges" in path.read_text()


class TestServeCliReportMetrics:
    def test_cli_report_includes_observability(self, capsys, tmp_path):
        report = tmp_path / "serve.md"
        exit_code = main([
            "serve", "--networks", "gru", "--devices", "gp102,s2npu",
            "--rps", "300", "--requests", "150", "--fidelity", "light",
            "--cache-dir", str(tmp_path),
            "--scheduler", "round-robin,latency-aware",
            "--report", str(report),
        ])
        assert exit_code == 0
        text = report.read_text()
        # one histogram/gauge section per compared scheduler
        assert text.count("Latency/batch histograms") == 2
        assert text.count("Queue-depth gauges") == 2
        assert "serve.queue_depth.gp102#0" in text
        assert "serve.queue_depth.s2npu#0" in text
