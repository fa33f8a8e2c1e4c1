"""Tests for the unified :class:`repro.stats.Stats` protocol surface.

All three result containers — ``KernelStats`` (GPU), ``ServeStats``
(serving) and ``ExecutionReport`` (run orchestration) — satisfy one
protocol (``to_dict`` / ``from_dict`` / ``summary``) and are
re-exported from the top-level ``repro`` package.
"""

from __future__ import annotations

import importlib
import sys

import pytest

import repro
from repro.profiling.stall import StallReason
from repro.profiling.stats import KernelStats
from repro.runs.executor import ExecutionReport
from repro.serve.stats import DeviceServeStats, ServeStats
from repro.stats import Stats


def make_serve_stats() -> ServeStats:
    return ServeStats(
        scheduler="latency-aware", seed=7, slo_ms=50.0,
        offered=100, completed=90, shed=10, slo_violations=3,
        duration_ms=1000.0,
        latency_p50_ms=5.0, latency_p95_ms=9.0, latency_p99_ms=11.0,
        latency_mean_ms=5.5, latency_max_ms=12.0,
        throughput_rps=90.0, goodput_rps=87.0,
        devices=[DeviceServeStats(
            name="gp102#0", platform="GP102", requests=90, batches=30,
            shed=10, busy_ms=800.0, utilization=0.8, mean_batch=3.0,
            queue_depth=[(0.0, 0), (10.0, 2)],
        )],
        per_network={"alexnet": {"completed": 90}},
    )


class TestProtocolConformance:
    def test_all_three_satisfy_the_protocol(self):
        stats = KernelStats()
        stats.stalls[StallReason.SYNC] = 4.0
        instances = [
            stats,
            make_serve_stats(),
            ExecutionReport(planned=5, fresh=2, cached=3),
        ]
        for instance in instances:
            assert isinstance(instance, Stats)

    def test_summaries_are_single_lines(self):
        for instance in (
            KernelStats(),
            make_serve_stats(),
            ExecutionReport(planned=5, fresh=2, cached=3),
        ):
            summary = instance.summary()
            assert summary and "\n" not in summary


class TestRoundTrips:
    def test_kernel_stats_round_trip(self):
        stats = KernelStats()
        stats.cycles = 123.0
        stats.issued = 456.0
        stats.stalls[StallReason.MEMORY_DEPENDENCY] = 7.0
        clone = KernelStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()

    def test_serve_stats_round_trip(self):
        stats = make_serve_stats()
        clone = ServeStats.from_dict(stats.to_dict())
        assert clone.to_dict() == stats.to_dict()
        assert clone.slo_attainment == pytest.approx(stats.slo_attainment)

    def test_execution_report_round_trip(self):
        report = ExecutionReport(planned=8, fresh=3, cached=5)
        clone = ExecutionReport.from_dict(report.to_dict())
        assert clone == report


class TestPackageSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_stats_types_exported(self):
        assert repro.KernelStats is KernelStats
        assert repro.ServeStats is ServeStats
        assert repro.ExecutionReport is ExecutionReport
        assert repro.Stats is Stats


class TestPerfCacheRemoval:
    def test_shim_is_gone(self):
        # The deprecated repro.perf.cache facade completed its removal
        # cycle; the import must fail rather than silently resurrect a
        # second cache surface.
        sys.modules.pop("repro.perf.cache", None)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.perf.cache")
