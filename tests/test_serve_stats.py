"""The packed serve-run accumulators against the list-based ones they
replaced.

:class:`LatencyLog` keeps one float64 per completed request and
:class:`DepthTimeline` keeps its points in two parallel arrays.  The
list-of-tuples recorder, the list downsample and the list summary below
are the implementations they replaced, kept as references: every
summary must match them bit for bit.  The memory test holds a serve
run's traced peak per completed request below what per-request Python
objects cost.
"""

from __future__ import annotations

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    BurstyWorkload,
    ClosedLoopWorkload,
    MultiTenantWorkload,
    PoissonWorkload,
    ServeConfig,
    ServeSim,
    Tenant,
    build_fleet,
)
from repro.serve.profiles import KernelTerm, LatencyProfile
from repro.serve.stats import DepthTimeline, LatencyLog, percentile, summarize


# -- list-based references --------------------------------------------------
class ListTimeline:
    """The list-of-tuples depth recorder."""

    def __init__(self, limit: int = 1024) -> None:
        self.limit = limit
        self.stride = 1
        self._count = 0
        self.points: list[tuple[float, int]] = [(0.0, 0)]

    def record(self, time_ms: float, depth: int) -> None:
        count = self._count
        self._count = count + 1
        if count % self.stride:
            return
        points = self.points
        points.append((time_ms, depth))
        if len(points) >= 2 * self.limit:
            del points[::2]
            self.stride *= 2


def list_downsample(timeline: list[tuple[float, int]], limit: int = 128):
    if len(timeline) <= limit:
        return list(timeline)
    stride = -(-len(timeline) // limit)
    sampled = timeline[::stride]
    if sampled[-1] != timeline[-1]:
        sampled.append(timeline[-1])
    return sampled


def list_percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def list_summary(latencies: list[float], slo_ms: float) -> tuple:
    """(completed, p50, p95, p99, mean, max, violations) of a list."""
    ordered = sorted(latencies)
    count = len(ordered)
    return (
        count,
        list_percentile(ordered, 50),
        list_percentile(ordered, 95),
        list_percentile(ordered, 99),
        sum(ordered) / count if count else 0.0,
        ordered[-1] if ordered else 0.0,
        sum(1 for value in ordered if value > slo_ms),
    )


def bits(values) -> list:
    """Exact type and bit pattern of each value (0.0 and -0.0 differ)."""
    return [
        (type(value), struct.pack("<d", value) if type(value) is float else value)
        for value in values
    ]


# -- the depth recorder -----------------------------------------------------
records = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.integers(min_value=0, max_value=300),
    ),
    max_size=300,
)


class TestDepthTimeline:
    @settings(max_examples=150, deadline=None)
    @given(
        records=records,
        limit=st.integers(min_value=1, max_value=8),
        report=st.integers(min_value=1, max_value=20),
    )
    def test_matches_list_recorder(self, records, limit, report):
        packed, reference = DepthTimeline(limit), ListTimeline(limit)
        for time_ms, depth in records:
            packed.record(time_ms, depth)
            reference.record(time_ms, depth)
        assert packed.stride == reference.stride
        assert list(zip(packed.times, packed.depths)) == reference.points
        sampled = packed.downsample(report)
        assert sampled == list_downsample(reference.points, report)
        assert bits(v for point in sampled for v in point) == bits(
            v for point in list_downsample(reference.points, report) for v in point
        )

    def test_default_report_keeps_final_point(self):
        timeline = DepthTimeline()
        for step in range(5000):
            timeline.record(float(step), step % 7)
        sampled = timeline.downsample()
        assert len(timeline.times) > 128 and len(sampled) <= 129
        assert sampled[-1] == (timeline.times[-1], timeline.depths[-1])


# -- latency summaries ------------------------------------------------------
SLO_MS = 5.0
#: Few distinct values, so samples carry ties and values equal to the SLO.
latency_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.25, SLO_MS, 7.0, 1e3]),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)


class TestSummaries:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(latency_values, max_size=400))
    def test_summary_matches_list_summary(self, latencies):
        summary = summarize(np.array(latencies, dtype=np.float64), SLO_MS)
        assert bits(summary) == bits(list_summary(latencies, SLO_MS))

    @pytest.mark.parametrize(
        "latencies",
        [[], [3.0], [SLO_MS], [SLO_MS] * 7, [0.1, SLO_MS, SLO_MS, 9.0, 9.0]],
    )
    def test_edge_samples(self, latencies):
        summary = summarize(np.array(latencies, dtype=np.float64), SLO_MS)
        assert bits(summary) == bits(list_summary(latencies, SLO_MS))

    def test_mean_is_sequential_sum(self):
        # np.sum, which adds pairwise, differs here in the last bits.
        rng = np.random.default_rng(3)
        sample = rng.exponential(7.0, 100_003)
        expected = sum(sorted(sample.tolist())) / len(sample)
        assert summarize(sample, SLO_MS).mean_ms == expected

    def test_percentile_of_an_array(self):
        values = np.array([1.0, 2.0, 3.0])
        assert percentile(values, 50) == 2.0 and type(percentile(values, 50)) is float
        assert percentile(np.array([]), 99) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(latency_values, st.integers(0, 3), st.integers(0, 2)),
            max_size=300,
        )
    )
    def test_log_summaries_match_per_group_lists(self, completions):
        networks, tenants = ["a", "b", "c", "d"], ["t0", "t1", "t2"]
        log = LatencyLog(reversed(networks), tenants)
        for latency, network, tenant in completions:
            log.latencies.append(latency)
            log.network_codes.append(log.network_code[networks[network]])
            log.tenant_codes.append(log.tenant_code[tenants[tenant]])
        fleet, per_network, per_tenant = log.summaries(SLO_MS)
        latencies = [latency for latency, _, _ in completions]
        assert bits(fleet) == bits(list_summary(latencies, SLO_MS))
        expected_networks = sorted({networks[n] for _, n, _ in completions})
        assert list(per_network) == expected_networks
        for name, summary in per_network.items():
            sample = [lat for lat, n, _ in completions if networks[n] == name]
            assert bits(summary) == bits(list_summary(sample, SLO_MS))
        assert list(per_tenant) == tenants
        for name, summary in per_tenant.items():
            sample = [lat for lat, _, t in completions if tenants[t] == name]
            assert bits(summary) == bits(list_summary(sample, SLO_MS))
        # No view of the log outlives the summaries: it can grow again.
        log.latencies.append(1.0)
        log.network_codes.append(0)

    def test_many_tenants_widen_the_codes(self):
        names = [f"t{index:03d}" for index in range(300)]
        log = LatencyLog(["net"], names)
        assert log.tenant_codes.itemsize > 1 and log.network_codes.itemsize == 1
        for index, name in enumerate(names):
            log.latencies.append(float(index))
            log.network_codes.append(0)
            log.tenant_codes.append(log.tenant_code[name])
        _, _, per_tenant = log.summaries(SLO_MS)
        assert [summary.max_ms for summary in per_tenant.values()] == [
            float(index) for index in range(300)
        ]


# -- serve runs -------------------------------------------------------------
def _profile(network: str, base_ms: float, per_item_ms: float) -> LatencyProfile:
    return LatencyProfile(
        network, "GP102", 1.0, base_ms * 1e6, (KernelTerm(per_item_ms * 1e6, 1, 1, 1),),
        0.01, 50.0,
    )


def _sim(requests: int) -> ServeSim:
    """An 8-device synthetic run with Poisson, bursty and closed-loop
    tenants, of about *requests* requests."""
    profiles = {
        ("cnn", "GP102"): _profile("cnn", 3.0, 0.5),
        ("rnn", "GP102"): _profile("rnn", 1.0, 0.1),
    }
    share = requests // 3
    parts = [
        (Tenant("poisson", 20.0, 0),
         PoissonWorkload(1200.0, share, ["cnn", "rnn"], weights=[2.0, 1.0])),
        (Tenant("bursty", 10.0, 1),
         BurstyWorkload(2400.0, share, ["rnn"], on_ms=50.0, off_ms=150.0)),
        (Tenant("closed", 40.0, 2),
         ClosedLoopWorkload(16, requests - 2 * share, ["cnn", "rnn"], think_ms=2.0)),
    ]
    config = ServeConfig(
        slo_ms=20.0, max_batch=8, batch_timeout_ms=1.0, max_queue=64,
        scheduler="least-loaded", seed=9,
    )
    fleet = build_fleet("gp102:8")
    return ServeSim(fleet, profiles, MultiTenantWorkload(parts), config)


class TestServeRuns:
    def test_to_dict_holds_only_python_numbers(self):
        stats = _sim(3000).run()

        def leaves(node):
            if isinstance(node, dict):
                for value in node.values():
                    yield from leaves(value)
            elif isinstance(node, list):
                for value in node:
                    yield from leaves(value)
            else:
                yield node

        data = stats.to_dict()
        assert {type(leaf) for leaf in leaves(data)} <= {int, float, str}
        assert data["per_network"] and data["per_tenant"]
        json.dumps(data)

    def test_rerun_reproduces_stats(self):
        sim = _sim(3000)
        assert sim.run().to_dict() == sim.run().to_dict()

    def test_traced_peak_per_completed_request(self):
        """Per-request Python objects (a boxed float in three lists and
        a tuple per depth point) peak at about 87 B per completed
        request at this size; one packed double and two codes at about
        24 B."""
        sim = _sim(50_000)
        tracemalloc.start()
        try:
            stats = sim.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stats.completed > 45_000
        assert peak / stats.completed < 48.0
