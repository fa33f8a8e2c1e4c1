"""Engine tests on synthetic latency profiles (no GPU simulation).

Synthetic profiles make the arithmetic exact: ``latency_ms(b) = base +
per_item * b`` with a 1 GHz clock, so timeout/batching/scheduling
behaviour can be asserted to the millisecond.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from random import Random

import pytest

from repro.obs import SIM_MS, capture_trace
from repro.platforms import make_config, register_platform, unregister_platform
from repro.serve import (
    SCHEDULERS,
    AutoscaleConfig,
    BurstyWorkload,
    ClosedLoopWorkload,
    DiurnalWorkload,
    MultiTenantWorkload,
    PoissonWorkload,
    ServeConfig,
    ServeDevice,
    ServeSim,
    Tenant,
    TraceWorkload,
    build_fleet,
    make_pipeline,
    run_serve,
)
from repro.serve.profiles import KernelTerm, LatencyProfile


def make_profile(
    network: str,
    platform: str,
    base_ms: float,
    per_item_ms: float = 0.0,
    dynamic_j: float = 0.0,
    static_watts: float = 0.0,
) -> LatencyProfile:
    terms = (
        (KernelTerm(per_item_ms * 1e6, 1, 1, 1),) if per_item_ms else ()
    )
    return LatencyProfile(
        network, platform, 1.0, base_ms * 1e6, terms, dynamic_j, static_watts
    )


@pytest.fixture()
def fast_slow_fleet(tiny_gpu):
    fast = ServeDevice("fast#0", replace(tiny_gpu, name="Fast"))
    slow = ServeDevice("slow#0", replace(tiny_gpu, name="Slow"))
    profiles = {
        ("net", "Fast"): make_profile("net", "Fast", 5.0, 0.5),
        ("net", "Slow"): make_profile("net", "Slow", 80.0, 8.0),
    }
    return [fast, slow], profiles


class TestDeterminism:
    def test_same_seed_identical_stats(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=200.0, requests=500, networks=["net"])
        config = ServeConfig(seed=11, scheduler="latency-aware")
        first = run_serve(fleet, profiles, workload, config)
        second = run_serve(fleet, profiles, workload, config)
        assert first.to_dict() == second.to_dict()

    def test_different_seed_differs(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=200.0, requests=500, networks=["net"])
        first = run_serve(fleet, profiles, workload, ServeConfig(seed=1))
        second = run_serve(fleet, profiles, workload, ServeConfig(seed=2))
        assert first.to_dict() != second.to_dict()

    def test_closed_loop_deterministic(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = ClosedLoopWorkload(
            clients=4, requests=200, networks=["net"], think_ms=1.0
        )
        config = ServeConfig(seed=3)
        first = run_serve(fleet, profiles, workload, config)
        second = run_serve(fleet, profiles, workload, config)
        assert first.to_dict() == second.to_dict()
        assert first.completed == 200


class TestBatchingSemantics:
    def test_lone_request_waits_exactly_the_timeout(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = TraceWorkload([(0.0, "net")])
        config = ServeConfig(
            batch_timeout_ms=2.0, max_batch=4, scheduler="latency-aware"
        )
        stats = run_serve(fleet[:1], profiles, workload, config)
        # flush at 2.0 ms, then a batch-1 inference: 5 + 0.5 ms.
        assert stats.latency_max_ms == pytest.approx(2.0 + 5.5)

    def test_full_batch_launches_without_waiting(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = TraceWorkload([(0.0, "net")] * 4)
        config = ServeConfig(batch_timeout_ms=50.0, max_batch=4)
        stats = run_serve(fleet[:1], profiles, workload, config)
        # Launches at t=0 as soon as the 4th request lands: 5 + 4*0.5.
        assert stats.latency_max_ms == pytest.approx(7.0)
        assert stats.devices[0].batches == 1
        assert stats.devices[0].mean_batch == pytest.approx(4.0)

    def test_zero_timeout_serves_singly_when_idle(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = TraceWorkload([(0.0, "net"), (100.0, "net")])
        config = ServeConfig(batch_timeout_ms=0.0, max_batch=8)
        stats = run_serve(fleet[:1], profiles, workload, config)
        assert stats.devices[0].batches == 2
        assert stats.latency_max_ms == pytest.approx(5.5)


class TestAdmissionControl:
    def test_sheds_on_overflow_and_accounts_every_request(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=1000.0, requests=400, networks=["net"])
        config = ServeConfig(max_queue=4, max_batch=2, scheduler="round-robin")
        stats = run_serve([fleet[1]], profiles, workload, config)
        assert stats.shed > 0
        assert stats.offered == 400
        assert stats.completed + stats.shed == stats.offered

    def test_no_shed_below_capacity(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=50.0, requests=300, networks=["net"])
        stats = run_serve([fleet[0]], profiles, workload, ServeConfig())
        assert stats.shed == 0
        assert stats.completed == 300


class TestSchedulers:
    def test_latency_aware_beats_round_robin_p99(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=100.0, requests=2000, networks=["net"])
        rr = run_serve(
            fleet, profiles, workload, ServeConfig(seed=5, scheduler="round-robin")
        )
        la = run_serve(
            fleet, profiles, workload, ServeConfig(seed=5, scheduler="latency-aware")
        )
        # Round-robin sends half the traffic to the 16x-slower device.
        assert la.latency_p99_ms < rr.latency_p99_ms
        assert la.goodput_rps >= rr.goodput_rps

    def test_least_loaded_balances_queues(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=100.0, requests=500, networks=["net"])
        stats = run_serve(
            fleet, profiles, workload, ServeConfig(scheduler="least-loaded")
        )
        assert all(device.requests > 0 for device in stats.devices)

    def test_unknown_scheduler_raises(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=10.0, requests=5, networks=["net"])
        with pytest.raises(KeyError):
            run_serve(fleet, profiles, workload, ServeConfig(scheduler="fifo"))


class TestWorkloads:
    def test_trace_replay_is_exact(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        trace = [(1.0, "net"), (2.5, "net"), (40.0, "net")]
        stats = run_serve(
            [fleet[0]], profiles, TraceWorkload(trace), ServeConfig()
        )
        assert stats.offered == 3
        assert stats.completed == 3

    def test_closed_loop_respects_concurrency(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = ClosedLoopWorkload(
            clients=1, requests=20, networks=["net"], think_ms=0.0
        )
        stats = run_serve([fleet[0]], profiles, workload, ServeConfig(max_batch=8))
        # One client: every batch holds exactly one request.
        assert stats.completed == 20
        assert stats.devices[0].batches == 20


class TestFleetConstruction:
    def test_build_fleet_counts_and_names(self):
        fleet = build_fleet("gp102:2,tx1")
        assert [d.name for d in fleet] == ["gp102#0", "gp102#1", "tx1#0"]
        assert fleet[0].platform is make_config("gp102")

    def test_build_fleet_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            build_fleet("gp102:0")
        with pytest.raises(ValueError):
            build_fleet("gp102:x")
        with pytest.raises(ValueError):
            build_fleet("   ")
        with pytest.raises(KeyError):
            build_fleet("warpdrive")

    def test_registered_platform_is_servable(self, tiny_gpu):
        register_platform(replace(tiny_gpu, name="Toy"))
        try:
            fleet = build_fleet("toy:2")
            assert [d.name for d in fleet] == ["toy#0", "toy#1"]
            profiles = {("net", "Toy"): make_profile("net", "Toy", 1.0)}
            stats = run_serve(
                fleet, profiles, TraceWorkload([(0.0, "net")]), ServeConfig()
            )
            assert stats.completed == 1
        finally:
            unregister_platform("Toy")

    def test_register_platform_guards(self, tiny_gpu):
        with pytest.raises(ValueError):
            register_platform(replace(tiny_gpu, name="GP102"))
        with pytest.raises(ValueError):
            unregister_platform("gp102")


class TestEngineValidation:
    def test_empty_fleet_rejected(self, fast_slow_fleet):
        _, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=1.0, requests=1, networks=["net"])
        with pytest.raises(ValueError):
            ServeSim([], profiles, workload)

    def test_missing_profiles_rejected(self, fast_slow_fleet):
        fleet, _ = fast_slow_fleet
        workload = PoissonWorkload(rps=1.0, requests=1, networks=["net"])
        with pytest.raises(ValueError):
            ServeSim(fleet, {}, workload)

    def test_stats_shape(self, fast_slow_fleet):
        fleet, profiles = fast_slow_fleet
        workload = PoissonWorkload(rps=100.0, requests=50, networks=["net"])
        stats = run_serve(fleet, profiles, workload, ServeConfig(slo_ms=0.001))
        data = stats.to_dict()
        assert data["slo_violations"] == data["completed"]
        assert data["latency_ms"]["p99"] >= data["latency_ms"]["p50"]
        assert len(data["devices"]) == 2
        assert data["per_network"]["net"]["completed"] == stats.completed
        for device in data["devices"]:
            assert 0.0 <= device["utilization"] <= 1.0


def _every_arrival_kind_run(scheduler: str):
    """20k requests from one tenant per arrival kind on a small
    autoscaled GP102 fleet under SLO-aware admission."""
    fleet = build_fleet("gp102:3")
    profiles = {
        ("cnn", "GP102"): make_profile("cnn", "GP102", 4.0, 0.75, 0.02, 60.0),
        ("rnn", "GP102"): make_profile("rnn", "GP102", 1.5, 0.1, 0.005, 60.0),
    }
    trace_rng = Random(5)
    clock = 0.0
    trace = []
    for _ in range(2000):
        clock += trace_rng.expovariate(0.4)
        trace.append((clock, trace_rng.choice(("cnn", "rnn"))))
    parts = [
        (Tenant("poisson", 30.0, 0),
         PoissonWorkload(700.0, 5000, ["cnn", "rnn"], weights=[3.0, 1.0])),
        (Tenant("bursty", 12.0, 1),
         BurstyWorkload(2500.0, 4000, ["rnn"], on_ms=50.0, off_ms=150.0,
                        off_factor=0.2)),
        (Tenant("diurnal", 40.0, 0),
         DiurnalWorkload(900.0, 5000, ["cnn"], period_ms=4000.0,
                         amplitude=0.8, segments=16)),
        (Tenant("trace", 25.0, 1), TraceWorkload(trace)),
        (Tenant("closed", 80.0, 2),
         ClosedLoopWorkload(24, 4000, ["cnn", "rnn"], think_ms=3.0)),
    ]
    config = ServeConfig(
        slo_ms=30.0, max_batch=6, batch_timeout_ms=1.5, max_queue=16,
        scheduler=scheduler, seed=2024,
    )
    pipeline = make_pipeline(
        admission="slo-aware",
        autoscale=AutoscaleConfig(
            template="gp102", min_devices=2, max_devices=5, interval_ms=100.0,
            cooldown_ms=300.0, up_queue_depth=6.0, down_queue_depth=1.0,
        ),
    )
    return run_serve(fleet, profiles, MultiTenantWorkload(parts), config, pipeline)


class TestServeGolden:
    """Bit-identity of the event loop over every arrival kind.

    The digests were recorded by running :func:`_every_arrival_kind_run`
    before the event loop's per-request work was cut; any change to the
    loop must reproduce them exactly.
    """

    DIGESTS = {
        "round-robin": "8b542e10a9d94b9cc26eb7157f62cca286d4e24802ed51187d7f36426bf1accb",
        "least-loaded": "41249b5b32a6ea42a1cb0aff64d2718f16b189e22ba73624b6fe895c4bdc8ae4",
        "latency-aware": "38549ee7a93b71d32cb819bc08a683a3a4f302d67979de2ecf4e1f207d9813e9",
    }

    @pytest.mark.parametrize("scheduler", sorted(DIGESTS))
    def test_digest_pinned(self, scheduler):
        stats = _every_arrival_kind_run(scheduler)
        # The scenario reaches every path it is meant to pin.
        assert set(stats.shed_reasons) == {"priority", "slo"}
        assert {event[1] for event in stats.autoscale["events"]} == {1, -1}
        assert all(tenant.completed for tenant in stats.per_tenant.values())
        assert stats.digest() == self.DIGESTS[scheduler]


def _md1_mean_latency(rho: float, requests: int, seed: int, tiny_gpu) -> float:
    """Mean latency of one device with a fixed 1 ms service time, batch
    1 and Poisson arrivals at ``rho`` requests per millisecond."""
    device = ServeDevice("md1#0", replace(tiny_gpu, name="MD1"))
    profiles = {("net", "MD1"): make_profile("net", "MD1", 1.0)}
    assert profiles["net", "MD1"].latency_ms(1) == 1.0
    config = ServeConfig(
        max_batch=1, batch_timeout_ms=0.0, max_queue=10**9, slo_ms=1e9,
        scheduler="round-robin", seed=seed,
    )
    workload = PoissonWorkload(rps=rho * 1000.0, requests=requests, networks=["net"])
    stats = run_serve([device], profiles, workload, config)
    assert stats.completed == requests
    return stats.latency_mean_ms


def _pollaczek_khinchine_ms(rho: float) -> float:
    """M/D/1 mean sojourn time for a 1 ms service time."""
    return 1.0 + rho / (2.0 * (1.0 - rho))


class TestQueueingOracle:
    """The engine against queueing theory: one device, batch 1, Poisson
    arrivals and a fixed 1 ms service time form an M/D/1 queue, whose
    mean latency Pollaczek-Khinchine gives in closed form."""

    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
    def test_md1_mean_latency(self, rho, tiny_gpu):
        mean = _md1_mean_latency(rho, 50_000, 1, tiny_gpu)
        expected = _pollaczek_khinchine_ms(rho)
        assert abs(mean - expected) / expected < 0.03

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rho", [0.3, 0.5, 0.7, 0.9])
    def test_md1_mean_latency_long(self, rho, seed, tiny_gpu):
        mean = _md1_mean_latency(rho, 200_000, seed, tiny_gpu)
        expected = _pollaczek_khinchine_ms(rho)
        assert abs(mean - expected) / expected < 0.02


def _traced_two_tenant_run(scheduler: str, requests: int):
    """A two-tenant run on an autoscaled 3x GP102 fleet (synthetic
    profiles), recorded by a tracer."""
    fleet = build_fleet("gp102:3")
    profiles = {
        ("cnn", "GP102"): make_profile("cnn", "GP102", 4.0, 0.75),
        ("rnn", "GP102"): make_profile("rnn", "GP102", 1.5, 0.1),
    }
    parts = [
        (Tenant("steady", 30.0, 0),
         PoissonWorkload(500.0, requests // 2, ["cnn", "rnn"], weights=[3.0, 1.0])),
        (Tenant("bursty", 15.0, 1),
         BurstyWorkload(1500.0, requests - requests // 2, ["rnn", "cnn"],
                        on_ms=40.0, off_ms=120.0, off_factor=0.2)),
    ]
    config = ServeConfig(
        slo_ms=30.0, max_batch=4, batch_timeout_ms=1.5, max_queue=16,
        scheduler=scheduler, seed=17,
    )
    pipeline = make_pipeline(
        autoscale=AutoscaleConfig(
            template="gp102", min_devices=2, max_devices=5, interval_ms=40.0,
            cooldown_ms=80.0, up_queue_depth=3.0, down_queue_depth=1.0,
        ),
    )
    with capture_trace(warps=False) as tracer:
        stats = run_serve(fleet, profiles, MultiTenantWorkload(parts), config, pipeline)
    return tracer, stats


def _step_area(points) -> float:
    """Area under a step series of ``(time, value)`` points, each value
    holding until the next point's time."""
    return sum(
        value * (end - start) for (start, value), (end, _) in zip(points, points[1:])
    )


class TestLittlesLaw:
    """Little's law per device: a queue-depth series that records every
    change integrates to the requests' summed queue waits, since each
    request adds one to the depth from its arrival to its launch."""

    def _waits_and_gauges(self, scheduler: str, requests: int):
        tracer, stats = _traced_two_tenant_run(scheduler, requests)
        waits: dict[str, float] = defaultdict(float)
        for span in tracer.spans:
            if span.cat == "queue":
                waits[span.thread.removesuffix(" queue")] += span.dur
        gauges = {
            device.name: tracer.metrics.gauge(
                f"serve.queue_depth.{device.name}", domain=SIM_MS
            ).timeline
            for device in stats.devices
        }
        return stats, waits, gauges

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_gauge_area_equals_summed_queue_waits(self, scheduler):
        stats, waits, gauges = self._waits_and_gauges(scheduler, 1500)
        assert {event[1] for event in stats.autoscale["events"]} == {1, -1}
        assert stats.shed < stats.offered
        assert sum(waits.values()) > 0
        for device in stats.devices:
            timeline = gauges[device.name]
            assert not timeline or timeline[-1][1] == 0.0
            assert _step_area(timeline) == pytest.approx(
                waits[device.name], rel=1e-9, abs=1e-12
            ), device.name

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_unsampled_queue_depth_area_equals_summed_queue_waits(self, scheduler):
        stats, waits, gauges = self._waits_and_gauges(scheduler, 150)
        for device in stats.devices:
            # Small enough that the report keeps every point: the start,
            # one per enqueue and one per launch.
            assert len(device.queue_depth) == 1 + device.requests + device.batches
            assert _step_area(device.queue_depth) == pytest.approx(
                waits[device.name], rel=1e-9, abs=1e-12
            ), device.name
            assert _step_area(gauges[device.name]) == pytest.approx(
                waits[device.name], rel=1e-9, abs=1e-12
            ), device.name

