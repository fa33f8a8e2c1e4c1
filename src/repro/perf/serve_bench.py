"""Serving-engine benchmark: event-loop throughput on a synthetic fleet.

Backs ``repro bench --serve``.  The scenario is fixed — a 20-device
GP102 fleet, two tenants (a diurnal interactive stream and a Poisson
batch stream), least-loaded scheduling, SLO-aware admission and the
queue-depth autoscaler — and the latency profiles are *synthetic*
(built analytically, no GPU simulation), so the numbers measure the
discrete-event engine alone: arrivals through admission, scheduling,
batching, dispatch and completion.

The emitted payload maps ``serve`` to a ``BENCH_sim.json``-shaped entry
(``cold_s`` best-of-N, mean/std/ci95, ``samples.cold``) plus the run's
:meth:`~repro.serve.stats.ServeStats.digest`, so the committed
``BENCH_serve.json`` plugs straight into :func:`repro.perf.bench.
compare_bench` for same-machine regression tracking.
"""

from __future__ import annotations

import time

from repro.perf.stats import summarize
from repro.serve.autoscale import AutoscaleConfig
from repro.serve.devices import build_fleet
from repro.serve.engine import ServeConfig, ServeSim
from repro.serve.pipeline import make_pipeline
from repro.serve.profiles import KernelTerm, LatencyProfile
from repro.serve.tenants import MultiTenantWorkload, Tenant
from repro.serve.workload import DiurnalWorkload, PoissonWorkload

#: Scenario scale: enough events that a run takes whole seconds (so
#: the Mann-Whitney test sees signal over scheduler noise), small
#: enough that ``--runs 5`` stays well under a minute.
REQUESTS = 200_000
DEVICES = 20


def _profile(network: str, base_ms: float, per_item_ms: float) -> LatencyProfile:
    """An analytic profile: ``base_ms + per_item_ms * batch`` shape."""
    clock_ghz = 1.0
    return LatencyProfile(
        network, "GP102", clock_ghz,
        launch_overhead_cycles=base_ms * clock_ghz * 1e6,
        terms=(KernelTerm(per_item_ms * clock_ghz * 1e6, 1, 1, 1),),
        dynamic_j=0.05, static_watts=40.0,
    )


def _scenario(requests: int, devices: int, seed: int):
    """The fixed benchmark scenario (fleet, profiles, workload, sim)."""
    profiles = {
        ("alexnet", "GP102"): _profile("alexnet", 1.0, 0.5),
        ("resnet", "GP102"): _profile("resnet", 2.0, 1.0),
    }
    fleet = build_fleet(f"gp102:{devices}")
    interactive = requests * 7 // 10
    workload = MultiTenantWorkload([
        (Tenant("interactive", slo_ms=20.0),
         DiurnalWorkload(6000.0, interactive, ["alexnet"],
                         period_ms=30_000.0, segments=32)),
        (Tenant("batch", slo_ms=100.0, priority=1),
         PoissonWorkload(2500.0, requests - interactive, ["resnet"])),
    ])
    pipeline = make_pipeline(
        admission="slo-aware",
        autoscale=AutoscaleConfig(
            template="gp102", min_devices=max(1, devices // 2),
            max_devices=devices, interval_ms=1000.0,
        ),
    )
    config = ServeConfig(scheduler="least-loaded", seed=seed,
                         admission="slo-aware")
    return ServeSim(fleet, profiles, workload, config, pipeline)


def run_serve_bench(
    requests: int = REQUESTS,
    devices: int = DEVICES,
    runs: int = 3,
    seed: int = 0,
    verbose: bool = True,
) -> dict:
    """Benchmark the event loop; returns the ``BENCH_serve.json`` payload.

    One discarded warmup run primes allocator and profile memo state
    before the ``runs`` timed runs.
    """
    sim = _scenario(requests, devices, seed)
    sim.run()  # warmup, discarded
    samples: list[float] = []
    for _ in range(max(1, runs)):
        start = time.perf_counter()
        stats = sim.run()
        samples.append(round(time.perf_counter() - start, 6))
    best = min(samples)
    spread = summarize(samples)
    entry = {
        "cold_s": best,
        "cold_mean_s": round(spread["mean"], 6),
        "cold_std_s": round(spread["std"], 6),
        "cold_ci95_s": round(spread["ci95"], 6),
        "samples": {"cold": samples},
        "requests": requests,
        "devices": devices,
        "throughput_rps": round(requests / best),
        "digest": stats.digest(),
    }
    if verbose:
        print(f"serve   cold={entry['cold_s']:8.3f}s"
              f"±{entry['cold_std_s']:.3f} "
              f"throughput={entry['throughput_rps']:,} req/s "
              f"({requests:,} requests, {devices} devices)", flush=True)
    return {"serve": entry}
