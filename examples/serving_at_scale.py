"""Serving at scale: the day-in-the-life scenario, end to end.

Loads ``examples/day_in_the_life.toml`` — one million requests over a
100-device GP102 fleet, three tenants (diurnal interactive traffic,
bursty RNN scoring, a closed-loop reporting job), SLO-aware admission
and queue-depth autoscaling — runs it through the serving event loop,
and prints the per-tenant SLO attainment, cost-per-request and shed
breakdown that ``repro serve --json`` exposes.

Run:  python examples/serving_at_scale.py

Latency profiles are built at light fidelity through the unified
result store (.repro-cache/), so the first run pays under a second of
simulation and repeats are instant; the serving simulation itself
handles the million requests in about 8 s of wall clock on a 2-vCPU
x86 host.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.gpu.config import SimOptions
from repro.platforms import make_config
from repro.runs import ResultStore
from repro.serve import build_profiles, load_scenario, run_serve

SCENARIO = Path(__file__).parent / "day_in_the_life.toml"


def main() -> None:
    scenario = load_scenario(SCENARIO)
    fleet = scenario.fleet()
    print(f"scenario: {scenario.name} — {scenario.description}")
    print(f"fleet: {len(fleet)} x {fleet[0].platform.name}, "
          f"autoscale [{scenario.autoscale.min_devices}, "
          f"{scenario.autoscale.max_devices}]")

    print("building latency profiles (cached after the first run)...")
    platforms = [device.platform for device in fleet]
    platforms.append(make_config(scenario.autoscale.template))
    profiles = build_profiles(
        list(scenario.networks), platforms, SimOptions().light(), ResultStore(),
    )

    start = time.perf_counter()
    stats = run_serve(
        fleet, profiles, scenario.workload(), scenario.config,
        pipeline=scenario.pipeline(),
    )
    wall_s = time.perf_counter() - start
    print(f"\n{stats.offered:,} requests in {wall_s:.1f} s of wall clock "
          f"({stats.offered / wall_s:,.0f} req/s through the engine); "
          f"{stats.duration_ms / 1e3:.0f} s simulated")
    print(f"completed={stats.completed:,} shed={stats.shed:,} "
          f"goodput={stats.goodput_rps:,.0f} rps")
    if stats.shed_reasons:
        print("shed by reason: " + " ".join(
            f"{reason}={count:,}" for reason, count in stats.shed_reasons.items()
        ))
    print(f"energy: {stats.energy['total_j'] / 1e3:.1f} kJ total, "
          f"{stats.energy['cost_per_request_j']:.3f} J/request fleet-wide")
    scale = stats.autoscale
    print(f"autoscale: {len(scale['events'])} actions, "
          f"peak {scale['peak_devices']} devices, "
          f"final {scale['final_devices']}")

    print(f"\n{'tenant':12s} {'slo ms':>7s} {'offered':>9s} {'shed':>7s} "
          f"{'p99 ms':>8s} {'attain':>7s} {'goodput':>8s} {'J/req':>7s}")
    for tenant in stats.per_tenant.values():
        print(f"{tenant.name:12s} {tenant.slo_ms:7g} {tenant.offered:9,d} "
              f"{tenant.shed:7,d} {tenant.latency_p99_ms:8.2f} "
              f"{tenant.slo_attainment:7.4f} {tenant.goodput_ratio:8.4f} "
              f"{tenant.cost_per_request_j:7.3f}")


if __name__ == "__main__":
    main()
