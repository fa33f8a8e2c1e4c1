"""nvprof-style profiling report for one network on one platform.

The paper's Section IV workflow: run a network through the simulator
and read per-layer timing, stall, cache and power statistics.  This
example prints that report for any suite network.

Run:  python examples/nvprof_report.py [network] [platform]
      e.g. python examples/nvprof_report.py alexnet gk210
"""

from __future__ import annotations

import sys

from repro.gpu import SimOptions, simulate_network
from repro.platforms import make_config
from repro.power import GpuWattchModel
from repro.profiling.nvprof import format_profile, profiles_from_result


def main() -> None:
    network = sys.argv[1] if len(sys.argv) > 1 else "cifarnet"
    platform = make_config(sys.argv[2] if len(sys.argv) > 2 else "gp102")
    print(f"profiling {network} on {platform.name} ...")
    result = simulate_network(network, platform, SimOptions().light())
    model = GpuWattchModel(platform)

    print(f"\n== per-kernel timing (total {result.total_time_ms:.2f} ms) ==")
    total = result.total_cycles
    for k in result.kernels[:20]:
        stats = k.stats
        print(f"  {k.kernel.name:18s} {stats.cycles / total:6.1%}  "
              f"l1-miss {stats.l1_miss_ratio:5.1%}  "
              f"power {model.stats_power(stats).total:6.1f} W")
    if len(result.kernels) > 20:
        print(f"  ... and {len(result.kernels) - 20} more kernels")

    print("\n== stall breakdown per layer type ==")
    categories, summary = profiles_from_result(result)
    for profile in categories:
        print("  " + format_profile(profile))
    print("  " + format_profile(summary))

    print("\n== power breakdown by component ==")
    for comp, frac in sorted(
        model.network_breakdown(result).fractions().items(), key=lambda kv: -kv[1]
    )[:8]:
        print(f"  {comp:14s} {frac:6.1%}")


if __name__ == "__main__":
    main()
