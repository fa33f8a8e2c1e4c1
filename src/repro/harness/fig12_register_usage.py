"""Figure 12: per-SM register file usage (max allocated vs max live).

Paper: for each network, the maximum registers allocated by the
compiler and the maximum live registers, in KB per SM, on the Pascal
configuration (256 KB register file per SM).  Claims checked
(Observation 10): AlexNet and ResNet allocate over 50% of the register
file while live registers stay a bit lower; all other networks stay
under 100 KB; the RNNs use under ~20 KB; so the register file is
significantly underutilized overall.
"""

from __future__ import annotations

from repro.gpu.occupancy import compute_occupancy
from repro.harness.common import ALL_NETWORKS, display, sim_platform
from repro.harness.report import Check
from repro.isa.program import max_live_registers
from repro.kernels.compile import compiled_network
from repro.kernels.launch import WARP_SIZE
from repro.runs import Experiment, RunView
from repro.runs.registry import register

KB = 1024.0


def register_usage(name: str) -> tuple[float, float]:
    """(max allocated KB, max live KB) over the network's kernels.

    Occupancy and liveness read only what the launch signature pins
    (geometry and the canonical program), and both peaks are maxima, so
    each signature is measured once.
    """
    config = sim_platform()
    alloc_peak = 0.0
    live_peak = 0.0
    measured: set[str] = set()
    for kernel in compiled_network(name):
        signature = kernel.signature()
        if signature in measured:
            continue
        measured.add(signature)
        occ = compute_occupancy(kernel, config)
        alloc_kb = occ.allocated_register_bytes / KB
        live = max_live_registers(kernel.program).max_live
        live_kb = live * occ.warps * WARP_SIZE * 4 / KB
        alloc_peak = max(alloc_peak, alloc_kb)
        live_peak = max(live_peak, min(live_kb, alloc_kb))
    return alloc_peak, live_peak


def _usage(view: RunView) -> dict[str, tuple[float, float]]:
    return {name: register_usage(name) for name in view.nets(ALL_NETWORKS)}


def _aggregate(view: RunView) -> dict:
    series: dict[str, dict[str, float]] = {}
    for name, (alloc, live) in view.memo(_usage, view).items():
        series[display(name)] = {
            "Max Allocated Registers (KB)": round(alloc, 1),
            "Max Live Registers (KB)": round(live, 1),
        }
    return series


def _checks(view: RunView, series: dict) -> list[Check]:
    usage = view.memo(_usage, view)
    rf_kb = sim_platform().register_file_bytes_per_sm / KB
    return [
        Check(
            "AlexNet and ResNet allocate over 50% of the 256KB register file",
            usage["alexnet"][0] > rf_kb / 2 and usage["resnet"][0] > rf_kb / 2,
            f"AlexNet={usage['alexnet'][0]:.0f}KB ResNet={usage['resnet'][0]:.0f}KB "
            f"of {rf_kb:.0f}KB",
        ),
        Check(
            "live registers stay below the allocation",
            all(live <= alloc for alloc, live in usage.values()),
            "max-live <= max-allocated for every network",
        ),
        Check(
            "RNNs use a small fraction of the register file (<~20KB)",
            usage["gru"][0] <= 24 and usage["lstm"][0] <= 24,
            f"GRU={usage['gru'][0]:.1f}KB LSTM={usage['lstm'][0]:.1f}KB",
        ),
        Check(
            "the register file is significantly underutilized overall",
            sum(alloc for alloc, _ in usage.values()) / len(usage) < rf_kb,
            f"mean allocation {sum(a for a, _ in usage.values())/len(usage):.0f}KB "
            f"< {rf_kb:.0f}KB",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig12",
        title="Register File Usage in KB (per SM)",
        aggregate=_aggregate,
        checks=_checks,
        notes="analytic — no simulation required",
    )
)
