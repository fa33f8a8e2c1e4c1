"""nvprof-like stall profiler (Figure 7's measurement front-end).

The paper collects stall-cycle breakdowns by running nvprof on a GK210.
This module provides the same view over the simulator: per-layer-type
and per-network stall-reason fractions for any platform configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.simulator import NetworkResult
from repro.profiling.stall import FIGURE7_ORDER, StallReason


@dataclass(frozen=True)
class StallProfile:
    """Stall-reason fractions for one profiling scope (layer or net)."""

    scope: str
    fractions: dict[StallReason, float]

    def top_reason(self) -> StallReason:
        """The dominant stall reason."""
        return max(self.fractions, key=lambda r: self.fractions[r])


def profiles_from_result(result: NetworkResult) -> tuple[list[StallProfile], StallProfile]:
    """Build stall profiles from an existing simulation result.

    Returns ``(per_category, whole_network)`` where categories appear in
    kernel invocation order, as the paper's Figure 7 lays them out.
    """
    per_category: list[StallProfile] = []
    for category, stats in result.stats_by_category().items():
        fractions = stats.stall_fractions()
        if fractions:
            per_category.append(StallProfile(category, fractions))
    summary = StallProfile(result.network, result.aggregate().stall_fractions())
    return per_category, summary


def format_profile(profile: StallProfile) -> str:
    """One-line rendering in Figure 7 legend order."""
    parts = [
        f"{reason.value}={profile.fractions.get(reason, 0.0) * 100:5.1f}%"
        for reason in FIGURE7_ORDER
        if profile.fractions.get(reason, 0.0) >= 0.005
    ]
    return f"{profile.scope:16s} " + "  ".join(parts)
