"""Quality-of-result metrics for campaign design points.

Every executed point gets one :class:`QorRow`: the axis values plus a
fixed metric catalogue (:data:`QOR_METRICS`) derived from the stored
batch-1 simulation —

* **timing** comes from the serving latency model
  (:mod:`repro.serve.profiles`): batch-``b`` latency follows the
  per-kernel wave analysis exactly (it reproduces
  ``total_time_ms`` at ``b=1``), so every batch variant of a combo is
  priced from one simulation;
* **energy** splits the GPUWattch model (:mod:`repro.power`) into its
  activity-proportional and static halves: dynamic energy scales with
  the batch (every activation computed ``b`` times) while static power
  integrates over the batched latency;
* **memory footprint** follows Figure 11's allocation scheme: the whole
  pre-trained model resides on the device while live activations scale
  with the batch.

Values are rounded to 6 decimals so QoR tables and golden frontiers
serialize stably.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.campaign.expand import CampaignPoint
from repro.power.accel import power_model_for
from repro.serve.profiles import profile_from_result

#: The metric catalogue, in reporting order.  All derive from one
#: batch-1 simulation plus the analytic batch/energy/footprint models.
QOR_METRICS = (
    "latency_ms",        # end-to-end batched inference latency
    "cycles",            # the same latency in core cycles
    "throughput_rps",    # steady-state inferences/second at this batch
    "energy_j",          # energy of one batched inference
    "energy_per_inf_j",  # energy amortized per inference
    "peak_power_w",      # hottest kernel's average power (Figure 3)
    "footprint_kb",      # weights + batch-scaled live activations
    "edp_js",            # energy-delay product (J * s) per inference
)


@dataclass(frozen=True)
class QorRow:
    """One design point's axis values and computed metrics."""

    point: CampaignPoint
    metrics: dict

    def to_dict(self) -> dict:
        """Stable JSON form: axes plus metrics."""
        return {"axes": self.point.axes(), "metrics": dict(self.metrics)}

    def describe(self) -> str:
        """One-line log form."""
        m = self.metrics
        return (
            f"{self.point.describe()}: lat={m['latency_ms']:.3f}ms "
            f"e/inf={m['energy_per_inf_j']:.4f}J fp={m['footprint_kb']:.0f}KB"
        )


@lru_cache(maxsize=None)
def _footprint_parts(network: str) -> tuple[int, int]:
    """(weight bytes, peak live-activation bytes) of one network."""
    from repro.profiling.memfootprint import footprint

    report = footprint(network)
    return report.weight_bytes, report.peak_activation_bytes


class QorModel:
    """Per-run derived quantities, memoized across batch variants.

    Campaign points sharing a :class:`~repro.runs.spec.RunSpec` (batch
    variants) also share the latency profile, which carries the energy
    split, and the peak power, so both are computed once per run key,
    not once per point.
    """

    def __init__(self) -> None:
        self._per_run: dict[str, tuple] = {}

    def _run_terms(self, run_key: str, result) -> tuple:
        terms = self._per_run.get(run_key)
        if terms is None:
            terms = (
                profile_from_result(result),
                power_model_for(result.config).peak_power(result),
            )
            self._per_run[run_key] = terms
        return terms

    def row(self, point: CampaignPoint, run_key: str, result) -> QorRow:
        """The QoR row of one point, given its stored simulation."""
        config = result.config
        profile, peak_w = self._run_terms(run_key, result)
        batch = point.batch
        latency_ms = profile.latency_ms(batch)
        cycles = latency_ms * config.clock_ghz * 1e6
        energy_j = profile.dynamic_j * batch + profile.static_watts * latency_ms / 1e3
        energy_per_inf = energy_j / batch
        weight_bytes, activation_bytes = _footprint_parts(point.network)
        footprint_kb = (weight_bytes + batch * activation_bytes) / 1024.0
        metrics = {
            "latency_ms": latency_ms,
            "cycles": cycles,
            "throughput_rps": profile.throughput_rps(batch),
            "energy_j": energy_j,
            "energy_per_inf_j": energy_per_inf,
            "peak_power_w": peak_w,
            "footprint_kb": footprint_kb,
            "edp_js": energy_per_inf * latency_ms / 1e3,
        }
        return QorRow(
            point=point,
            metrics={key: round(value, 6) for key, value in metrics.items()},
        )
