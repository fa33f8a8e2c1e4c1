"""Figure 10: instruction data-type breakdown throughout execution.

Paper: per-layer (invocation order) data-type mix for ResNet, stated to
be representative of all networks.  Claims checked (Observation 8):
f32 is *not* the dominant type — unsigned 32/16-bit integers are, due
to index arithmetic and ReLU-zeroed data; early layers run around 20%
f32 and the share does not grow in deeper layers.
"""

from __future__ import annotations

from repro.harness.report import Check
from repro.profiling.instmix import dtype_mix_per_kernel, f32_fraction
from repro.runs import Experiment, RunView
from repro.runs.registry import register


def _dominant_dtype(hist):
    """The typed data type with the largest dynamic share."""
    from repro.isa.dtypes import DType

    totals: dict = {}
    for (_op, dtype), count in hist.items():
        if dtype is not DType.NONE:
            totals[dtype] = totals.get(dtype, 0.0) + count
    return max(totals, key=lambda dt: totals[dt])


def _aggregate(view: RunView) -> dict:
    per_kernel = view.memo(dtype_mix_per_kernel, "resnet")
    # The figure plots every layer; the series keeps a readable sample
    # of the invocation order plus the aggregate.
    sampled = {
        kernel_name: {dtype: round(frac, 3) for dtype, frac in mix.items()}
        for kernel_name, mix in per_kernel[:: max(1, len(per_kernel) // 16)]
    }
    return {
        "per_kernel_sample": sampled,
        "f32_total": round(view.memo(f32_fraction, "resnet"), 3),
    }


def _checks(view: RunView, series: dict) -> list[Check]:
    from repro.profiling.instmix import network_histogram  # local import, cheap
    from repro.isa.dtypes import DType

    per_kernel = view.memo(dtype_mix_per_kernel, "resnet")
    f32_by_layer = [mix.get("f32", 0.0) for _, mix in per_kernel if mix]
    f32_total = view.memo(f32_fraction, "resnet")
    hist = network_histogram("resnet")
    typed_total = sum(v for (op, dt), v in hist.items() if dt is not DType.NONE)
    int_share_total = (
        sum(v for (op, dt), v in hist.items() if dt.is_integer) / typed_total
    )

    early = sum(f32_by_layer[:10]) / 10
    late = sum(f32_by_layer[-10:]) / 10
    return [
        Check(
            "f32 is not the dominant data type",
            f32_total < 0.5 and int_share_total > f32_total,
            f"f32={f32_total:.0%}, integer={int_share_total:.0%}",
        ),
        Check(
            "early layers run around 20% f32 instructions",
            0.10 <= early <= 0.40,
            f"mean f32 share of first 10 kernels = {early:.0%}",
        ),
        Check(
            "the f32 share does not grow in deeper layers",
            late <= early + 0.05,
            f"first-10 mean={early:.0%}, last-10 mean={late:.0%}",
        ),
        Check(
            "unsigned 32/16-bit integers are the most used data types",
            _dominant_dtype(hist).value in ("u32", "u16"),
            f"dominant type = {_dominant_dtype(hist).value}",
        ),
    ]


EXPERIMENT = register(
    Experiment(
        exp_id="fig10",
        title="Instruction Type Breakdown Throughout Execution (ResNet)",
        aggregate=_aggregate,
        checks=_checks,
        notes="analytic — no simulation required",
    )
)
