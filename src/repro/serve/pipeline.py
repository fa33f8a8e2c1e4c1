"""The staged request pipeline: pluggable policies around the engine.

Every request that enters the simulator flows through five stages
(DESIGN.md §15):

1. **admission** — the class gate (:meth:`~repro.serve.admission.
   AdmissionPolicy.assess`) sheds low-priority work from fleet-
   aggregate signals before any per-device state is touched;
2. **scheduling** — the :class:`~repro.serve.schedulers.Scheduler`
   names the target device (or none, which sheds on overflow), then
   the admission SLO gate (:meth:`~repro.serve.admission.
   AdmissionPolicy.place`) may still reject an infeasible placement;
3. **batching** — the device's per-network
   :class:`~repro.serve.batching.DynamicBatcher` accumulates the
   request until its batch is full or times out;
4. **dispatch** — the engine launches the oldest ready batch of an
   idle device and prices it with the latency profile;
5. **completion** — latencies, SLO outcomes, tenant energy shares and
   closed-loop reissues are recorded, and the device redispatches.

Orthogonally, the **autoscaler** observes the fleet at a fixed
simulated cadence (tick events) and grows or drains it.

:class:`ServePipeline` bundles the admission and autoscaling policies;
the engine builds the scheduler ``ServeConfig.scheduler`` names.
Policies must be deterministic — same inputs, same answers — because a
fixed seed must reproduce bit-identical statistics (the serve-scale
digest golden pins one scenario).  Policies may keep per-run state if
they expose ``reset()``, which the engine calls at the start of every run;
schedulers may additionally expose ``attach(index)``, which the engine
calls after ``reset()`` with the fleet's
:class:`~repro.serve.devices.DepthIndex`, to pick a device in O(1)
instead of scanning device objects (see :mod:`repro.serve.schedulers`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.serve.admission import AdmissionPolicy, NullAdmission, make_admission
from repro.serve.autoscale import AutoscaleConfig, QueueDepthAutoscaler


@dataclass
class ServePipeline:
    """The pluggable stages of one serving simulation.

    ``autoscaler=None`` runs a fixed fleet.
    """

    admission: AdmissionPolicy = field(default_factory=NullAdmission)
    autoscaler: QueueDepthAutoscaler | None = None


def make_pipeline(
    admission: str = "none",
    autoscale: AutoscaleConfig | None = None,
    admission_options: dict | None = None,
) -> ServePipeline:
    """Build a :class:`ServePipeline` from policy names and configs."""
    return ServePipeline(
        admission=make_admission(admission, **(admission_options or {})),
        autoscaler=QueueDepthAutoscaler(autoscale) if autoscale else None,
    )
