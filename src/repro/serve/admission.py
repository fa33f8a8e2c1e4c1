"""SLO-aware admission control: priority classes and load shedding.

Admission is the first stage of the request pipeline and runs in two
phases around scheduling (see DESIGN.md §15):

* **class gate** (:meth:`AdmissionPolicy.assess`, before scheduling) —
  an O(1) decision from fleet-aggregate signals: each priority class
  owns a fill threshold, and once the fleet's aggregate queue fill
  crosses a class's threshold that class is shed.  Priority 0 (highest)
  should keep a threshold of 1.0 so it only ever sheds on hard
  overflow.
* **SLO gate** (:meth:`AdmissionPolicy.place`, after the scheduler has
  named a device) — a per-request feasibility check: estimate the
  completion time on the chosen device and shed requests that cannot
  meet their tenant's SLO even if admitted.  Shedding early is kinder
  than queueing a request that is already doomed: it frees the slot
  for feasible work and gives the client an immediate reject.

The feasibility estimate is deliberately conservative in the client's
favour: remaining busy time, plus the queued backlog priced at the
device's full-batch rate for the request's own network, plus one
batch-1 inference, plus the full batching timeout as slack.  On an
idle device this reduces to ``timeout + latency(1)``, which is an
upper bound on the real latency — so admission **never sheds a
request that an idle fleet would have served within its SLO** (the
property test in ``tests/test_serve_admission.py`` pins this).

Policies are deterministic, so a fixed seed reproduces every admission
decision.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.serve.batching import Request
from repro.serve.devices import DeviceState
from repro.serve.tenants import Tenant

#: Shed-reason labels (stable strings; they appear in ServeStats).
SHED_OVERFLOW = "overflow"      # every queue full / scheduler found none
SHED_PRIORITY = "priority"      # class gate: low priority under load
SHED_SLO = "slo"                # SLO gate: infeasible on chosen device


class AdmissionPolicy(Protocol):
    """The admission-stage protocol (both phases)."""

    name: str

    def assess(
        self,
        request: Request,
        tenant: Tenant,
        pending_total: int,
        capacity_total: int,
        now_ms: float,
    ) -> str | None:
        """Pre-scheduling class gate: a shed reason, or None to admit."""
        ...

    def place(
        self,
        request: Request,
        tenant: Tenant,
        state: DeviceState,
        now_ms: float,
    ) -> str | None:
        """Post-scheduling SLO gate for the chosen device *state*:
        a shed reason, or None to enqueue."""
        ...


class NullAdmission:
    """Admit everything (the pre-pipeline behaviour): requests are only
    shed on hard queue overflow, which the engine handles itself."""

    name = "none"

    def assess(self, request, tenant, pending_total, capacity_total, now_ms):
        return None

    def place(self, request, tenant, state, now_ms):
        return None


class SloAwareAdmission:
    """Priority-class load shedding plus per-request SLO feasibility.

    ``priority_fill[p]`` is the aggregate fleet fill fraction (queued
    requests over total queue capacity) above which priority class
    ``p`` is shed; classes beyond the tuple share its last entry.
    Thresholds must be in (0, 1]; a leading 1.0 keeps the top class
    admitted until hard overflow.
    """

    name = "slo-aware"

    def __init__(
        self,
        priority_fill: Sequence[float] = (1.0, 0.75, 0.5),
        slo_slack: float = 1.0,
    ) -> None:
        fills = tuple(float(f) for f in priority_fill)
        if not fills:
            raise ValueError("priority_fill must name at least one class")
        for fill in fills:
            if not 0.0 < fill <= 1.0:
                raise ValueError(
                    f"priority_fill entries must be in (0, 1], got {fill}"
                )
        if slo_slack < 0:
            raise ValueError("slo_slack must be >= 0")
        self.priority_fill = fills
        #: Multiplier on the batching timeout counted as queueing slack
        #: in the feasibility estimate (1.0 = the full timeout).
        self.slo_slack = slo_slack

    def assess(self, request, tenant, pending_total, capacity_total, now_ms):
        if capacity_total <= 0:
            return SHED_OVERFLOW
        index = tenant.priority
        fills = self.priority_fill
        threshold = fills[index] if index < len(fills) else fills[-1]
        if pending_total >= threshold * capacity_total:
            return SHED_PRIORITY
        return None

    def place(self, request, tenant, state, now_ms):
        profile = state.profiles[request.network]
        busy = state.busy_until - now_ms if state.busy else 0.0
        pending = state.pending
        backlog = 0.0
        if pending:
            # Price the queued backlog at the device's full-batch rate
            # for this request's network — a cheap, monotone proxy that
            # avoids walking every per-network batcher on the hot path.
            max_batch = state.max_batch
            batches = -(-pending // max_batch)
            backlog = batches * profile.latency_ms(min(pending, max_batch))
        # With max_batch == 1 a lone request launches immediately; the
        # co-batching timeout only delays it when batching is possible.
        slack = (
            self.slo_slack * state.batch_timeout_ms if state.max_batch > 1 else 0.0
        )
        eta = busy + backlog + profile.latency_ms(1) + slack
        deadline = request.arrival_ms + tenant.slo_ms - now_ms
        if eta > deadline:
            return SHED_SLO
        return None


#: Registry of admission policy factories by name.
ADMISSION_POLICIES = {
    NullAdmission.name: NullAdmission,
    SloAwareAdmission.name: SloAwareAdmission,
}


def make_admission(name: str, **kwargs) -> AdmissionPolicy:
    """Instantiate a registered admission policy by name."""
    try:
        factory = ADMISSION_POLICIES[name]
    except KeyError:
        raise KeyError(
            f"unknown admission policy {name!r}; "
            f"available: {', '.join(ADMISSION_POLICIES)}"
        ) from None
    return factory(**kwargs)
