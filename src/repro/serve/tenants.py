"""Multi-tenant workloads: named tenants with their own SLOs and
priorities, overlaid onto one request stream.

A :class:`Tenant` names one customer of the simulated service: its SLO
(used for per-tenant attainment and for the SLO-aware admission gate),
its priority class (0 is highest; the admission layer sheds low
priorities first under load) and a reporting weight.

:class:`MultiTenantWorkload` overlays any number of per-tenant
workloads — diurnal, bursty, Poisson, trace replay, closed-loop, in
any mix — into a single deterministic stream.  Each tenant's
sub-workload draws from its *own* ``random.Random`` seeded from the
run seed at :meth:`prime` time, so a tenant's arrival process is
independent of how the other tenants' events interleave (and of the
scheduling policy under test): swapping schedulers never perturbs the
offered load.  The per-stream generators are per-run state,
re-initialized on every ``prime`` call, so one workload object can
drive several runs back-to-back and produce identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Sequence

from repro.serve.batching import Request
from repro.serve.workload import Arrival, Workload

#: Name used for the implicit tenant of single-tenant runs.  Plain
#: (untagged) arrivals are attributed to it by the engine.
DEFAULT_TENANT_NAME = "default"


@dataclass(frozen=True)
class Tenant:
    """One named customer of the serving fleet."""

    name: str
    #: Per-tenant latency SLO; attainment is reported against this.
    slo_ms: float
    #: Priority class, 0 = highest.  Admission sheds high numbers first.
    priority: int = 0
    #: Reporting weight (reserved for fair-share policies; surfaces in
    #: the scenario report).
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("tenant name must be non-empty")
        if self.slo_ms <= 0:
            raise ValueError(f"tenant {self.name!r}: slo_ms must be > 0")
        if self.priority < 0:
            raise ValueError(f"tenant {self.name!r}: priority must be >= 0")
        if self.weight <= 0:
            raise ValueError(f"tenant {self.name!r}: weight must be > 0")


def default_tenant(slo_ms: float) -> Tenant:
    """The implicit tenant wrapping a plain single-stream workload."""
    return Tenant(DEFAULT_TENANT_NAME, slo_ms=slo_ms, priority=0)


class MultiTenantWorkload(Workload):
    """Deterministic overlay of per-tenant workloads.

    Arrivals are tagged with the owning tenant's name and stream index;
    chaining delegates to the tagged sub-workload with its private rng.
    The open-loop generators copy the tags of the arrival they follow,
    so a tagged copy is built only where a sub-workload's arrival lacks
    them: primed arrivals, closed-loop reissues and trace replays.
    """

    def __init__(self, parts: Sequence[tuple[Tenant, Workload]]) -> None:
        if not parts:
            raise ValueError("at least one (tenant, workload) pair required")
        names = [tenant.name for tenant, _ in parts]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate tenant names in {names}")
        self.parts = tuple(parts)
        self.closed_loop = any(wl.closed_loop for _, wl in parts)
        self._names = tuple(names)
        self._workloads = tuple(wl for _, wl in parts)
        self._by_name = {name: i for i, name in enumerate(names)}
        # Per-run state, re-created by prime().
        self._rngs: list[Random] = []
        self._issued: list[int] = []

    @property
    def tenants(self) -> tuple[Tenant, ...]:
        return tuple(tenant for tenant, _ in self.parts)

    def _tag(self, arrival: Arrival, stream: int) -> Arrival:
        return Arrival(
            arrival.time_ms, arrival.network, arrival.index,
            self._names[stream], stream,
        )

    def prime(self, rng: Random) -> list[Arrival]:
        # One private generator per stream, seeded from the run seed in
        # declaration order: tenant streams stay independent of event
        # interleaving (and therefore of the policies under test).
        self._rngs = [Random(rng.getrandbits(64)) for _ in self.parts]
        self._issued = [0] * len(self.parts)
        primed: list[Arrival] = []
        for stream, workload in enumerate(self._workloads):
            initial = workload.prime(self._rngs[stream])
            self._issued[stream] = len(initial)
            primed.extend(self._tag(arrival, stream) for arrival in initial)
        return primed

    def next_arrival(self, prev: Arrival, rng: Random) -> Arrival | None:
        stream = prev.stream
        nxt = self._workloads[stream].next_arrival(prev, self._rngs[stream])
        if nxt is None:
            return None
        self._issued[stream] += 1
        if nxt.stream != stream or nxt.tenant != self._names[stream]:
            nxt = self._tag(nxt, stream)
        return nxt

    def on_completion(
        self, request: Request, now_ms: float, issued: int, rng: Random
    ) -> Arrival | None:
        # ``issued`` from the engine is the global count; closed-loop
        # sub-workloads need their own stream's count.
        stream = self._by_name[request.tenant]
        nxt = self._workloads[stream].on_completion(
            request, now_ms, self._issued[stream], self._rngs[stream]
        )
        if nxt is None:
            return None
        self._issued[stream] += 1
        return self._tag(nxt, stream)
