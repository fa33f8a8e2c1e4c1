"""Request-to-device scheduling policies.

A scheduler sees the arriving request and the live fleet state and
names the device that should take it (or ``None`` to shed when every
queue is full — admission control is its own pipeline stage, the
scheduler just never picks a full or drained device).  All three
built-ins are deterministic and break ties by fleet order, which keeps
whole runs reproducible.

* ``round-robin`` — strict rotation, blind to load and device speed;
* ``least-loaded`` — shortest queue first, blind to device speed;
* ``latency-aware`` — greedy SLO-aware: minimize the estimated
  completion time (:meth:`DeviceState.estimate_finish_ms`), which folds
  together queue depth *and* the per-device latency profile, so slow
  devices only absorb traffic once fast ones are saturated.

**Depth index.**  The depth-ranked policies (round-robin,
least-loaded) must be attached: at run start the engine hands them the
fleet's :class:`~repro.serve.devices.DepthIndex` through
:meth:`attach`, and ``choose`` then reads its pick off that index in
O(1) instead of scanning the fleet.  Least-loaded takes the lowest set
bit of the shallowest level; round-robin the lowest open bit at or
after its cursor, else the lowest open bit.  Both are the device their
fleet-order scans pick: the first accepting, non-full device at the
minimum depth, or the first one on from the cursor.  A drained device
has no bit, so it is never chosen.  The latency-aware policy has no
index form (its estimate walks per-network batchers) and stays
object-based — correct, but the documented slow choice for very large
fleets.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.serve.batching import Request
from repro.serve.devices import DepthIndex, DeviceState


class Scheduler(Protocol):
    """The policy interface: pick a device index for each request."""

    name: str

    def choose(
        self, request: Request, devices: Sequence[DeviceState], now_ms: float
    ) -> int | None:
        """Index of the chosen device, or None to shed the request."""
        ...


class RoundRobinScheduler:
    """Strict rotation over the fleet, skipping full devices."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0
        self._index: DepthIndex | None = None

    def reset(self) -> None:
        """Forget run state (the engine calls this at run start)."""
        self._next = 0
        self._index = None

    def attach(self, index: DepthIndex) -> None:
        """Adopt the fleet's depth index (the engine calls this at run
        start, after :meth:`reset`)."""
        self._index = index

    def choose(
        self, request: Request, devices: Sequence[DeviceState], now_ms: float
    ) -> int | None:
        open_ = self._index.open
        if not open_:
            return None
        start = self._next
        pick = open_ >> start << start or open_
        index = (pick & -pick).bit_length() - 1
        self._next = index + 1 if index + 1 < len(devices) else 0
        return index


class LeastLoadedScheduler:
    """Shortest total queue wins; fleet order breaks ties."""

    name = "least-loaded"

    def __init__(self) -> None:
        self._index: DepthIndex | None = None

    def reset(self) -> None:
        self._index = None

    def attach(self, index: DepthIndex) -> None:
        """Adopt the fleet's depth index (the engine calls this at run
        start, after :meth:`reset`)."""
        self._index = index

    def choose(
        self, request: Request, devices: Sequence[DeviceState], now_ms: float
    ) -> int | None:
        index = self._index
        # Some device is below max_queue exactly when the shallowest is.
        if not index.open:
            return None
        level = index.levels[index.lowest]
        return (level & -level).bit_length() - 1


class LatencyAwareScheduler:
    """Greedy minimum-estimated-completion-time (SLO-greedy) policy."""

    name = "latency-aware"

    def choose(
        self, request: Request, devices: Sequence[DeviceState], now_ms: float
    ) -> int | None:
        best: int | None = None
        best_eta = 0.0
        for index, state in enumerate(devices):
            if not state.accepting or state.full:
                continue
            eta = state.estimate_finish_ms(request.network, now_ms)
            if best is None or eta < best_eta:
                best, best_eta = index, eta
        return best


#: Registry of scheduler factories by policy name.
SCHEDULERS = {
    RoundRobinScheduler.name: RoundRobinScheduler,
    LeastLoadedScheduler.name: LeastLoadedScheduler,
    LatencyAwareScheduler.name: LatencyAwareScheduler,
}


def make_scheduler(name: str) -> Scheduler:
    """Instantiate a registered scheduling policy by name."""
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; available: {', '.join(SCHEDULERS)}"
        ) from None
