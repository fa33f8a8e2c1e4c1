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

**Fast hooks.**  Depth-only policies (round-robin, least-loaded)
support :meth:`attach`: the engine hands them the fleet-shared flat
``depths`` list (see :mod:`repro.serve.devices`) and the queue bound,
and ``choose`` then scans plain ints instead of device objects —
roughly an order of magnitude cheaper at 100 devices.  The attached
scan is *definitionally* equivalent to the object scan: ``depths[i]``
equals ``devices[i].pending`` while the device accepts work and a
beyond-capacity sentinel otherwise, so "skip full or drained" and the
tie-breaks are the same predicate on the same numbers.  The
latency-aware policy has no flat-scan form (its estimate walks
per-network batchers) and stays object-based — correct, but the
documented slow choice for very large fleets.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from repro.serve.batching import Request
from repro.serve.devices import DeviceState


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
        self._depths: list[int] | None = None
        self._max_queue = 0

    def reset(self) -> None:
        """Forget run state (the engine calls this at run start)."""
        self._next = 0
        self._depths = None

    def attach(self, depths: list[int], max_queue: int) -> None:
        """Adopt the fleet-shared depth list (engine fast hook)."""
        self._depths = depths
        self._max_queue = max_queue

    def choose(
        self, request: Request, devices: Sequence[DeviceState], now_ms: float
    ) -> int | None:
        depths = self._depths
        if depths is not None:
            count = len(depths)
            start = self._next
            max_queue = self._max_queue
            for offset in range(count):
                index = start + offset
                if index >= count:
                    index -= count
                if depths[index] < max_queue:
                    self._next = index + 1 if index + 1 < count else 0
                    return index
            return None
        for offset in range(len(devices)):
            index = (self._next + offset) % len(devices)
            state = devices[index]
            if state.accepting and not state.full:
                self._next = (index + 1) % len(devices)
                return index
        return None


class LeastLoadedScheduler:
    """Shortest total queue wins; fleet order breaks ties."""

    name = "least-loaded"

    def __init__(self) -> None:
        self._depths: list[int] | None = None
        self._max_queue = 0

    def reset(self) -> None:
        self._depths = None

    def attach(self, depths: list[int], max_queue: int) -> None:
        """Adopt the fleet-shared depth list (engine fast hook)."""
        self._depths = depths
        self._max_queue = max_queue

    def choose(
        self, request: Request, devices: Sequence[DeviceState], now_ms: float
    ) -> int | None:
        depths = self._depths
        if depths is not None:
            # Two C-speed scans beat one Python loop by ~5x at 100
            # devices: min() finds the smallest depth, index() its
            # first holder — which is exactly the first (fleet-order)
            # strict minimum the object scan below picks.
            shallowest = min(depths)
            if shallowest >= self._max_queue:
                return None
            return depths.index(shallowest)
        best_index: int | None = None
        best_len = -1
        for index, state in enumerate(devices):
            if not state.accepting or state.full:
                continue
            depth = state.pending
            if best_index is None or depth < best_len:
                best_index, best_len = index, depth
        return best_index


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
