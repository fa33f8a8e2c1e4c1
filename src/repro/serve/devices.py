"""Fleet construction and per-device runtime state.

A fleet is an ordered list of :class:`ServeDevice` instances built from
a spec string like ``"gp102:2,tx1"`` (two GP102 boards plus one Tegra
X1), resolving platform names through
:func:`repro.platforms.make_config` — so anything registered there,
including test platforms added via ``register_platform``, can serve.

:class:`DeviceState` is the engine-side view of one device: its
per-network dynamic batchers, a bounded admission queue, busy/idle and
active-span bookkeeping, the energy accumulators, and the counters
that end up in ``ServeStats``.

Two representation choices keep the event loop's hot path cheap while
staying observationally identical to the original design:

* ``pending`` is an *incremental* counter (updated on enqueue and
  batch take) rather than a sum over batchers, so queue-depth checks
  are O(1);
* every accepting state keeps its bit in the fleet-shared
  :class:`DepthIndex` at its current depth, moving it on enqueue and
  batch take, and takes it out while drained — the depth-ranked
  schedulers read their choice off that index in O(1) instead of
  scanning the fleet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.gpu.config import GpuConfig
from repro.platforms import make_config
from repro.serve.batching import DynamicBatcher, Request
from repro.serve.profiles import LatencyProfile
from repro.serve.stats import DepthTimeline

@dataclass(frozen=True)
class ServeDevice:
    """One accelerator instance in the fleet."""

    name: str  # e.g. "gp102#0"
    platform: object  # GpuConfig or AcceleratorConfig


def build_fleet(spec: str) -> list[ServeDevice]:
    """Parse ``"gp102:2,tx1"`` into named device instances.

    Each comma-separated entry is ``platform`` or ``platform:count``;
    instances are numbered per platform in spec order.
    """
    fleet: list[ServeDevice] = []
    counters: dict[str, int] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        name, _, count_text = entry.partition(":")
        name = name.strip().lower()
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(f"bad device count in fleet entry {entry!r}") from None
        if count < 1:
            raise ValueError(f"device count must be >= 1 in {entry!r}")
        platform = make_config(name)
        for _ in range(count):
            index = counters.get(name, 0)
            counters[name] = index + 1
            fleet.append(ServeDevice(f"{name}#{index}", platform))
    if not fleet:
        raise ValueError(f"empty fleet spec {spec!r}")
    return fleet


class DepthIndex:
    """The accepting devices of one fleet, ranked by queue depth.

    Device ``i`` is bit ``1 << i``.  ``levels[d]`` is the bitmask of
    accepting devices with ``d`` queued requests, grown to the deepest
    queue seen (never preallocated to ``max_queue``, which may be
    huge); ``lowest`` is the shallowest non-empty level while any
    device accepts work; ``open`` is the bitmask of accepting devices
    below ``max_queue``.  A device that is not accepting has no bit
    anywhere.  :class:`DeviceState` moves its own bit, passing the depth
    its bit is at; the lowest set bit of a mask is the first device in
    fleet order.
    """

    __slots__ = ("max_queue", "levels", "lowest", "open")

    def __init__(self, max_queue: int) -> None:
        self.max_queue = max_queue
        self.levels = [0]
        self.lowest = 0
        self.open = 0

    def add(self, bit: int, depth: int) -> None:
        """Enter an accepting device at *depth*."""
        levels = self.levels
        if depth >= len(levels):
            levels.extend([0] * (depth + 1 - len(levels)))
        levels[depth] |= bit
        if depth < self.lowest or not levels[self.lowest]:
            self.lowest = depth
        if depth < self.max_queue:
            self.open |= bit

    def remove(self, bit: int, depth: int) -> None:
        """Take out the device at *depth* (it stopped accepting work)."""
        levels = self.levels
        levels[depth] &= ~bit
        self.open &= ~bit
        lowest = self.lowest
        top = len(levels) - 1
        while not levels[lowest] and lowest < top:
            lowest += 1
        self.lowest = lowest

    def deepen(self, bit: int, depth: int) -> None:
        """Move the device at *depth* to ``depth + 1`` (one request
        enqueued)."""
        levels = self.levels
        new = depth + 1
        if new == len(levels):
            levels.append(0)
        levels[depth] ^= bit
        levels[new] |= bit
        if new == self.max_queue:
            self.open ^= bit
        if depth == self.lowest and not levels[depth]:
            self.lowest = new

    def lift(self, bit: int, depth: int, new: int) -> None:
        """Move the device at *depth* to the shallower *new* (a batch
        launched)."""
        levels = self.levels
        levels[depth] ^= bit
        levels[new] |= bit
        if new < self.max_queue:
            self.open |= bit
        if new < self.lowest:
            self.lowest = new


class DeviceState:
    """Mutable serving state of one fleet device."""

    __slots__ = (
        "device", "profiles", "max_batch", "batch_timeout_ms", "max_queue",
        "bit", "depth_index", "batchers", "busy", "busy_until", "flush_at",
        "pending", "accepting", "busy_ms", "batches", "served", "shed",
        "timeline", "static_watts", "dynamic_j", "active_ms", "_span_start",
    )

    def __init__(
        self,
        device: ServeDevice,
        profiles: Mapping[str, LatencyProfile],
        max_batch: int,
        batch_timeout_ms: float,
        max_queue: int,
        index: int = 0,
        depth_index: DepthIndex | None = None,
    ) -> None:
        self.device = device
        self.profiles = dict(profiles)
        self.max_batch = max_batch
        self.batch_timeout_ms = batch_timeout_ms
        self.max_queue = max_queue
        #: This device in the fleet's depth index: ``1 << fleet position``.
        self.bit = 1 << index
        #: The fleet-shared depth index (see module docstring).
        self.depth_index = (
            depth_index if depth_index is not None else DepthIndex(max_queue)
        )
        self.batchers = {
            network: DynamicBatcher(max_batch, batch_timeout_ms)
            for network in self.profiles
        }
        self.busy = False
        self.busy_until = 0.0
        #: Deadline of the currently scheduled flush event, if any.
        self.flush_at: float | None = None
        #: Requests queued (all networks); incremental, O(1) to read.
        self.pending = 0
        #: Whether the device takes new work (autoscaler drains toggle this).
        self.accepting = True
        # Result counters.
        self.busy_ms = 0.0
        self.batches = 0
        self.served = 0
        self.shed = 0
        self.timeline = DepthTimeline()
        #: GPUWattch static (leakage) power while the device is active.
        self.static_watts = 0.0
        #: Accumulated dynamic (activity) energy of launched batches.
        self.dynamic_j = 0.0
        #: Closed active spans (provisioned wall-clock, for static energy).
        self.active_ms = 0.0
        self._span_start: float | None = 0.0
        self.depth_index.add(self.bit, 0)

    # ------------------------------------------------------------------
    @property
    def full(self) -> bool:
        return self.pending >= self.max_queue

    def enqueue(self, request: Request, now_ms: float) -> None:
        self.batchers[request.network].add(request)
        depth = self.pending
        self.pending = depth + 1
        if self.accepting:
            self.depth_index.deepen(self.bit, depth)
        self.timeline.record(now_ms, depth + 1)

    def take_batch(self, network: str, now_ms: float) -> list[Request]:
        """Pop the launchable batch for *network*, keeping the pending
        counter, depth index and timeline in sync."""
        batch = self.batchers[network].pop_batch(now_ms, force=True)
        depth = self.pending
        self.pending = depth - len(batch)
        if self.accepting:
            self.depth_index.lift(self.bit, depth, self.pending)
        self.timeline.record(now_ms, self.pending)
        return batch

    # -- autoscaling lifecycle -----------------------------------------
    def activate(self, now_ms: float) -> None:
        """Start (or resume) accepting work; opens an active span."""
        if not self.accepting:
            self.accepting = True
            self.depth_index.add(self.bit, self.pending)
        if self._span_start is None:
            self._span_start = now_ms

    def drain(self, now_ms: float) -> None:
        """Stop accepting new work.  Queued and in-flight work still
        completes; the active span closes once the device is idle and
        empty (or immediately if it already is)."""
        if self.accepting:
            self.accepting = False
            self.depth_index.remove(self.bit, self.pending)
        self.maybe_retire(now_ms)

    def maybe_retire(self, now_ms: float) -> None:
        """Close the active span of a drained device that has gone
        idle and empty (called by the engine after completions)."""
        if (
            not self.accepting
            and self._span_start is not None
            and not self.busy
            and not self.pending
        ):
            self.active_ms += now_ms - self._span_start
            self._span_start = None

    def finalize(self, end_ms: float) -> None:
        """Close any open active span at end of run.

        The clamp covers a device activated by an autoscaler tick that
        fired after the last real (clock-advancing) event.
        """
        if self._span_start is not None:
            self.active_ms += max(0.0, end_ms - self._span_start)
            self._span_start = None

    def energy_j(self) -> float:
        """Total device energy: static leakage over the provisioned
        (active) span plus accumulated dynamic batch energy."""
        return self.static_watts * self.active_ms / 1e3 + self.dynamic_j

    # ------------------------------------------------------------------
    def estimate_finish_ms(self, network: str, now_ms: float) -> float:
        """Greedy completion estimate for one more *network* request.

        Remaining busy time, plus every queued network's backlog at its
        achievable batch size, plus a batch-1 inference for the new
        request.  Deliberately ignores co-batching of the new request
        with queued work — a pessimistic but monotone estimate that is
        what the latency-aware scheduler ranks devices by.
        """
        estimate = max(now_ms, self.busy_until if self.busy else now_ms)
        for queued_network, batcher in self.batchers.items():
            pending = len(batcher)
            if not pending:
                continue
            profile = self.profiles[queued_network]
            batches = math.ceil(pending / self.max_batch)
            estimate += batches * profile.latency_ms(min(pending, self.max_batch))
        return estimate + self.profiles[network].latency_ms(1)
