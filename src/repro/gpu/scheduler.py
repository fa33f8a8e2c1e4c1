"""Warp schedulers: GTO, LRR and TLV (Figures 15-16).

The paper evaluates three GPGPU-Sim schedulers:

* **GTO** (greedy-then-oldest): keep issuing from the same warp until it
  stalls, then fall back to the oldest ready warp.  GPGPU-Sim's default.
* **LRR** (loose round-robin): rotate through resident warps.
* **TLV** (two-level): a small active fetch group is scheduled
  round-robin; warps that stall on long-latency operations are swapped
  out to a pending pool.

GTO and TLV manage ready/pending queues; the paper attributes LRR's win
on convolution-heavy networks to avoiding that queue movement when data
comes back quickly from the caches (Observation 12).  The queue cost is
modelled as a per-memory-issue scheduler bubble (``SimOptions.queue_penalty``)
charged by GTO/TLV only.

A note on the ``order`` generators: they re-read scheduler state
(``_current``, ``_next``, ``_rr``, the TLV queues) *live*, per yield,
while ``notify_issue`` mutates that state mid-consumption.  Those
interleavings are part of the modelled policies.  These classes are
the reference definition of each policy: the seed oracle
(:mod:`repro.gpu.seed_engine`) drives them as written.  The optimized
engine in :mod:`repro.gpu.sm` never calls them; it inlines all three on
its ready bitmask and reproduces every live re-read — LRR's position
moving mid-walk, TLV's pointer moving mid-walk and its pending-list
cursor skipping the entry after a promotion (DESIGN.md section 13).
Do not "simplify" the generators into pre-materialized lists; that
changes issue order.
"""

from __future__ import annotations

from typing import Iterator

from repro.gpu.warp import Warp


class Scheduler:
    """Base scheduler interface over a fixed list of resident warps."""

    #: Whether this policy manages ready/pending queues (pays the
    #: per-memory-issue bookkeeping bubble).
    manages_queues = False

    def __init__(self, warps: list[Warp]) -> None:
        self.warps = warps

    def order(self, now: int) -> Iterator[Warp]:
        """Warps in the order the policy would consider them."""
        raise NotImplementedError

    def notify_issue(self, warp: Warp) -> None:
        """Called after *warp* issues one instruction."""


class GtoScheduler(Scheduler):
    """Greedy-then-oldest: stick with the last warp, else oldest first."""

    manages_queues = True

    def __init__(self, warps: list[Warp]) -> None:
        super().__init__(warps)
        self._current: Warp | None = None

    def order(self, now: int) -> Iterator[Warp]:
        if self._current is not None and not self._current.done:
            yield self._current
        for warp in self.warps:  # warp_id order == age order
            if warp is not self._current:
                yield warp

    def notify_issue(self, warp: Warp) -> None:
        self._current = warp


class LrrScheduler(Scheduler):
    """Loose round-robin: continue from just past the last issuer."""

    def __init__(self, warps: list[Warp]) -> None:
        super().__init__(warps)
        self._next = 0

    def order(self, now: int) -> Iterator[Warp]:
        n = len(self.warps)
        for offset in range(n):
            yield self.warps[(self._next + offset) % n]

    def notify_issue(self, warp: Warp) -> None:
        self._next = (self.warps.index(warp) + 1) % len(self.warps)


class TlvScheduler(Scheduler):
    """Two-level: round-robin inside a small active fetch group.

    A warp that cannot issue is rotated out of the active group and a
    pending warp promoted; like GTO this queue movement pays the
    bookkeeping bubble on memory issues.
    """

    manages_queues = True

    def __init__(self, warps: list[Warp], group_size: int = 8) -> None:
        super().__init__(warps)
        self.group_size = max(1, group_size)
        self._active = list(range(min(self.group_size, len(warps))))
        self._pending = list(range(len(self._active), len(warps)))
        self._rr = 0

    def order(self, now: int) -> Iterator[Warp]:
        # Drop finished warps from the active group, promote pending.
        self._active = [i for i in self._active if not self.warps[i].done]
        while len(self._active) < self.group_size and self._pending:
            candidate = self._pending.pop(0)
            if not self.warps[candidate].done:
                self._active.append(candidate)
        n = len(self._active)
        for offset in range(n):
            index = self._active[(self._rr + offset) % n]
            yield self.warps[index]
        # Second level: pending warps considered after the active group.
        for index in self._pending:
            warp = self.warps[index]
            if not warp.done:
                yield warp

    def notify_issue(self, warp: Warp) -> None:
        index = self.warps.index(warp)
        if index in self._active:
            self._rr = (self._active.index(index) + 1) % max(1, len(self._active))
        else:
            # Promoted from pending: swap with the head of the group.
            self._pending.remove(index)
            if self._active:
                demoted = self._active.pop(0)
                self._pending.append(demoted)
            self._active.append(index)


def make_scheduler(name: str, warps: list[Warp], tlv_group: int = 8) -> Scheduler:
    """Instantiate the named scheduler over *warps*."""
    name = name.lower()
    if name == "gto":
        return GtoScheduler(warps)
    if name == "lrr":
        return LrrScheduler(warps)
    if name == "tlv":
        return TlvScheduler(warps, tlv_group)
    raise ValueError(f"unknown scheduler {name!r} (expected gto, lrr or tlv)")
