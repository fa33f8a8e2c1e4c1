"""The deterministic discrete-event core of the serving simulator.

A single binary heap orders events by ``(time_ms, seq)`` where ``seq``
is a monotone insertion counter: events at the same simulated time pop
in the order they were pushed.  That tie-break is what makes the whole
simulator reproducible — no dict-iteration or hash ordering ever
decides who goes first.
"""

from __future__ import annotations

import heapq
from typing import Any, NamedTuple

#: Event kinds, compared only for equality.
ARRIVAL = "arrival"
FLUSH = "flush"
COMPLETE = "complete"
#: Periodic autoscaler evaluation.
TICK = "tick"


class Event(NamedTuple):
    """One scheduled occurrence."""

    time_ms: float
    seq: int
    kind: str
    payload: Any


class EventQueue:
    """Min-heap of :class:`Event` with deterministic FIFO tie-breaking."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def push(self, time_ms: float, kind: str, payload: Any = None) -> Event:
        """Schedule *kind* at *time_ms*; returns the stored event."""
        event = Event(time_ms, self._seq, kind, payload)
        self._seq += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        return heapq.heappop(self._heap)

    def peek_time(self) -> float | None:
        """Time of the earliest event, or None when empty."""
        return self._heap[0].time_ms if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

