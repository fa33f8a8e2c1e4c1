"""The deterministic discrete-event core of the serving simulator.

A single binary heap orders events by ``(time_ms, seq)`` where ``seq``
is a monotone insertion counter: events at the same simulated time pop
in the order they were pushed.  That tie-break is what makes the whole
simulator reproducible — no dict-iteration or hash ordering ever
decides who goes first.

Each event is a plain ``(time_ms, seq, kind, payload)`` tuple.  Tuples
compare field by field, and ``seq`` is unique, so two events never get
as far as comparing their payloads.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator

#: Event kinds, compared only for equality.
ARRIVAL = "arrival"
FLUSH = "flush"
COMPLETE = "complete"
#: Periodic autoscaler evaluation.
TICK = "tick"


class EventQueue:
    """Min-heap of ``(time_ms, seq, kind, payload)`` event tuples with
    deterministic FIFO tie-breaking."""

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, str, Any]] = []
        self._seq = 0

    def push(self, time_ms: float, kind: str, payload: Any = None) -> None:
        """Schedule *kind* at *time_ms*."""
        heapq.heappush(self._heap, (time_ms, self._seq, kind, payload))
        self._seq += 1

    def drain(self) -> Iterator[tuple[float, int, str, Any]]:
        """Pop event tuples in order until the queue is empty, including
        events pushed while draining."""
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            yield heappop(heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
