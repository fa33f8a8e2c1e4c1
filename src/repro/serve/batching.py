"""Requests and the FIFO dynamic batcher.

One :class:`DynamicBatcher` manages the pending requests of one
(device, network) stream.  Its contract — the invariants the property
tests in ``tests/test_serve_batching.py`` pin down:

* a popped batch never exceeds ``max_batch`` requests;
* a batch is *ready* as soon as it is full **or** its oldest request
  has waited ``timeout_ms`` (the engine schedules a flush event at
  exactly that deadline, so no request is ever held waiting for
  co-batching past the timeout while its device sits idle);
* requests leave in arrival order (FIFO within and across batches).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping


@dataclass(slots=True)
class Request:
    """One inference request travelling through the serving simulator.

    ``slots=True`` matters here: a million-request day-in-the-life run
    allocates one of these per request, and the slotted layout roughly
    halves both the per-object footprint and the attribute-access cost
    on the hot path.
    """

    id: int
    network: str
    arrival_ms: float
    #: Owning tenant name ("" for single-tenant runs).
    tenant: str = ""
    #: Filled in by the engine when the request's batch launches/retires.
    start_ms: float = field(default=-1.0, compare=False)
    finish_ms: float = field(default=-1.0, compare=False)


class DynamicBatcher:
    """FIFO dynamic batcher with a size cap and a head-of-line timeout."""

    def __init__(self, max_batch: int, timeout_ms: float) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0")
        self.max_batch = max_batch
        self.timeout_ms = timeout_ms
        self._pending: deque[Request] = deque()

    def add(self, request: Request) -> None:
        """Append *request* to the pending queue."""
        self._pending.append(request)

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def oldest_arrival_ms(self) -> float | None:
        """Arrival time of the head request, or None when empty."""
        return self._pending[0].arrival_ms if self._pending else None

    def deadline_ms(self) -> float | None:
        """Latest time the head request may keep waiting for co-batching."""
        oldest = self.oldest_arrival_ms
        return None if oldest is None else oldest + self.timeout_ms

    def ready(self, now_ms: float) -> bool:
        """True when a batch should launch: full, or head timed out."""
        if len(self._pending) >= self.max_batch:
            return True
        deadline = self.deadline_ms()
        return deadline is not None and now_ms >= deadline

    def pop_batch(self, now_ms: float, force: bool = False) -> list[Request]:
        """Dequeue up to ``max_batch`` requests in FIFO order.

        Returns an empty list when the batch is not ready and *force*
        is false (the engine forces when a device frees up and work is
        pending regardless of deadlines).
        """
        pending = self._pending
        if not pending or not (force or self.ready(now_ms)):
            return []
        if len(pending) <= self.max_batch:
            batch = list(pending)
            pending.clear()
            return batch
        return [pending.popleft() for _ in range(self.max_batch)]

    @staticmethod
    def next_launch(
        batchers: Mapping[str, DynamicBatcher], now_ms: float
    ) -> tuple[str | None, float | None]:
        """Which of a device's *batchers* to launch at *now_ms*, or the
        deadline to wait for.

        Returns ``(network, None)`` for the :meth:`ready` batch whose
        head arrived first (ties to the first network).  Otherwise
        returns ``(None, deadline)`` with the earliest
        :meth:`deadline_ms`, or ``(None, None)`` when nothing is queued.
        One pass reads each batcher's head and length once.
        """
        ready: str | None = None
        ready_oldest = 0.0
        deadline: float | None = None
        for network, batcher in batchers.items():
            pending = batcher._pending
            if not pending:
                continue
            oldest = pending[0].arrival_ms
            expires = oldest + batcher.timeout_ms
            if len(pending) >= batcher.max_batch or now_ms >= expires:
                if ready is None or oldest < ready_oldest:
                    ready, ready_oldest = network, oldest
            elif deadline is None or expires < deadline:
                deadline = expires
        if ready is not None:
            return ready, None
        return None, deadline
