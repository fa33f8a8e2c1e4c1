"""Tests for the deterministic event queue of ``repro.serve.events``.

Events are plain ``(time_ms, seq, kind, payload)`` tuples, drained in
order and read here by position.
"""

from __future__ import annotations

import random

from repro.serve.events import ARRIVAL, COMPLETE, FLUSH, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, ARRIVAL, "c")
        queue.push(1.0, ARRIVAL, "a")
        queue.push(2.0, ARRIVAL, "b")
        assert [event[3] for event in queue.drain()] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for index in range(10):
            queue.push(5.0, FLUSH, index)
        assert [event[3] for event in queue.drain()] == list(range(10))

    def test_ties_stable_across_kinds(self):
        queue = EventQueue()
        queue.push(1.0, COMPLETE, "first")
        queue.push(1.0, ARRIVAL, "second")
        queue.push(1.0, FLUSH, "third")
        kinds = [event[2] for event in queue.drain()]
        assert kinds == [COMPLETE, ARRIVAL, FLUSH]

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(4.5, ARRIVAL)
        queue.push(2.5, ARRIVAL)
        assert queue
        assert len(queue) == 2
        next(queue.drain())
        assert len(queue) == 1

    def test_drain_sees_events_pushed_while_draining(self):
        queue = EventQueue()
        queue.push(1.0, ARRIVAL, "a")
        queue.push(3.0, ARRIVAL, "c")
        popped = []
        for time_ms, _, _, payload in queue.drain():
            popped.append(payload)
            if payload == "a":
                queue.push(2.0, FLUSH, "b")
        assert popped == ["a", "b", "c"]
        assert not queue

    def test_random_interleaving_is_sorted(self):
        rng = random.Random(1)
        queue = EventQueue()
        times = [rng.uniform(0, 100) for _ in range(500)]
        for t in times:
            queue.push(t, ARRIVAL)
        popped = [event[0] for event in queue.drain()]
        assert popped == sorted(times)

