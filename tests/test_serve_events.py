"""Tests for the deterministic event queue of ``repro.serve.events``."""

from __future__ import annotations

import random

from repro.serve.events import ARRIVAL, COMPLETE, FLUSH, EventQueue


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(3.0, ARRIVAL, "c")
        queue.push(1.0, ARRIVAL, "a")
        queue.push(2.0, ARRIVAL, "b")
        assert [queue.pop().payload for _ in range(3)] == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        for index in range(10):
            queue.push(5.0, FLUSH, index)
        assert [queue.pop().payload for _ in range(10)] == list(range(10))

    def test_ties_stable_across_kinds(self):
        queue = EventQueue()
        queue.push(1.0, COMPLETE, "first")
        queue.push(1.0, ARRIVAL, "second")
        queue.push(1.0, FLUSH, "third")
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == [COMPLETE, ARRIVAL, FLUSH]

    def test_peek_and_len(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        assert not queue
        queue.push(4.5, ARRIVAL)
        queue.push(2.5, ARRIVAL)
        assert queue.peek_time() == 2.5
        assert len(queue) == 2
        queue.pop()
        assert queue.peek_time() == 4.5

    def test_random_interleaving_is_sorted(self):
        rng = random.Random(1)
        queue = EventQueue()
        times = [rng.uniform(0, 100) for _ in range(500)]
        for t in times:
            queue.push(t, ARRIVAL)
        popped = [queue.pop().time_ms for _ in range(len(times))]
        assert popped == sorted(times)

