"""Property tests for the dynamic batcher (hypothesis).

The three contract invariants from the module docstring: popped batches
never exceed ``max_batch``; a batch is ready no later than the head
request's timeout; requests leave in FIFO order.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.serve.batching import DynamicBatcher, Request


def _requests(arrivals: list[float]) -> list[Request]:
    ordered = sorted(arrivals)
    return [Request(i, "net", t) for i, t in enumerate(ordered)]


arrival_lists = st.lists(
    st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=64
)


class TestBatcherProperties:
    @given(
        arrivals=arrival_lists,
        max_batch=st.integers(1, 16),
        timeout=st.floats(0, 50, allow_nan=False),
    )
    def test_never_exceeds_max_batch(self, arrivals, max_batch, timeout):
        batcher = DynamicBatcher(max_batch, timeout)
        for request in _requests(arrivals):
            batcher.add(request)
        drained = 0
        while len(batcher):
            batch = batcher.pop_batch(now_ms=1e9, force=True)
            assert 1 <= len(batch) <= max_batch
            drained += len(batch)
        assert drained == len(arrivals)

    @given(
        arrivals=arrival_lists,
        max_batch=st.integers(1, 16),
        timeout=st.floats(0, 50, allow_nan=False),
    )
    def test_ready_no_later_than_head_timeout(self, arrivals, max_batch, timeout):
        # However requests trickle in, once the head request has waited
        # `timeout` the batcher reports ready — it never holds a request
        # past its co-batching deadline.
        batcher = DynamicBatcher(max_batch, timeout)
        for request in _requests(arrivals):
            batcher.add(request)
            deadline = batcher.deadline_ms()
            assert deadline == batcher.oldest_arrival_ms + timeout
            assert batcher.ready(deadline)
            assert batcher.ready(deadline + 1.0)

    @given(
        arrivals=arrival_lists,
        max_batch=st.integers(1, 16),
    )
    def test_not_ready_before_deadline_unless_full(self, arrivals, max_batch):
        timeout = 10.0
        batcher = DynamicBatcher(max_batch, timeout)
        for request in _requests(arrivals):
            batcher.add(request)
            if len(batcher) < max_batch:
                now = batcher.deadline_ms() - 1e-6
                assert not batcher.ready(now)
                assert batcher.pop_batch(now) == []
            else:
                assert batcher.ready(batcher.oldest_arrival_ms)

    @given(
        arrivals=arrival_lists,
        max_batch=st.integers(1, 16),
        timeout=st.floats(0, 50, allow_nan=False),
    )
    def test_fifo_within_and_across_batches(self, arrivals, max_batch, timeout):
        batcher = DynamicBatcher(max_batch, timeout)
        requests = _requests(arrivals)
        for request in requests:
            batcher.add(request)
        popped: list[Request] = []
        while len(batcher):
            popped.extend(batcher.pop_batch(now_ms=1e9, force=True))
        assert [r.id for r in popped] == [r.id for r in requests]


def _reference_launch(batchers: dict[str, DynamicBatcher], now_ms: float):
    """The dispatch choice spelled out with the per-batcher API."""
    ready, ready_oldest, deadline = None, 0.0, None
    for network, batcher in batchers.items():
        oldest = batcher.oldest_arrival_ms
        if oldest is None:
            continue
        if batcher.ready(now_ms):
            if ready is None or oldest < ready_oldest:
                ready, ready_oldest = network, oldest
        elif deadline is None or batcher.deadline_ms() < deadline:
            deadline = batcher.deadline_ms()
    return (ready, None) if ready is not None else (None, deadline)


class TestNextLaunch:
    """``DynamicBatcher.next_launch`` is the batchers' ready/deadline
    predicate evaluated for a whole device in one pass."""

    @given(
        queued=st.lists(
            st.tuples(st.sampled_from("abc"), st.floats(0, 100, allow_nan=False)),
            max_size=40,
        ),
        max_batch=st.integers(1, 8),
        timeout=st.floats(0, 20, allow_nan=False),
        now=st.floats(0, 140, allow_nan=False),
    )
    def test_agrees_with_batcher_predicate(self, queued, max_batch, timeout, now):
        batchers = {network: DynamicBatcher(max_batch, timeout) for network in "abc"}
        for index, (network, arrival) in enumerate(sorted(queued, key=lambda q: q[1])):
            batchers[network].add(Request(index, network, arrival))
        assert DynamicBatcher.next_launch(batchers, now) == _reference_launch(
            batchers, now
        )


class TestBatcherEdges:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DynamicBatcher(0, 1.0)
        with pytest.raises(ValueError):
            DynamicBatcher(4, -1.0)

    def test_empty_batcher(self):
        batcher = DynamicBatcher(4, 1.0)
        assert len(batcher) == 0
        assert batcher.oldest_arrival_ms is None
        assert batcher.deadline_ms() is None
        assert not batcher.ready(100.0)
        assert batcher.pop_batch(100.0, force=True) == []

    def test_zero_timeout_is_immediately_ready(self):
        batcher = DynamicBatcher(4, 0.0)
        batcher.add(Request(0, "net", 5.0))
        assert batcher.ready(5.0)
