"""The depth-ranked schedulers against the fleet scans they replace.

``round-robin`` and ``least-loaded`` read their choice off the fleet's
:class:`~repro.serve.devices.DepthIndex` in O(1).  The plain scans over
device objects below are what both policies computed before the index
existed; they stay here as the oracle the index must reproduce after
every change of queue depth, drain, reactivation and fleet growth.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import (
    AutoscaleConfig,
    PoissonWorkload,
    ServeConfig,
    ServeDevice,
    build_fleet,
    make_pipeline,
    run_serve,
)
from repro.serve.batching import Request
from repro.serve.devices import DepthIndex, DeviceState
from repro.serve.profiles import KernelTerm, LatencyProfile
from repro.serve.schedulers import LeastLoadedScheduler, RoundRobinScheduler

#: A queue bound far above the old drained-device sentinel (``1 << 30``).
HUGE_QUEUE = 2_000_000_000


def rotation_scan(devices, start):
    """Round-robin's object scan: the first accepting, non-full device
    from *start* on, wrapping once."""
    for offset in range(len(devices)):
        index = (start + offset) % len(devices)
        state = devices[index]
        if state.accepting and not state.full:
            return index
    return None


def shortest_scan(devices):
    """Least-loaded's object scan: the first accepting, non-full device
    with the fewest queued requests."""
    best_index = None
    best_len = -1
    for index, state in enumerate(devices):
        if not state.accepting or state.full:
            continue
        if best_index is None or state.pending < best_len:
            best_index, best_len = index, state.pending
    return best_index


def make_profile(network, platform, base_ms, per_item_ms=0.0):
    terms = (KernelTerm(per_item_ms * 1e6, 1, 1, 1),) if per_item_ms else ()
    return LatencyProfile(network, platform, 1.0, base_ms * 1e6, terms)


class Fleet:
    """DeviceStates on one shared depth index, grown as the engine grows
    a fleet: the next fleet position, on the same index."""

    def __init__(self, tiny_gpu, size, max_batch, max_queue):
        self.platform = replace(tiny_gpu, name="Dev")
        self.profiles = {"net": make_profile("net", "Dev", 1.0)}
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.index = DepthIndex(max_queue)
        self.devices: list[DeviceState] = []
        self.requests = 0
        for _ in range(size):
            self.add()

    def add(self):
        position = len(self.devices)
        self.devices.append(DeviceState(
            ServeDevice(f"dev#{position}", self.platform), self.profiles,
            self.max_batch, 0.0, self.max_queue,
            index=position, depth_index=self.index,
        ))

    def enqueue(self, position, count):
        state = self.devices[position]
        for _ in range(count):
            state.enqueue(Request(self.requests, "net", 0.0), 0.0)
            self.requests += 1

    def attached(self, scheduler):
        scheduler.reset()
        scheduler.attach(self.index)
        return scheduler


class TestDrainedDeviceNeverChosen:
    """A drained device is absent from the index, whatever the queue
    bound: no sentinel depth can pass for an open queue."""

    def test_depth_ranked_policies_skip_drained_devices(self, tiny_gpu):
        fleet = Fleet(tiny_gpu, 3, max_batch=8, max_queue=HUGE_QUEUE)
        fleet.enqueue(1, 5)
        fleet.devices[0].drain(0.0)
        fleet.devices[2].drain(0.0)
        round_robin = fleet.attached(RoundRobinScheduler())
        least_loaded = fleet.attached(LeastLoadedScheduler())
        assert [round_robin.choose(None, fleet.devices, 0.0) for _ in range(3)] == [1] * 3
        assert least_loaded.choose(None, fleet.devices, 0.0) == 1
        fleet.devices[1].drain(0.0)
        assert round_robin.choose(None, fleet.devices, 0.0) is None
        assert least_loaded.choose(None, fleet.devices, 0.0) is None
        fleet.devices[2].activate(1.0)
        assert round_robin.choose(None, fleet.devices, 0.0) == 2
        assert least_loaded.choose(None, fleet.devices, 0.0) == 2

    @pytest.mark.parametrize("scheduler", ["round-robin", "least-loaded"])
    def test_autoscaled_fleet_sheds_nothing_under_a_huge_queue_bound(self, scheduler):
        """Four GP102s at 200 rps drain to one; no request may land on a
        drained device, so no request is shed, and a queue bound that
        no queue reaches changes no statistic."""
        fleet = build_fleet("gp102:4")
        profiles = {("gru", "GP102"): make_profile("gru", "GP102", 1.5, 0.1)}
        pipeline = make_pipeline(
            autoscale=AutoscaleConfig(
                template="gp102", min_devices=1, max_devices=4,
                interval_ms=100.0, cooldown_ms=100.0,
            ),
        )
        workload = PoissonWorkload(200.0, 5000, ["gru"])
        runs = {
            max_queue: run_serve(
                fleet, profiles, workload,
                ServeConfig(max_queue=max_queue, scheduler=scheduler, seed=3),
                pipeline,
            )
            for max_queue in (256, HUGE_QUEUE)
        }
        huge = runs[HUGE_QUEUE]
        drains = [event for event in huge.autoscale["events"] if event[1] < 0]
        assert len(drains) >= 3
        assert huge.shed == 0 and huge.shed_reasons == {}
        assert huge.completed == 5000
        assert huge.digest() == runs[256].digest()


#: One step on the fleet: (kind, device, count).
STEP = st.tuples(
    st.sampled_from(["enqueue", "take", "drain", "activate", "add"]),
    st.integers(0, 10**6),
    st.integers(1, 12),
)


class TestIndexMatchesScans:
    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(1, 130),
        max_batch=st.integers(1, 8),
        max_queue=st.sampled_from([1, 4, 256, 10**9]),
        steps=st.lists(STEP, max_size=80),
    )
    @example(size=130, max_batch=3, max_queue=10**9,
             steps=[("enqueue", 129, 12), ("drain", 0, 1), ("take", 129, 1),
                    ("add", 0, 1), ("enqueue", 64, 7), ("activate", 0, 1)])
    @example(size=64, max_batch=1, max_queue=4,
             steps=[("add", 0, 1), ("enqueue", 64, 5), ("drain", 63, 1),
                    ("enqueue", 0, 4), ("take", 0, 1), ("take", 64, 1)])
    # A full device reopens when a batch launch brings it under max_queue.
    @example(size=2, max_batch=2, max_queue=4,
             steps=[("enqueue", 0, 4), ("take", 0, 1)])
    # A device that queued work while drained re-enters an empty index
    # deeper than any level seen so far.
    @example(size=1, max_batch=1, max_queue=256,
             steps=[("drain", 0, 1), ("enqueue", 0, 5), ("activate", 0, 1)])
    def test_choices_equal_the_fleet_scans(self, tiny_gpu, size, max_batch,
                                           max_queue, steps):
        fleet = Fleet(tiny_gpu, size, max_batch, max_queue)
        round_robin = fleet.attached(RoundRobinScheduler())
        least_loaded = fleet.attached(LeastLoadedScheduler())
        cursor = 0
        deepest = 0
        for step in [None, *steps]:
            if step is not None:
                kind, pick, count = step
                position = pick % len(fleet.devices)
                state = fleet.devices[position]
                if kind == "enqueue":
                    fleet.enqueue(position, count)
                elif kind == "take":
                    state.take_batch("net", 0.0)
                elif kind == "drain":
                    state.drain(0.0)
                elif kind == "activate":
                    state.activate(0.0)
                else:
                    fleet.add()
            devices = fleet.devices
            deepest = max(deepest, *(state.pending for state in devices))
            # The index grows with the deepest queue, never to max_queue.
            assert len(fleet.index.levels) <= deepest + 1
            assert least_loaded.choose(None, devices, 0.0) == shortest_scan(devices)
            expected = rotation_scan(devices, cursor)
            assert round_robin.choose(None, devices, 0.0) == expected
            if expected is not None:
                cursor = (expected + 1) % len(devices)
