"""Decoded programs kept across the runs of a same-network sweep.

An L1D or scheduler sweep runs each network under many configs, and no
config reaches expansion or decode, so the executor's
:class:`~repro.gpu.simulator.L1Memo` keeps each kernel's decoded
program while the next pending run is the same network at the same
loop budgets (DESIGN.md section 8).  Warps of equal geometry share
read-only lane-symbol arrays.  These tests pin:

* byte-identical stored payloads of a kept-program sweep against a
  fresh executor per run, with the reuse asserted to have fired;
* the lifetime rule: programs held only between runs of one network,
  none held after a run whose successor is another network;
* the parallel path (``jobs=2``) against the serial one;
* shared, read-only lane symbols.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.suite import NETWORK_ORDER
from repro.gpu import simulator
from repro.gpu.config import SimOptions
from repro.gpu.sm import SmWave
from repro.kernels.compile import compiled_network
from repro.obs import capture_trace
from repro.platforms import make_config
from repro.runs import Executor, ResultStore, RunSpec
from repro.runs import executor as executor_mod

LIGHT = SimOptions().light()

#: Two networks, each swept over 4 L1D sizes x 3 schedulers, in the
#: l1-sweep campaign's order (network, then L1D size, then scheduler).
SWEEP = tuple(
    RunSpec(network, make_config("gp102", l1_kb=kb), SimOptions(scheduler=scheduler).light())
    for network in ("cifarnet", "squeezenet")
    for kb in (0, 64, 128, 256)
    for scheduler in ("gto", "lrr", "tlv")
)


def _payloads(store: ResultStore, specs) -> list[bytes]:
    return [store.run_path(spec).read_bytes() for spec in specs]


def _held_after_each_run(executor: Executor, monkeypatch) -> list[int]:
    """Record how many programs the memo holds after each run."""
    held: list[int] = []
    simulate = executor_mod._simulate_spec

    def spy(spec, l1_memo):
        payload = simulate(spec, l1_memo)
        held.append(len(executor.l1_memo.programs))
        return payload

    monkeypatch.setattr(executor_mod, "_simulate_spec", spy)
    return held


@pytest.fixture(scope="module")
def serial_sweep(tmp_path_factory):
    """The sweep through one executor's serial loop, traced."""
    store = ResultStore(tmp_path_factory.mktemp("serial"))
    executor = Executor(store)
    with pytest.MonkeyPatch.context() as patch:
        held = _held_after_each_run(executor, patch)
        with capture_trace(warps=False) as tracer:
            report = executor.execute(SWEEP)
    reused = tracer.metrics.counter("gpu.program_reused").value
    return report, _payloads(store, SWEEP), held, reused


class TestSweepKeepsPrograms:
    def test_payloads_match_a_fresh_executor_per_run(self, serial_sweep, tmp_path):
        report, swept, _, reused = serial_sweep
        assert report.fresh == len(SWEEP) and not report.failed
        fresh = []
        for spec in SWEEP:
            store = ResultStore(tmp_path / "fresh")
            Executor(store).run(spec)
            fresh.extend(_payloads(store, [spec]))
        assert swept == fresh
        # Not vacuous: later runs of each network took their programs
        # from the memo instead of decoding.
        assert reused > 0

    def test_programs_live_only_between_runs_of_one_network(self, serial_sweep):
        *_, held, _ = serial_sweep
        per_network = len(SWEEP) // 2
        for start in (0, per_network):
            group = held[start:start + per_network]
            assert all(count > 0 for count in group[:-1]), group
            # The last run of a network drops them: the next is another.
            assert group[-1] == 0

    def test_parallel_sweep_equals_serial(self, serial_sweep, tmp_path):
        _, swept, _, _ = serial_sweep
        store = ResultStore(tmp_path)
        report = Executor(store).execute(SWEEP, jobs=2)
        assert report.fresh == len(SWEEP) and not report.failed
        assert _payloads(store, SWEEP) == swept

    def test_other_loop_budgets_decode_afresh(self, tmp_path):
        # Same network and config, another inner budget: the expansion
        # differs, so the second run must not take the first's programs.
        specs = [RunSpec("cifarnet", make_config("gp102"), options)
                 for options in (LIGHT, replace(LIGHT, max_trips=LIGHT.max_trips + 2))]
        store = ResultStore(tmp_path / "swept")
        Executor(store).execute(specs)
        fresh = ResultStore(tmp_path / "fresh")
        for spec in specs:
            Executor(fresh).run(spec)
        assert _payloads(store, specs) == _payloads(fresh, specs)

    def test_no_program_outlives_a_run_when_networks_alternate(self, monkeypatch):
        # Every run is followed by another network, as in the paper's
        # network order, so no run may keep its programs.
        specs = [RunSpec(network, make_config("gp102"), LIGHT) for network in NETWORK_ORDER]
        executor = Executor()
        held = _held_after_each_run(executor, monkeypatch)
        report = executor.execute(specs)
        assert report.fresh == len(specs)
        assert held == [0] * len(specs)
        assert not executor.l1_memo.keep_programs


class TestSharedLaneSymbols:
    def test_warps_of_equal_geometry_share_read_only_arrays(self):
        kernel = compiled_network("cifarnet")[0]
        config = make_config("gp102")
        _, dprog = simulator._program(kernel, LIGHT, None)
        waves = [
            SmWave(kernel, dprog, simulator._GUARD_DECODED, 2, config, LIGHT,
                   simulator._make_hierarchy(config))
            for _ in range(2)
        ]
        warps = [warp for wave in waves for warp in wave.warps]
        first: dict = {}
        for warp in warps:
            arrays = (*warp.lane_syms.values(), warp.active_lanes)
            assert not any(array.flags.writeable for array in arrays)
            other = first.setdefault(warp.lane_start, warp)
            assert warp.lane_syms is other.lane_syms
            assert warp.active_lanes is other.active_lanes
        # Four warps per lane offset: two blocks in each of two waves.
        assert len(warps) == 4 * len(first)
        with pytest.raises(ValueError):
            warps[0].lane_syms["tx"][0] = 1
        with pytest.raises(TypeError):
            warps[0].lane_syms["tx"] = warps[0].lane_syms["ty"]
