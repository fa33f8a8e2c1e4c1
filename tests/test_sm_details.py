"""White-box tests of the SM issue loop using tiny synthetic kernels.

Each test constructs a minimal thread program that can stall for exactly
one reason and checks the simulator attributes it correctly — the unit
of trust behind the Figure 7 stall taxonomy.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.simulator import simulate_kernel, simulate_network
from repro.isa.dtypes import DType
from repro.isa.instruction import Instruction, MemSpace
from repro.isa.opcodes import Op
from repro.isa.program import Loop, Program
from repro.isa.registers import RegisterAllocator
from repro.kernels.addressing import AddrExpr, Term
from repro.kernels.launch import KernelLaunch
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import capture_trace
from repro.platforms import GP102
from repro.profiling.stall import StallReason


def _gpu(**overrides) -> GpuConfig:
    base = dict(
        name="Tiny",
        num_sms=1,
        cores_per_sm=128,
        clock_ghz=1.0,
        registers_per_sm=65536,
        max_threads_per_sm=2048,
        max_blocks_per_sm=32,
        shared_mem_per_sm=96 * 1024,
        l1_size=16 * 1024,
        l2_size=256 * 1024,
        dram_gb_per_s=100.0,
        launch_overhead_cycles=0,
    )
    base.update(overrides)
    return GpuConfig(**base)


def _kernel(items, ra, *, block=(64, 1, 1), grid=(1, 1, 1), name="k") -> KernelLaunch:
    program = Program(items=tuple(items), reg_count=ra.count, entry_regs=ra.specials)
    return KernelLaunch(
        name=name,
        node_name=name,
        category="Test",
        grid=grid,
        block=block,
        program=program,
        regs=max(1, ra.count),
        smem_bytes=32,
        cmem_bytes=16,
        active_threads=block[0] * block[1] * block[2],
    )


def _stalls(kernel, config=None, options=None):
    result = simulate_kernel(kernel, config or _gpu(), options or SimOptions())
    return result.stats.stall_fractions(), result


class TestStallAttribution:
    def test_exec_dependency_from_alu_chain(self):
        ra = RegisterAllocator()
        acc = ra.fresh()
        body = (
            # Long serial SFU chain: each op depends on the previous.
            Instruction(Op.RSQRT, DType.F32, dst=acc, srcs=(acc,)),
        )
        kernel = _kernel(
            [Instruction(Op.MOV, DType.F32, dst=acc), Loop("i", 64, body),
             Instruction(Op.EXIT)], ra,
        )
        fractions, _ = _stalls(kernel)
        assert fractions.get(StallReason.EXEC_DEPENDENCY, 0) > 0.3

    def test_memory_dependency_from_load_use(self):
        ra = RegisterAllocator()
        value = ra.fresh()
        out = ra.fresh()
        addr = AddrExpr(1 << 30, (Term("i", 4096), Term("lin_tid", 4)))
        body = (
            Instruction(Op.LD, DType.F32, dst=value, space=MemSpace.GLOBAL, addr=addr),
            Instruction(Op.ADD, DType.F32, dst=out, srcs=(value, out)),
        )
        kernel = _kernel(
            [Instruction(Op.MOV, DType.F32, dst=out), Loop("i", 64, body),
             Instruction(Op.EXIT)], ra,
        )
        fractions, _ = _stalls(kernel)
        assert fractions.get(StallReason.MEMORY_DEPENDENCY, 0) > 0.3

    def test_memory_throttle_from_uncoalesced_streams(self):
        ra = RegisterAllocator()
        value = ra.fresh()
        out = ra.fresh()
        # Every lane on its own 4KB-strided row, new line every iteration:
        # 32 transactions per warp load against a tiny MSHR file.
        addr = AddrExpr(1 << 30, (Term("lin_tid", 4096), Term("i", 128)))
        body = (
            Instruction(Op.LD, DType.F32, dst=value, space=MemSpace.GLOBAL, addr=addr),
            Instruction(Op.ADD, DType.F32, dst=out, srcs=(value, out)),
        )
        kernel = _kernel(
            [Instruction(Op.MOV, DType.F32, dst=out), Loop("i", 64, body),
             Instruction(Op.EXIT)], ra, block=(256, 1, 1),
        )
        fractions, _ = _stalls(kernel, _gpu(mshr_entries=8, l1_size=0))
        assert fractions.get(StallReason.MEMORY_THROTTLE, 0) > 0.05

    def test_pipe_busy_from_fpu_pressure(self):
        ra = RegisterAllocator()
        # Many warps of independent FPU work with no dependencies: the
        # only thing stopping dual issue is the FPU port.
        regs = [ra.fresh() for _ in range(8)]
        body = tuple(
            Instruction(Op.MUL, DType.F32, dst=r) for r in regs
        )
        kernel = _kernel(
            [Loop("i", 32, body), Instruction(Op.EXIT)], ra, block=(512, 1, 1),
        )
        fractions, _ = _stalls(kernel)
        assert fractions.get(StallReason.PIPE_BUSY, 0) > 0.2

    def test_sync_from_barrier(self):
        ra = RegisterAllocator()
        slow = ra.fresh()
        items = [
            # Warp-id-dependent latency before the barrier would need
            # divergence; instead a serial chain delays everyone, and the
            # barrier turns the tail into sync stalls.
            Instruction(Op.MOV, DType.F32, dst=slow),
            Loop("i", 16, (Instruction(Op.RSQRT, DType.F32, dst=slow, srcs=(slow,)),)),
            Instruction(Op.BAR, DType.NONE),
            Instruction(Op.EXIT),
        ]
        kernel = _kernel(items, ra, block=(256, 1, 1))
        fractions, result = _stalls(kernel)
        assert StallReason.SYNC in result.stats.stalls

    def test_constant_dependency_from_cold_const(self):
        ra = RegisterAllocator()
        dim = ra.fresh()
        use = ra.fresh()
        items = [
            Instruction(Op.LD, DType.U32, dst=dim, space=MemSpace.CONST),
            Instruction(Op.ADD, DType.U32, dst=use, srcs=(dim,)),
            Instruction(Op.EXIT),
        ]
        kernel = _kernel(items, ra)
        _, result = _stalls(kernel)
        assert result.stats.const_accesses > 0

    def test_inst_fetch_bubbles_recorded(self):
        ra = RegisterAllocator()
        regs = [ra.fresh() for _ in range(4)]
        body = tuple(Instruction(Op.ADD, DType.U32, dst=r) for r in regs)
        kernel = _kernel([Loop("i", 64, body), Instruction(Op.EXIT)], ra)
        _, result = _stalls(kernel)
        assert result.stats.stalls.get(StallReason.INST_FETCH, 0) > 0


class TestScalingArithmetic:
    def test_waves_counted(self):
        ra = RegisterAllocator()
        r = ra.fresh()
        kernel = _kernel(
            [Instruction(Op.ADD, DType.U32, dst=r), Instruction(Op.EXIT)],
            ra, block=(1024, 1, 1), grid=(8, 1, 1),
        )
        # 1024-thread blocks, 2048 threads/SM, 1 SM -> 2 resident -> 4 waves.
        result = simulate_kernel(kernel, _gpu())
        assert result.stats.waves == 4

    def test_launch_overhead_added(self):
        ra = RegisterAllocator()
        r = ra.fresh()
        kernel = _kernel(
            [Instruction(Op.ADD, DType.U32, dst=r), Instruction(Op.EXIT)], ra
        )
        with_overhead = simulate_kernel(kernel, _gpu(launch_overhead_cycles=5000))
        without = simulate_kernel(kernel, _gpu(launch_overhead_cycles=0))
        assert with_overhead.stats.cycles == pytest.approx(
            without.stats.cycles + 5000
        )

    def test_block_factor_scales_events(self):
        ra = RegisterAllocator()
        r = ra.fresh()
        items = [Instruction(Op.ADD, DType.U32, dst=r), Instruction(Op.EXIT)]
        small = simulate_kernel(_kernel(items, ra, grid=(2, 1, 1)), _gpu())
        # Same kernel, 4x the grid: 4x the (scaled) issued instructions.
        big = simulate_kernel(_kernel(items, ra, grid=(8, 1, 1)), _gpu())
        assert big.stats.issued == pytest.approx(4 * small.stats.issued, rel=0.01)


class TestMshrRetryLane:
    """A throttled load is retried through ``load`` only when its answer
    is not already settled (DESIGN.md section 13)."""

    @pytest.fixture
    def bypassed_run(self, monkeypatch):
        # SqueezeNet with the L1 bypassed: nearly every load throttles,
        # and its missing count never goes stale.
        calls = {"load": 0, "ok": 0}
        load = MemoryHierarchy.load

        def counted(self, now, tx_addrs, weight):
            ready = load(self, now, tx_addrs, weight)
            calls["load"] += 1
            calls["ok"] += ready is not None
            return ready

        monkeypatch.setattr(MemoryHierarchy, "load", counted)
        with capture_trace(warps=False) as tracer:
            simulate_network("squeezenet", replace(GP102, l1_size=0), SimOptions().light())
        return calls, tracer.metrics

    def test_fewer_than_two_load_calls_per_admitted_load(self, bypassed_run):
        calls, _ = bypassed_run
        assert calls["ok"] > 0
        assert calls["load"] < 2 * calls["ok"]

    def test_counters_split_settled_from_probed_throttles(self, bypassed_run):
        calls, metrics = bypassed_run
        assert metrics.counter("engine.mshr.settled").value > 0
        # Every refusal `load` itself decided is a probe.
        assert metrics.counter("engine.mshr.probed").value == calls["load"] - calls["ok"]
