"""Frozen reference copy of the original (seed) simulation engine.

The optimized engine in :mod:`repro.gpu.sm` is a performance rewrite
that is required to be *bit-identical* to the engine this repository
started with: same issue order, same cycle counts, same weighted
counters.  To make that contract testable forever, this module
preserves the seed implementation verbatim — the per-cycle ``O(warps)`` scans, the
dict-based scoreboard, the straightforward ``_try_issue`` — behind the
same ``simulate_kernel`` / ``simulate_network`` signatures.

``tests/test_engine_equivalence.py`` runs both engines over suite
networks and asserts the resulting :class:`KernelStats` match exactly.
Nothing outside the tests should import this module; it is
deliberately slow.  No simulation run can select it, so nothing it
returns reaches the result store.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.occupancy import Occupancy, compute_occupancy
from repro.gpu.scheduler import make_scheduler
from repro.isa.instruction import MemSpace
from repro.isa.opcodes import Op, Pipe
from repro.isa.program import expand_program
from repro.kernels.compile import compiled_network
from repro.kernels.launch import KernelLaunch, WARP_SIZE
from repro.kernels.program_builder import build_guard_program
from repro.memory.coalescer import coalesce
from repro.memory.hierarchy import MemoryHierarchy
from repro.profiling.stall import StallReason
from repro.profiling.stats import KernelStats

#: Register-producer kinds, used for stall attribution.
KIND_ALU = 0
KIND_MEM = 1
KIND_CONST = 2

#: Instruction-buffer refill period (instructions per fetch bubble).
_FETCH_PERIOD = 32
_FETCH_BUBBLE = 2

#: Issue interval per pipeline (cycles between issues to the same port).
_PIPE_INTERVAL = {Pipe.SP: 1, Pipe.FPU: 1, Pipe.SFU: 4, Pipe.LDST: 1, Pipe.CTRL: 0}

#: Instructions the SM front-end can issue per cycle.
_ISSUE_WIDTH = 4

_KIND_REASON = {
    KIND_ALU: StallReason.EXEC_DEPENDENCY,
    KIND_MEM: StallReason.MEMORY_DEPENDENCY,
    KIND_CONST: StallReason.CONSTANT_MEMORY_DEPENDENCY,
}

#: Wake value for warps parked at a barrier (released explicitly).
_FAR_FUTURE = 1 << 40

#: Safety valve: a wave longer than this indicates a simulator bug.
_MAX_CYCLES = 50_000_000

#: Guard program shared by all kernels (fully-inactive warps).
_GUARD_PROGRAM = build_guard_program()


class _SeedWarp:
    """One resident warp, exactly as the seed engine modelled it."""

    __slots__ = (
        "warp_id",
        "block",
        "instrs",
        "pc",
        "reg_ready",
        "reg_kind",
        "wake",
        "reason",
        "done",
        "at_barrier",
        "lane_syms",
        "block_syms",
        "active_lanes",
        "width",
        "issued_count",
        "fetch_pc",
    )

    def __init__(
        self,
        warp_id: int,
        block,
        instrs: list,
        lane_start: int,
        block_dims: tuple[int, int, int],
        block_coords: tuple[int, int, int],
        grid_dims: tuple[int, int, int],
        active_threads: int,
        entry_regs,
    ) -> None:
        self.warp_id = warp_id
        self.block = block
        self.instrs = instrs
        self.pc = 0
        self.reg_ready: dict[int, int] = {r.index: 0 for r in entry_regs}
        self.reg_kind: dict[int, int] = {r.index: KIND_ALU for r in entry_regs}
        self.wake = 0
        self.reason = None
        self.done = not instrs
        self.at_barrier = False
        self.issued_count = 0.0
        self.width = WARP_SIZE
        self.fetch_pc = -1

        bx_dim, by_dim, _ = block_dims
        lanes = np.arange(lane_start, lane_start + WARP_SIZE, dtype=np.int64)
        threads_per_block = block_dims[0] * block_dims[1] * block_dims[2]
        active = lanes < min(active_threads, threads_per_block)
        self.active_lanes = active
        clipped = np.minimum(lanes, threads_per_block - 1)
        tx = clipped % bx_dim
        ty = (clipped // bx_dim) % by_dim
        tz = clipped // (bx_dim * by_dim)
        self.lane_syms = {"tx": tx, "ty": ty, "tz": tz, "lin_tid": clipped}
        gx, gy, _ = grid_dims
        cx, cy, cz = block_coords
        self.block_syms = {
            "bx": cx,
            "by": cy,
            "bz": cz,
            "lin_bid": (cz * gy + cy) * gx + cx,
            "one": 1,
        }

    def current(self):
        """The instruction at the program counter (None when done)."""
        if self.pc >= len(self.instrs):
            return None
        return self.instrs[self.pc]

    def set_reg(self, reg, ready_cycle: int, kind: int) -> None:
        """Scoreboard update for a produced register."""
        self.reg_ready[reg.index] = ready_cycle
        self.reg_kind[reg.index] = kind

    def src_block(self, now: int, srcs) -> tuple[int, int] | None:
        """Latest unready source: (ready_cycle, producer kind) or None."""
        worst_cycle = now
        worst_kind = KIND_ALU
        blocked = False
        ready = self.reg_ready
        kinds = self.reg_kind
        for reg in srcs:
            cycle = ready.get(reg.index, 0)
            if cycle > worst_cycle:
                worst_cycle = cycle
                worst_kind = kinds.get(reg.index, KIND_ALU)
                blocked = True
        if not blocked:
            return None
        return worst_cycle, worst_kind

    def advance(self) -> None:
        """Move past the current instruction; mark done at the end."""
        self.pc += 1
        if self.pc >= len(self.instrs):
            self.done = True


class _SeedBlockCtx:
    """Barrier bookkeeping for one resident block."""

    __slots__ = ("arrived", "expected", "warps")

    def __init__(self) -> None:
        self.arrived = 0
        self.expected = 0
        self.warps: list[_SeedWarp] = []


class SeedSmWave:
    """One SM executing one resident wave — the seed issue loop."""

    def __init__(
        self,
        kernel: KernelLaunch,
        expanded: list,
        guard_expanded: list,
        sim_blocks: int,
        config: GpuConfig,
        options: SimOptions,
        hierarchy: MemoryHierarchy,
    ) -> None:
        self.kernel = kernel
        self.config = config
        self.options = options
        self.hier = hierarchy
        self.stats = KernelStats()
        self.warps: list[_SeedWarp] = []
        self.blocks: list[_SeedBlockCtx] = []

        gx, gy, gz = kernel.grid
        warps_per_block = kernel.warps_per_block
        has_barrier = any(e.op is Op.BAR for e in expanded)
        for block_index in range(sim_blocks):
            coords = (block_index % gx, (block_index // gx) % gy, block_index // (gx * gy))
            block = _SeedBlockCtx()
            self.blocks.append(block)
            for w in range(warps_per_block):
                lane_start = w * WARP_SIZE
                fully_inactive = lane_start >= kernel.active_threads
                warp = _SeedWarp(
                    warp_id=len(self.warps),
                    block=block,
                    instrs=guard_expanded if fully_inactive else expanded,
                    lane_start=lane_start,
                    block_dims=kernel.block,
                    block_coords=coords,
                    grid_dims=kernel.grid,
                    active_threads=kernel.active_threads,
                    entry_regs=kernel.program.entry_regs,
                )
                block.warps.append(warp)
                self.warps.append(warp)
                if has_barrier and not fully_inactive:
                    block.expected += 1

    # ------------------------------------------------------------------
    def run(self) -> KernelStats:
        """Execute the wave to completion; returns unscaled wave stats."""
        warps = self.warps
        live = sum(1 for w in warps if not w.done)
        if live == 0:
            self.stats.wave_cycles = 0
            return self.stats
        scheduler = make_scheduler(self.options.scheduler, warps, self.options.tlv_group)
        pipe_free = {pipe: 0 for pipe in _PIPE_INTERVAL}
        queue_penalty = self.options.queue_penalty if scheduler.manages_queues else 0
        sample = max(1, self.options.stall_sample)
        stalls = self.stats.stalls
        cycle = 0
        next_sample = 0
        bubble_until = 0

        while live > 0:
            if cycle > _MAX_CYCLES:
                raise RuntimeError(
                    f"{self.kernel.name}: wave exceeded {_MAX_CYCLES} cycles"
                )
            issued: list[_SeedWarp] = []
            if cycle >= bubble_until:
                for warp in scheduler.order(cycle):
                    if warp.done or warp.wake > cycle or warp in issued:
                        continue
                    result = self._try_issue(warp, cycle, pipe_free)
                    if result:
                        issued.append(warp)
                        scheduler.notify_issue(warp)
                        if warp.done:
                            live -= 1
                        if queue_penalty and result == "mem" and bubble_until <= cycle:
                            bubble_until = cycle + 1 + queue_penalty
                        if len(issued) >= _ISSUE_WIDTH:
                            break

            if cycle >= next_sample:
                for warp in warps:
                    if warp.done or warp in issued:
                        continue
                    if warp.wake > cycle and warp.reason is not None:
                        reason = warp.reason
                    else:
                        reason = StallReason.NOT_SELECTED
                    stalls[reason] += sample
                next_sample = cycle + sample

            if issued:
                cycle += 1
                continue
            next_wake = None
            ready_now = False
            for warp in warps:
                if warp.done:
                    continue
                if warp.wake <= cycle:
                    ready_now = True
                elif next_wake is None or warp.wake < next_wake:
                    next_wake = warp.wake
            if ready_now and bubble_until > cycle:
                cycle = bubble_until
            elif next_wake is not None:
                cycle = max(cycle + 1, next_wake)
            else:
                cycle += 1

        self.stats.wave_cycles = cycle
        self.stats.resident_warps = len(warps)
        return self.stats

    # ------------------------------------------------------------------
    def _try_issue(self, warp: _SeedWarp, now: int, pipe_free: dict) -> str | None:
        """Attempt to issue *warp*'s next instruction at cycle *now*."""
        instr = warp.current()
        stats = self.stats

        if warp.at_barrier:
            warp.reason = StallReason.SYNC
            warp.wake = _FAR_FUTURE
            return None
        if instr.op is Op.BAR:
            block = warp.block
            stats.count_issue(instr.pipe, instr.weight)
            warp.advance()
            block.arrived += 1
            if block.arrived >= block.expected:
                for other in block.warps:
                    if other.at_barrier:
                        other.at_barrier = False
                        other.wake = now + 1
                block.arrived = 0
                warp.wake = now + 1
            else:
                warp.at_barrier = True
                warp.reason = StallReason.SYNC
                warp.wake = _FAR_FUTURE
            return "ctrl"

        if warp.pc != warp.fetch_pc and warp.pc % _FETCH_PERIOD == 0 and warp.pc:
            warp.fetch_pc = warp.pc
            warp.reason = StallReason.INST_FETCH
            warp.wake = now + _FETCH_BUBBLE
            return None

        blocked = warp.src_block(now, instr.srcs)
        if blocked is not None:
            ready_cycle, kind = blocked
            warp.reason = _KIND_REASON[kind]
            warp.wake = ready_cycle
            return None

        pipe = instr.pipe
        interval = _PIPE_INTERVAL[pipe]
        if interval and pipe_free[pipe] > now:
            warp.reason = StallReason.PIPE_BUSY
            warp.wake = pipe_free[pipe]
            return None

        weight = instr.weight
        issued_kind = "alu"
        if instr.is_mem:
            issued_kind = "mem"
            space = instr.space
            if space in (MemSpace.GLOBAL, MemSpace.LOCAL) and instr.addr is not None:
                addrs = instr.addr.evaluate(warp, instr.loop_env)
                addrs = addrs[warp.active_lanes]
                if addrs.size:
                    txs = coalesce(addrs, instr.width_bytes)
                    if instr.is_load:
                        ready_cycle = self.hier.load(now, txs, weight)
                        if ready_cycle is None:
                            warp.reason = StallReason.MEMORY_THROTTLE
                            release = self.hier.mshr.next_release()
                            warp.wake = max(
                                now + 1, release if release is not None else now + 8
                            )
                            return None
                        warp.set_reg(instr.dst, ready_cycle, KIND_MEM)
                    else:
                        self.hier.store(now, txs, weight)
            elif space is MemSpace.SHARED:
                ready = self.hier.shared(now, weight)
                if instr.is_load:
                    warp.set_reg(instr.dst, ready, KIND_MEM)
            elif space in (MemSpace.CONST, MemSpace.PARAM):
                ready, _missed = self.hier.const(now, weight)
                if instr.is_load:
                    warp.set_reg(instr.dst, ready, KIND_CONST)
            elif instr.is_load and instr.dst is not None:
                warp.set_reg(instr.dst, now + self.hier.lat_l1, KIND_MEM)
        elif instr.dst is not None:
            warp.set_reg(instr.dst, now + instr.latency, KIND_ALU)
            issued_kind = "alu"
        else:
            issued_kind = "ctrl"

        if interval:
            pipe_free[pipe] = now + interval
        stats.count_issue(pipe, weight)
        stats.rf_reads += len(instr.srcs) * weight
        if instr.dst is not None:
            stats.rf_writes += weight
        warp.issued_count += weight
        warp.advance()
        warp.reason = None
        warp.wake = now + 1
        return issued_kind


# ----------------------------------------------------------------------
# Kernel/network drivers, as the seed simulator.py drove them.
# ----------------------------------------------------------------------
def _make_hierarchy(config: GpuConfig) -> MemoryHierarchy:
    return MemoryHierarchy(
        l1_size=config.l1_size,
        l2_size=config.l2_size,
        mshr_entries=config.mshr_entries,
        dram_latency=config.dram_latency,
        dram_bytes_per_cycle=config.dram_bytes_per_cycle_per_sm,
    )


_INPUT_SLOT = (1 << 30, 2 << 30)


def _warm_shared_input(wave: SeedSmWave, hierarchy: MemoryHierarchy) -> None:
    lo, hi = _INPUT_SLOT[0] - (1 << 24), _INPUT_SLOT[1]
    for warp in wave.warps:
        for instr in warp.instrs:
            if not (instr.is_load and instr.addr is not None):
                continue
            if not (lo <= instr.addr.base < hi):
                continue
            addrs = instr.addr.evaluate(warp, instr.loop_env)
            addrs = addrs[warp.active_lanes]
            if addrs.size:
                for tx in coalesce(addrs, instr.width_bytes):
                    hierarchy.l2.access(int(tx), weight=0.0)


def simulate_kernel(
    kernel: KernelLaunch, config: GpuConfig, options: SimOptions | None = None
):
    """Seed-engine twin of :func:`repro.gpu.simulator.simulate_kernel`."""
    from repro.gpu.simulator import KernelResult

    options = options or SimOptions()
    occupancy = compute_occupancy(kernel, config)
    sim_blocks = occupancy.blocks
    if options.max_sim_blocks is not None:
        sim_blocks = max(1, min(sim_blocks, options.max_sim_blocks))

    expanded = expand_program(kernel.program, options.max_trips, options.max_outer_trips)
    guard_expanded = expand_program(_GUARD_PROGRAM)
    hierarchy = _make_hierarchy(config)
    wave = SeedSmWave(kernel, expanded, guard_expanded, sim_blocks, config, options, hierarchy)
    if kernel.shared_input and kernel.total_blocks > sim_blocks:
        _warm_shared_input(wave, hierarchy)
    stats = wave.run()

    dynamic = kernel.program.dynamic_count()
    sample_factor = dynamic / max(1, len(expanded))
    block_factor = kernel.total_blocks / sim_blocks
    waves = math.ceil(kernel.total_blocks / (occupancy.blocks * config.num_sms))

    stats.waves = waves
    stats.cycles = (
        stats.wave_cycles * sample_factor * waves + config.launch_overhead_cycles
    )
    stats.scale_events(block_factor)
    for reason in stats.stalls:
        stats.stalls[reason] *= sample_factor
    stats.l1_accesses = hierarchy.l1.stats.accesses * block_factor
    stats.l1_misses = hierarchy.l1.stats.misses * block_factor
    stats.l2_accesses = hierarchy.l2.stats.accesses * block_factor
    stats.l2_misses = hierarchy.l2.stats.misses * block_factor
    stats.dram_bytes = hierarchy.dram.bytes_served * block_factor
    stats.load_transactions = hierarchy.load_transactions * block_factor
    stats.store_transactions = hierarchy.store_transactions * block_factor
    stats.shared_accesses = hierarchy.shared_accesses * block_factor
    stats.const_accesses = hierarchy.const_accesses * block_factor
    stats.active_sms = min(
        config.num_sms, math.ceil(kernel.total_blocks / occupancy.blocks)
    )
    stats.resident_warps = occupancy.warps

    return KernelResult(
        kernel=kernel,
        stats=stats,
        occupancy=occupancy,
        sample_factor=sample_factor,
        block_factor=block_factor,
    )


def simulate_network(
    name: str, config: GpuConfig, options: SimOptions | None = None
):
    """Seed-engine twin of :func:`repro.gpu.simulator.simulate_network`."""
    from repro.gpu.simulator import KernelResult, NetworkResult, _copy_stats

    options = options or SimOptions()
    result = NetworkResult(network=name, config=config, options=options)
    cache: dict[str, object] = {}
    for kernel in compiled_network(name):
        signature = kernel.signature()
        hit = cache.get(signature)
        if hit is None:
            hit = simulate_kernel(kernel, config, options)
            cache[signature] = hit
        else:
            hit = KernelResult(
                kernel=kernel,
                stats=_copy_stats(hit.stats),
                occupancy=hit.occupancy,
                sample_factor=hit.sample_factor,
                block_factor=hit.block_factor,
            )
        result.kernels.append(hit)
    return result
