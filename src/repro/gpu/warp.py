"""Resident warp state.

A :class:`Warp` is one SIMT execution context: 32 lanes of one block,
an in-order program counter over a decoded instruction list
(:mod:`repro.gpu.decode`), a scoreboard of register readiness, and the
lane/block symbol values address expressions evaluate against.

The scoreboard is two flat lists indexed by register number (ready
cycle and producer kind) rather than dicts: register indices are small
and dense, and the issue loop probes the scoreboard millions of times
per kernel.  Unwritten registers read as ready-at-0 with an ALU
producer, exactly matching the seed engine's ``dict.get(index, 0)``
semantics (entry registers are ready at cycle 0 as well).

Lane symbols depend only on the block dims, the warp's first lane and
the active thread count, so :func:`lane_geometry` computes them once
per geometry as read-only arrays that every warp of that geometry
shares.  The cache spans waves and runs; an L1D sweep's memo clears it
with its decoded programs (:meth:`repro.gpu.simulator.L1Memo.drop_programs`).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

import numpy as np

from repro.kernels.launch import WARP_SIZE

#: Register-producer kinds, used for stall attribution.
KIND_ALU = 0
KIND_MEM = 1
KIND_CONST = 2


@lru_cache(maxsize=None)
def lane_geometry(
    block_dims: tuple[int, int, int], lane_start: int, active_threads: int
) -> tuple[MappingProxyType, np.ndarray, int]:
    """Lane symbols, active-lane mask and active count of one warp.

    The mapping and its arrays are read-only: every warp of the same
    geometry, in any wave, shares them.
    """
    bx_dim, by_dim, _ = block_dims
    lanes = np.arange(lane_start, lane_start + WARP_SIZE, dtype=np.int64)
    threads_per_block = block_dims[0] * block_dims[1] * block_dims[2]
    active = lanes < min(active_threads, threads_per_block)
    # Clip out-of-block lanes to the last valid thread so address
    # evaluation stays in range; they are masked from memory anyway.
    clipped = np.minimum(lanes, threads_per_block - 1)
    syms = {
        "tx": clipped % bx_dim,
        "ty": (clipped // bx_dim) % by_dim,
        "tz": clipped // (bx_dim * by_dim),
        "lin_tid": clipped,
    }
    for array in (active, *syms.values()):
        array.flags.writeable = False
    return MappingProxyType(syms), active, int(active.sum())


class Warp:
    """One resident warp executing a decoded thread program."""

    __slots__ = (
        "warp_id",
        "block",
        "dprog",
        "dec",
        "n",
        "pc",
        "reg_ready",
        "reg_kind",
        "done",
        "at_barrier",
        "lane_syms",
        "block_syms",
        "active_lanes",
        "width",
        "fetch_pc",
        "lane_start",
        "n_active",
        "chk",
        "civ",
        "cpi",
        "bucket",
        "cm",
        "ctxs",
        "mbound",
        "mexact",
        "mver",
        "ptx",
    )

    def __init__(
        self,
        warp_id: int,
        block,
        dprog,
        lane_start: int,
        block_dims: tuple[int, int, int],
        block_coords: tuple[int, int, int],
        grid_dims: tuple[int, int, int],
        active_threads: int,
    ) -> None:
        self.warp_id = warp_id
        self.block = block
        self.dprog = dprog
        self.dec = dprog.instrs
        self.n = dprog.n
        self.pc = 0
        self.reg_ready = [0] * dprog.nregs
        self.reg_kind = [0] * dprog.nregs
        self.done = dprog.n == 0
        self.at_barrier = False
        self.width = WARP_SIZE
        self.fetch_pc = -1
        self.lane_start = lane_start
        #: Program position whose fetch/scoreboard checks already passed
        #: (both are monotonic while the warp sleeps, so a retry can skip
        #: straight to the pipe-port gate).  ``civ``/``cpi`` cache that
        #: instruction's issue interval and pipe index so a replayed
        #: pipe-gate check never re-reads the decoded tuple.
        self.chk = -1
        self.civ = 0
        self.cpi = 0
        #: Stall-reason index while asleep (-1 when awake/issued, and
        #: while asleep on the MSHR: a throttle group's wake settles its
        #: members' count); the sampled attribution sweep reads
        #: per-reason counts instead of scanning warps.
        self.bucket = -1
        #: Pipe index whose issue-port mask (``SmWave.run``'s ``cmask``)
        #: this warp is registered in, -1 when unregistered.  Valid
        #: while the warp sits at the current pc with checks passed;
        #: cleared on issue (the only event that moves the pc).
        self.cm = -1
        #: Coalesced transactions of the current pc's global access,
        #: cached across MSHR-throttle replays (False when not cached —
        #: a real transaction list is never empty).  Deterministic per
        #: (warp, pc), so reuse is exact; cleared when the access
        #: completes.
        self.ctxs = False
        #: What the last throttle of that access left for its retries
        #: (``SmWave.run``'s retry lane): a lower bound on its L1-missing
        #: lines, whether the bound is exact, and the L1 membership
        #: version (``Cache.version``) it was counted at.  Read only
        #: while ``ctxs`` is cached.
        self.mbound = 0
        self.mexact = False
        self.mver = -1
        #: The warp's pc -> coalesced-transaction table, built once per
        #: wave and attached by ``SmWave.run`` (:mod:`repro.gpu.sm`).
        self.ptx = None

        self.lane_syms, self.active_lanes, self.n_active = lane_geometry(
            block_dims, lane_start, active_threads
        )
        gx, gy, _ = grid_dims
        cx, cy, cz = block_coords
        self.block_syms = {
            "bx": cx,
            "by": cy,
            "bz": cz,
            "lin_bid": (cz * gy + cy) * gx + cx,
            "one": 1,
        }
