"""The streaming-multiprocessor issue loop (the optimized engine, "fast-3").

Simulates one SM running one resident wave of a kernel: warps issue in
scheduler order through scoreboard, pipeline-port and memory-system
checks, and every non-issue warp-cycle is attributed to an nvprof stall
reason (Figure 7).  The loop is event-driven — when no warp can issue it
jumps to the next wake-up — and stall attribution is sampled every
``SimOptions.stall_sample`` cycles, exactly as nvprof itself samples.

This is a performance rewrite of the original loop (kept verbatim in
:mod:`repro.gpu.seed_engine`) and is **bit-identical** to it
(``tests/test_engine_equivalence.py`` gates every suite network):

* The per-cycle ``for warp in warps`` wake/stall sweeps are replaced by
  an incremental ready set (a bitmask over warp ids), a ``nxt`` list for
  warps waking exactly one cycle out (the overwhelmingly common case)
  and a min-heap of ``(wake, warp_id)`` events for longer sleeps.
  Barrier-parked warps live in none of these; the releasing arrival
  re-inserts them.  Heap entries are never stale: a sleeping warp's wake
  can only be rewritten by its own issue or by a barrier release, and
  parked warps are never pushed.  Warps throttled on the MSHR sleep in
  per-wake-cycle groups instead (see the retry lane below).
* Instructions come pre-decoded (:mod:`repro.gpu.decode`) as flat
  tuples, so an issue attempt does no attribute/enum/dict lookups.
* The sampled stall sweep reads per-reason counts of sleeping warps
  (``bcnt``) plus the ready-set population instead of scanning warps.
* All three policies are inlined on the ready bitmask; the generators
  in :mod:`repro.gpu.scheduler` stay the seed oracle's definition.  GTO
  (current warp first, then oldest ready) is bitmask iteration.  LRR
  keeps its next position as an int and jumps to the lowest ready bit
  of the mask rotated to its walk offsets.  TLV keeps its active group,
  pending list and round-robin pointer as local lists and ints.  Both
  reproduce the generators' live re-reads: the position moves after
  each issue mid-walk, and a promotion deletes the pending entry under
  the list cursor, so the next entry is skipped.
* **Port-cohort herding.**  Warps whose checked instruction waits on a
  port that frees next cycle would, if tried, only be re-queued for
  next cycle.  So at walk start, and after an interval-1 issue, the
  whole cohort is re-queued untried.  On sampling cycles each such warp
  is credited PIPE_BUSY if the policy's walk would have reached it and
  NOT_SELECTED otherwise.
* Fetch and scoreboard checks are skipped on replay (``Warp.chk``):
  programs are straight-line and a warp's scoreboard only changes on
  its own issues, so both checks are monotonic while the warp sleeps.
* **MSHR retry lane.**  A throttled ``MemoryHierarchy.load`` changes
  nothing a later step reads, and its answer follows from the MSHR
  in-use count and how many of the access's lines the L1 lacks.  The
  warp keeps the count ``load`` computed (a lower bound) and the L1's
  membership version (``Cache.version``); while the version holds, a
  retry that ``MshrFile.refuses`` settles as a throttle before dispatch
  (an inconclusive bound is replaced once by the exact count), and any
  other retry falls through to ``load``.  Warps sleeping on the MSHR
  until the same cycle share one heap entry, ``(wake, -1)``, whose
  group bitmask wakes them together.
* **Transactions resolved once per wave.**  Before the loop runs,
  every active warp's ``pc -> coalesced transactions`` table is built
  through :func:`_gmem_txs` for each global-access pc
  (``DecodedProgram.gmem_pcs``), so an issue just reads
  ``warp.ptx[pc]`` and shared-input warming reads the same tables.
* **Vectorized shared-input warming.**  ``warm_shared_input`` replays
  the wave's input-slot loads into L2 with zero statistic weight.
  Zero-weight accesses leave counters untouched, so only the final
  tag/LRU state matters; per L2 set that state is the distinct tags in
  last-occurrence order whenever the set starts empty and never
  overflows — computed wholesale from tag/set-index arrays by
  :meth:`repro.memory.cache.Cache.bulk_warm`, with a scalar replay
  fallback for the (rare) sets whose evictions depend on access order.

Warm fallbacks are counted, not silent: the
``engine.vector.warm_vector_sets`` and ``warm_scalar_sets`` counters in
:mod:`repro.obs` record vectorized vs scalar-replay warm sets whenever
tracing is enabled, and ``engine.mshr.settled`` and ``probed`` count the
throttled retries the lane settled and the throttles ``load`` decided.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.decode import (
    DecodedProgram,
    K_ALU,
    K_CMEM,
    K_CTRL,
    K_GMEM,
    K_MEMLOAD,
    K_SMEM,
    PIPES,
)
from repro.gpu.scheduler import GtoScheduler, LrrScheduler, make_scheduler
from repro.gpu.warp import Warp
from repro.kernels.launch import KernelLaunch, WARP_SIZE
from repro.memory.coalescer import TRANSACTION_BYTES
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs.tracer import CYCLES, get_tracer
from repro.profiling.stall import StallReason
from repro.profiling.stats import KernelStats

#: Bumped whenever an engine change could alter simulated numbers; part
#: of the persistent result-cache key (:mod:`repro.runs.store`).
#: "fast-3": the vectorized engine.  Numbers are bit-identical to the
#: seed, but keying the store by engine keeps the provenance of every
#: cached entry auditable per engine.
ENGINE_VERSION = "fast-3"

#: Cycles lost to an instruction-buffer refill.
_FETCH_BUBBLE = 2

#: Instructions the SM front-end can issue per cycle.
_ISSUE_WIDTH = 4

#: Wake value for warps parked at a barrier (released explicitly).
_FAR_FUTURE = 1 << 40

#: Safety valve: a wave longer than this indicates a simulator bug.
_MAX_CYCLES = 50_000_000

#: log2 of the coalescing granularity (128-byte transactions -> 7).
_TX_SHIFT = TRANSACTION_BYTES.bit_length() - 1

_REASONS = tuple(StallReason)
_RI = {reason: i for i, reason in enumerate(_REASONS)}
_R_INST_FETCH = _RI[StallReason.INST_FETCH]
_R_SYNC = _RI[StallReason.SYNC]
_R_PIPE_BUSY = _RI[StallReason.PIPE_BUSY]
_R_THROTTLE = _RI[StallReason.MEMORY_THROTTLE]
_R_NOT_SELECTED = _RI[StallReason.NOT_SELECTED]
#: Scoreboard producer kind (KIND_ALU/KIND_MEM/KIND_CONST) -> reason index.
_KIND_REASON_I = (
    _RI[StallReason.EXEC_DEPENDENCY],
    _RI[StallReason.MEMORY_DEPENDENCY],
    _RI[StallReason.CONSTANT_MEMORY_DEPENDENCY],
)


class _BlockCtx:
    """Barrier bookkeeping for one resident block."""

    __slots__ = ("arrived", "expected", "warps")

    def __init__(self) -> None:
        self.arrived = 0
        self.expected = 0
        self.warps: list[Warp] = []


def _gmem_txs(warp: Warp, pc: int, gmem) -> "list[int] | tuple | None":
    """Coalesced transaction addresses for one global/local access.

    Pure-int reimplementation of ``AddrExpr.evaluate`` +
    ``coalesce``: the decode-time constant plus the per-warp scalar
    terms gives one scalar; the cached, deduplicated thread parts give
    the lane spread; line numbers are collected as a set (union of
    first and straddle-last lines, exactly the coalescer's unique of
    concatenated first/last arrays) and returned sorted.  ``None`` when
    the warp has no active lanes (the seed skipped memory entirely but
    still issued the instruction).
    """
    if warp.n_active == 0:
        return None
    scalar = gmem.const
    for term in gmem.bterms:
        scalar += int(term.apply(warp.block_syms[term.sym]))
    w1 = gmem.w1
    if gmem.tterms:
        # Line sets are translation-invariant in whole lines: resolve
        # the cached relative pattern for scalar's in-line offset, then
        # translate by the whole-line part.
        q = scalar >> _TX_SHIFT
        rem = scalar - (q << _TX_SHIFT)
        dprog = warp.dprog
        lines = dprog._tlines.get((pc, warp.lane_start, rem))
        if lines is None:
            lines = dprog.tx_lines(pc, gmem, warp, rem)
        if q:
            base = q << _TX_SHIFT
            return [line + base for line in lines]
        # The cached tuple is already in bytes; callers only read it.
        return lines
    first = scalar >> _TX_SHIFT
    if w1:
        last = (scalar + w1) >> _TX_SHIFT
        if last != first:
            return [first << _TX_SHIFT, last << _TX_SHIFT]
    return [first << _TX_SHIFT]


def _bits(ids) -> int:
    """Bitmask of the warp ids in *ids*."""
    m = 0
    for i in ids:
        m |= 1 << i
    return m


def _tlv_refill(active: list, pending: list, warps: list, group: int) -> tuple:
    """``TlvScheduler.order``'s prologue on the engine's own queues.

    Drops retired warps from the active group and promotes pending
    warps into it (retired ones are discarded as they come up); returns
    the new group, the lengths of both queues and their bitmasks.
    ``notify_issue`` keeps both queue lengths, so between retirements
    this prologue is a no-op and the engine runs it only after one.
    """
    active = [i for i in active if not warps[i].done]
    while len(active) < group and pending:
        candidate = pending.pop(0)
        if not warps[candidate].done:
            active.append(candidate)
    return active, len(active), len(pending), _bits(active), _bits(pending)


def _tlv_promote(active: list, pending: list, at: int, wid: int) -> int:
    """``TlvScheduler.notify_issue`` for warp *wid* issued from ``pending[at]``.

    The warp swaps places with the head of the active group (never
    empty during a walk: it holds a live warp until all have retired).
    Deleting ``pending[at]`` under the walk's list cursor skips the next
    entry, as it does in the generator.  Returns the bits of both
    warps, which change queues.
    """
    del pending[at]
    demoted = active.pop(0)
    pending.append(demoted)
    active.append(wid)
    return 1 << wid | 1 << demoted


class SmWave:
    """One SM executing one resident wave of a kernel."""

    def __init__(
        self,
        kernel: KernelLaunch,
        dprog: DecodedProgram,
        guard_dprog: DecodedProgram,
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
        self.warps: list[Warp] = []
        self.blocks: list[_BlockCtx] = []
        self._dprog = dprog
        self._ptx: list | None = None
        self._warm_obs = (0, 0)

        gx, gy, gz = kernel.grid
        warps_per_block = kernel.warps_per_block
        has_barrier = dprog.has_barrier
        for block_index in range(sim_blocks):
            coords = (block_index % gx, (block_index // gx) % gy, block_index // (gx * gy))
            block = _BlockCtx()
            self.blocks.append(block)
            for w in range(warps_per_block):
                lane_start = w * WARP_SIZE
                fully_inactive = lane_start >= kernel.active_threads
                warp = Warp(
                    warp_id=len(self.warps),
                    block=block,
                    dprog=guard_dprog if fully_inactive else dprog,
                    lane_start=lane_start,
                    block_dims=kernel.block,
                    block_coords=coords,
                    grid_dims=kernel.grid,
                    active_threads=kernel.active_threads,
                )
                block.warps.append(warp)
                self.warps.append(warp)
                if has_barrier and not fully_inactive:
                    block.expected += 1

    # ------------------------------------------------------------------
    def _ensure_ptx(self) -> list:
        """Per-warp ``pc -> coalesced transaction list`` tables."""
        ptx = self._ptx
        if ptx is None:
            ptx = self._ptx = self._precompute_txs()
        return ptx

    def _precompute_txs(self) -> list:
        """Every (warp, pc) transaction list, through :func:`_gmem_txs`.

        Guard warps and warps without an active lane never touch global
        memory, so their tables stay empty.
        """
        dprog = self._dprog
        dec = dprog.instrs
        gpcs = dprog.gmem_pcs
        ptx: list = [{} for _ in self.warps]
        for w in self.warps:
            if w.dprog is not dprog or not w.n_active:
                continue
            table = ptx[w.warp_id]
            for pc in gpcs:
                table[pc] = _gmem_txs(w, pc, dec[pc][4])
        return ptx

    # ------------------------------------------------------------------
    def warm_shared_input(self) -> None:
        """Pre-touch shared input lines in L2 on behalf of unsimulated blocks.

        When every block of a grid reads the same input tensor
        (``KernelLaunch.shared_input``), the blocks running on the other
        SMs — which the one-SM simulation does not execute — would have
        brought those lines into the shared L2 already.  This replays
        the simulated warps' input-slot loads, in the seed engine's
        order, with zero statistic weight through the bulk warm front
        (zero-weight accesses only mutate tag/LRU state, so the
        set-level reduction is exact; see ``Cache.bulk_warm``).
        """
        ptx = self._ensure_ptx()
        seq: list[int] = []
        ext = seq.extend
        for w in self.warps:
            table = ptx[w.warp_id]
            for pc in w.dprog.warm_pcs:
                txs = table.get(pc)
                if txs:
                    ext(txs)
        if seq:
            self._warm_obs = self.hier.warm_l2(seq)

    # ------------------------------------------------------------------
    def run(self):
        """Execute the wave to completion; returns unscaled wave stats.

        Structurally the seed engine's loop (same events, same
        attribution, same accumulation order — float sums are never
        reordered) with the deltas the module docstring lists, all in
        one issue loop: global accesses read the wave's precomputed
        transaction tables, and every policy walks the ready bitmask.
        See the module docstring for the exactness argument.
        """
        warps = self.warps
        live = sum(1 for w in warps if not w.done)
        if live == 0:
            self.stats.wave_cycles = 0
            return self.stats

        scheduler = make_scheduler(self.options.scheduler, warps, self.options.tlv_group)
        policy = type(scheduler)
        gto = policy is GtoScheduler
        lrr = policy is LrrScheduler
        queue_penalty = self.options.queue_penalty if scheduler.manages_queues else 0
        nw = len(warps)
        # Policy state, as the seed's scheduler objects hold it: LRR's
        # next position, TLV's queues and round-robin pointer.
        lnext = 0
        full = (1 << nw) - 1
        tgroup = max(1, self.options.tlv_group)
        active = list(range(min(tgroup, nw)))
        pending = list(range(len(active), nw))
        trr = 0
        tlive = -1  # `live` at TLV's last queue refill (-1: none yet)
        na = plen = amask = pmask = 0
        sample = max(1, self.options.stall_sample)

        hier = self.hier
        hier_load = hier.load
        hier_store = hier.store
        mshr = hier.mshr
        mshr_release = mshr.next_release
        mshr_refuses = mshr.refuses
        l1 = hier.l1
        l1_count_missing = l1.count_missing
        lat_l1 = hier.lat_l1
        lat_shared = hier.lat_shared
        lat_const = hier.lat_const
        lat_l2 = hier.lat_l2
        shared_acc = 0.0
        const_acc = 0.0
        cc_hot = hier.const_cache.contains(0)
        kernel_name = self.kernel.name

        ptx = self._ensure_ptx()
        for w in warps:
            w.ptx = ptx[w.warp_id]

        tracer = get_tracer()
        trace = tracer.enabled and tracer.warps
        tev: list = []
        park_at: dict = {}
        done_at: dict = {}

        pf = [0, 0, 0, 0, 0]
        cmask = [0, 0, 0, 0, 0]
        mask = 0
        for w in warps:
            if not w.done:
                mask |= 1 << w.warp_id
        heap: list = []
        # Warps asleep on the MSHR, by wake cycle: one heap entry
        # (wake, -1) per group.
        groups: dict = {}
        nxt: list = []
        imask = 0
        nreasons = len(_REASONS)
        bcnt = [0] * nreasons
        sacc = [0] * nreasons
        pacc = [0.0] * len(PIPES)
        issued_acc = 0.0
        rf_reads = 0.0
        rf_writes = 0.0
        settled = probed = 0

        cur = None
        parked = 0
        sync_parked = 0
        herd = 0
        cycle = 0
        next_sample = 0
        bubble_until = 0

        while live > 0:
            if cycle > _MAX_CYCLES:
                raise RuntimeError(
                    f"{kernel_name}: wave exceeded {_MAX_CYCLES} cycles"
                )
            sampling = cycle >= next_sample
            nissued = 0
            if cycle >= bubble_until:
                nxtc = cycle + 1
                sdrop = 0
                # Port-cohort herding: a warp whose checked instruction
                # waits on a port that frees next cycle would, if tried,
                # only join `herd` — so the cohort joins it untried.  On
                # sampling cycles `sdrop` remembers them for the
                # PIPE_BUSY / NOT_SELECTED split at walk end.
                pend = mask
                drop = 0
                if pf[0] == nxtc:
                    drop |= cmask[0]
                if pf[1] == nxtc:
                    drop |= cmask[1]
                if pf[2] == nxtc:
                    drop |= cmask[2]
                if pf[3] == nxtc:
                    drop |= cmask[3]
                drop &= pend
                if drop:
                    if sampling:
                        if cur is not None:
                            drop &= ~(1 << cur.warp_id)
                        sdrop = drop
                    herd |= drop
                    mask &= ~drop
                    pend &= ~drop
                if gto:
                    first = (
                        cur if cur is not None and pend >> cur.warp_id & 1 else None
                    )
                else:
                    # Warps the walk steps over while `sdrop` is set: a
                    # dropped warp was unvisited when it was dropped.
                    vis = 0
                    if lrr:
                        lk = 0
                        lrot = (mask | mask << nw) >> lnext & full
                    else:
                        if tlive != live:
                            active, na, plen, amask, pmask = _tlv_refill(
                                active, pending, warps, tgroup
                            )
                            tlive = live
                        tk = 0
                        tpi = 0
                while True:
                    if gto:
                        if first is not None:
                            w = first
                            first = None
                            bit = 1 << w.warp_id
                        elif pend:
                            bit = pend & -pend
                            pend ^= bit
                            if not mask & bit:
                                continue  # `cur`, already tried first
                            w = warps[bit.bit_length() - 1]
                        else:
                            break
                    elif lrr:
                        # LrrScheduler.order: position (lnext + k) % nw
                        # for offsets k = lk..nw-1, `lnext` re-read after
                        # each issue.  `lrot` is mask rotated to offsets,
                        # bits below lk cleared: between issues only
                        # tried warps (offsets < lk) leave mask, so its
                        # lowest bit is the next warp the walk tries.
                        if not lrot:
                            if sdrop:
                                r = ((1 << (nw - lk)) - 1) << (lnext + lk)
                                vis |= r | r >> nw
                            break
                        low = lrot & -lrot
                        lrot ^= low
                        k = low.bit_length()
                        if sdrop:
                            r = ((1 << (k - lk)) - 1) << (lnext + lk)
                            vis |= r | r >> nw
                        lk = k
                        wid = lnext + k - 1
                        if wid >= nw:
                            wid -= nw
                        bit = 1 << wid
                        w = warps[wid]
                    else:
                        # TlvScheduler.order.  First level: the active
                        # group at offsets tk.. from `trr`, read live.
                        # With one awake member, look it up; with more,
                        # scan.  k == na: none left at or after tk.
                        wid = -1
                        if tk < na:
                            e = amask & mask
                            k = na
                            if e & (e - 1):
                                k = tk
                                while k < na and not mask >> active[(trr + k) % na] & 1:
                                    k += 1
                            elif e:
                                k = (active.index(e.bit_length() - 1) - trr) % na
                                if k < tk:
                                    k = na
                            if sdrop:
                                vis |= _bits(
                                    active[(trr + j) % na] for j in range(tk, min(k + 1, na))
                                )
                            if k < na:
                                tk = k + 1
                                tpos = (trr + k) % na
                                wid = active[tpos]
                            else:
                                tk = na
                        if wid < 0:
                            # Second level: Python's list iterator over
                            # the live pending list, cursor tpi (the list
                            # keeps its length between refills).  An
                            # awake warp behind the cursor was skipped
                            # after a promotion.
                            tpos = -1
                            e = pmask & mask
                            i = plen
                            if e & (e - 1):
                                i = tpi
                                while i < plen and not mask >> pending[i] & 1:
                                    i += 1
                            elif e:
                                i = pending.index(e.bit_length() - 1)
                                if i < tpi:
                                    i = plen
                            if sdrop:
                                vis |= _bits(pending[tpi:i + 1])
                            if i >= plen:
                                break
                            tpi = i + 1
                            wid = pending[i]
                        bit = 1 << wid
                        w = warps[wid]
                    mask ^= bit
                    pc = w.pc
                    if w.chk == pc:
                        rec = None
                        iv = w.civ
                        rpi = w.cpi
                    else:
                        rec = w.dec[pc]
                        if not rec[0]:
                            # ---- barrier: issue once, park till release
                            weight = rec[3]
                            pi = rec[5]
                            issued_acc += weight
                            pacc[pi] += weight
                            npc = pc + 1
                            w.pc = npc
                            if npc >= w.n:
                                w.done = True
                                live -= 1
                                if trace:
                                    done_at[w.warp_id] = cycle
                            blk = w.block
                            blk.arrived += 1
                            if blk.arrived >= blk.expected:
                                for o in blk.warps:
                                    if o.at_barrier:
                                        o.at_barrier = False
                                        if trace:
                                            ps = park_at.pop(o.warp_id, None)
                                            if ps is not None:
                                                tev.append((ps, cycle, _R_SYNC, o.warp_id))
                                        if not o.done:
                                            nxt.append(o)
                                            parked -= 1
                                blk.arrived = 0
                                if not w.done:
                                    imask |= bit
                            else:
                                w.at_barrier = True
                                if not w.done:
                                    w.bucket = _R_SYNC
                                    bcnt[_R_SYNC] += 1
                                    sync_parked += 1
                                    parked += 1
                                    if trace:
                                        park_at[w.warp_id] = cycle
                            nissued += 1
                            if gto:
                                cur = w
                            elif lrr:
                                lnext = w.warp_id + 1 if w.warp_id + 1 < nw else 0
                                lrot = (mask | mask << nw) >> lnext & (full >> lk << lk)
                            elif tpos >= 0:
                                trr = (tpos + 1) % na
                            else:
                                t = _tlv_promote(active, pending, tpi - 1, w.warp_id)
                                amask ^= t
                                pmask ^= t
                            if nissued >= _ISSUE_WIDTH:
                                break
                            continue
                        # Fetch bubble at i-buffer refill boundaries.
                        if rec[8] and w.fetch_pc != pc:
                            w.fetch_pc = pc
                            w.bucket = _R_INST_FETCH
                            bcnt[_R_INST_FETCH] += 1
                            heappush(heap, (cycle + _FETCH_BUBBLE, w.warp_id))
                            if trace:
                                tev.append(
                                    (cycle, cycle + _FETCH_BUBBLE,
                                     _R_INST_FETCH, w.warp_id)
                                )
                            continue
                        srcs = rec[1]
                        if srcs:
                            ready = w.reg_ready
                            worst = cycle
                            kidx = 0
                            for r in srcs:
                                c = ready[r]
                                if c > worst:
                                    worst = c
                                    kidx = w.reg_kind[r]
                            if worst > cycle:
                                if worst == nxtc:
                                    herd |= bit
                                    if sampling:
                                        sacc[_KIND_REASON_I[kidx]] += sample
                                else:
                                    ri = _KIND_REASON_I[kidx]
                                    w.bucket = ri
                                    bcnt[ri] += 1
                                    heappush(heap, (worst, w.warp_id))
                                    if trace:
                                        tev.append((cycle, worst, ri, w.warp_id))
                                continue
                        iv = rec[6]
                        rpi = rec[5]
                    # Pipeline port availability.
                    if iv:
                        free = pf[rpi]
                        if free > cycle:
                            w.chk = pc
                            w.civ = iv
                            w.cpi = rpi
                            if w.cm < 0:
                                w.cm = rpi
                                cmask[rpi] |= bit
                            if free == nxtc:
                                herd |= bit
                                if sampling:
                                    sacc[_R_PIPE_BUSY] += sample
                            else:
                                w.bucket = _R_PIPE_BUSY
                                bcnt[_R_PIPE_BUSY] += 1
                                heappush(heap, (free, w.warp_id))
                                if trace:
                                    tev.append(
                                        (cycle, free, _R_PIPE_BUSY, w.warp_id)
                                    )
                            continue
                    # ---- issue ----------------------------------
                    if rec is None:
                        txs = w.ctxs
                        if txs is not False and w.mver == l1.version:
                            # Retry lane (DESIGN.md section 13): while the
                            # L1 membership holds, the kept missing count
                            # is what `load` would count, so a retry the
                            # admission rule refuses is settled here,
                            # without dispatch or `load`.  A bound it
                            # admits is replaced once by the exact count;
                            # anything else falls through to `load`.
                            refused = mshr_refuses(cycle, w.mbound)
                            if not refused and not w.mexact:
                                w.mbound = l1_count_missing(txs)
                                w.mexact = True
                                refused = mshr_refuses(cycle, w.mbound)
                            if refused:
                                settled += 1
                                wk = mshr_release()
                                if wk < nxtc:
                                    wk = nxtc
                                if wk == nxtc:
                                    herd |= bit
                                    if sampling:
                                        sacc[_R_THROTTLE] += sample
                                else:
                                    bcnt[_R_THROTTLE] += 1
                                    g = groups.get(wk, 0)
                                    if not g:
                                        heappush(heap, (wk, -1))
                                    groups[wk] = g | bit
                                    if trace:
                                        tev.append(
                                            (cycle, wk, _R_THROTTLE, w.warp_id)
                                        )
                                continue
                        rec = w.dec[pc]
                    kind, srcs, dst, weight, aux, pi, iv, rfr, fetch = rec
                    mem = False
                    if kind == K_ALU:
                        w.reg_ready[dst] = cycle + aux
                        w.reg_kind[dst] = 0  # KIND_ALU
                    elif kind == K_GMEM:
                        mem = True
                        txs = w.ctxs
                        if txs is False:
                            txs = w.ptx.get(pc)
                        if txs is not None:
                            if aux.is_load:
                                rc = hier_load(cycle, txs, weight)
                                if rc is None:
                                    # Keep what the refusal computed for
                                    # the retry lane.
                                    probed += 1
                                    w.ctxs = txs
                                    w.mbound = m = hier.throttle_bound
                                    w.mexact = m >= len(txs)
                                    w.mver = l1.version
                                    w.chk = pc
                                    w.civ = iv
                                    w.cpi = pi
                                    wk = mshr_release()
                                    if wk < nxtc:
                                        wk = nxtc
                                    if wk == nxtc:
                                        herd |= bit
                                        if sampling:
                                            sacc[_R_THROTTLE] += sample
                                    else:
                                        bcnt[_R_THROTTLE] += 1
                                        g = groups.get(wk, 0)
                                        if not g:
                                            heappush(heap, (wk, -1))
                                        groups[wk] = g | bit
                                        if trace:
                                            tev.append(
                                                (cycle, wk, _R_THROTTLE,
                                                 w.warp_id)
                                            )
                                    continue
                                w.ctxs = False
                                w.reg_ready[dst] = rc
                                w.reg_kind[dst] = 1  # KIND_MEM
                            else:
                                hier_store(cycle, txs, weight)
                    elif kind == K_CTRL:
                        pass
                    elif kind == K_CMEM:
                        mem = True
                        const_acc += weight
                        if cc_hot:
                            rc = cycle + lat_const
                        else:
                            cc_hot = True
                            rc = cycle + lat_l2
                        if aux:  # is_load
                            w.reg_ready[dst] = rc
                            w.reg_kind[dst] = 2  # KIND_CONST
                    elif kind == K_SMEM:
                        mem = True
                        shared_acc += weight
                        rc = cycle + lat_shared
                        if aux:  # is_load
                            w.reg_ready[dst] = rc
                            w.reg_kind[dst] = 1  # KIND_MEM
                    elif kind == K_MEMLOAD:
                        mem = True
                        w.reg_ready[dst] = cycle + lat_l1
                        w.reg_kind[dst] = 1  # KIND_MEM
                    else:  # K_MEMOP: no register effect
                        mem = True
                    if iv:
                        pf[pi] = cycle + iv
                        if iv == 1:
                            d = cmask[pi] & mask
                            if d:
                                herd |= d
                                mask &= ~d
                                pend &= ~d
                                if sampling:
                                    sdrop |= d
                    cmi = w.cm
                    if cmi >= 0:
                        cmask[cmi] &= ~bit
                        w.cm = -1
                    issued_acc += weight
                    pacc[pi] += weight
                    rf_reads += rfr
                    if dst >= 0:
                        rf_writes += weight
                    npc = pc + 1
                    w.pc = npc
                    if npc >= w.n:
                        w.done = True
                        live -= 1
                        if trace:
                            done_at[w.warp_id] = cycle
                    else:
                        imask |= bit
                    nissued += 1
                    if gto:
                        cur = w
                    elif lrr:
                        lnext = w.warp_id + 1 if w.warp_id + 1 < nw else 0
                        lrot = (mask | mask << nw) >> lnext & (full >> lk << lk)
                    elif tpos >= 0:
                        trr = (tpos + 1) % na
                    else:
                        t = _tlv_promote(active, pending, tpi - 1, w.warp_id)
                        amask ^= t
                        pmask ^= t
                    if mem and queue_penalty and bubble_until <= cycle:
                        bubble_until = cycle + 1 + queue_penalty
                    if nissued >= _ISSUE_WIDTH:
                        break
                if sdrop:
                    # Dropped warps the walk would have tried stalled on
                    # the port; the rest went unselected.
                    n = sdrop.bit_count()
                    if not gto:
                        nb = (sdrop & vis).bit_count()
                    elif nissued >= _ISSUE_WIDTH:
                        # GTO's walk stopped at `w`: it visited `cur`
                        # (never dropped) and every older warp.
                        nb = (sdrop & ((1 << w.warp_id) - 1)).bit_count()
                    else:
                        nb = n
                    sacc[_R_PIPE_BUSY] += nb * sample
                    sacc[_R_NOT_SELECTED] += (n - nb) * sample

            if sampling:
                sacc[_R_NOT_SELECTED] += mask.bit_count() * sample
                for i in range(nreasons):
                    c = bcnt[i]
                    if c:
                        sacc[i] += c * sample
                if sync_parked:
                    sacc[_R_SYNC] -= sync_parked * sample
                next_sample = cycle + sample

            if nissued:
                cycle += 1
            elif mask and bubble_until > cycle:
                cycle = bubble_until
            elif nxt or herd:
                cycle += 1
            elif heap:
                wk = heap[0][0]
                cycle = wk if wk > cycle + 1 else cycle + 1
            elif parked:
                cycle = _FAR_FUTURE
            else:
                cycle += 1
            sync_parked = 0
            if herd:
                mask |= herd
                herd = 0
            if imask:
                mask |= imask
                imask = 0
            if nxt:
                for o in nxt:
                    bi = o.bucket
                    if bi >= 0:
                        bcnt[bi] -= 1
                        o.bucket = -1
                    mask |= 1 << o.warp_id
                del nxt[:]
            while heap and heap[0][0] <= cycle:
                wk, wid = heappop(heap)
                if wid < 0:
                    g = groups.pop(wk)
                    mask |= g
                    bcnt[_R_THROTTLE] -= g.bit_count()
                    continue
                o = warps[wid]
                bcnt[o.bucket] -= 1
                o.bucket = -1
                mask |= 1 << wid

        hier.shared_accesses += shared_acc
        hier.const_accesses += const_acc
        st = self.stats
        st.issued = issued_acc
        by_pipe = st.issued_by_pipe
        for i, pipe in enumerate(PIPES):
            v = pacc[i]
            if v:
                by_pipe[pipe] = v
        stalls = st.stalls
        for i, reason in enumerate(_REASONS):
            v = sacc[i]
            if v:
                stalls[reason] = v
        st.rf_reads = rf_reads
        st.rf_writes = rf_writes
        st.wave_cycles = cycle
        st.resident_warps = len(warps)
        if trace:
            self._emit_trace(tracer, tev, park_at, done_at, cycle)
        if tracer.enabled:
            metrics = tracer.metrics
            wf, ws = self._warm_obs
            if wf or ws:
                metrics.counter("engine.vector.warm_vector_sets").inc(wf)
                metrics.counter("engine.vector.warm_scalar_sets").inc(ws)
            if settled or probed:
                metrics.counter("engine.mshr.settled").inc(settled)
                metrics.counter("engine.mshr.probed").inc(probed)
        return st

    # ------------------------------------------------------------------
    def _emit_trace(
        self, tracer, tev: list, park_at: dict, done_at: dict, final_cycle: int
    ) -> None:
        """Convert buffered warp-phase tuples into tracer spans.

        Each warp gets one life span ``[0, retirement]`` plus a span per
        recorded sleep phase (named by stall reason), all on the same
        thread row so Perfetto nests the phases inside the life span.
        Timestamps are wave-local cycles (:data:`repro.obs.tracer.CYCLES`).
        """
        kernel_name = self.kernel.name
        span = tracer.span
        # A parked warp with no release on record was still waiting at
        # wave end (its block's barrier released on the final cycle).
        for wid, start in park_at.items():
            tev.append((start, final_cycle, _R_SYNC, wid))
        stall_cycles = 0
        for w in self.warps:
            wid = w.warp_id
            span(
                "warp", "warp", CYCLES, 0.0,
                float(done_at.get(wid, final_cycle)),
                process="gpu.wave", thread=f"{kernel_name}:w{wid}",
                args={"warp": wid, "block": wid // self.kernel.warps_per_block},
            )
        for start, end, ri, wid in tev:
            span(
                _REASONS[ri].value, "stall", CYCLES, float(start),
                float(end - start),
                process="gpu.wave", thread=f"{kernel_name}:w{wid}",
            )
            stall_cycles += end - start
        metrics = tracer.metrics
        metrics.counter("gpu.stall_phases").inc(len(tev))
        metrics.counter("gpu.stall_cycles").inc(float(stall_cycles))
