"""Pre-decode of expanded instructions for the fast SM issue loop.

:class:`~repro.isa.program.ExpandedInstr` records are convenient but
expensive to consume per issue: every ``_try_issue`` of the seed engine
performed a dozen attribute loads, two enum hashes (pipe interval and
issue counters) and, for memory operations, a full symbolic address
evaluation plus a numpy coalesce.  :func:`decode_program` digests each
expanded instruction *once* into a flat 9-tuple of plain ints/floats so
the issue loop in :mod:`repro.gpu.sm` runs on local-variable arithmetic
only:

``(kind, srcs, dst, weight, aux, pipe_i, interval, rf_reads, fetch)``

* ``kind`` — dispatch class (``K_*`` constants below), mirroring the
  seed engine's branch cascade exactly;
* ``srcs`` — source register *indices* (ints) for the scoreboard check;
* ``dst`` — destination register index, or ``-1`` for none;
* ``aux`` — kind-specific payload: ALU result latency, a "sets the
  destination register" flag for shared/constant loads, or a
  :class:`GMem` descriptor for global/local accesses;
* ``pipe_i``/``interval`` — integer pipe index and issue interval
  (replacing two enum-keyed dict lookups);
* ``rf_reads`` — pre-multiplied ``len(srcs) * weight``;
* ``fetch`` — whether this program position sits on an i-buffer refill
  boundary (``pc % 32 == 0 and pc > 0``).

Address pre-digestion (:class:`GMem`) splits each ``AddrExpr`` into a
compile-time constant (base + loop-variable terms, which are fixed per
expanded record, + the ``one`` pseudo-symbol), per-warp scalar block
terms, and lane-varying thread terms.  Thread terms depend only on the
warp's ``lane_start`` (block dims are fixed per kernel), so their
evaluated, active-lane-filtered, deduplicated values are cached once per
``(pc, lane_start)`` on the :class:`DecodedProgram` and reused by every
block's warp at that lane offset.  The issue loop then coalesces with
pure-int set arithmetic — provably equal to the numpy
``unique(addr // 128) * 128`` path of :mod:`repro.memory.coalescer`,
including the wide-access straddle rule.

Beside the tuples, a :class:`DecodedProgram` keeps two position
indexes the engine walks instead of scanning every record:
``gmem_pcs`` (every global/local access; each wave resolves its warps'
transactions for these once, before issuing) and ``warm_pcs`` (the
input-slot loads among them, replayed by shared-input warming).

Decoding is purely a representation change: it happens *after*
``compile_network`` (and therefore after the ``verify=True`` analysis
gate) and never alters program order, weights or operands.
"""

from __future__ import annotations

from repro.isa.opcodes import Op, Pipe
from repro.isa.instruction import MemSpace
from repro.kernels.addressing import THREAD_SYMBOLS

#: Canonical pipe order; ``pipe_i`` indexes this tuple and the
#: issue-interval table below (same values as the seed's enum-keyed map).
PIPES = (Pipe.SP, Pipe.FPU, Pipe.SFU, Pipe.LDST, Pipe.CTRL)
PIPE_INDEX = {pipe: i for i, pipe in enumerate(PIPES)}
PIPE_INTERVALS = (1, 1, 4, 1, 0)

#: Instruction-buffer refill period (instructions per fetch bubble).
FETCH_PERIOD = 32

#: Dispatch kinds, ordered to mirror the seed engine's branch cascade.
K_BAR = 0      #: barrier (handled before all stall checks)
K_GMEM = 1     #: global/local load/store with an address expression
K_SMEM = 2     #: shared-memory access
K_CMEM = 3     #: constant/param access
K_MEMLOAD = 4  #: other memory load with a destination (L1-latency fill)
K_ALU = 5      #: register-producing arithmetic
K_CTRL = 6     #: non-mem, no destination (control flow)
K_MEMOP = 7    #: other memory op with no register effect

#: Padded convolutions shift their base a little below the input slot
#: start; same range as ``repro.gpu.simulator._INPUT_SLOT`` warming.
WARM_LO = (1 << 30) - (1 << 24)
WARM_HI = 2 << 30

_TRANSACTION_SHIFT = 7  # log2(repro.memory.coalescer.TRANSACTION_BYTES)


class GMem:
    """Pre-digested address info of one global/local memory record."""

    __slots__ = ("const", "bterms", "tterms", "w1", "is_load", "warm")

    def __init__(self, const, bterms, tterms, w1, is_load, warm):
        self.const = const      #: base + folded loop/"one" terms (int)
        self.bterms = bterms    #: per-warp scalar terms (block symbols)
        self.tterms = tterms    #: lane-varying terms (thread symbols)
        self.w1 = w1            #: width_bytes - 1 (0 -> no straddle)
        self.is_load = is_load
        self.warm = warm        #: load reads the canonical input slot


class DecodedProgram:
    """One expanded instruction list, decoded for the fast issue loop."""

    __slots__ = (
        "instrs",
        "n",
        "nregs",
        "has_barrier",
        "warm_pcs",
        "gmem_pcs",
        "_tparts",
        "_tlines",
        "_cparts",
        "_clines",
    )

    def __init__(self, instrs, nregs, has_barrier):
        self.instrs = instrs
        self.n = len(instrs)
        self.nregs = nregs
        self.has_barrier = has_barrier
        #: Program positions of global/local accesses, for which
        #: ``SmWave`` builds each warp's transaction table.
        self.gmem_pcs = tuple(pc for pc, rec in enumerate(instrs) if rec[0] == K_GMEM)
        #: The input-slot loads among them (``GMem.warm``), walked by
        #: ``SmWave.warm_shared_input`` without scanning every instr.
        self.warm_pcs = tuple(pc for pc in self.gmem_pcs if instrs[pc][4].warm)
        #: (pc, lane_start) -> tuple of deduplicated active-lane thread
        #: address components (ints); shared by all blocks' warps.
        self._tparts = {}
        #: (pc, lane_start, scalar mod line) -> sorted relative line
        #: byte addresses (line number pre-shifted to bytes); the
        #: absolute transaction set of a warp is this pattern translated
        #: by ``(scalar // line) * line`` (line sets are
        #: translation-invariant in whole lines).
        self._tlines = {}
        #: Content-keyed twins of the two pc-keyed caches above.  Loop
        #: expansion gives every sampled iteration its own pc while the
        #: thread-term tuple — the only input that matters — repeats, so
        #: keying by ``(tterms, lane_start)`` / ``(tterms, w1,
        #: lane_start, rem)`` computes each distinct pattern once per
        #: program instead of once per loop iteration.  Values are then
        #: aliased into the pc-keyed dicts so the direct ``_tlines``
        #: probe in :func:`repro.gpu.sm._gmem_txs` keeps its flat key.
        self._cparts = {}
        self._clines = {}

    def trim(self) -> None:
        """Drop the caches a kept program need not carry to its next wave.

        The pc-keyed caches and ``_cparts`` refill from ``_clines``
        (or recompute) on demand, so dropping them changes no result;
        ``_clines`` is the one cache that saves its next wave real work
        for its memory (DESIGN.md section 8).
        """
        self._tparts = {}
        self._tlines = {}
        self._cparts = {}

    def thread_part(self, pc: int, gmem: GMem, warp) -> tuple:
        """Deduplicated thread-term address components for *warp*.

        The value depends only on ``warp.lane_start`` (lane symbols and
        the active mask are functions of lane_start and the kernel's
        fixed block geometry), so it is computed once per lane offset.
        """
        key = (pc, warp.lane_start)
        vals = self._tparts.get(key)
        if vals is None:
            ckey = (gmem.tterms, warp.lane_start)
            vals = self._cparts.get(ckey)
            if vals is None:
                total = None
                for term in gmem.tterms:
                    part = term.apply(warp.lane_syms[term.sym])
                    total = part if total is None else total + part
                vals = tuple(sorted(set(total[warp.active_lanes].tolist())))
                self._cparts[ckey] = vals
            self._tparts[key] = vals
        return vals

    def tx_lines(self, pc: int, gmem: GMem, warp, rem: int) -> tuple:
        """Sorted relative transaction byte addresses for
        ``scalar % line == rem``.

        For any integers ``part`` and ``scalar = q * 128 + rem``,
        ``(part + scalar) >> 7 == ((part + rem) >> 7) + q`` — so the
        coalesced line set only depends on the thread parts and the
        scalar's offset within its line, and translates by ``q`` whole
        lines.  The union of first and straddle-last lines equals the
        coalescer's ``unique(concat(first, last))``.  Entries are
        pre-shifted back to byte addresses so a ``q == 0`` access can
        use the cached tuple as-is.
        """
        key = (pc, warp.lane_start, rem)
        lines = self._tlines.get(key)
        if lines is None:
            w1 = gmem.w1
            ckey = (gmem.tterms, w1, warp.lane_start, rem)
            lines = self._clines.get(ckey)
            if lines is None:
                acc = set()
                for part in self.thread_part(pc, gmem, warp):
                    a = part + rem
                    acc.add(a >> _TRANSACTION_SHIFT)
                    if w1:
                        acc.add((a + w1) >> _TRANSACTION_SHIFT)
                lines = tuple(v << _TRANSACTION_SHIFT for v in sorted(acc))
                self._clines[ckey] = lines
            self._tlines[key] = lines
        return lines


def decode_program(expanded: list) -> DecodedProgram:
    """Decode *expanded* (a list of ``ExpandedInstr``) once."""
    out = []
    max_reg = -1
    has_barrier = False
    for pc, instr in enumerate(expanded):
        srcs = tuple(r.index for r in instr.srcs)
        for ri in srcs:
            if ri > max_reg:
                max_reg = ri
        dst = -1 if instr.dst is None else instr.dst.index
        if dst > max_reg:
            max_reg = dst
        weight = instr.weight
        pipe_i = PIPE_INDEX[instr.pipe]
        interval = PIPE_INTERVALS[pipe_i]
        fetch = pc % FETCH_PERIOD == 0 and pc > 0
        aux = None

        if instr.op is Op.BAR:
            kind = K_BAR
            has_barrier = True
        elif instr.is_mem:
            space = instr.space
            if space in (MemSpace.GLOBAL, MemSpace.LOCAL) and instr.addr is not None:
                kind = K_GMEM
                if instr.is_load and dst < 0:
                    raise ValueError("load without a destination register")
                aux = _decode_addr(instr)
            elif space is MemSpace.SHARED:
                kind = K_SMEM
                if instr.is_load and dst < 0:
                    raise ValueError("load without a destination register")
                aux = instr.is_load
            elif space in (MemSpace.CONST, MemSpace.PARAM):
                kind = K_CMEM
                if instr.is_load and dst < 0:
                    raise ValueError("load without a destination register")
                aux = instr.is_load
            elif instr.is_load and dst >= 0:
                kind = K_MEMLOAD
            else:
                kind = K_MEMOP
        elif dst >= 0:
            kind = K_ALU
            aux = instr.latency
        else:
            kind = K_CTRL

        out.append(
            (kind, srcs, dst, weight, aux, pipe_i, interval, len(srcs) * weight, fetch)
        )
    return DecodedProgram(out, max_reg + 1, has_barrier)


def _decode_addr(instr) -> GMem:
    """Fold one ``AddrExpr`` + loop environment into a :class:`GMem`."""
    addr = instr.addr
    env = instr.loop_env
    const = addr.base
    bterms = []
    tterms = []
    for term in addr.terms:
        sym = term.sym
        if sym in THREAD_SYMBOLS:
            tterms.append(term)
        elif sym in env:
            const += int(term.apply(env[sym]))
        elif sym == "one":
            const += int(term.apply(1))
        else:
            bterms.append(term)
    return GMem(
        const,
        tuple(bterms),
        tuple(tterms),
        max(0, instr.width_bytes - 1),
        instr.is_load,
        instr.is_load and WARM_LO <= addr.base < WARM_HI,
    )
