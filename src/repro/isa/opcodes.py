"""Opcode set and pipeline classification.

The opcode list is taken verbatim from the legend of Figure 8 of the
paper ("Operation Type Breakdown"), which enumerates every PTX opcode
observed while running the seven networks: ``abs``, ``add``, ``and``,
``bar``, ``bra``, ``callp``, ``cvt``, ``ex2``, ``exit``, ``ld``, ``mad``,
``mad24``, ``max``, ``min``, ``mov``, ``mul``, ``nop``, ``or``, ``rcp``,
``retp``, ``rsqrt``, ``set``, ``shl``, ``shr``, ``ssy``, ``st``, ``xor``.

Each opcode is classified onto an execution pipeline, which the simulator
uses for issue-port contention (``pipe_busy`` stalls in Figure 7) and
which the power model uses to split SP/SFU/FPU energy (Figure 5):

* ``SP``   -- simple integer/float ALU operations.
* ``FPU``  -- floating-point multiply-add class operations.
* ``SFU``  -- special-function unit (reciprocal, rsqrt, exp2).
* ``LDST`` -- memory loads and stores.
* ``CTRL`` -- control flow, synchronization and no-ops.
"""

from __future__ import annotations

import enum


class Op(enum.Enum):
    """PTX-like opcode, one per entry of the paper's Figure 8 legend."""

    ABS = "abs"
    ADD = "add"
    AND = "and"
    BAR = "bar"
    BRA = "bra"
    CALLP = "callp"
    CVT = "cvt"
    EX2 = "ex2"
    EXIT = "exit"
    LD = "ld"
    MAD = "mad"
    MAD24 = "mad24"
    MAX = "max"
    MIN = "min"
    MOV = "mov"
    MUL = "mul"
    NOP = "nop"
    OR = "or"
    RCP = "rcp"
    RETP = "retp"
    RSQRT = "rsqrt"
    SET = "set"
    SHL = "shl"
    SHR = "shr"
    SSY = "ssy"
    ST = "st"
    XOR = "xor"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Pipe(enum.Enum):
    """Execution pipeline an opcode issues to."""

    SP = "sp"
    FPU = "fpu"
    SFU = "sfu"
    LDST = "ldst"
    CTRL = "ctrl"


_PIPE_OF: dict[Op, Pipe] = {
    Op.ABS: Pipe.SP,
    Op.ADD: Pipe.SP,
    Op.AND: Pipe.SP,
    Op.BAR: Pipe.CTRL,
    Op.BRA: Pipe.CTRL,
    Op.CALLP: Pipe.CTRL,
    Op.CVT: Pipe.SP,
    Op.EX2: Pipe.SFU,
    Op.EXIT: Pipe.CTRL,
    Op.LD: Pipe.LDST,
    Op.MAD: Pipe.FPU,
    Op.MAD24: Pipe.SP,
    Op.MAX: Pipe.SP,
    Op.MIN: Pipe.SP,
    Op.MOV: Pipe.SP,
    Op.MUL: Pipe.FPU,
    Op.NOP: Pipe.CTRL,
    Op.OR: Pipe.SP,
    Op.RCP: Pipe.SFU,
    Op.RETP: Pipe.CTRL,
    Op.RSQRT: Pipe.SFU,
    Op.SET: Pipe.SP,
    Op.SHL: Pipe.SP,
    Op.SHR: Pipe.SP,
    Op.SSY: Pipe.CTRL,
    Op.ST: Pipe.LDST,
    Op.XOR: Pipe.SP,
}

#: Default execution latency, in cycles, per opcode class.  Values follow
#: the GPGPU-Sim Pascal configuration order of magnitude: simple ALU ops
#: complete in a handful of cycles, FPU multiply-add slightly more, SFU
#: transcendentals take tens of cycles.  Memory latency is decided by the
#: cache hierarchy, not this table.
_LATENCY_OF: dict[Pipe, int] = {
    Pipe.SP: 4,
    Pipe.FPU: 6,
    Pipe.SFU: 20,
    Pipe.LDST: 0,  # resolved by the memory hierarchy
    Pipe.CTRL: 1,
}


def op_pipe(op: Op) -> Pipe:
    """Return the execution pipeline *op* issues to."""
    return _PIPE_OF[op]


def op_latency(op: Op) -> int:
    """Return the default result latency of *op*, in cycles.

    Loads and stores return 0 here; their latency is produced by the
    memory hierarchy at simulation time.
    """
    return _LATENCY_OF[_PIPE_OF[op]]
