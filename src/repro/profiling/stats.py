"""Weighted counter containers emitted by the simulator.

A :class:`KernelStats` accumulates everything one kernel run produces:
cycles, issued instructions by pipe and data type, stall cycles by
reason, cache and DRAM traffic, register-file activity.  All counters
are floats because sampled instructions carry fractional weights; the
``scale`` method applies the block-sampling factor so totals estimate
the full chip (DESIGN.md section 6).
"""

from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass, field

from repro.isa.opcodes import Pipe
from repro.profiling.stall import StallReason


@dataclass
class KernelStats:
    """Counters for one kernel launch (or an aggregate of several)."""

    cycles: float = 0.0
    #: Cycles of one simulated wave before wave scaling (diagnostics).
    wave_cycles: float = 0.0
    waves: int = 1
    issued: float = 0.0
    issued_by_pipe: Counter = field(default_factory=Counter)
    stalls: Counter = field(default_factory=Counter)
    l1_accesses: float = 0.0
    l1_misses: float = 0.0
    l2_accesses: float = 0.0
    l2_misses: float = 0.0
    dram_bytes: float = 0.0
    load_transactions: float = 0.0
    store_transactions: float = 0.0
    shared_accesses: float = 0.0
    const_accesses: float = 0.0
    rf_reads: float = 0.0
    rf_writes: float = 0.0
    #: SMs concurrently busy during this kernel (drives chip power).
    active_sms: int = 1
    #: Resident warps per SM (drives idle-lane / scheduler energy).
    resident_warps: int = 0

    # ------------------------------------------------------------------
    def count_issue(self, pipe: Pipe, weight: float) -> None:
        """Record one issued instruction of *pipe* with sampling weight."""
        self.issued += weight
        self.issued_by_pipe[pipe] += weight

    def scale_events(self, factor: float) -> None:
        """Scale every event counter (not cycles) by the sampling factor."""
        self.issued *= factor
        for key in self.issued_by_pipe:
            self.issued_by_pipe[key] *= factor
        for key in self.stalls:
            self.stalls[key] *= factor
        self.l1_accesses *= factor
        self.l1_misses *= factor
        self.l2_accesses *= factor
        self.l2_misses *= factor
        self.dram_bytes *= factor
        self.load_transactions *= factor
        self.store_transactions *= factor
        self.shared_accesses *= factor
        self.const_accesses *= factor
        self.rf_reads *= factor
        self.rf_writes *= factor

    def merge(self, other: "KernelStats") -> None:
        """Accumulate *other* into this aggregate."""
        self.cycles += other.cycles
        self.issued += other.issued
        self.issued_by_pipe.update(other.issued_by_pipe)
        self.stalls.update(other.stalls)
        self.l1_accesses += other.l1_accesses
        self.l1_misses += other.l1_misses
        self.l2_accesses += other.l2_accesses
        self.l2_misses += other.l2_misses
        self.dram_bytes += other.dram_bytes
        self.load_transactions += other.load_transactions
        self.store_transactions += other.store_transactions
        self.shared_accesses += other.shared_accesses
        self.const_accesses += other.const_accesses
        self.rf_reads += other.rf_reads
        self.rf_writes += other.rf_writes
        self.active_sms = max(self.active_sms, other.active_sms)
        self.resident_warps = max(self.resident_warps, other.resident_warps)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready dict (enum-keyed counters become value-keyed)."""
        return {
            "cycles": self.cycles,
            "wave_cycles": self.wave_cycles,
            "waves": self.waves,
            "issued": self.issued,
            "issued_by_pipe": {p.value: v for p, v in self.issued_by_pipe.items()},
            "stalls": {r.value: v for r, v in self.stalls.items()},
            "l1_accesses": self.l1_accesses,
            "l1_misses": self.l1_misses,
            "l2_accesses": self.l2_accesses,
            "l2_misses": self.l2_misses,
            "dram_bytes": self.dram_bytes,
            "load_transactions": self.load_transactions,
            "store_transactions": self.store_transactions,
            "shared_accesses": self.shared_accesses,
            "const_accesses": self.const_accesses,
            "rf_reads": self.rf_reads,
            "rf_writes": self.rf_writes,
            "active_sms": self.active_sms,
            "resident_warps": self.resident_warps,
        }

    _SCALAR_FIELDS = (
        "cycles", "wave_cycles", "waves", "issued", "l1_accesses", "l1_misses",
        "l2_accesses", "l2_misses", "dram_bytes", "load_transactions",
        "store_transactions", "shared_accesses", "const_accesses", "rf_reads",
        "rf_writes", "active_sms", "resident_warps",
    )

    @classmethod
    def from_dict(cls, data: dict) -> "KernelStats":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        stats = cls()
        for key in cls._SCALAR_FIELDS:
            setattr(stats, key, data[key])
        for pipe_name, value in data["issued_by_pipe"].items():
            stats.issued_by_pipe[Pipe(pipe_name)] = value
        for reason_name, value in data["stalls"].items():
            stats.stalls[StallReason(reason_name)] = value
        return stats

    def copy(self) -> "KernelStats":
        """An exact copy whose counters are independent of this one's."""
        clone = copy.copy(self)
        clone.issued_by_pipe = self.issued_by_pipe.copy()
        clone.stalls = self.stalls.copy()
        return clone

    def summary(self) -> str:
        """One-line rendering (the :class:`repro.stats.Stats` protocol)."""
        return (
            f"cycles={self.cycles:.0f} issued={self.issued:.0f} "
            f"stalls={self.total_stalls:.0f} "
            f"l1={self.l1_miss_ratio:.1%} l2={self.l2_miss_ratio:.1%} "
            f"dram={self.dram_bytes:.0f}B"
        )

    # ------------------------------------------------------------------
    @property
    def l1_miss_ratio(self) -> float:
        """L1D miss ratio (0 when no accesses)."""
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_miss_ratio(self) -> float:
        """L2 miss ratio (0 when no accesses)."""
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def total_stalls(self) -> float:
        """Total attributed stall warp-cycles."""
        return sum(self.stalls.values())

    def stall_fractions(self) -> dict[StallReason, float]:
        """Stall breakdown normalized to fractions (empty dict if none)."""
        total = self.total_stalls
        if not total:
            return {}
        return {reason: count / total for reason, count in self.stalls.items()}
