"""DRAM channel model: fixed latency plus a bandwidth-limited queue.

Each L2 miss occupies the channel for ``transaction_bytes / bandwidth``
cycles; requests arriving while the channel is busy queue behind it, so
bursty miss streams see growing latency — the first-order behaviour that
bounds memory-intensive layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Dram:
    """One DRAM channel serving cache-line fills.

    Attributes:
        latency: Fixed access latency in core cycles.
        bytes_per_cycle: Sustained channel bandwidth.
    """

    latency: int = 460
    bytes_per_cycle: float = 8.0
    _next_free: float = field(default=0.0, init=False)
    bytes_served: float = field(default=0.0, init=False)
    requests: float = field(default=0.0, init=False)

    def service(self, now: int, size_bytes: int = 128, weight: float = 1.0) -> int:
        """Schedule one fill starting at *now*; returns completion cycle."""
        start = max(float(now), self._next_free)
        occupancy = size_bytes / self.bytes_per_cycle
        self._next_free = start + occupancy
        self.bytes_served += size_bytes * weight
        self.requests += weight
        return int(start + occupancy + self.latency)
