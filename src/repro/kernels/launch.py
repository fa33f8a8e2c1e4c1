"""The :class:`KernelLaunch` record — one CUDA kernel invocation.

A compiled network is an ordered list of these; each carries exactly the
information Table III of the paper tabulates (gridDim, blockDim,
registers, shared memory, constant memory) plus the thread program the
simulator executes and the global-memory regions the kernel touches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.isa.program import Program

WARP_SIZE = 32
MAX_THREADS_PER_BLOCK = 1024

Dim3 = tuple[int, int, int]


@dataclass(frozen=True)
class MemRegion:
    """A named global-memory region a kernel reads or writes."""

    name: str
    base: int
    size_bytes: int


@dataclass
class KernelLaunch:
    """One kernel invocation of a compiled network.

    Attributes:
        name: Kernel name as Table III would list it (e.g. ``Conv 1-2``).
        node_name: Graph node this kernel (or kernel slice) implements.
        category: Layer-type category for the per-layer-type figures.
        grid: gridDim (x, y, z).
        block: blockDim (x, y, z).
        program: Thread program every thread executes.
        regs: Registers per thread (Table III ``regs``).
        smem_bytes: Static shared memory per block (Table III ``smem``).
        cmem_bytes: Constant-bank usage (Table III ``cmem``).
        active_threads: Threads that do real work (a block may carry
            masked-off threads when the tile overhangs the output).
        regions: Global-memory regions referenced, for reporting.
        shared_input: True when every block of the grid reads the same
            input tensor (channel-split convolutions, FC layers reading
            the whole input vector).  The simulator uses this to model
            cross-block L2 sharing: blocks it does not simulate would
            have warmed the shared lines.
    """

    name: str
    node_name: str
    category: str
    grid: Dim3
    block: Dim3
    program: Program
    regs: int
    smem_bytes: int
    cmem_bytes: int
    active_threads: int
    regions: tuple[MemRegion, ...] = ()
    shared_input: bool = False

    def __post_init__(self) -> None:
        if any(d <= 0 for d in self.grid) or any(d <= 0 for d in self.block):
            raise ValueError(f"{self.name}: grid/block dims must be positive")
        if self.threads_per_block > MAX_THREADS_PER_BLOCK:
            raise ValueError(
                f"{self.name}: {self.threads_per_block} threads/block exceeds "
                f"the {MAX_THREADS_PER_BLOCK} limit"
            )

    @property
    def threads_per_block(self) -> int:
        """Threads in one block."""
        return self.block[0] * self.block[1] * self.block[2]

    @property
    def warps_per_block(self) -> int:
        """Warps in one block (rounded up)."""
        return math.ceil(self.threads_per_block / WARP_SIZE)

    @property
    def total_blocks(self) -> int:
        """Blocks in the grid."""
        return self.grid[0] * self.grid[1] * self.grid[2]

    @property
    def total_threads(self) -> int:
        """Total threads launched."""
        return self.total_blocks * self.threads_per_block

    def dynamic_instructions(self) -> int:
        """Exact unsampled dynamic instruction count across all threads."""
        return self.program.dynamic_count() * self.total_threads

    def signature(self) -> str:
        """Stable identity for result caching across identical kernels.

        Delegates to :func:`repro.analysis.canonical.canonical_signature`:
        a SHA-256 over the launch geometry plus the full alpha-renamed
        program, so two launches share a signature exactly when the
        simulator is guaranteed to produce bit-identical
        :class:`~repro.profiling.stats.KernelStats` for them — e.g.
        ResNet's repeated bottleneck kernels simulate once, while
        AlexNet's channel-split halves (same geometry and instruction
        counts, different address slices) stay distinct.
        """
        # Imported lazily: repro.analysis depends on repro.kernels, so a
        # top-level import here would be circular.
        from repro.analysis.canonical import canonical_signature

        return canonical_signature(self)
