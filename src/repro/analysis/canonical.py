"""Canonical, translation-invariant kernel identity.

Two launches of a compiled network frequently differ *only* in which
concrete tensors they touch: ResNet stamps the same bottleneck
convolution dozens of times, an RNN repeats its cell once per timestep.
The simulator's result reuse needs an identity that equates exactly
those launches whose :class:`~repro.profiling.stats.KernelStats` are
guaranteed bit-identical — no weaker (a collision would silently copy
wrong numbers) and no stronger than necessary (a missed equivalence
just wastes simulation time).

:func:`canonical_launch` builds that identity as a nested tuple of
plain values:

* **geometry** — grid, block, active threads, registers, shared and
  constant footprints, the ``shared_input`` flag;
* **program** — every instruction and loop in structure order (opcode,
  dtype, register indices, memory space, access width, loop variables
  and trip counts);
* **addresses** — each :class:`~repro.kernels.addressing.AddrExpr` with
  its affine terms verbatim but its *base* alpha-renamed to ``(region
  slot, offset within region)``, where the slot is the region's index
  in the launch's declaration-ordered region tuple.

The renaming is what buys translation invariance: uniformly relocating
a launch — shifting every region base and every address base by the
same per-region deltas — leaves all ``(slot, offset)`` pairs unchanged,
so the canonical form and its SHA-256 digest
(:func:`canonical_signature`) are unchanged too.  Conversely any
perturbation of the geometry or the program structure lands in a
different digest (`tests/test_canonical.py` property-tests both
directions).  Kernel and tensor *names* are deliberately excluded (they
never influence the simulated instruction or address stream), while
the signature keeps region byte sizes: under the canonical layout a
region's concrete base is a function of the sizes allocated before it
in its slot, so sizes are part of what pins the concrete address
stream.

Why equal signatures imply bit-identical stats: the compiler places
every kernel in its own canonical address space
(:mod:`repro.kernels.memory_layout`), so two launches with equal
canonical forms have byte-identical programs *and* byte-identical
concrete address streams — the alpha-renaming is the identity map on
compiler output, kept as defence against future non-canonical layouts.
The simulator is deterministic on those inputs.  Note the stronger
claim "equal canonical forms with *different* concrete bases simulate
identically" would additionally require the cache index function to be
translation-invariant, which the XOR-folded set index of
:mod:`repro.memory.cache` is not; DESIGN.md section 12 spells out why
the canonical layout makes this moot and the dedup equivalence test in
``tests/test_engine_equivalence.py`` pins it.

:func:`wave_class` is a second, coarser identity used *within* one
``simulate_network`` call.  It drops the grid (keeping only the
coordinates of the blocks actually simulated, which is all the wave
ever reads — ``lin_bid`` reconstructs the block index under any grid),
and it keys on the region *bases* instead of their sizes: the program
digest plus the bases fix the concrete address stream, and no extent
reaches the wave.  So one element-wise kernel over two map sizes shares
one :class:`~repro.gpu.sm.SmWave` run and differs only in its cheap
scaling step: ResNet's ``relu_res2a`` (256 channels) takes
``relu_res2a_branch2a``'s wave (64 channels), and each stage's
projection shortcut takes the wave of its first 1x1 reduction.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right

from repro.isa.program import Loop, Program
from repro.kernels.launch import KernelLaunch

#: Version tag folded into both identities so a change to the canonical
#: form can never alias digests produced by an older definition.
CANONICAL_VERSION = "canon-1"


def _base_renamer(launch: KernelLaunch):
    """Map a concrete address base to ``(region slot, offset)``.

    Slots are the region's position in the launch's declaration-ordered
    ``regions`` tuple.  A base is attributed to the region with the
    greatest start at or below it; bases *below* every region (padded
    convolutions shift their input anchor a little under the input
    region) attach to the lowest region with a negative offset, which
    is exactly as stable under translation.
    """
    regions = launch.regions
    if not regions:
        return lambda base: (-1, base)
    by_base = sorted(range(len(regions)), key=lambda i: regions[i].base)
    starts = [regions[i].base for i in by_base]

    def rename(base: int) -> tuple[int, int]:
        pos = bisect_right(starts, base) - 1
        if pos < 0:
            pos = 0
        slot = by_base[pos]
        return slot, base - regions[slot].base

    return rename


def _canonical_items(items, rename) -> tuple:
    out = []
    for item in items:
        if isinstance(item, Loop):
            out.append(("loop", item.var, item.trips, _canonical_items(item.body, rename)))
            continue
        addr = None
        if item.addr is not None:
            slot, offset = rename(item.addr.base)
            addr = (
                slot,
                offset,
                tuple((t.sym, t.coef, t.div, t.mod, t.pre) for t in item.addr.terms),
            )
        out.append(
            (
                item.op.value,
                item.dtype.value,
                -1 if item.dst is None else item.dst.index,
                tuple(s.index for s in item.srcs),
                None if item.space is None else item.space.value,
                item.width_bytes,
                addr,
            )
        )
    return tuple(out)


def _canonical_program(program: Program, rename) -> tuple:
    return (
        program.reg_count,
        tuple(r.index for r in program.entry_regs),
        _canonical_items(program.items, rename),
    )


def canonical_launch(launch: KernelLaunch) -> tuple:
    """The full canonical form of one launch, as a nested tuple."""
    return (
        CANONICAL_VERSION,
        launch.grid,
        launch.block,
        launch.active_threads,
        launch.regs,
        launch.smem_bytes,
        launch.cmem_bytes,
        bool(launch.shared_input),
        tuple(r.size_bytes for r in launch.regions),
        _canonical_program(launch.program, _base_renamer(launch)),
    )


def canonical_signature(launch: KernelLaunch) -> str:
    """SHA-256 hex digest of :func:`canonical_launch`.

    The digest is cached on the launch instance: compiled launches are
    immutable in practice (the compiler builds them once and the
    ``compiled_network`` cache hands out the same objects), and every
    consumer — simulation dedup, the persistent result cache, the lint
    driver — asks repeatedly.
    """
    cached = getattr(launch, "_canonical_sig", None)
    if cached is None:
        payload = repr(canonical_launch(launch)).encode()
        cached = hashlib.sha256(payload).hexdigest()
        launch._canonical_sig = cached
    return cached


def simulated_block_coords(
    grid: tuple[int, int, int], sim_blocks: int
) -> tuple[tuple[int, int, int], ...]:
    """Block coordinates the wave simulator materializes, in order.

    Mirrors the decomposition in :class:`repro.gpu.sm.SmWave` exactly;
    ``lin_bid`` recomputed from these coordinates equals the plain block
    index under *any* grid, so the coordinates are the only channel
    through which the grid reaches the wave.
    """
    gx, gy, _ = grid
    return tuple(
        (bi % gx, (bi // gx) % gy, bi // (gx * gy)) for bi in range(sim_blocks)
    )


def _program_digest(launch: KernelLaunch) -> str:
    """SHA-256 hex digest of the launch's canonical program, cached on
    the launch as :func:`canonical_signature` caches its digest."""
    cached = getattr(launch, "_program_digest", None)
    if cached is None:
        payload = repr(_canonical_program(launch.program, _base_renamer(launch))).encode()
        cached = hashlib.sha256(payload).hexdigest()
        launch._program_digest = cached
    return cached


def wave_class(launch: KernelLaunch, sim_blocks: int, warm: bool) -> tuple:
    """Grid-free identity of one resident-wave simulation.

    Two launches in the same wave class drive :class:`repro.gpu.sm.SmWave`
    with identical inputs — same decoded program, block geometry, active
    mask, simulated block coordinates and L2 pre-warming — and therefore
    produce identical unscaled wave statistics and hierarchy counters.
    Everything grid-dependent (block scaling, wave count, launch
    overhead) happens in the per-launch scaling step outside the class.
    The program enters as the digest of its canonical form, so a class
    is a small tuple and a launch builds its canonical program once.
    The region bases turn that alpha-renamed program back into concrete
    addresses, so the class pins the address stream the wave replays
    (the cache set index is not translation-invariant) without the
    region sizes, which only the signature needs: launches that differ
    only in region extents share a class.
    """
    return (
        CANONICAL_VERSION,
        "wave",
        launch.block,
        launch.active_threads,
        sim_blocks,
        simulated_block_coords(launch.grid, sim_blocks),
        bool(warm),
        tuple(r.base for r in launch.regions),
        _program_digest(launch),
    )
