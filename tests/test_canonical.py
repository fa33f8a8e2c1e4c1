"""Tests for the canonical kernel identity (:mod:`repro.analysis.canonical`).

The canonical form must be *translation-invariant* — uniformly
relocating a launch's regions and address bases cannot change its
signature — while any perturbation of the geometry, the region extents
or the program structure must land in a different digest.  Both
directions are property-tested over the real compiled launches of the
suite, and the load-bearing invariant (equal signatures produce
bit-identical ``KernelStats``) is pinned against the simulator.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.canonical import (
    CANONICAL_VERSION,
    canonical_launch,
    canonical_signature,
    simulated_block_coords,
    wave_class,
)
from repro.core.suite import NETWORK_ORDER
from repro.gpu.config import SimOptions
from repro.gpu.occupancy import compute_occupancy
from repro.isa.program import ExpandedInstr, Loop, Program, expand_program
from repro.kernels.compile import compiled_network
from repro.kernels.launch import KernelLaunch, MemRegion
from repro.platforms import GP102


def _shift_items(items, delta: int):
    out = []
    for item in items:
        if isinstance(item, Loop):
            out.append(Loop(item.var, item.trips, _shift_items(item.body, delta)))
        elif item.addr is not None:
            out.append(replace(item, addr=item.addr.shifted(delta)))
        else:
            out.append(item)
    return tuple(out)


def relocate(launch: KernelLaunch, delta: int) -> KernelLaunch:
    """The same launch with every region and address base moved by
    *delta* — the relocation a different allocator would produce."""
    program = Program(
        items=_shift_items(launch.program.items, delta),
        reg_count=launch.program.reg_count,
        entry_regs=launch.program.entry_regs,
    )
    regions = tuple(
        MemRegion(r.name, r.base + delta, r.size_bytes) for r in launch.regions
    )
    return KernelLaunch(
        name=launch.name,
        node_name=launch.node_name,
        category=launch.category,
        grid=launch.grid,
        block=launch.block,
        program=program,
        regs=launch.regs,
        smem_bytes=launch.smem_bytes,
        cmem_bytes=launch.cmem_bytes,
        active_threads=launch.active_threads,
        regions=regions,
        shared_input=launch.shared_input,
    )


def _move_top_region(launch: KernelLaunch, delta: int) -> KernelLaunch:
    """*launch* with its highest region, and every address inside it,
    moved by *delta*: the other regions and their addresses stay put."""
    top = max(launch.regions, key=lambda r: r.base)

    def shift(items):
        out = []
        for item in items:
            if isinstance(item, Loop):
                out.append(Loop(item.var, item.trips, shift(item.body)))
            elif item.addr is not None and item.addr.base >= top.base:
                out.append(replace(item, addr=item.addr.shifted(delta)))
            else:
                out.append(item)
        return tuple(out)

    program = replace(launch.program, items=shift(launch.program.items))
    regions = tuple(
        MemRegion(r.name, r.base + delta, r.size_bytes) if r is top else r
        for r in launch.regions
    )
    return _rebuilt(launch, program=program, regions=regions)


def _expanded(launch: KernelLaunch, options: SimOptions) -> list[tuple]:
    """Every dynamic record of *launch* under *options*' loop budgets,
    field by field: concrete addresses, loop indices and weights."""
    records = expand_program(launch.program, options.max_trips, options.max_outer_trips)
    return [tuple(getattr(r, f) for f in ExpandedInstr.__slots__) for r in records]


def _rebuilt(launch: KernelLaunch, **overrides) -> KernelLaunch:
    """A fresh launch object with selected fields replaced (bypasses the
    per-object signature cache)."""
    fields = dict(
        name=launch.name,
        node_name=launch.node_name,
        category=launch.category,
        grid=launch.grid,
        block=launch.block,
        program=launch.program,
        regs=launch.regs,
        smem_bytes=launch.smem_bytes,
        cmem_bytes=launch.cmem_bytes,
        active_threads=launch.active_threads,
        regions=launch.regions,
        shared_input=launch.shared_input,
    )
    fields.update(overrides)
    return KernelLaunch(**fields)


LAUNCHES = compiled_network("cifarnet") + compiled_network("gru")


class TestTranslationInvariance:
    @settings(max_examples=60, deadline=None)
    @given(
        index=st.integers(0, len(LAUNCHES) - 1),
        delta=st.integers(0, 1 << 32),
    )
    def test_uniform_relocation_preserves_signature(self, index, delta):
        launch = LAUNCHES[index]
        moved = relocate(launch, delta)
        assert canonical_launch(moved) == canonical_launch(launch)
        assert canonical_signature(moved) == canonical_signature(launch)

    def test_relocated_launch_is_genuinely_different(self):
        launch = LAUNCHES[0]
        moved = relocate(launch, 4096)
        assert moved.regions[0].base == launch.regions[0].base + 4096
        assert canonical_signature(moved) == canonical_signature(launch)

    def test_signature_is_cached_per_object(self):
        launch = relocate(LAUNCHES[0], 0)
        first = canonical_signature(launch)
        assert launch._canonical_sig == first
        assert canonical_signature(launch) is first


class TestDistinctness:
    @pytest.fixture(scope="class")
    def launch(self) -> KernelLaunch:
        return LAUNCHES[0]

    def test_version_tag_is_folded_in(self, launch):
        assert canonical_launch(launch)[0] == CANONICAL_VERSION

    @pytest.mark.parametrize(
        "override",
        [
            lambda l: {"grid": (l.grid[0] + 1, l.grid[1], l.grid[2])},
            # Shrink rather than grow: the fixture launch already sits
            # at the per-block thread limit.
            lambda l: {"block": (max(1, l.block[0] - 1), l.block[1], l.block[2])},
            lambda l: {"active_threads": l.active_threads + 1},
            lambda l: {"regs": l.regs + 1},
            lambda l: {"smem_bytes": l.smem_bytes + 4},
            lambda l: {"cmem_bytes": l.cmem_bytes + 4},
            lambda l: {"shared_input": not l.shared_input},
            lambda l: {
                "regions": (
                    MemRegion(
                        l.regions[0].name,
                        l.regions[0].base,
                        l.regions[0].size_bytes + 4,
                    ),
                )
                + l.regions[1:]
            },
        ],
        ids=[
            "grid", "block", "active-threads", "regs", "smem", "cmem",
            "shared-input", "region-size",
        ],
    )
    def test_geometry_perturbation_changes_signature(self, launch, override):
        perturbed = _rebuilt(launch, **override(launch))
        assert canonical_signature(perturbed) != canonical_signature(launch)

    def test_trip_count_perturbation_changes_signature(self, launch):
        def bump_first_loop(items):
            out = list(items)
            for i, item in enumerate(out):
                if isinstance(item, Loop):
                    out[i] = Loop(item.var, item.trips + 1, item.body)
                    return tuple(out), True
            return tuple(out), False

        items, found = bump_first_loop(launch.program.items)
        assert found, "expected at least one loop in a conv program"
        program = Program(
            items=items,
            reg_count=launch.program.reg_count,
            entry_regs=launch.program.entry_regs,
        )
        perturbed = _rebuilt(launch, program=program)
        assert canonical_signature(perturbed) != canonical_signature(launch)

    def test_dropped_instruction_changes_signature(self, launch):
        program = Program(
            items=launch.program.items[1:],
            reg_count=launch.program.reg_count,
            entry_regs=launch.program.entry_regs,
        )
        perturbed = _rebuilt(launch, program=program)
        assert canonical_signature(perturbed) != canonical_signature(launch)

    def test_names_are_excluded(self, launch):
        renamed = _rebuilt(launch, name="Other 9", node_name="other")
        assert canonical_signature(renamed) == canonical_signature(launch)

    def test_distinct_kernels_across_suite_do_not_collide(self):
        by_sig: dict[str, tuple] = {}
        for launch in LAUNCHES:
            sig = canonical_signature(launch)
            form = canonical_launch(launch)
            assert by_sig.setdefault(sig, form) == form


class TestWaveClass:
    @settings(max_examples=40, deadline=None)
    @given(
        gx=st.integers(1, 8), gy=st.integers(1, 8), gz=st.integers(1, 4),
        blocks=st.integers(1, 8),
    )
    def test_coords_reconstruct_linear_block_id(self, gx, gy, gz, blocks):
        coords = simulated_block_coords((gx, gy, gz), min(blocks, gx * gy * gz))
        for bi, (cx, cy, cz) in enumerate(coords):
            assert (cz * gy + cy) * gx + cx == bi

    def test_grid_is_excluded_when_coords_agree(self):
        launch = LAUNCHES[0]
        wider = _rebuilt(launch, grid=(launch.grid[0] + 4, 1, 1))
        # Both grids are x-major, so the first simulated block coords
        # coincide and the wave class must too.
        assert wave_class(launch, 1, False) == wave_class(wider, 1, False)

    def test_warm_flag_splits_the_class(self):
        launch = LAUNCHES[0]
        assert wave_class(launch, 1, True) != wave_class(launch, 1, False)

    def test_program_change_splits_the_class(self):
        launch, at = next(
            (l, i) for l in LAUNCHES for i, item in enumerate(l.program.items)
            if isinstance(item, Loop)
        )
        items = launch.program.items
        loop = items[at]
        bumped = items[:at] + (Loop(loop.var, loop.trips + 1, loop.body),) + items[at + 1:]
        for changed_items in (items[1:], bumped):
            program = Program(
                items=changed_items,
                reg_count=launch.program.reg_count,
                entry_regs=launch.program.entry_regs,
            )
            changed = _rebuilt(launch, program=program)
            assert wave_class(changed, 1, False) != wave_class(launch, 1, False)

    def test_class_carries_a_cached_program_digest(self):
        launch = _rebuilt(LAUNCHES[0])
        digest = wave_class(launch, 1, False)[-1]
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert launch._program_digest == digest

    def test_equal_suite_classes_have_equal_programs(self):
        by_class: dict[tuple, tuple] = {}
        for launch in LAUNCHES:
            program = canonical_launch(launch)[-1]
            assert by_class.setdefault(wave_class(launch, 1, False), program) == program

    def test_extent_only_variants_share_a_class(self):
        launch = LAUNCHES[0]
        wider = _rebuilt(launch, regions=tuple(
            MemRegion(r.name, r.base, 2 * r.size_bytes) for r in launch.regions
        ))
        assert canonical_signature(wider) != canonical_signature(launch)
        assert wave_class(wider, 1, False) == wave_class(launch, 1, False)

    def test_moving_a_base_by_one_line_splits_the_class(self):
        launch = LAUNCHES[0]
        moved = _move_top_region(launch, 128)
        # Same alpha-renamed program and extents, so the same signature,
        # but the wave would replay a stream one L1 line further on.
        assert canonical_signature(moved) == canonical_signature(launch)
        assert wave_class(moved, 1, False)[-1] == wave_class(launch, 1, False)[-1]
        assert wave_class(moved, 1, False) != wave_class(launch, 1, False)

    @pytest.mark.parametrize("fidelity", ["light", "default"])
    def test_suite_classes_expand_identically(self, fidelity):
        # Every launch of the seven networks that shares a class with
        # another drives SmWave with the same concrete dynamic stream,
        # whatever its grid and region extents.
        options = SimOptions().light() if fidelity == "light" else SimOptions()
        classes: dict[tuple, list[KernelLaunch]] = {}
        for network in NETWORK_ORDER:
            for launch in compiled_network(network):
                sim_blocks = compute_occupancy(launch, GP102).blocks
                if options.max_sim_blocks is not None:
                    sim_blocks = max(1, min(sim_blocks, options.max_sim_blocks))
                warm = launch.shared_input and launch.total_blocks > sim_blocks
                classes.setdefault(wave_class(launch, sim_blocks, warm), []).append(launch)
        shared = [members for members in classes.values() if len(members) > 1]
        extents = 0
        for first, *others in shared:
            expected = _expanded(first, options)
            for other in others:
                assert _expanded(other, options) == expected, (first.name, other.name)
                extents += other.signature() != first.signature()
        # ResNet's eight extent-only variants, plus kernels that
        # networks share across the suite.
        assert extents >= 8
