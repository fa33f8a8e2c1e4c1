"""Tests for the profiling front-ends: instmix, footprint, nvprof, stats."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.graph import INPUT, NetworkGraph
from repro.core.layers.defs import Concat, Eltwise, ReLU
from repro.core.suite import EXTENSION_NETWORKS, get_network, list_networks
from repro.gpu import SimOptions, simulate_network
from repro.isa.dtypes import DType
from repro.isa.opcodes import Pipe
from repro.kernels.compile import compiled_network
from repro.platforms import GP102
from repro.profiling.instmix import (
    dtype_mix_per_kernel,
    f32_fraction,
    kernel_histogram,
    network_histogram,
    opcode_mix,
    program_histogram,
    top_ops,
)
from repro.profiling.memfootprint import (
    all_activation_bytes,
    footprint,
    peak_activation_bytes,
)
from repro.profiling.nvprof import format_profile, profiles_from_result
from repro.profiling.stall import FIGURE7_ORDER, StallReason
from repro.profiling.stats import KernelStats


class TestInstMix:
    def test_program_histogram_matches_dynamic_count(self):
        kernel = compiled_network("cifarnet")[0]
        hist = program_histogram(kernel.program)
        assert sum(hist.values()) == kernel.program.dynamic_count()

    def test_kernel_histogram_scales_by_threads(self):
        kernel = compiled_network("cifarnet")[0]
        per_thread = sum(program_histogram(kernel.program).values())
        total = sum(kernel_histogram(kernel).values())
        assert total == per_thread * kernel.active_threads * kernel.total_blocks

    @pytest.mark.parametrize("name", list_networks())
    def test_opcode_mix_is_distribution(self, name):
        mix = opcode_mix(name)
        assert sum(mix.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in mix.values())

    def test_rnn_mix_lacks_shl(self):
        assert opcode_mix("gru").get("shl", 0.0) < 0.01

    def test_cnn_mix_has_shl_and_mul(self):
        mix = opcode_mix("alexnet")
        assert mix["shl"] > 0.04 and mix["mul"] > 0.04

    def test_top_ops_ranked(self):
        ranked = top_ops(("cifarnet", "gru"), n=5)
        shares = [share for _, share in ranked]
        assert shares == sorted(shares, reverse=True)
        assert len(ranked) == 5

    def test_dtype_mix_covers_all_kernels(self):
        mixes = dtype_mix_per_kernel("cifarnet")
        assert len(mixes) == len(compiled_network("cifarnet"))
        for _, mix in mixes:
            if mix:
                assert sum(mix.values()) == pytest.approx(1.0)

    def test_integer_dominance(self):
        for name in ("alexnet", "resnet"):
            assert f32_fraction(name) < 0.5

    def test_network_histogram_cached(self):
        a = network_histogram("gru")
        b = network_histogram("gru")
        assert a is b


def _reference_peak_activation_bytes(graph: NetworkGraph) -> int:
    """The quadratic live-set walk: every live tensor re-sized at every
    layer (the reference for the incremental walk)."""
    def size(name: str) -> int:
        shape = graph.input_shape if name == INPUT else graph.out_shape(name)
        return 4 * int(np.prod(shape))

    last_use: dict[str, int] = {}
    for index, node in enumerate(graph.nodes):
        for src in node.inputs:
            last_use[src] = index
    live: set[str] = {INPUT}
    peak = 0
    for index, node in enumerate(graph.nodes):
        live.add(node.name)
        peak = max(peak, sum(size(name) for name in live))
        live = {name for name in live if last_use.get(name, -1) > index}
        live.add(node.name)
    return peak


@st.composite
def _dags(draw) -> NetworkGraph:
    """Random layer DAGs: ReLUs, and joins of any two earlier tensors
    (an eltwise add where shapes agree, a concat where they do not)."""
    graph = NetworkGraph("random", (draw(st.integers(1, 4)), 2, 3))
    names = [INPUT]
    for index in range(draw(st.integers(1, 16))):
        first = draw(st.sampled_from(names))
        if draw(st.booleans()):
            layer, inputs = ReLU(), (first,)
        else:
            second = draw(st.sampled_from(names))
            same = graph.out_shape(first) == graph.out_shape(second)
            layer, inputs = (Eltwise() if same else Concat()), (first, second)
        names.append(graph.add(f"n{index}", layer, inputs))
    return graph


class TestFootprint:
    @pytest.mark.parametrize("name", list_networks() + EXTENSION_NETWORKS)
    def test_walk_matches_the_reference_on_every_network(self, name):
        graph = get_network(name)
        assert peak_activation_bytes(graph) == _reference_peak_activation_bytes(graph)
        assert all_activation_bytes(graph) == 4 * sum(
            int(np.prod(graph.out_shape(name)))
            for name in (INPUT, *(node.name for node in graph.nodes))
        )

    @settings(max_examples=200, deadline=None)
    @given(graph=_dags())
    def test_walk_matches_the_reference_on_random_dags(self, graph):
        assert peak_activation_bytes(graph) == _reference_peak_activation_bytes(graph)

    def test_rnn_under_500kb(self):
        assert footprint("gru").total_kb < 500
        assert footprint("lstm").total_kb < 500

    def test_weights_dominate_large_cnns(self):
        rep = footprint("alexnet")
        assert rep.weight_bytes > rep.peak_activation_bytes

    def test_peak_activation_accounts_for_shortcuts(self):
        from repro.core.suite import get_network

        graph = get_network("resnet")
        peak = peak_activation_bytes(graph)
        # The shortcut keeps at least two 256x56x56 tensors live at once.
        assert peak >= 2 * 4 * 256 * 56 * 56

    def test_footprint_ordering_tracks_model_size(self):
        assert (
            footprint("alexnet").total_bytes
            > footprint("resnet").total_bytes
            > footprint("squeezenet").total_bytes
            > footprint("cifarnet").total_bytes
        )


class TestNvprof:
    @pytest.fixture(scope="class")
    def profiles(self):
        result = simulate_network("cifarnet", GP102, SimOptions().light())
        return profiles_from_result(result)

    def test_per_category_profiles(self, profiles):
        categories, summary = profiles
        assert {p.scope for p in categories} <= {"Conv", "Pooling", "FC", "Others"}
        assert summary.scope == "cifarnet"

    def test_fractions_normalized(self, profiles):
        categories, summary = profiles
        for profile in categories + [summary]:
            assert sum(profile.fractions.values()) == pytest.approx(1.0)

    def test_top_reason_is_valid(self, profiles):
        _, summary = profiles
        assert summary.top_reason() in StallReason

    def test_format_profile_renders(self, profiles):
        _, summary = profiles
        text = format_profile(summary)
        assert "cifarnet" in text and "%" in text

    def test_figure7_order_covers_all_reasons(self):
        assert set(FIGURE7_ORDER) == set(StallReason)


class TestStats:
    def test_merge_accumulates(self):
        a = KernelStats()
        a.cycles = 10
        a.issued_by_pipe[Pipe.SP] = 5
        a.stalls[StallReason.SYNC] = 2
        b = KernelStats()
        b.cycles = 7
        b.issued_by_pipe[Pipe.SP] = 3
        a.merge(b)
        assert a.cycles == 17
        assert a.issued_by_pipe[Pipe.SP] == 8

    def test_scale_events_leaves_cycles(self):
        s = KernelStats()
        s.cycles = 100
        s.issued = 10
        s.scale_events(3.0)
        assert s.cycles == 100
        assert s.issued == 30

    def test_miss_ratios_safe_on_empty(self):
        s = KernelStats()
        assert s.l1_miss_ratio == 0.0
        assert s.l2_miss_ratio == 0.0
        assert s.stall_fractions() == {}
