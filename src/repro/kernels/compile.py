"""The kernel compiler: layer graph -> ordered kernel launches.

:func:`compile_network` walks the launch plan of
:mod:`repro.kernels.mapping` and lowers each planned slice through the
matching builder in :mod:`repro.kernels.builders`, producing the list of
:class:`~repro.kernels.launch.KernelLaunch` objects that the simulator
executes and the Table III harness tabulates.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.graph import NetworkGraph
from repro.core.layers.defs import (
    FC,
    DepthwiseConv2D,
    LRN,
    BatchNorm,
    Concat,
    Conv2D,
    Eltwise,
    GRUCell,
    LSTMCell,
    Pool2D,
    ReLU,
    Scale,
    Softmax,
)
from repro.core.suite import get_network
from repro.kernels import builders
from repro.kernels.launch import KernelLaunch
from repro.kernels.mapping import KernelPlan, plan_network
from repro.kernels.validate import validate_launch_symbols
from repro.obs.tracer import WALL_S, get_tracer


def _lower(plan: KernelPlan, graph: NetworkGraph) -> builders.BuiltKernel:
    """Dispatch one planned kernel slice to its layer builder."""
    node = plan.node
    layer = node.layer
    in_shapes = graph.in_shapes(node)
    out_shape = graph.out_shape(node.name)
    if isinstance(layer, Conv2D):
        return builders.build_conv(layer, in_shapes[0], out_shape, plan.tmap)
    if isinstance(layer, DepthwiseConv2D):
        return builders.build_depthwise_conv(layer, in_shapes[0], out_shape, plan.tmap)
    if isinstance(layer, Pool2D):
        return builders.build_pool(layer, in_shapes[0], out_shape, plan.tmap)
    if isinstance(layer, FC):
        return builders.build_fc(layer, int(np.prod(in_shapes[0])), plan.tmap)
    if isinstance(layer, LRN):
        return builders.build_lrn(layer, in_shapes[0], plan.tmap)
    if isinstance(layer, BatchNorm):
        return builders.build_batchnorm(in_shapes[0], plan.tmap)
    if isinstance(layer, Scale):
        return builders.build_scale(in_shapes[0], plan.tmap)
    if isinstance(layer, ReLU):
        return builders.build_relu(in_shapes[0], plan.tmap)
    if isinstance(layer, Eltwise):
        return builders.build_eltwise(in_shapes[0], plan.tmap)
    if isinstance(layer, Concat):
        return builders.build_concat(in_shapes[0], plan.tmap)
    if isinstance(layer, Softmax):
        return builders.build_softmax(out_shape[0], plan.tmap)
    if isinstance(layer, (GRUCell, LSTMCell)):
        return builders.build_rnn_cell(layer)
    raise TypeError(f"no builder for layer type {type(layer).__name__}")


_BLOCK_SYMS = {"bx", "by", "bz", "lin_bid"}


def _input_shared_across_blocks(plan: KernelPlan) -> bool:
    """True when every block reads the same input tensor.

    Channel-split convolutions (the output-channel index comes from a
    block coordinate, so each block sweeps the whole input) and FC /
    softmax layers (every neuron reads the full input vector) qualify;
    element-wise and pooling layers partition their input per block.
    """
    layer = plan.node.layer
    if isinstance(layer, Conv2D):
        return any(t.sym in _BLOCK_SYMS for t in plan.tmap.c_terms)
    if isinstance(layer, (FC, Softmax)):
        return True
    return False


def compile_network(graph: NetworkGraph, verify: bool = False) -> list[KernelLaunch]:
    """Compile *graph* into its ordered kernel launch sequence.

    RNN cells are replicated once per sequence timestep, mirroring the
    repeated layer invocations of the released suite.

    Every built program is structurally validated up front (an address
    expression referencing a loop variable no enclosing loop binds
    raises :class:`~repro.kernels.validate.KernelValidationError` here,
    instead of a ``KeyError`` deep inside the simulator).  With
    ``verify=True`` the full :mod:`repro.analysis` pass suite also runs
    over the compiled launches and raises
    :class:`~repro.analysis.KernelVerificationError` on any
    error-severity diagnostic.
    """
    launches: list[KernelLaunch] = []
    for plan in plan_network(graph):
        built = _lower(plan, graph)
        validate_launch_symbols(plan.kernel_name, built.program)
        active = plan.tmap.active_threads_per_block
        threads = plan.block[0] * plan.block[1] * plan.block[2]
        if active <= 0 or active > threads:
            active = threads
        base = KernelLaunch(
            name=plan.kernel_name,
            node_name=plan.node.name,
            category=plan.node.layer.category,
            grid=plan.grid,
            block=plan.block,
            program=built.program,
            regs=built.program.reg_count,
            smem_bytes=built.smem_bytes,
            cmem_bytes=built.cmem_bytes,
            active_threads=active,
            regions=built.regions,
            shared_input=_input_shared_across_blocks(plan),
        )
        for launch_index in range(plan.launches):
            if plan.launches == 1:
                launches.append(base)
            else:
                launches.append(
                    KernelLaunch(
                        name=f"{plan.kernel_name} (t={launch_index})",
                        node_name=base.node_name,
                        category=base.category,
                        grid=base.grid,
                        block=base.block,
                        program=base.program,
                        regs=base.regs,
                        smem_bytes=base.smem_bytes,
                        cmem_bytes=base.cmem_bytes,
                        active_threads=base.active_threads,
                        regions=base.regions,
                        shared_input=base.shared_input,
                    )
                )
    if verify:
        # Imported lazily: repro.analysis depends on repro.kernels, so a
        # top-level import here would be circular.
        from repro.analysis import verify_launches

        verify_launches(launches, network=graph.name)
    return launches


@lru_cache(maxsize=None)
def compiled_network(name: str, verify: bool = False) -> tuple[KernelLaunch, ...]:
    """Compile (and cache) the named suite network.

    With a tracer installed, each compile (a cache miss) records one
    ``compile <name>`` wall-clock span on the ``kernels`` track, so a
    run that compiles its network accounts for that time.
    """
    tracer = get_tracer()
    start = tracer.wall()
    launches = tuple(compile_network(get_network(name), verify=verify))
    if tracer.enabled:
        tracer.span(
            f"compile {name}", "compile", WALL_S, start, tracer.wall() - start,
            process="kernels", thread="compiler",
        )
    return launches
