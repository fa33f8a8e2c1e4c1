"""Pass 5 — whole-network inter-kernel dataflow verification.

The per-kernel passes check each launch in isolation; this pass checks
the *network*: that the serial launch sequence actually carries each
tensor from its producer to its consumers.  Every launch owns a private
canonical address space (:mod:`repro.kernels.memory_layout`), so the
producer's ``out`` region and the consumer's ``in`` region are distinct
addresses for the *same logical tensor*.  The pass therefore lifts each
global load/store to a **tensor-relative byte interval**: the canonical
slot of the region's base identifies its role (input / weight / output /
scratch), the graph edge of :class:`~repro.core.graph.Node` names the
tensor, and the access interval (bounded with the same conservative
arithmetic as :mod:`repro.analysis.addresses`) is rebased to the region
origin and clipped to its extent.

Over the launch order the pass builds an inter-kernel def-use chain per
tensor and reports:

* **netflow-undefined-read** (error): a launch reads an activation
  tensor no earlier launch wrote.  Graph inputs, weights/biases and
  scratch are externally initialised and exempt; a recurrent launch
  reading its *own* output tensor before the first timestep wrote it
  (the zero-filled initial hidden state of the RNNs) is reported as the
  **netflow-recurrent-init** note instead.
* **netflow-dead-write** (warning): a write no later launch reads and
  that is not the network output.  A later launch of the same node
  overwriting the span (RNN timesteps) exempts the earlier write.
* **netflow-waw** / **netflow-war** (warning): overlapping writes, or a
  read followed by an overlapping write, from *different* nodes — the
  launch orderings a parallelising executor must not reorder.
  Same-node overlaps (timestep t+1 rewriting the hidden state t read)
  are the recurrent pattern, not a hazard.
* **netflow-size-mismatch** (warning): the consumer declares a region
  extent that differs from the producer's for the same tensor — the
  two kernels disagree about the tensor's size.

All interval reasoning is conservative (over-approximate), so
undefined-read fires only when *no* earlier write can overlap the read
— a clean report is trustworthy, while a cunningly partial write may
escape.  DESIGN.md section 12 states the guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.analysis.diagnostics import Diagnostic, LintReport, Severity
from repro.analysis.intervals import (
    Interval,
    addr_interval,
    launch_symbol_ranges,
)
from repro.analysis.walk import iter_sites
from repro.isa.instruction import MemSpace
from repro.kernels.launch import KernelLaunch, MemRegion

PASS = "netflow"

#: Canonical slot index of a region base (memory_layout slot stride).
_SLOT_SHIFT = 30
_SLOT_INPUT, _SLOT_OUTPUT, _SLOT_SCRATCH = 1, 3, 4

#: Graph-level name of the network input feeding the first layer.
GRAPH_INPUT = "input"

#: Memory spaces that address the canonical global layout.
_GLOBAL_SPACES = (MemSpace.GLOBAL, MemSpace.LOCAL)

#: Layer types that are zero-copy views (no kernel of their own).
_VIEW_LAYERS = frozenset({"Concat"})


@dataclass(frozen=True)
class TensorAccess:
    """One launch's aggregated access to one logical tensor.

    Attributes:
        tensor: Logical tensor name — the producing node's name for
            activations, ``node.region`` for weights and scratch, or
            ``"input"`` for the graph input.
        klass: ``activation`` | ``param`` | ``scratch`` | ``external``.
        is_write: Store (True) or load (False).
        spans: Merged byte intervals, relative to the region base and
            clipped to the declared region extent.
        region: Declared region name inside the launch.
        region_size: Declared region extent in bytes.
        launch_index: Position in the serial launch order.
        launch: Launch name (Table III style).
        node: Graph node the launch implements.
    """

    tensor: str
    klass: str
    is_write: bool
    spans: tuple[Interval, ...]
    region: str
    region_size: int
    launch_index: int
    launch: str
    node: str

    def overlaps(self, other: "TensorAccess") -> bool:
        """True when any span of self intersects any span of *other*."""
        return any(
            a.intersects(b) for a in self.spans for b in other.spans
        )


def region_tensor(
    launch: KernelLaunch,
    region: MemRegion,
    node_inputs: Sequence[str],
) -> tuple[str, str]:
    """Map a declared region to ``(tensor name, class)``.

    The canonical slot of the region base gives its role; input-slot
    regions are resolved through the graph edge list (``in``/``x`` and
    ``in0`` name ``inputs[0]``, ``in<i>`` names ``inputs[i]``), and
    output-slot regions name the node's own output tensor.  Weight and
    scratch regions are private to the node and keep a qualified name.
    """
    slot = region.base >> _SLOT_SHIFT
    if slot == _SLOT_INPUT:
        index = 0
        name = region.name
        if name.startswith("in") and name[2:].isdigit():
            index = int(name[2:])
        if index < len(node_inputs):
            source = node_inputs[index]
        elif node_inputs:
            source = node_inputs[0]
        else:  # pragma: no cover - nodes always declare inputs
            source = GRAPH_INPUT
        if source == GRAPH_INPUT:
            return GRAPH_INPUT, "external"
        return source, "activation"
    if slot == _SLOT_OUTPUT:
        return launch.node_name, "activation"
    klass = "scratch" if slot == _SLOT_SCRATCH else "param"
    return f"{launch.node_name}.{region.name}", klass


def _merge(spans: Iterable[Interval]) -> tuple[Interval, ...]:
    """Coalesce overlapping/adjacent intervals into a sorted tuple."""
    ordered = sorted(spans, key=lambda s: (s.lo, s.hi))
    merged: list[Interval] = []
    for span in ordered:
        if merged and span.lo <= merged[-1].hi + 1:
            if span.hi > merged[-1].hi:
                merged[-1] = Interval(merged[-1].lo, span.hi)
        else:
            merged.append(span)
    return tuple(merged)


def launch_flow(
    launch: KernelLaunch,
    node_inputs: Sequence[str],
    launch_index: int = 0,
) -> list[TensorAccess]:
    """The tensor-relative read/write footprint of one launch.

    Bounds every global load/store with the interval arithmetic of the
    address pass, attributes it to the declared regions it can touch,
    rebases to the region origin and clips to the region extent.
    Accesses that miss every region, reference unbound symbols, or sit
    inside a zero-trip loop are skipped — the per-kernel passes already
    diagnose those.
    """
    base_ranges = launch_symbol_ranges(launch)
    regions = sorted(launch.regions, key=lambda r: r.base)
    spans = [
        (r, Interval(r.base, r.base + max(0, r.size_bytes - 1)))
        for r in regions
        if r.size_bytes > 0
    ]
    # (region, is_write) -> raw relative intervals
    touched: dict[tuple[str, bool], list[Interval]] = {}
    region_by_name = {r.name: r for r in regions}

    for site in iter_sites(launch.program):
        instr = site.instr
        if not instr.is_mem or instr.addr is None or instr.space not in _GLOBAL_SPACES:
            continue
        if any(loop.trips <= 0 for loop in site.loops):
            continue  # body never executes
        sym_ranges = dict(base_ranges)
        for loop in site.loops:
            sym_ranges[loop.var] = Interval(0, loop.trips - 1)
        interval, unbound = addr_interval(instr.addr, sym_ranges)
        if unbound:
            continue
        access = Interval(interval.lo, interval.hi + max(1, instr.width_bytes) - 1)
        for region, span in spans:
            if not span.intersects(access):
                continue
            rel = Interval(
                max(access.lo, span.lo) - region.base,
                min(access.hi, span.hi) - region.base,
            )
            touched.setdefault((region.name, not instr.is_load), []).append(rel)

    accesses: list[TensorAccess] = []
    for (region_name, is_write), raw in touched.items():
        region = region_by_name[region_name]
        tensor, klass = region_tensor(launch, region, node_inputs)
        accesses.append(
            TensorAccess(
                tensor=tensor,
                klass=klass,
                is_write=is_write,
                spans=_merge(raw),
                region=region_name,
                region_size=region.size_bytes,
                launch_index=launch_index,
                launch=launch.name,
                node=launch.node_name,
            )
        )
    # Reads before writes at equal launch index keeps downstream scans
    # deterministic; tensor name breaks remaining ties.
    accesses.sort(key=lambda a: (a.is_write, a.tensor, a.region))
    return accesses


def _spans_text(access: TensorAccess) -> str:
    return ", ".join(f"[{s.lo}, {s.hi}]" for s in access.spans)


def check_network_flow(
    launches: Sequence[KernelLaunch],
    node_inputs: dict[str, Sequence[str]],
    output_name: str | None = None,
    view_nodes: frozenset[str] | set[str] = frozenset(),
) -> list[Diagnostic]:
    """Inter-kernel def-use checks over a serial launch sequence.

    Args:
        launches: The network's launches in execution order.
        node_inputs: Graph edges — node name to its input tensor names.
        output_name: The network's output tensor (its final write is
            consumed by the host, never by a later launch).
        view_nodes: Nodes that are declared zero-copy views over their
            inputs (Concat); their tensors resolve to the constituent
            producers.  A node that is *not* a view but compiled to no
            launches is a genuine hole and its consumers report
            undefined reads.
    """
    flows: list[TensorAccess] = []
    for index, launch in enumerate(launches):
        inputs = node_inputs.get(launch.node_name, ())
        flows.extend(launch_flow(launch, inputs, index))

    # View nodes (Concat) compile to no launch: the tensor named after
    # one resolves (transitively) to the tensors of the producing
    # launches behind it, and an access to the view becomes a
    # conservative full-extent access to every constituent, since the
    # view's internal element order is a layout detail the interval
    # hull cannot apportion between them.
    launched = {launch.node_name for launch in launches}
    out_sizes: dict[str, int] = {}
    for launch in launches:
        for region in launch.regions:
            if region.base >> _SLOT_SHIFT == _SLOT_OUTPUT:
                out_sizes.setdefault(launch.node_name, region.size_bytes)

    def resolve(tensor: str) -> list[str]:
        if tensor in launched or tensor not in view_nodes:
            return [tensor]
        parts: list[str] = []
        for source in node_inputs.get(tensor, ()):
            parts.extend(resolve(source))
        return parts

    resolved: list[TensorAccess] = []
    for access in flows:
        parts = resolve(access.tensor) if access.klass == "activation" else None
        if not parts or parts == [access.tensor]:
            resolved.append(access)
            continue
        for part in parts:
            if part == GRAPH_INPUT:
                resolved.append(
                    replace(access, tensor=GRAPH_INPUT, klass="external")
                )
                continue
            size = out_sizes.get(part, access.region_size)
            resolved.append(
                replace(
                    access,
                    tensor=part,
                    spans=(Interval(0, max(0, size - 1)),),
                    region_size=size,
                )
            )

    by_tensor: dict[str, list[TensorAccess]] = {}
    for access in resolved:
        by_tensor.setdefault(access.tensor, []).append(access)

    diags: list[Diagnostic] = []
    for tensor, accesses in by_tensor.items():
        klass = accesses[0].klass
        writes = [a for a in accesses if a.is_write]
        reads = [a for a in accesses if not a.is_write]

        # -- undefined reads (activations only: weights, scratch and
        # the graph input are externally initialised).
        if klass == "activation":
            for read in reads:
                earlier = [
                    w for w in writes
                    if w.launch_index < read.launch_index and w.overlaps(read)
                ]
                if earlier:
                    continue
                if read.node == tensor:
                    # Recurrent self-edge: the first timestep reads the
                    # zero-filled initial state from its own output
                    # region.  Note it once, at the first occurrence.
                    diags.append(
                        Diagnostic(
                            Severity.NOTE,
                            "netflow-recurrent-init",
                            PASS,
                            read.launch,
                            f"reads its own output tensor {tensor!r} "
                            f"({_spans_text(read)}) before any write — "
                            f"zero-filled recurrent initial state",
                            data={"tensor": tensor, "region": read.region},
                        )
                    )
                    continue
                diags.append(
                    Diagnostic(
                        Severity.ERROR,
                        "netflow-undefined-read",
                        PASS,
                        read.launch,
                        f"reads tensor {tensor!r} ({_spans_text(read)} of "
                        f"region {read.region!r}) which no earlier launch "
                        f"wrote",
                        data={
                            "tensor": tensor,
                            "region": read.region,
                            "launch_index": read.launch_index,
                        },
                    )
                )

        # -- dead writes (skip scratch — private by construction — and
        # the network output, whose last write the host consumes).
        if klass == "activation" and tensor != output_name:
            for write in writes:
                consumed = any(
                    r.launch_index > write.launch_index and r.overlaps(write)
                    for r in reads
                )
                if consumed:
                    continue
                rewritten = any(
                    w.launch_index > write.launch_index
                    and w.node == write.node
                    and w.overlaps(write)
                    for w in writes
                )
                if rewritten:
                    continue  # RNN timestep overwrites its predecessor
                diags.append(
                    Diagnostic(
                        Severity.WARNING,
                        "netflow-dead-write",
                        PASS,
                        write.launch,
                        f"writes tensor {tensor!r} ({_spans_text(write)} of "
                        f"region {write.region!r}) but no later launch "
                        f"reads it and it is not the network output",
                        data={"tensor": tensor, "region": write.region},
                    )
                )

        # -- cross-node WAW / WAR hazards (serial order is correct by
        # construction; these flag reorderings an executor must respect
        # beyond the producer->consumer edges).
        for i, first in enumerate(writes):
            for second in writes[i + 1:]:
                if second.node != first.node and first.overlaps(second):
                    diags.append(
                        Diagnostic(
                            Severity.WARNING,
                            "netflow-waw",
                            PASS,
                            second.launch,
                            f"write of tensor {tensor!r} overlaps the "
                            f"earlier write by {first.launch!r}",
                            data={"tensor": tensor, "earlier": first.launch},
                        )
                    )
        for read in reads:
            for write in writes:
                if (
                    write.launch_index > read.launch_index
                    and write.node != read.node
                    and write.overlaps(read)
                ):
                    diags.append(
                        Diagnostic(
                            Severity.WARNING,
                            "netflow-war",
                            PASS,
                            write.launch,
                            f"write of tensor {tensor!r} overlaps the "
                            f"earlier read by {read.launch!r}",
                            data={"tensor": tensor, "reader": read.launch},
                        )
                    )

        # -- declared-extent consistency between producer and consumers.
        if klass == "activation":
            sizes: dict[int, TensorAccess] = {}
            for access in accesses:
                sizes.setdefault(access.region_size, access)
            if len(sizes) > 1:
                detail = ", ".join(
                    f"{a.launch}:{a.region}={size}"
                    for size, a in sorted(sizes.items())
                )
                diags.append(
                    Diagnostic(
                        Severity.WARNING,
                        "netflow-size-mismatch",
                        PASS,
                        sorted(sizes.values(), key=lambda a: a.launch_index)[
                            -1
                        ].launch,
                        f"launches disagree on the extent of tensor "
                        f"{tensor!r}: {detail}",
                        data={"tensor": tensor, "sizes": sorted(sizes)},
                    )
                )
    return diags


def analyze_network_flow(name: str) -> LintReport:
    """Compile (cached) one suite network and verify its dataflow."""
    from repro.core import get_network
    from repro.kernels.compile import compiled_network
    from repro.obs import get_tracer

    graph = get_network(name)
    launches = compiled_network(name)
    node_inputs = {node.name: node.inputs for node in graph.nodes}
    view_nodes = frozenset(
        node.name
        for node in graph.nodes
        if type(node.layer).__name__ in _VIEW_LAYERS
    )
    report = LintReport(network=name, kernel_count=len(launches))
    diags = check_network_flow(
        launches, node_inputs, graph.output_name, view_nodes
    )
    report.extend(diags)

    tracer = get_tracer()
    if tracer.enabled:
        metrics = tracer.metrics
        metrics.counter("netflow.launches").inc(len(launches))
        for severity in Severity:
            count = report.count(severity)
            if count:
                metrics.counter(f"netflow.{severity}").inc(count)
    return report
