"""Device-memory footprint analysis (Figure 11, measured on TX1).

The paper measures the maximum device memory in use while executing all
layers of each network with nvprof on the TX1.  In Tango's allocation
scheme the whole pre-trained model (every per-layer weight file) plus
the live activations reside on the device, so the maximum footprint is
model weights + the largest concurrent activation working set — which is
why the measured footprint tracks pre-trained model size (Observation 9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.graph import INPUT, NetworkGraph
from repro.core.suite import get_network


@dataclass(frozen=True)
class FootprintReport:
    """Device-memory usage of one network.

    The whole pre-trained model (every per-layer weight file) resides on
    the device for the full run, while layer activations are freed once
    consumed, so the maximum in-use footprint is weights plus the peak
    of simultaneously-live activations — which is why the measurement
    tracks model size (Observation 9).  ``all_activation_bytes`` also
    reports what an allocate-everything-up-front scheme would need.
    """

    network: str
    weight_bytes: int
    all_activation_bytes: int
    peak_activation_bytes: int

    @property
    def total_bytes(self) -> int:
        """Maximum device memory in use."""
        return self.weight_bytes + self.peak_activation_bytes

    @property
    def total_kb(self) -> float:
        """Footprint in KB, the unit of Figure 11's log axis."""
        return self.total_bytes / 1024.0


def _activation_bytes(graph: NetworkGraph, name: str) -> int:
    """f32 bytes of node *name*'s output (or of :data:`INPUT`)."""
    return 4 * math.prod(graph.out_shape(name))


def peak_activation_bytes(graph: NetworkGraph) -> int:
    """Largest sum of simultaneously-live activations.

    Walks the layer sequence tracking which producer outputs are still
    needed by later consumers (ResNet shortcuts keep an extra tensor
    alive across a whole bottleneck body).  A layer's output stays live
    through the next layer at least.  Each tensor is sized once, when
    it becomes live, and the walk keeps the live total as it goes.
    """
    last_use: dict[str, int] = {}
    for index, node in enumerate(graph.nodes):
        for src in node.inputs:
            last_use[src] = index
    live = {INPUT: _activation_bytes(graph, INPUT)}
    current = live[INPUT]
    peak = 0
    for index, node in enumerate(graph.nodes):
        live[node.name] = _activation_bytes(graph, node.name)
        current += live[node.name]
        peak = max(peak, current)
        for name in [name for name in live
                     if name != node.name and last_use.get(name, -1) <= index]:
            current -= live.pop(name)
    return peak


def all_activation_bytes(graph: NetworkGraph) -> int:
    """Sum of every layer's output buffer plus the input buffer."""
    total = _activation_bytes(graph, INPUT)
    for node in graph.nodes:
        total += _activation_bytes(graph, node.name)
    return total


def footprint(name: str) -> FootprintReport:
    """Figure 11 entry for the named network."""
    graph = get_network(name)
    return FootprintReport(
        network=name,
        weight_bytes=graph.total_weight_bytes(),
        all_activation_bytes=all_activation_bytes(graph),
        peak_activation_bytes=peak_activation_bytes(graph),
    )
