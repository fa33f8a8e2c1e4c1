"""Analytic instruction-mix statistics (Figures 8-10).

The operation-type and data-type breakdowns are exact properties of the
compiled kernels — no timing simulation needed — so this module walks
the program trees directly, multiplying loop trip counts, and scales by
each kernel's active thread count.  This keeps the instruction figures
free of sampling noise.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache

from repro.isa.dtypes import DType
from repro.isa.opcodes import Op
from repro.isa.program import Loop, Program
from repro.kernels.compile import compiled_network
from repro.kernels.launch import KernelLaunch


def program_histogram(program: Program) -> Counter:
    """Exact dynamic (opcode, dtype) histogram of one thread's program."""
    counts: Counter = Counter()

    def walk(items, weight: float) -> None:
        for item in items:
            if isinstance(item, Loop):
                walk(item.body, weight * item.trips)
            else:
                counts[(item.op, item.dtype)] += weight

    walk(program.items, 1.0)
    return counts


def kernel_histogram(kernel: KernelLaunch) -> Counter:
    """Dynamic histogram of a whole launch (all active threads)."""
    per_thread = program_histogram(kernel.program)
    threads = kernel.active_threads * kernel.total_blocks
    return Counter({key: value * threads for key, value in per_thread.items()})


@lru_cache(maxsize=None)
def network_histogram(name: str) -> Counter:
    """Dynamic histogram of every kernel of the named network."""
    total: Counter = Counter()
    for kernel in compiled_network(name):
        total.update(kernel_histogram(kernel))
    return total


def opcode_mix(name: str) -> dict[str, float]:
    """Figure 8: fraction of dynamic instructions per opcode."""
    hist = network_histogram(name)
    total = sum(hist.values())
    mix: dict[str, float] = {}
    for (op, _dtype), count in hist.items():
        mix[op.value] = mix.get(op.value, 0.0) + count / total
    return mix


def top_ops(names: tuple[str, ...], n: int = 10) -> list[tuple[str, float]]:
    """Figure 9: the top-*n* opcodes pooled over *names*, with shares."""
    pooled: Counter = Counter()
    for name in names:
        hist = network_histogram(name)
        total = sum(hist.values())
        # Pool network *fractions* so small networks are not drowned out,
        # matching the paper's equal-weight treatment.
        for (op, _dtype), count in hist.items():
            pooled[op.value] += count / total / len(names)
    return pooled.most_common(n)


def _dtype_mix(program: Program) -> dict[str, float]:
    """Data-type fractions of one thread's dynamic instructions.

    Control instructions with no data type are excluded, as in the
    paper's Figure 10.
    """
    hist = program_histogram(program)
    typed = {
        (op, dtype): count
        for (op, dtype), count in hist.items()
        if dtype is not DType.NONE
    }
    total = sum(typed.values())
    mix: dict[str, float] = {}
    if total:
        for (_op, dtype), count in typed.items():
            mix[dtype.value] = mix.get(dtype.value, 0.0) + count / total
    return mix


def dtype_mix_per_kernel(name: str) -> list[tuple[str, dict[str, float]]]:
    """Figure 10: per-kernel data-type fractions, in invocation order.

    Returns ``(kernel_name, {dtype: fraction})`` for every kernel of the
    network.  Launches with one signature share a canonical program, so
    each signature's mix is computed once; every launch gets its own
    copy of it.
    """
    mixes: dict[str, dict[str, float]] = {}
    out: list[tuple[str, dict[str, float]]] = []
    for kernel in compiled_network(name):
        signature = kernel.signature()
        if signature not in mixes:
            mixes[signature] = _dtype_mix(kernel.program)
        out.append((kernel.name, dict(mixes[signature])))
    return out


def f32_fraction(name: str) -> float:
    """Share of typed dynamic instructions that are 32-bit float."""
    hist = network_histogram(name)
    typed = {k: v for k, v in hist.items() if k[1] is not DType.NONE}
    total = sum(typed.values())
    if not total:
        return 0.0
    return sum(v for (op, dtype), v in typed.items() if dtype is DType.F32) / total
