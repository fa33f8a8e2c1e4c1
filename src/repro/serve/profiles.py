"""Per-(network, device, batch) latency profiles.

The GPU simulator already tells us everything a serving model needs
from **one batch-1 simulation** per (network, device): for every kernel
it reports the sampled per-wave cycle cost, the launch's block count,
and how many blocks one "wave" (full-chip residency) retires.  Batching
an inference multiplies every kernel's grid by the batch size while the
per-wave cost and residency stay fixed, so batch-``b`` latency follows
analytically:

    cycles(b) = sum_k  wave_cost_k * ceil(b * blocks_k / wave_blocks_k)
              + launches * launch_overhead

which reproduces ``NetworkResult.total_time_ms`` exactly at ``b = 1``
and captures the two serving-relevant effects: launch overhead
amortizes across the batch (the RNNs batch almost for free) while
compute saturates once grids fill the chip (VGG-sized CNNs batch
sublinearly, then linearly).

Profile building requests its batch-1 simulations as
:class:`~repro.runs.spec.RunSpec` entries through the shared
:class:`~repro.runs.executor.Executor`, so it reads the same unified
result store the experiment harness fills: a prior ``repro harness run``
sweep makes ``repro serve`` start warm, and a fleet × network profile
matrix costs one cold simulation per pair ever, milliseconds thereafter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.gpu.config import GpuConfig, SimOptions
from repro.runs.executor import Executor, RunFailed
from repro.runs.spec import RunSpec


class ProfileError(RunFailed):
    """A profile build whose batch-1 runs failed: the message holds one
    ``"<run>: <ErrorType>: <message>"`` line per failed run."""


@dataclass(frozen=True)
class KernelTerm:
    """The batch-scaling term of one distinct kernel signature."""

    #: Sampled per-wave cycles (``sample_factor * wave_cycles``).
    wave_cost_cycles: float
    #: Blocks of the batch-1 launch.
    total_blocks: int
    #: Blocks retired per wave across the whole chip.
    blocks_per_wave: int
    #: How many launches in the network share this signature.
    count: int


class LatencyProfile:
    """Batch-size -> latency model of one network on one device."""

    def __init__(
        self,
        network: str,
        platform: str,
        clock_ghz: float,
        launch_overhead_cycles: float,
        terms: tuple[KernelTerm, ...],
        dynamic_j: float = 0.0,
        static_watts: float = 0.0,
    ) -> None:
        self.network = network
        self.platform = platform
        self.clock_ghz = clock_ghz
        self.launch_overhead_cycles = launch_overhead_cycles
        self.terms = terms
        #: GPUWattch dynamic (activity) energy of one inference; a
        #: batch-``b`` launch costs ``b * dynamic_j`` on top of static.
        self.dynamic_j = dynamic_j
        #: GPUWattch static (leakage) power of the platform; burns
        #: whether the device is busy or idle.
        self.static_watts = static_watts
        self._memo: dict[int, float] = {}

    def latency_ms(self, batch: int) -> float:
        """End-to-end latency of one batch-``batch`` inference."""
        if batch < 1:
            raise ValueError("batch must be >= 1")
        cached = self._memo.get(batch)
        if cached is None:
            cycles = self.launch_overhead_cycles
            for term in self.terms:
                waves = math.ceil(batch * term.total_blocks / term.blocks_per_wave)
                cycles += term.count * term.wave_cost_cycles * waves
            cached = cycles / (self.clock_ghz * 1e6)
            self._memo[batch] = cached
        return cached

    def throughput_rps(self, batch: int) -> float:
        """Steady-state inferences/second at a fixed batch size."""
        return batch * 1e3 / self.latency_ms(batch)

    def to_dict(self) -> dict:
        return {
            "network": self.network,
            "platform": self.platform,
            "clock_ghz": self.clock_ghz,
            "launch_overhead_cycles": self.launch_overhead_cycles,
            "terms": [
                [t.wave_cost_cycles, t.total_blocks, t.blocks_per_wave, t.count]
                for t in self.terms
            ],
            "dynamic_j": self.dynamic_j,
            "static_watts": self.static_watts,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyProfile":
        return cls(
            network=data["network"],
            platform=data["platform"],
            clock_ghz=data["clock_ghz"],
            launch_overhead_cycles=data["launch_overhead_cycles"],
            terms=tuple(KernelTerm(*row) for row in data["terms"]),
            dynamic_j=data.get("dynamic_j", 0.0),
            static_watts=data.get("static_watts", 0.0),
        )


def profile_from_result(result) -> LatencyProfile:
    """Derive a :class:`LatencyProfile` from one ``NetworkResult``.

    Signature-identical kernel launches collapse into one term with a
    repeat count (ResNet's 228 launches reduce to a few dozen terms).
    The GPUWattch energy split rides along: per-inference dynamic
    energy plus the platform's static power, which the serving engine
    turns into per-tenant cost-per-request and fleet idle energy.
    """
    from repro.power.accel import power_model_for

    config = result.config
    model = power_model_for(config)
    merged: dict[str, list] = {}
    for kr in result.kernels:
        signature = kr.kernel.signature()
        entry = merged.get(signature)
        if entry is None:
            wave_cost = kr.sample_factor * kr.stats.wave_cycles
            blocks_per_wave = kr.occupancy.blocks * config.num_sms
            merged[signature] = [wave_cost, kr.kernel.total_blocks, blocks_per_wave, 1]
        else:
            entry[3] += 1
    terms = tuple(KernelTerm(*entry) for entry in merged.values())
    return LatencyProfile(
        network=result.network,
        platform=config.name,
        clock_ghz=config.clock_ghz,
        launch_overhead_cycles=float(
            len(result.kernels) * config.launch_overhead_cycles
        ),
        terms=terms,
        dynamic_j=model.dynamic_energy_joules(result.aggregate()),
        static_watts=model.static_watts,
    )


def build_profiles(
    networks: Iterable[str],
    platforms: Iterable[GpuConfig],
    options: SimOptions | None = None,
    store=None,
    jobs: int = 1,
    executor=None,
    refresh: bool = False,
) -> dict[tuple[str, str], LatencyProfile]:
    """Profile every (network, platform) pair via the shared executor.

    Extension networks (``mobilenet``) are first-class here: anything
    :func:`repro.kernels.compile.compiled_network` accepts can be
    profiled.  Device *instances* sharing a platform share one profile,
    keyed ``(network, platform.name)``.  Pass a
    :class:`~repro.runs.store.ResultStore` (or let ``executor`` carry
    one) to make repeat builds — and builds after a harness sweep over
    the same combos — near-instant.

    ``refresh=True`` re-simulates every pair serially, through
    :meth:`~repro.runs.executor.Executor.simulate`, instead of reading
    the store — ``repro trace serve`` uses it so an installed tracer
    (:mod:`repro.obs`) always sees the GPU layer.

    A pair whose simulation raises (a platform the mapper cannot tile,
    say) is simulated once.  The build then raises
    :class:`ProfileError` with the executor's one-line report of every
    failed run, or, under ``refresh``, the executor's
    :class:`~repro.runs.executor.RunFailed` for the first one.
    """
    options = options or SimOptions()
    unique: dict[str, GpuConfig] = {}
    for platform in platforms:
        unique.setdefault(platform.name, platform)
    if executor is None:
        executor = Executor(store)
    specs = [
        RunSpec(name, platform, options)
        for name in dict.fromkeys(networks)
        for platform in unique.values()
    ]
    if refresh:
        results = executor.simulate(specs)
    else:
        failed = executor.execute(specs, jobs=jobs).failed
        if failed:
            raise ProfileError("\n".join(failed.values()))
        results = map(executor.run, specs)
    return {
        (spec.network, spec.config.name): profile_from_result(result)
        for spec, result in zip(specs, results)
    }


def profiles_for_platform(
    profiles: Mapping[tuple[str, str], LatencyProfile], platform_name: str
) -> dict[str, LatencyProfile]:
    """The ``network -> profile`` slice of one platform."""
    return {
        network: profile
        for (network, platform), profile in profiles.items()
        if platform == platform_name
    }
