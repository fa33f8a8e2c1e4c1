"""Kernel- and network-level simulation drivers.

:func:`simulate_kernel` runs one resident wave of a kernel on one SM
(:mod:`repro.gpu.sm`) and rescales the outcome to the full launch:

* event counters scale by ``total_blocks / simulated_blocks``;
* wave cycles scale by the instruction-sampling factor (dynamic /
  sampled instructions) and by the number of waves the launch needs
  across all SMs (``ceil(blocks / (resident * num_sms))``);
* a fixed launch overhead is added per kernel, which is what keeps the
  tiny RNN kernels launch-bound (and scheduler-insensitive, Figure 15).

:func:`simulate_network` drives a compiled network kernel-by-kernel,
reusing results across signature-identical kernels (ResNet repeats its
bottleneck shapes dozens of times) and returning per-kernel and
per-layer-type aggregates.  Reuse happens at two levels, both keyed by
the canonical identities of :mod:`repro.analysis.canonical`:

* **launch level** — equal :meth:`~repro.kernels.launch.KernelLaunch.signature`
  launches share one scaled :class:`KernelResult` (stats copied per
  occurrence so aggregation stays independent);
* **wave level** — launches in the same :func:`~repro.analysis.canonical.wave_class`
  (same program, block geometry and region bases, *any* grid or region
  extents) share one expensive :class:`~repro.gpu.sm.SmWave` run and
  redo only the cheap per-launch scaling, e.g. ResNet's ``relu_res2a``
  after ``relu_res2a_branch2a``, one element-wise kernel over 256 and
  64 channels.  Such a launch traces with ``source="wave"``.

``dedup=False`` disables both levels (every launch simulates from
scratch); ``tests/test_engine_equivalence.py`` pins that the two modes
are bit-identical on every suite network.

A third level spans calls: an :class:`L1Memo` (owned by the run
executor) lets a wave that never evicted an L1 line serve the same
launch at every other non-zero L1D size its footprint fits, since the
wave then replays bit-identically there (DESIGN.md section 8).  The
memo also keeps decoded programs between consecutive runs of one
network at the same loop budgets.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass, field, replace

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.decode import DecodedProgram, decode_program
from repro.gpu.occupancy import Occupancy, compute_occupancy
from repro.gpu.sm import SmWave
from repro.gpu.warp import lane_geometry
from repro.isa.program import expand_program
from repro.kernels.compile import compiled_network
from repro.kernels.launch import KernelLaunch
from repro.kernels.program_builder import build_guard_program
from repro.memory.cache import Cache
from repro.memory.hierarchy import L1_ASSOC, LINE_BYTES, MemoryHierarchy
from repro.obs.tracer import CYCLES, get_tracer
from repro.profiling.stats import KernelStats

#: Guard program shared by all kernels (fully-inactive warps),
#: expanded and decoded once at module scope (the seed engine
#: re-expanded it on every simulate_kernel call).  Sharing one decoded
#: guard across kernels is safe because it contains no addressed
#: global/local accesses, so no per-kernel-geometry state is cached on it.
_GUARD_PROGRAM = build_guard_program()
_GUARD_EXPANDED = expand_program(_GUARD_PROGRAM)
_GUARD_DECODED = decode_program(_GUARD_EXPANDED)


@dataclass(frozen=True)
class KernelInfo:
    """The identity of a kernel that has no live launch: a run read back
    from the store, or a layer the tiling mapper timed.  It carries the
    :class:`~repro.kernels.launch.KernelLaunch` fields results are read
    through."""

    name: str
    node_name: str
    category: str
    sig: str
    total_blocks: int

    def signature(self) -> str:
        """Launch signature (a method, as on ``KernelLaunch``)."""
        return self.sig


@dataclass
class KernelResult:
    """Scaled simulation outcome of one kernel launch."""

    kernel: KernelLaunch | KernelInfo
    stats: KernelStats
    occupancy: Occupancy
    #: dynamic / simulated instruction ratio (per-warp sampling factor).
    sample_factor: float
    #: total_blocks / simulated_blocks (block sampling factor).
    block_factor: float

    @property
    def cycles(self) -> float:
        """Estimated full-launch cycles including launch overhead."""
        return self.stats.cycles

    @property
    def category(self) -> str:
        """Layer-type category of the kernel."""
        return self.kernel.category


@dataclass
class NetworkResult:
    """Outcome of a whole network's kernel sequence, simulated, mapped
    (``config`` is then an ``AcceleratorConfig``) or read back from the
    result store."""

    network: str
    config: GpuConfig
    options: SimOptions
    kernels: list[KernelResult] = field(default_factory=list)

    @property
    def unique_kernels(self) -> int:
        """Distinct canonical signatures among the launches (dedup
        collapses the launch list to this many simulations on a cold
        run)."""
        return len({k.kernel.signature() for k in self.kernels})

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles (kernels run back-to-back, as in Tango)."""
        return sum(k.stats.cycles for k in self.kernels)

    @property
    def total_time_ms(self) -> float:
        """End-to-end time in milliseconds at the config's core clock."""
        return self.total_cycles / (self.config.clock_ghz * 1e6)

    def cycles_by_category(self) -> dict[str, float]:
        """Execution cycles aggregated per layer-type category (Fig 1)."""
        out: dict[str, float] = {}
        for k in self.kernels:
            out[k.category] = out.get(k.category, 0.0) + k.stats.cycles
        return out

    def stats_by_category(self) -> dict[str, KernelStats]:
        """Merged counters per layer-type category (Figs 4, 7, 13, 14)."""
        out: dict[str, KernelStats] = {}
        for k in self.kernels:
            agg = out.setdefault(k.category, KernelStats())
            agg.merge(k.stats)
        return out

    def aggregate(self) -> KernelStats:
        """Whole-network merged counters."""
        total = KernelStats()
        for k in self.kernels:
            total.merge(k.stats)
        return total


def _make_hierarchy(config: GpuConfig) -> MemoryHierarchy:
    """Fresh per-kernel memory hierarchy for one simulated SM.

    The simulated SM sees the *full* L2: the L2 is physically shared and
    in these workloads the other SMs run sibling blocks of the same
    kernel touching the same weights/feature maps, so cross-SM sharing
    keeps their lines resident rather than evicting ours.  DRAM
    bandwidth, by contrast, is genuinely divided among SMs, so the
    channel model gets a 1/num_sms share.
    """
    return MemoryHierarchy(
        l1_size=config.l1_size,
        l2_size=config.l2_size,
        mshr_entries=config.mshr_entries,
        dram_latency=config.dram_latency,
        dram_bytes_per_cycle=config.dram_bytes_per_cycle_per_sm,
    )


#: Address range of the canonical "input" slot (repro.kernels.memory_layout);
#: decode.WARM_LO/WARM_HI mirror it (padded convolutions shift their base
#: a little below the slot start).
_INPUT_SLOT = (1 << 30, 2 << 30)


class _WaveRun:
    """Unscaled outcome of one resident-wave simulation.

    Holds everything the per-launch scaling step reads: the raw wave
    statistics plus the hierarchy counters of the wave's private memory
    system.  Instances are immutable by convention — scaling always
    operates on a copy — so one ``_WaveRun`` can back every launch of a
    :func:`~repro.analysis.canonical.wave_class`.

    With *keep_l1_lines*, ``l1_lines`` is the L1 footprint (packed line
    numbers) if the L1 was enabled and never evicted: the precondition
    for serving other L1D sizes from this run (:class:`L1Memo`).
    Otherwise it is None.
    """

    __slots__ = (
        "stats", "n_expanded",
        "l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
        "dram_bytes", "load_transactions", "store_transactions",
        "shared_accesses", "const_accesses", "l1_lines",
    )

    def __init__(
        self, stats: KernelStats, n_expanded: int, hierarchy: MemoryHierarchy,
        keep_l1_lines: bool = False,
    ):
        self.stats = stats
        self.n_expanded = n_expanded
        l1 = hierarchy.l1
        self.l1_lines = (
            l1.resident_tags() if keep_l1_lines and l1.enabled and not l1.evictions
            else None
        )
        self.l1_accesses = hierarchy.l1.stats.accesses
        self.l1_misses = hierarchy.l1.stats.misses
        self.l2_accesses = hierarchy.l2.stats.accesses
        self.l2_misses = hierarchy.l2.stats.misses
        self.dram_bytes = hierarchy.dram.bytes_served
        self.load_transactions = hierarchy.load_transactions
        self.store_transactions = hierarchy.store_transactions
        self.shared_accesses = hierarchy.shared_accesses
        self.const_accesses = hierarchy.const_accesses


class L1Memo:
    """Eviction-free resident-wave runs, reusable across L1D sizes.

    If a wave's L1 never evicted, every L1 probe — load fill, store
    lookup, MSHR miss pre-count — hit exactly when its line had been
    filled earlier in the wave.  At any other non-zero L1D size whose
    sets each receive at most ``assoc`` of the wave's resident lines
    (:meth:`repro.memory.cache.Cache.holds`), the same probes see the
    same hits, nothing evicts, and the L1, L2, MSHR and DRAM streams
    replay bit-identically; DESIGN.md section 8 gives the argument.

    Entries are keyed by the launch signature, the config with
    ``l1_size`` zeroed and the options.  A wave class would serve
    launches that differ only in grid or region extents, but each
    ``simulate_network`` call's wave cache serves those before the memo
    is asked, and the signature is already cached on the launch.  The
    engine is not part of the key: :class:`~repro.gpu.sm.SmWave` is the
    only engine a simulation runs.
    Each entry is its run pickled into one bytes object: a live
    ``_WaveRun`` is some thirty small objects (stats, counters, floats),
    and holding those for a whole L1D sweep raised its peak RSS by
    about 1.6 MB, where the pickled entries leave it flat.  One memo
    lives as long as its owner (an :class:`~repro.runs.executor.Executor`
    or one parallel chunk); a bypassed (0 KB) L1 neither records nor
    reuses, and ``simulate_network(dedup=False)`` never consults it.

    The memo also carries decoded programs from one run to the next
    (:attr:`programs`), keyed by the launch signature and the two loop
    budgets, the only options expansion reads.  No config reaches
    decode, so an L1D or scheduler sweep over one network decodes each
    kernel once.  The owner sets :attr:`keep_programs` before each run,
    true only when its next run is the same network at the same
    budgets, and a run that does not keep them drops them all at its
    end (:meth:`drop_programs`, called by
    :func:`repro.runs.executor._simulate_spec`).
    """

    __slots__ = ("_runs", "reused", "programs", "keep_programs")

    def __init__(self) -> None:
        self._runs: dict[tuple, bytes] = {}
        #: Waves served from a run at another L1D size.
        self.reused = 0
        #: (signature, max_trips, max_outer_trips) -> (expanded length,
        #: :class:`~repro.gpu.decode.DecodedProgram`); a kept program
        #: is trimmed after each of its waves.
        self.programs: dict[tuple, tuple[int, DecodedProgram]] = {}
        #: Whether programs decoded in the current run are kept for the
        #: next one.
        self.keep_programs = False

    def drop_programs(self) -> None:
        """Drop the kept programs and the process-wide lane geometries
        (:func:`repro.gpu.warp.lane_geometry`) their waves shared."""
        self.programs.clear()
        lane_geometry.cache_clear()

    @staticmethod
    def key(kernel: KernelLaunch, config: GpuConfig, options: SimOptions) -> tuple:
        """Memo key of one launch: everything a wave reads but the L1D size."""
        return kernel.signature(), replace(config, l1_size=0), options

    def get(self, key: tuple, config: GpuConfig) -> _WaveRun | None:
        """A recorded run that replays exactly under *config*'s L1D."""
        entry = self._runs.get(key)
        if entry is None or not config.l1_size:
            return None
        run = pickle.loads(entry)
        if not Cache.holds(run.l1_lines, config.l1_size, LINE_BYTES, L1_ASSOC):
            return None
        self.reused += 1
        return run

    def put(self, key: tuple, run: _WaveRun) -> None:
        """Record *run* if its L1 never evicted.  Every eviction-free run
        of one key is the same replay, so the first one is kept."""
        if run.l1_lines is not None and key not in self._runs:
            self._runs[key] = pickle.dumps(run, pickle.HIGHEST_PROTOCOL)


def _program(
    kernel: KernelLaunch, options: SimOptions, memo: L1Memo | None
) -> tuple[int, DecodedProgram]:
    """Expanded length and decoded program of *kernel*, from *memo*
    when an earlier run of the sweep kept them."""
    key = (kernel.signature(), options.max_trips, options.max_outer_trips)
    entry = memo.programs.get(key) if memo is not None else None
    if entry is not None:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("gpu.program_reused").inc()
        return entry
    expanded = expand_program(kernel.program, options.max_trips, options.max_outer_trips)
    entry = len(expanded), decode_program(expanded)
    if memo is not None and memo.keep_programs:
        memo.programs[key] = entry
    return entry


def _run_wave(
    kernel: KernelLaunch, config: GpuConfig, options: SimOptions, sim_blocks: int,
    keep_l1_lines: bool = False, memo: L1Memo | None = None,
) -> _WaveRun:
    """Expand, decode and execute one resident wave on one SM."""
    n_expanded, decoded = _program(kernel, options, memo)
    hierarchy = _make_hierarchy(config)
    wave = SmWave(kernel, decoded, _GUARD_DECODED, sim_blocks, config, options, hierarchy)
    if kernel.shared_input and kernel.total_blocks > sim_blocks:
        wave.warm_shared_input()
    stats = wave.run()
    if memo is not None and memo.keep_programs:
        decoded.trim()
    return _WaveRun(stats, n_expanded, hierarchy, keep_l1_lines)


def simulate_kernel(
    kernel: KernelLaunch,
    config: GpuConfig,
    options: SimOptions | None = None,
    _wave_cache: dict | None = None,
    _l1_memo: L1Memo | None = None,
) -> KernelResult:
    """Simulate one kernel launch and scale to the full grid.

    *_wave_cache* (internal, used by :func:`simulate_network`) maps
    :func:`~repro.analysis.canonical.wave_class` keys to :class:`_WaveRun`
    records so launches in the same class run the SM issue loop once.
    The cache is only valid for a fixed ``(config, options)`` pair —
    callers own that scoping.  *_l1_memo* (internal) is consulted when
    the wave cache misses and records eviction-free runs; it scopes
    itself by key, so one memo serves any mix of configs and options.
    A wave that runs takes its decoded program from the memo when the
    sweep kept it.
    """
    options = options or SimOptions()
    occupancy = compute_occupancy(kernel, config)
    sim_blocks = occupancy.blocks
    if options.max_sim_blocks is not None:
        sim_blocks = max(1, min(sim_blocks, options.max_sim_blocks))

    run = None
    wave_key = None
    if _wave_cache is not None:
        from repro.analysis.canonical import wave_class

        warm = kernel.shared_input and kernel.total_blocks > sim_blocks
        wave_key = wave_class(kernel, sim_blocks, warm)
        run = _wave_cache.get(wave_key)
    if run is None:
        memo_key = None
        if _l1_memo is not None and config.l1_size:
            memo_key = _l1_memo.key(kernel, config, options)
            run = _l1_memo.get(memo_key, config)
            if run is not None:
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.metrics.counter("gpu.wave_l1_reused").inc()
        if run is None:
            run = _run_wave(
                kernel, config, options, sim_blocks,
                keep_l1_lines=memo_key is not None, memo=_l1_memo,
            )
            if memo_key is not None:
                _l1_memo.put(memo_key, run)
        if _wave_cache is not None:
            _wave_cache[wave_key] = run

    # --- scaling ------------------------------------------------------
    # Always scale a copy: the cached wave stats stay pristine for the
    # next launch of the class (copying is exact, so the dedup-off path
    # produces bit-identical numbers).
    stats = run.stats.copy()
    dynamic = kernel.program.dynamic_count()
    sample_factor = dynamic / max(1, run.n_expanded)
    block_factor = kernel.total_blocks / sim_blocks
    waves = math.ceil(kernel.total_blocks / (occupancy.blocks * config.num_sms))

    stats.waves = waves
    stats.cycles = (
        stats.wave_cycles * sample_factor * waves + config.launch_overhead_cycles
    )
    stats.scale_events(block_factor)
    # Stall samples count warp-cycles of the sampled wave; scale by the
    # instruction-sampling factor (block scaling was applied above) so
    # kernels weight correctly in per-layer aggregates.
    for reason in stats.stalls:
        stats.stalls[reason] *= sample_factor
    stats.l1_accesses = run.l1_accesses * block_factor
    stats.l1_misses = run.l1_misses * block_factor
    stats.l2_accesses = run.l2_accesses * block_factor
    stats.l2_misses = run.l2_misses * block_factor
    stats.dram_bytes = run.dram_bytes * block_factor
    stats.load_transactions = run.load_transactions * block_factor
    stats.store_transactions = run.store_transactions * block_factor
    stats.shared_accesses = run.shared_accesses * block_factor
    stats.const_accesses = run.const_accesses * block_factor
    stats.active_sms = min(
        config.num_sms, math.ceil(kernel.total_blocks / occupancy.blocks)
    )
    stats.resident_warps = occupancy.warps

    return KernelResult(
        kernel=kernel,
        stats=stats,
        occupancy=occupancy,
        sample_factor=sample_factor,
        block_factor=block_factor,
    )


def simulate_network(
    name: str,
    config: GpuConfig,
    options: SimOptions | None = None,
    dedup: bool = True,
    l1_memo: L1Memo | None = None,
) -> NetworkResult:
    """Simulate every kernel of the named suite network, in order.

    With *dedup* (the default), signature-identical kernels (same
    canonical form, :mod:`repro.analysis.canonical`) reuse one
    simulation and launches sharing a wave class reuse one SM issue-loop
    run; each occurrence still contributes its own entry — and its own
    launch overhead — to the result.  ``dedup=False`` simulates every
    launch from scratch; the two modes are bit-identical by construction
    and by test.  Nothing here reads or writes the result store: whole
    runs persist through :class:`repro.runs.executor.Executor`.

    *l1_memo*, when given with *dedup*, is an :class:`L1Memo` shared
    across calls: a kernel whose wave it serves from another L1D size
    traces with ``source="l1_reuse"``.

    With a tracer installed, each launch records one kernel span on the
    run's cycle timeline, a track named by the network, platform, L1D
    size and scheduler (``gru@GP102 l1=64K gto``).  Its args carry the
    launch's ``category``, its ``source`` and ``host_s``: the host wall
    seconds of the launch's loop iteration (signature, then simulation
    or local copy), so a trace shows where a run's host time goes beside
    where its simulated cycles go.  The source is ``fresh`` (its wave
    ran), ``local`` (an earlier launch had its signature), ``wave`` (an
    earlier launch of another signature ran its wave class) or
    ``l1_reuse``.
    """
    options = options or SimOptions()
    tracer = get_tracer()
    result = NetworkResult(network=name, config=config, options=options)
    local: dict[str, KernelResult] = {}
    wave_cache: dict | None = {} if dedup else None
    if not dedup:
        l1_memo = None
    offset = 0.0  # back-to-back network timeline position, in cycles
    # One track per run: a sweep keeps the platform's name.
    track = f"{name}@{config.name} l1={config.l1_size // 1024}K {options.scheduler}"
    for kernel in compiled_network(name):
        start = tracer.wall()
        signature = kernel.signature()
        hit = local.get(signature) if dedup else None
        if hit is None:
            waves = len(wave_cache) if dedup else 0
            reused = l1_memo.reused if l1_memo is not None else 0
            hit = simulate_kernel(
                kernel, config, options, _wave_cache=wave_cache, _l1_memo=l1_memo
            )
            if dedup and len(wave_cache) == waves:
                source = "wave"  # the class was cached: no new wave ran
            elif l1_memo and l1_memo.reused > reused:
                source = "l1_reuse"
            else:
                source = "fresh"
            if dedup:
                local[signature] = hit
        else:
            source = "local"
            hit = KernelResult(
                kernel=kernel,
                stats=hit.stats.copy(),
                occupancy=hit.occupancy,
                sample_factor=hit.sample_factor,
                block_factor=hit.block_factor,
            )
        result.kernels.append(hit)
        if tracer.enabled:
            tracer.span(
                kernel.name, "kernel", CYCLES, offset, hit.stats.cycles,
                process="gpu.network", thread=track,
                args={
                    "category": hit.category,
                    "source": source,
                    "host_s": tracer.wall() - start,
                },
            )
            tracer.metrics.counter(f"gpu.kernel_{source}").inc()
            offset += hit.stats.cycles
    if tracer.enabled:
        requested, unique = len(result.kernels), result.unique_kernels
        tracer.metrics.counter("analysis.dedup.requested").inc(requested)
        tracer.metrics.counter("analysis.dedup.unique").inc(unique)
        tracer.metrics.counter("analysis.dedup.replicated").inc(requested - unique)
    return result
