"""Machine descriptions and simulation options.

:class:`GpuConfig` captures the architecture parameters of Table II
(CUDA core counts, register file, shared/L1 sizes, clocks) plus the
memory-system parameters GPGPU-Sim would read from its config file.
Concrete instances for GK210, TX1 and the Pascal GP102 simulator target
live in :mod:`repro.platforms`.

:class:`SimOptions` holds the knobs of one simulation run: the warp
scheduler (Figures 15-16), the L1D size override (Figure 2's sweep),
and the sampling factors of DESIGN.md section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class GpuConfig:
    """One GPU's architecture parameters."""

    name: str
    num_sms: int
    cores_per_sm: int
    clock_ghz: float
    #: Architectural register file per SM, in 32-bit registers.
    registers_per_sm: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    shared_mem_per_sm: int
    #: Default L1 data cache per SM in bytes (0 = no L1).
    l1_size: int
    #: Total chip L2 in bytes (the simulator uses a 1/num_sms slice).
    l2_size: int
    dram_gb_per_s: float
    dram_latency: int = 350
    mshr_entries: int = 32
    #: Board-level power envelope, used by the Wattsup device model.
    tdp_watts: float = 250.0
    idle_watts: float = 35.0
    #: Kernel launch overhead in core cycles.
    launch_overhead_cycles: int = 3500

    @property
    def kind(self) -> str:
        """Device class, as ``AcceleratorConfig.kind`` (a property, so
        ``asdict`` and every run key leave it out)."""
        return "gpu"

    @property
    def total_cuda_cores(self) -> int:
        """Total CUDA cores (Table II's ``# CUDA cores``)."""
        return self.num_sms * self.cores_per_sm

    @property
    def register_file_bytes_per_sm(self) -> int:
        """Register file capacity per SM in bytes."""
        return self.registers_per_sm * 4

    @property
    def l2_slice_size(self) -> int:
        """L2 capacity divided per SM (reported for reference; the
        simulator models the shared L2 at full size — see
        ``repro.gpu.simulator._make_hierarchy``)."""
        return max(0, self.l2_size // self.num_sms)

    @property
    def dram_bytes_per_cycle_per_sm(self) -> float:
        """DRAM bandwidth share of one SM, in bytes per core cycle."""
        total_bpc = self.dram_gb_per_s * 1e9 / (self.clock_ghz * 1e9)
        return total_bpc / self.num_sms

    def with_l1(self, l1_size: int) -> "GpuConfig":
        """A copy with a different L1D size (the Figure 2 sweep)."""
        return replace(self, l1_size=l1_size)


#: Warp schedulers the simulator implements (Figures 15-16); GTO is
#: GPGPU-Sim's default.
WARP_SCHEDULERS = ("gto", "lrr", "tlv")

#: Simulation fidelities (sampling budgets): ``light`` is
#: :meth:`SimOptions.light`.
FIDELITIES = ("default", "light")


@dataclass(frozen=True)
class SimOptions:
    """Knobs of one simulation run."""

    #: Warp scheduler, one of :data:`WARP_SCHEDULERS`.
    scheduler: str = "gto"
    #: Inner-loop trip sampling budget (None = unsampled).  64 gives two
    #: contiguous 32-iteration chunks, long enough to preserve per-line
    #: reuse in streaming loops (see ``repro.isa.program``).
    max_trips: int | None = 64
    #: Outer (per-thread output) loop sampling budget.  None does not
    #: mean unsampled: outer loops then fall back to ``max_trips``
    #: (``repro.isa.program.expand_program``), so with the default 64
    #: an outer loop of more than 64 trips is still sampled.
    max_outer_trips: int | None = 2
    #: Cap on resident blocks simulated per SM (None = full residency).
    max_sim_blocks: int | None = None
    #: Stall attribution sampling interval in cycles (nvprof-style).
    stall_sample: int = 4
    #: Scheduler queue-management bubble per memory issue (cycles);
    #: applied by GTO/TLV, not LRR — the mechanism of Observation 12.
    queue_penalty: int = 1
    #: TLV active fetch-group size.
    tlv_group: int = 8

    def light(self) -> "SimOptions":
        """A cheap variant for tests: heavier sampling, same behaviour."""
        return replace(self, max_trips=6, max_outer_trips=1, max_sim_blocks=2)


def sim_options(scheduler: str, fidelity: str) -> SimOptions:
    """The options a warp scheduler and a fidelity name."""
    options = SimOptions(scheduler=scheduler)
    return options.light() if fidelity == "light" else options
