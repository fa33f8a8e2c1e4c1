"""Tile-based accelerator platforms (FPGA- and NPU-class devices).

The paper's premise is benchmarking DNNs across *various* accelerators;
these configs model the two non-GPU classes the mapper
(:mod:`repro.mapping`) targets:

* **ZCU102** — a Zynq UltraScale+ evaluation board standing in for the
  FPGA toolflow targets surveyed by Venieris et al.: a few large BRAM
  regions, wide DSP MAC arrays at a modest fabric clock, DDR4 behind
  them.
* **S2NPU** — a SpiNNaker2-style many-core NPU: many small PEs, each
  with its own SRAM and a narrow MAC array, near-threshold energy per
  operation, modest LPDDR bandwidth.
* **PynQ-Z1 (mapped)** — the Table IV board re-expressed as a mappable
  platform, so the same tiling mapper drives the paper's FPGA too (the
  analytic :class:`~repro.platforms.pynq.PynqZ1Model` remains the
  Figure 6 reference model).

An :class:`AcceleratorConfig` plays the role :class:`GpuConfig` plays
for GPUs: the frozen value a :class:`~repro.runs.spec.RunSpec` carries,
hashed field-by-field into the content-addressed store key, and the
value the platform registry holds.  The ``l1_size``/``num_sms``
properties and ``with_l1`` keep the config duck-compatible with the
GPU-shaped spec/profile plumbing (per-tile memory is the accelerator's
"L1"; a tile is its "SM").
"""

from __future__ import annotations

from dataclasses import dataclass, replace

KB = 1024

#: Version tag of the tiling mapper algorithm.  It is a field of every
#: AcceleratorConfig, so run keys (which hash the config) invalidate
#: automatically when the mapping algorithm changes — the accelerator
#: analogue of folding ``engine_version()`` into GPU keys.
MAPPER_VERSION = "tile-1"


@dataclass(frozen=True)
class AcceleratorConfig:
    """One tile-based accelerator's architecture parameters."""

    name: str
    #: Device class: "fpga" or "npu".
    kind: str
    #: Parallel compute tiles (BRAM regions / processing elements).
    tiles: int
    #: On-chip working memory per tile in bytes (BRAM / SRAM).
    tile_memory_bytes: int
    #: MAC array shape per tile: rows map to output channels,
    #: columns to the input-dot-product dimension.
    mac_rows: int
    mac_cols: int
    clock_ghz: float
    dram_gb_per_s: float
    tdp_watts: float
    idle_watts: float
    #: Dynamic energy per MAC operation, in picojoules.
    energy_per_mac_pj: float
    #: Dynamic energy per DRAM byte moved, in picojoules.
    energy_per_dram_byte_pj: float
    #: Per-layer-launch control/configuration overhead in cycles.
    launch_overhead_cycles: int = 2000
    #: Whether DMA overlaps compute (double buffering).
    dma_overlap: bool = True
    #: Mapping-algorithm version (folds into run keys).
    mapper_version: str = MAPPER_VERSION

    # -- duck-compatibility with GpuConfig-shaped plumbing -------------
    @property
    def l1_size(self) -> int:
        """Per-tile memory (what ``l1_kb`` sweeps override)."""
        return self.tile_memory_bytes

    @property
    def num_sms(self) -> int:
        """Tile count (what wave math divides blocks across)."""
        return self.tiles

    def with_l1(self, nbytes: int) -> "AcceleratorConfig":
        """A copy with a different per-tile memory size."""
        return replace(self, tile_memory_bytes=nbytes)


#: Zynq UltraScale+ ZCU102 class FPGA: 8 BRAM-backed compute regions of
#: 512 KB each, 32x9 DSP MAC arrays (2304 of the ZU9EG's 2520 DSPs) at
#: a 250 MHz fabric clock, 64-bit DDR4 behind them.
ZCU102 = AcceleratorConfig(
    name="ZCU102",
    kind="fpga",
    tiles=8,
    tile_memory_bytes=512 * KB,
    mac_rows=32,
    mac_cols=9,
    clock_ghz=0.25,
    dram_gb_per_s=19.2,
    tdp_watts=25.0,
    idle_watts=8.0,
    energy_per_mac_pj=6.0,
    energy_per_dram_byte_pj=160.0,
    launch_overhead_cycles=5000,
)

#: SpiNNaker2-style NPU: 144 processing elements with 128 KB SRAM each
#: and a 16x4 MAC array per PE, near-threshold energy per operation,
#: LPDDR4 shared across the mesh.
S2NPU = AcceleratorConfig(
    name="S2NPU",
    kind="npu",
    tiles=144,
    tile_memory_bytes=128 * KB,
    mac_rows=16,
    mac_cols=4,
    clock_ghz=0.2,
    dram_gb_per_s=8.0,
    tdp_watts=7.0,
    idle_watts=1.2,
    energy_per_mac_pj=1.2,
    energy_per_dram_byte_pj=120.0,
    launch_overhead_cycles=2000,
)

#: The Table IV PynQ-Z1 as a mappable platform: one 630 KB BRAM region
#: feeding a 20x11 array (220 DSP slices) at the 100 MHz fabric clock.
#: The launch overhead models Section IV-B.3's slow code loading
#: (0.5 ms per layer at 0.1 GHz).
PYNQ_Z1_MAPPED = AcceleratorConfig(
    name="PynqZ1",
    kind="fpga",
    tiles=1,
    tile_memory_bytes=630 * KB,
    mac_rows=20,
    mac_cols=11,
    clock_ghz=0.1,
    dram_gb_per_s=0.6,
    tdp_watts=3.2,
    idle_watts=2.2,
    energy_per_mac_pj=8.0,
    energy_per_dram_byte_pj=200.0,
    launch_overhead_cycles=50_000,
)
