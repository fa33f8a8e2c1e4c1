"""The GPU timing simulator (the GPGPU-Sim stand-in).

An event-driven warp-level model of one streaming multiprocessor plus
wave scaling to the full chip:

* :mod:`repro.gpu.config` -- machine descriptions (Table II) and
  simulation options (sampling factors, scheduler choice).
* :mod:`repro.gpu.occupancy` -- CUDA occupancy calculation.
* :mod:`repro.gpu.warp` -- resident warp state and lane symbols.
* :mod:`repro.gpu.scheduler` -- GTO / LRR / TLV warp schedulers
  (Figures 15-16).
* :mod:`repro.gpu.sm` -- the SM issue loop with full stall attribution
  (Figure 7): the engine every simulation runs.
* :mod:`repro.gpu.seed_engine` -- the frozen original loop, kept as the
  bit-identity oracle that tests and ``repro bench --seed`` call
  directly.
* :mod:`repro.gpu.engine` -- the engine's version string (folded into
  every result-store key) and its wave class.
* :mod:`repro.gpu.simulator` -- kernel- and network-level drivers with
  block/loop sampling and result scaling.
"""

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.simulator import KernelResult, NetworkResult, simulate_kernel, simulate_network

__all__ = [
    "GpuConfig",
    "KernelResult",
    "NetworkResult",
    "SimOptions",
    "simulate_kernel",
    "simulate_network",
]
