"""Tango reproduction: a DNN benchmark suite for various accelerators.

A full-system Python reproduction of *Tango: A Deep Neural Network
Benchmark Suite for Various Accelerators* (Karki et al., ISPASS 2019):

* :mod:`repro.core` -- the benchmark suite itself: five CNNs (CifarNet,
  AlexNet, SqueezeNet, ResNet-50, VGGNet-16) and two RNNs (GRU, LSTM)
  decomposed into framework-free layer kernels;
* :mod:`repro.kernels` / :mod:`repro.isa` / :mod:`repro.codegen` -- the
  CUDA-like kernel representation (Table III launch geometries, PTX-like
  thread programs, CUDA C / OpenCL source emission);
* :mod:`repro.gpu` / :mod:`repro.memory` / :mod:`repro.power` /
  :mod:`repro.platforms` -- the evaluation substrate: a GPGPU-Sim-style
  timing simulator, cache/MSHR/DRAM models, GPUWattch-style power, the
  GK210 / TX1 / GP102 GPUs, the PynQ-Z1 FPGA and the tile accelerators
  :mod:`repro.mapping` targets;
* :mod:`repro.profiling` / :mod:`repro.harness` -- nvprof-like profiling
  and one experiment module per paper table and figure;
* :mod:`repro.campaign` -- declarative design-space-exploration
  campaigns over the run pipeline: sweep specs, Pareto frontiers and
  golden-frontier QoR regression gates;
* :mod:`repro.obs` -- span tracer + metrics registry across the GPU,
  run-orchestration and serving layers, exported as Chrome-trace JSON.

Entry points::

    from repro.core import TangoSuite          # run the benchmarks
    from repro.gpu import simulate_network     # characterize them
    python -m repro harness run                # reproduce the paper
    python -m repro trace simulate alexnet     # record a Perfetto trace

The names below are the stable cross-layer surface: the
:class:`~repro.stats.Stats` protocol and its three implementations
(:class:`~repro.profiling.stats.KernelStats`,
:class:`~repro.serve.stats.ServeStats`,
:class:`~repro.runs.executor.ExecutionReport`), plus the tracing API.
"""

from repro.obs import (
    MetricsRegistry,
    NullTracer,
    Tracer,
    capture_trace,
    get_tracer,
    set_tracer,
    to_chrome_trace,
    write_trace,
)
from repro.profiling.stats import KernelStats
from repro.runs.executor import ExecutionReport
from repro.serve.stats import ServeStats
from repro.stats import Stats

__version__ = "1.0.0"

__all__ = [
    "ExecutionReport",
    "KernelStats",
    "MetricsRegistry",
    "NullTracer",
    "ServeStats",
    "Stats",
    "Tracer",
    "__version__",
    "capture_trace",
    "get_tracer",
    "set_tracer",
    "to_chrome_trace",
    "write_trace",
]
