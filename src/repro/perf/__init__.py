"""Performance infrastructure: benchmarking over the result store.

* :mod:`repro.perf.bench` — the ``repro bench`` harness timing cold
  whole-network simulations and warm run-entry reads (emits
  ``BENCH_sim.json``).
* :mod:`repro.perf.stats` — sample summaries and the one-sided
  Mann-Whitney test behind ``repro bench --compare``.

The result store itself lives in :mod:`repro.runs.store`.
"""
