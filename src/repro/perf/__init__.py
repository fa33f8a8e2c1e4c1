"""Performance infrastructure: small-sample statistics for timings.

* :mod:`repro.perf.stats` — sample summaries and the one-sided
  Mann-Whitney rank test that compares a parent's timings with a
  change's, taken as alternating pairs of benchmark runs.

Per-kernel host time comes from the tracer (``repro trace simulate
NET``); workload timings come from ``python3 tangobench/run.py``.  The
result store itself lives in :mod:`repro.runs.store`.
"""
