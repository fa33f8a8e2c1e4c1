"""One benchmark phase in a fresh interpreter; writes its figures as JSON.

Started by ``tangobench/run.py`` from the root of a checkout with
``src`` on ``PYTHONPATH``::

    python tangobench/child.py --workload NAME --phase PHASE --seed N \\
        --store DIR --out FILE [--warm-seconds S] [--trace-out FILE]

Phases: ``cold`` runs set-up and one pass against the empty store
*--store*, and reads the interpreter's peak RSS.  ``warm`` runs set-up
against a private empty store, then warm passes over the populated
*--store* until at least MIN_WARM_PASSES ran and ``--warm-seconds``
elapsed.  ``traced`` wraps every layer's public entry points
(``layers.py``), runs set-up, one cold and one warm pass against the
empty *--store*, and writes the per-layer metrics and a Chrome trace.

Every timing is a window ``[start, end, probe_s]`` on the
``perf_counter`` clock, where ``probe_s`` is the mean duration of the
host-speed probe (:class:`HostProbe`) around the window.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import tempfile
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from workloads import WORKLOADS, Outcome

#: Warm passes a warm child runs at least, however short its budget.
MIN_WARM_PASSES = 2
#: How often the host-speed probe runs, and how many of its samples
#: judge a window at least (windows shorter than that borrow the
#: nearest samples on both sides).
PROBE_INTERVAL_S = 0.01
MIN_PROBE_SAMPLES = 20
#: Iterations of the probe loop: about 0.1 ms, 1% of the interval.
PROBE_ITERATIONS = 1000
#: The probe loop's mean duration at the reference host speed; a window
#: is reported as the seconds it would have taken at that speed.
PROBE_REF_S = 1.5e-4

_PROBE_BUFFER = [0] * 256


def _probe_loop() -> None:
    buffer = _PROBE_BUFFER
    for i in range(PROBE_ITERATIONS):
        buffer[i & 255] = (buffer[(i * 7) & 255] + i) & 0xFFFF


class HostProbe:
    """Times a fixed loop every PROBE_INTERVAL_S from a SIGALRM handler.

    The host the benchmark was defined on changes speed by up to a third
    within minutes, under load from other tenants that this interpreter
    cannot see.  The probe runs on the same CPU between the workload's
    own bytecodes, so it slows with the workload: over 40 repeats of a
    1 s simulation, its mean duration per repeat correlated with the
    repeat's wall time at 0.98, and dividing by it cut the quartile
    spread from 0.10 to 0.02 of the median.
    """

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_loop()
        end = time.perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> list[float]:
        """``[start, end, mean probe duration in and around the window]``."""
        lo, hi = bisect_left(self.ends, start), bisect_right(self.ends, end)
        borrow = (MIN_PROBE_SAMPLES - (hi - lo) + 1) // 2
        if borrow > 0:
            lo, hi = max(0, lo - borrow), min(len(self.ends), hi + borrow)
        if lo == hi:
            raise RuntimeError("the host-speed probe took no samples")
        return [start, end, statistics.fmean(self.durations[lo:hi])]


def scaled_seconds(window: list[float]) -> float:
    """A window's length at the reference host speed."""
    start, end, probe_s = window
    return (end - start) * PROBE_REF_S / probe_s


def _timed(fn, *args) -> tuple[Outcome, list[float]]:
    start = time.perf_counter()
    outcome = fn(*args)
    return outcome, [start, time.perf_counter()]


def _cold(workload, args, probe: HostProbe, start: float) -> tuple[Outcome, dict]:
    workload.setup(args.store)
    setup = [start, time.perf_counter()]
    outcome, cold = _timed(workload.cold, args.store)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return outcome, {
        "setup_window": probe.window(*setup),
        "cold_window": probe.window(*cold),
        "peak_rss_mb": peak_kb / 1024,
    }


def _warm(workload, args, probe: HostProbe, start: float) -> tuple[Outcome, dict]:
    workload.setup(Path(tempfile.mkdtemp(prefix="setup-store-")))
    setup = [start, time.perf_counter()]
    outcome = Outcome()
    windows = []
    deadline = setup[1] + args.warm_seconds
    while len(windows) < MIN_WARM_PASSES or time.perf_counter() < deadline:
        passed, window = _timed(workload.warm, args.store)
        outcome.add(passed)
        windows.append(window)
    return outcome, {
        "setup_window": probe.window(*setup),
        "warm_windows": [probe.window(*window) for window in windows],
    }


def _traced(workload, args, probe: HostProbe, start: float) -> tuple[Outcome, dict]:
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    outcome = Outcome()
    with tracer.phase("setup"):
        workload.setup(args.store)
    with tracer.phase("cold"):
        cold_outcome, cold = _timed(workload.cold, args.store)
        outcome.add(cold_outcome)
    with tracer.phase("warm"):
        outcome.add(workload.warm(args.store))
    wall_s = time.perf_counter() - tracer.t0
    tracer.uninstall()
    problems = tracer.export(args.trace_out, {"workload": workload.name, "seed": args.seed})
    outcome.add(Outcome(
        attempted=1,
        problems=[f"chrome trace invalid: {problems[0]}"] if problems else [],
    ))
    return outcome, {
        "cold_window": probe.window(*cold),
        "per_layer": tracer.metrics(wall_s),
        "missing_targets": tracer.missing,
        "spans": len(tracer.trace.spans),
        "dropped_spans": tracer.trace.dropped,
    }


PHASES = {"cold": _cold, "warm": _warm, "traced": _traced}


def main(argv: list[str] | None = None) -> int:
    with HostProbe() as probe:
        start = time.perf_counter()
        parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
        parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        parser.add_argument("--phase", required=True, choices=sorted(PHASES))
        parser.add_argument("--seed", type=int, required=True)
        parser.add_argument("--store", type=Path, required=True)
        parser.add_argument("--out", type=Path, required=True)
        parser.add_argument("--warm-seconds", type=float, default=0.0)
        parser.add_argument("--trace-out", type=Path)
        args = parser.parse_args(argv)
        workload = WORKLOADS[args.workload](Path.cwd(), args.seed)
        outcome, figures = PHASES[args.phase](workload, args, probe, start)
    figures.update(attempted=outcome.attempted, problems=outcome.problems)
    args.out.write_text(json.dumps(figures))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
