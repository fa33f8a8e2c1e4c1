"""The span tracer and its process-global installation point.

Three clock domains cover everything the project simulates or does:

* :data:`CYCLES` — GPU core cycles, the clock of :mod:`repro.gpu`.
  Exported traces render one cycle as one microsecond.
* :data:`SIM_MS` — simulated milliseconds, the clock of
  :mod:`repro.serve`'s discrete-event engine.
* :data:`WALL_S` — host wall-clock seconds since the tracer was
  created, the clock of the :mod:`repro.runs` orchestration layer
  (planning, cache probes, fresh simulations).

A span is a *complete* interval — the simulators always know both
endpoints when they record, so there is no begin/end pairing to get
wrong.  Tracks are (process, thread) string pairs mapped to Chrome
trace pids/tids at export time.

The disabled path is the design center: :data:`NULL_TRACER` is a
singleton whose ``enabled`` attribute is a class-level ``False``, and
every instrumentation site reduces to one attribute check (or a
:meth:`~NullTracer.wall` call that returns 0.0) with no allocations,
so nothing is retained when tracing is off.  Recording never feeds
back into a simulation: results are bit-identical with the tracer on
or off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, NamedTuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry

#: Clock domain: GPU core cycles (1 cycle renders as 1 us).
CYCLES = "cycles"

#: Clock domain: simulated milliseconds (the serving engine's clock).
SIM_MS = "sim_ms"

#: Clock domain: host wall-clock seconds since tracer creation.
WALL_S = "wall_s"


class Span(NamedTuple):
    """One complete interval on one track."""

    name: str
    cat: str
    domain: str
    ts: float
    dur: float
    process: str
    thread: str
    args: dict | None = None


class Instant(NamedTuple):
    """One point event on one track."""

    name: str
    cat: str
    domain: str
    ts: float
    process: str
    thread: str
    args: dict | None = None


class NullTracer:
    """The disabled tracer: one ``False`` attribute, nothing else.

    Instrumented code reads ``tracer.enabled`` (a class attribute, so
    no per-instance dict lookup) and skips all recording.  The method
    surface still exists so library code may call it unconditionally
    in cold paths.
    """

    __slots__ = ()

    enabled = False
    #: Warp-phase recording in the SM issue loop (off with the tracer).
    warps = False
    metrics = NULL_METRICS

    def span(self, *args, **kwargs) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def wall(self) -> float:
        return 0.0


#: The process-global disabled tracer.
NULL_TRACER = NullTracer()


class Tracer:
    """A recording tracer: spans, instants and a metrics registry.

    ``warps=False`` keeps kernel/run/serve spans but skips the per-warp
    phase recording inside the SM issue loop (the only instrumentation
    whose volume scales with simulated cycles).  ``max_events`` bounds
    total recorded spans+instants; once exceeded, further events are
    counted in :attr:`dropped` instead of retained, so a runaway trace
    degrades loudly (the export reports the drop count) rather than
    exhausting memory.
    """

    enabled = True

    def __init__(self, warps: bool = True, max_events: int = 2_000_000) -> None:
        self.warps = warps
        self.max_events = max_events
        self.spans: list[Span] = []
        self.instants: list[Instant] = []
        self.metrics = MetricsRegistry()
        self.dropped = 0
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        cat: str,
        domain: str,
        ts: float,
        dur: float,
        process: str,
        thread: str,
        args: dict | None = None,
    ) -> None:
        """Record one complete interval."""
        if len(self.spans) + len(self.instants) >= self.max_events:
            self.dropped += 1
            return
        self.spans.append(Span(name, cat, domain, ts, dur, process, thread, args))

    def instant(
        self,
        name: str,
        cat: str,
        domain: str,
        ts: float,
        process: str,
        thread: str,
        args: dict | None = None,
    ) -> None:
        """Record one point event."""
        if len(self.spans) + len(self.instants) >= self.max_events:
            self.dropped += 1
            return
        self.instants.append(Instant(name, cat, domain, ts, process, thread, args))

    def wall(self) -> float:
        """Seconds of host wall clock since this tracer was created."""
        return time.perf_counter() - self._t0


# ----------------------------------------------------------------------
# process-global installation
# ----------------------------------------------------------------------
_TRACER: NullTracer | Tracer = NULL_TRACER


def get_tracer() -> NullTracer | Tracer:
    """The currently installed tracer (:data:`NULL_TRACER` by default)."""
    return _TRACER


def set_tracer(tracer: NullTracer | Tracer) -> NullTracer | Tracer:
    """Install *tracer* globally; returns the previously installed one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


@contextmanager
def capture_trace(
    warps: bool = True, max_events: int = 2_000_000
) -> Iterator[Tracer]:
    """Install a fresh :class:`Tracer` for the duration of the block.

    The previous tracer (usually :data:`NULL_TRACER`) is restored on
    exit, even on error, so library users and tests cannot leak an
    enabled tracer into unrelated code.
    """
    tracer = Tracer(warps=warps, max_events=max_events)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
