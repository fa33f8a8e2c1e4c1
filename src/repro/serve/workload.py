"""Request-stream generators: open-loop, bursty, trace replay, closed-loop.

Open-loop workloads are *chained*: the engine asks for the next arrival
only while processing the previous one, so the event heap holds at most
one future arrival at a time and a million-request stream costs O(1)
memory.  Workload objects are stateless across runs — every piece of
per-run state lives in the :class:`Arrival` chain (its ``index``) or in
the engine — so the same workload instance can drive several schedulers
back-to-back, each with a fresh ``random.Random(seed)``, and produce
identical streams.

Exponential gaps are drawn inline as ``-log(1.0 - rng.random()) /
rate``, the body of ``Random.expovariate``, so every stream yields the
same floats as a call to it would.
"""

from __future__ import annotations

import json
import math
from math import log
from pathlib import Path
from random import Random
from typing import NamedTuple, Sequence

from repro.serve.batching import Request


class Arrival(NamedTuple):
    """One request arrival in the generated stream.

    Chained generators copy ``tenant`` and ``stream`` from the arrival
    they follow, so an overlay's tags carry through a chain without a
    second, tagged copy per arrival.
    """

    time_ms: float
    network: str
    index: int = 0
    #: Tenant name of the originating stream ("" for single-tenant).
    tenant: str = ""
    #: Sub-workload index inside a multi-tenant overlay.
    stream: int = 0


def _pick(networks: Sequence[str], weights: Sequence[float] | None, rng: Random) -> str:
    """Weighted (default uniform) network choice from one rng draw."""
    if len(networks) == 1:
        return networks[0]
    if weights is None:
        return networks[rng.randrange(len(networks))]
    total = sum(weights)
    point = rng.random() * total
    acc = 0.0
    for name, weight in zip(networks, weights):
        acc += weight
        if point < acc:
            return name
    return networks[-1]


class Workload:
    """Base request generator; subclasses override the hooks they use.

    The engine consults :meth:`on_completion` only when ``closed_loop``
    is true: an open-loop workload's completions and sheds never
    reissue, so the engine skips the call for them.
    """

    #: Closed-loop workloads issue new arrivals from completions.
    closed_loop = False

    def prime(self, rng: Random) -> list[Arrival]:
        """The initial arrival(s) seeding the event heap."""
        raise NotImplementedError

    def next_arrival(self, prev: Arrival, rng: Random) -> Arrival | None:
        """The arrival after *prev* (open-loop chaining); None = done."""
        return None

    def on_completion(
        self, request: Request, now_ms: float, issued: int, rng: Random
    ) -> Arrival | None:
        """A reactive arrival triggered by *request* completing."""
        return None


class PoissonWorkload(Workload):
    """Open-loop Poisson arrivals at a fixed rate."""

    def __init__(
        self,
        rps: float,
        requests: int,
        networks: Sequence[str],
        weights: Sequence[float] | None = None,
    ) -> None:
        if rps <= 0:
            raise ValueError("rps must be > 0")
        if not networks:
            raise ValueError("at least one network required")
        self.rps = rps
        self.requests = requests
        self.networks = tuple(networks)
        self.weights = tuple(weights) if weights is not None else None

    def _gap_ms(self, rng: Random) -> float:
        return -log(1.0 - rng.random()) / self.rps * 1e3

    def prime(self, rng: Random) -> list[Arrival]:
        if self.requests < 1:
            return []
        return [Arrival(self._gap_ms(rng), _pick(self.networks, self.weights, rng), 0)]

    def next_arrival(self, prev: Arrival, rng: Random) -> Arrival | None:
        if prev.index + 1 >= self.requests:
            return None
        return Arrival(
            prev.time_ms + self._gap_ms(rng),
            _pick(self.networks, self.weights, rng),
            prev.index + 1,
            prev.tenant,
            prev.stream,
        )


class BurstyWorkload(PoissonWorkload):
    """On-off modulated Poisson arrivals (bursts over a quiet floor).

    Time alternates between an ``on_ms`` window at ``rps`` and an
    ``off_ms`` window at ``rps * off_factor``.  Sampling exploits the
    exponential's memorylessness: a draw that crosses a phase boundary
    is discarded and redrawn from the boundary at the new rate, which
    keeps the process exact rather than approximated.
    """

    def __init__(
        self,
        rps: float,
        requests: int,
        networks: Sequence[str],
        on_ms: float = 100.0,
        off_ms: float = 400.0,
        off_factor: float = 0.1,
        weights: Sequence[float] | None = None,
    ) -> None:
        super().__init__(rps, requests, networks, weights)
        if on_ms <= 0 or off_ms < 0:
            raise ValueError("on_ms must be > 0 and off_ms >= 0")
        if not 0 <= off_factor <= 1:
            raise ValueError("off_factor must be in [0, 1]")
        self.on_ms = on_ms
        self.off_ms = off_ms
        self.off_factor = off_factor

    def _next_time(self, start_ms: float, rng: Random) -> float:
        period = self.on_ms + self.off_ms
        t = start_ms
        while True:
            in_on = (t % period) < self.on_ms
            boundary = (t // period) * period + (self.on_ms if in_on else period)
            rate = self.rps if in_on else self.rps * self.off_factor
            if rate <= 0:
                t = boundary
                continue
            gap = -log(1.0 - rng.random()) / rate * 1e3
            if t + gap > boundary:
                t = boundary
                continue
            return t + gap

    def prime(self, rng: Random) -> list[Arrival]:
        if self.requests < 1:
            return []
        return [
            Arrival(self._next_time(0.0, rng), _pick(self.networks, self.weights, rng), 0)
        ]

    def next_arrival(self, prev: Arrival, rng: Random) -> Arrival | None:
        if prev.index + 1 >= self.requests:
            return None
        return Arrival(
            self._next_time(prev.time_ms, rng),
            _pick(self.networks, self.weights, rng),
            prev.index + 1,
            prev.tenant,
            prev.stream,
        )


class DiurnalWorkload(Workload):
    """Open-loop arrivals following a sinusoidal day/night rate curve.

    The instantaneous rate is ``base_rps * (1 + amplitude * sin(2*pi *
    (t - phase_ms) / period_ms))``, approximated as piecewise-constant
    over ``segments`` equal slices of the period (the rate is sampled
    at each slice's midpoint).  Within a slice, sampling works exactly
    like :class:`BurstyWorkload`: an exponential draw that crosses the
    slice boundary is discarded and redrawn from the boundary at the
    new rate, which the memorylessness of the exponential makes exact
    for the piecewise-constant process.
    """

    def __init__(
        self,
        base_rps: float,
        requests: int,
        networks: Sequence[str],
        period_ms: float = 86_400_000.0,
        amplitude: float = 0.8,
        phase_ms: float = 0.0,
        segments: int = 96,
        weights: Sequence[float] | None = None,
    ) -> None:
        if base_rps <= 0:
            raise ValueError("base_rps must be > 0")
        if not networks:
            raise ValueError("at least one network required")
        if period_ms <= 0:
            raise ValueError("period_ms must be > 0")
        if not 0 <= amplitude < 1:
            raise ValueError("amplitude must be in [0, 1)")
        if segments < 1:
            raise ValueError("segments must be >= 1")
        self.base_rps = base_rps
        self.requests = requests
        self.networks = tuple(networks)
        self.weights = tuple(weights) if weights is not None else None
        self.period_ms = period_ms
        self.amplitude = amplitude
        self.phase_ms = phase_ms
        self.segments = segments
        self._segment_ms = period_ms / segments
        # Per-segment rates, sampled at segment midpoints (requests/ms).
        two_pi = 2.0 * math.pi
        self._rates = tuple(
            base_rps
            * (1.0 + amplitude * math.sin(two_pi * ((i + 0.5) / segments)))
            / 1e3
            for i in range(segments)
        )

    def _next_time(self, start_ms: float, rng: Random) -> float:
        segment_ms = self._segment_ms
        t = start_ms
        while True:
            index = math.floor((t - self.phase_ms) / segment_ms)
            boundary = self.phase_ms + (index + 1) * segment_ms
            rate = self._rates[index % self.segments]
            gap = -log(1.0 - rng.random()) / rate if rate > 0 else float("inf")
            if t + gap > boundary:
                t = boundary
                continue
            return t + gap

    def prime(self, rng: Random) -> list[Arrival]:
        if self.requests < 1:
            return []
        return [
            Arrival(self._next_time(0.0, rng), _pick(self.networks, self.weights, rng), 0)
        ]

    def next_arrival(self, prev: Arrival, rng: Random) -> Arrival | None:
        if prev.index + 1 >= self.requests:
            return None
        return Arrival(
            self._next_time(prev.time_ms, rng),
            _pick(self.networks, self.weights, rng),
            prev.index + 1,
            prev.tenant,
            prev.stream,
        )


class TraceWorkload(Workload):
    """Replay a recorded request log, exactly and in order."""

    def __init__(self, arrivals: Sequence[tuple[float, str]]) -> None:
        ordered = sorted(arrivals, key=lambda item: item[0])
        self.arrivals = tuple(
            Arrival(time_ms, network, index)
            for index, (time_ms, network) in enumerate(ordered)
        )

    @classmethod
    def from_json(cls, path: str | Path) -> "TraceWorkload":
        """Load ``[{"time_ms": ..., "network": ...}, ...]`` (or the same
        list under a top-level ``"requests"`` key)."""
        data = json.loads(Path(path).read_text())
        if isinstance(data, dict):
            data = data["requests"]
        return cls([(float(row["time_ms"]), str(row["network"])) for row in data])

    def prime(self, rng: Random) -> list[Arrival]:
        return [self.arrivals[0]] if self.arrivals else []

    def next_arrival(self, prev: Arrival, rng: Random) -> Arrival | None:
        index = prev.index + 1
        return self.arrivals[index] if index < len(self.arrivals) else None


class ClosedLoopWorkload(Workload):
    """Fixed-concurrency clients with exponential think time."""

    closed_loop = True

    def __init__(
        self,
        clients: int,
        requests: int,
        networks: Sequence[str],
        think_ms: float = 10.0,
        weights: Sequence[float] | None = None,
    ) -> None:
        if clients < 1:
            raise ValueError("clients must be >= 1")
        if think_ms < 0:
            raise ValueError("think_ms must be >= 0")
        self.clients = clients
        self.requests = requests
        self.networks = tuple(networks)
        self.weights = tuple(weights) if weights is not None else None
        self.think_ms = think_ms

    def _think(self, rng: Random) -> float:
        if self.think_ms <= 0:
            return 0.0
        return -log(1.0 - rng.random()) / (1.0 / self.think_ms)

    def prime(self, rng: Random) -> list[Arrival]:
        count = min(self.clients, self.requests)
        return [
            Arrival(self._think(rng), _pick(self.networks, self.weights, rng), index)
            for index in range(count)
        ]

    def on_completion(
        self, request: Request, now_ms: float, issued: int, rng: Random
    ) -> Arrival | None:
        if issued >= self.requests:
            return None
        return Arrival(
            now_ms + self._think(rng),
            _pick(self.networks, self.weights, rng),
            issued,
        )
