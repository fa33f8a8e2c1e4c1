"""Execute a run plan against the unified store.

:class:`Executor` is the cached read-through front door to
:func:`repro.gpu.simulator.simulate_network`: memory -> recorded
failure -> stored network run -> fresh simulation.  Every simulation is
one attempt in :func:`_attempts`, whether :meth:`Executor.run`,
:meth:`Executor.simulate`, :meth:`Executor.execute` or a worker process
asks, and a failed run is attempted once per executor.
:meth:`Executor.execute` fans a plan's missing entries out over a
process pool, merging results in submission order so the store's
contents are deterministic regardless of worker completion order.
Only the executor, in the parent process, writes run entries.

Both live and cached paths return the
:class:`~repro.gpu.simulator.NetworkResult` decoded from the JSON
payload, so every consumer sees byte-identical values whether the run
was fresh or a hit.

When a tracer is installed (:mod:`repro.obs`), the executor records
wall-clock spans for store probes, attempts and whole-plan passes, plus
``runs.*`` hit/miss/fresh/failed counters.  Spans recorded in worker
processes spawned by :meth:`Executor.execute` stay there — only
in-process work appears in a trace (the ``repro trace`` CLI therefore
runs serially).
"""

from __future__ import annotations

import math
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from dataclasses import dataclass, field, replace
from typing import Iterator, Sequence

from repro.gpu.simulator import L1Memo, NetworkResult
from repro.obs.tracer import WALL_S, get_tracer
from repro.runs.planner import Plan
from repro.runs.spec import RunSpec
from repro.runs.store import ResultStore, result_from_payload, result_to_payload


@dataclass
class ExecutionReport:
    """Outcome of one :meth:`Executor.execute` pass.

    ``failed`` maps the content key of every planned spec whose run
    failed on this executor, in this pass or an earlier one, to
    ``"<describe>: <ErrorType>: <message>"``; a failing run does not
    abort the pass, and its sibling runs complete.
    """

    planned: int
    fresh: int
    cached: int
    failed: dict = field(default_factory=dict)

    def summary(self) -> str:
        """One-line log: '[plan] N unique runs: F fresh, C cached'."""
        failed = f", {len(self.failed)} failed" if self.failed else ""
        return (
            f"[plan] {self.planned} unique runs: "
            f"{self.fresh} fresh, {self.cached} cached{failed}"
        )

    def to_dict(self) -> dict:
        """Stable JSON form (the :class:`repro.stats.Stats` protocol)."""
        return {
            "planned": self.planned,
            "fresh": self.fresh,
            "cached": self.cached,
            "failed": dict(self.failed),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExecutionReport":
        """Inverse of :meth:`to_dict`; raises on malformed input."""
        return cls(
            planned=data["planned"],
            fresh=data["fresh"],
            cached=data["cached"],
            failed=dict(data.get("failed", {})),
        )


class RunFailed(Exception):
    """A run whose simulation raised; the message is the executor's one
    line, ``"<run>: <ErrorType>: <message>"``."""


class Executor:
    """Cached, parallelizable runner of :class:`RunSpec` simulations.

    ``store=None`` keeps results in memory only (no disk IO) — used by
    ``--no-cache`` runs and unit tests.  The executor owns one
    :class:`~repro.gpu.simulator.L1Memo`, so its fresh runs at different
    L1D sizes share eviction-free wave simulations, and
    :meth:`execute` keeps decoded programs from one pending run to the
    next while both are the same network at the same loop budgets.
    """

    def __init__(self, store: ResultStore | None = None, verbose: bool = False) -> None:
        self.store = store
        self.verbose = verbose
        self._memory: dict[str, NetworkResult] = {}
        self.l1_memo = L1Memo()
        #: Fresh simulations performed through this executor.
        self.fresh = 0
        #: Lookups served from memory or the store.
        self.hits = 0
        #: ``key -> "<run>: <ErrorType>: <message>"`` of every run that
        #: failed here; the executor never attempts such a run again.
        self.failed: dict[str, str] = {}

    # ------------------------------------------------------------------
    def run(self, spec: RunSpec) -> NetworkResult:
        """Run (or load) one network simulation; a failed run raises
        :class:`RunFailed`, and raises again without another attempt."""
        result = self._lookup(spec)
        if result is None:
            result = next(self.simulate([spec]))
        return result

    def simulate(self, specs: Sequence[RunSpec]) -> Iterator[NetworkResult]:
        """Simulate *specs* in order, skipping the memory and store reads
        and re-storing each result; yields each result once it settles.

        The ``repro trace`` commands use it so a trace always contains
        live GPU spans even when the runs are already cached.  One
        attempt loop covers the sequence, so consecutive runs of one
        network keep their decoded programs, as under :meth:`execute`.
        A run that failed on this executor raises :class:`RunFailed`
        before any spec is attempted.
        """
        for spec in specs:
            if spec.key() in self.failed:
                raise RunFailed(self.failed[spec.key()])
        outcomes = _attempts(specs, self.l1_memo, self.verbose)
        for spec, outcome in zip(specs, outcomes):
            yield self._settle(spec, *outcome)

    def execute(self, plan: Plan | Sequence[RunSpec], jobs: int = 1) -> ExecutionReport:
        """Materialize every planned run, fanning misses over *jobs*
        worker processes; returns fresh/cached counts.

        One lookup per unique spec serves it from memory or the store,
        or finds its recorded failure; the rest are attempted once each.
        A failed run does not abort the pass: its one line lands in
        :attr:`ExecutionReport.failed` and every sibling run completes.
        """
        tracer = get_tracer()
        pass_start = tracer.wall()
        specs = plan.specs if isinstance(plan, Plan) else tuple(plan)
        fresh_before = self.fresh
        unique = {spec.key(): spec for spec in specs}
        pending: list[RunSpec] = []
        for spec in unique.values():
            with suppress(RunFailed):
                if self._lookup(spec) is None:
                    pending.append(spec)
        if jobs > 1 and len(pending) > 1:
            outcomes = _pool_attempts(pending, jobs)
        else:
            outcomes = zip(pending, _attempts(pending, self.l1_memo, self.verbose))
        for spec, outcome in outcomes:
            with suppress(RunFailed):
                self._settle(spec, *outcome)
        failed = {key: self.failed[key] for key in unique if key in self.failed}
        fresh = self.fresh - fresh_before
        report = ExecutionReport(
            planned=len(specs),
            fresh=fresh,
            cached=len(specs) - fresh - len(failed),
            failed=failed,
        )
        if tracer.enabled:
            tracer.span(
                "execute-plan", "plan", WALL_S,
                pass_start, tracer.wall() - pass_start,
                process="runs", thread="executor",
                args={
                    "planned": report.planned,
                    "fresh": report.fresh,
                    "cached": report.cached,
                    "failed": len(report.failed),
                    "jobs": jobs,
                },
            )
        return report

    # ------------------------------------------------------------------
    def _lookup(self, spec: RunSpec) -> NetworkResult | None:
        """*spec*'s result from memory or the store; None when it must be
        attempted, :class:`RunFailed` when it failed here."""
        tracer = get_tracer()
        key = spec.key()
        cached = self._memory.get(key)
        if cached is not None:
            self.hits += 1
            if tracer.enabled:
                tracer.metrics.counter("runs.memory_hits").inc()
            return cached
        if key in self.failed:
            raise RunFailed(self.failed[key])
        if self.store is None:
            return None
        probe_start = tracer.wall()
        stored = self.store.get_run(spec)
        if tracer.enabled:
            tracer.span(
                f"probe {spec.network}", "cache", WALL_S,
                probe_start, tracer.wall() - probe_start,
                process="runs", thread="executor",
                args={"run": spec.describe(), "hit": stored is not None},
            )
            tracer.metrics.counter(
                "runs.store_hits" if stored is not None else "runs.store_misses"
            ).inc()
        if stored is not None:
            self._memory[key] = stored
            self.hits += 1
        return stored

    def _settle(
        self, spec: RunSpec, payload: dict | None, error: str | None
    ) -> NetworkResult:
        """Keep one attempt's outcome: store, decode and remember its
        payload, or record its failure and raise :class:`RunFailed`."""
        tracer = get_tracer()
        if tracer.enabled:
            tracer.metrics.counter("runs.fresh" if error is None else "runs.failed").inc()
        if error is not None:
            message = self.failed[spec.key()] = f"{spec.describe()}: {error}"
            raise RunFailed(message)
        if self.store is not None:
            self.store.put_run(spec, payload)
        result = result_from_payload(payload, spec.config, spec.options)
        assert result is not None  # freshly encoded payloads always decode
        self._memory[spec.key()] = result
        self.fresh += 1
        return result


#: Upper bound on specs per worker task (an L1D-size group that is
#: larger still gets a task of its own).
CHUNK_MAX_SPECS = 16
#: Target number of tasks per worker (keeps the pool load-balanced
#: when per-spec cost varies, e.g. resnet vs gru).
CHUNKS_PER_JOB = 4


def _l1_group(spec: RunSpec):
    """What a spec shares with the specs it differs from only in L1D size."""
    config = spec.config
    if config.kind == "gpu":
        config = replace(config, l1_size=0)
    return spec.network, config, spec.options


def chunk_specs(pending: Sequence[RunSpec], jobs: int) -> list[list[RunSpec]]:
    """Split *pending* into worker tasks without splitting an L1D sweep.

    Specs that differ only in ``l1_size`` land in one chunk, so the
    chunk's :class:`~repro.gpu.simulator.L1Memo` can serve one size's
    waves from another's.  Groups keep their first-appearance order and
    are packed whole, in order, into chunks of about the target size.
    """
    if not pending:
        return []
    target = max(
        1, min(CHUNK_MAX_SPECS, math.ceil(len(pending) / (jobs * CHUNKS_PER_JOB)))
    )
    groups: dict[tuple, list[RunSpec]] = {}
    for spec in pending:
        groups.setdefault(_l1_group(spec), []).append(spec)
    chunks: list[list[RunSpec]] = [[]]
    for group in groups.values():
        if chunks[-1] and len(chunks[-1]) + len(group) > target:
            chunks.append([])
        chunks[-1].extend(group)
    return chunks


def _pool_attempts(pending: list[RunSpec], jobs: int):
    """:func:`_attempts` over worker processes: yields ``(spec,
    outcome)`` chunk by chunk, in submission order, so the store's
    contents do not depend on which worker finishes first.

    Chunking caps the submission queue and per-future IPC of a
    campaign-scale plan at a few dozen tasks per worker.  A worker that
    dies breaks the pool: every chunk it has not finished, submitted or
    not, fails with ``BrokenProcessPool``.
    """
    chunks = chunk_specs(pending, jobs)
    with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
        futures = [_submit(pool, chunk) for chunk in chunks]
        for chunk, future in zip(chunks, futures):
            try:
                outcomes = future.result()
            except Exception as exc:  # the worker process itself died
                outcomes = [(None, f"{type(exc).__name__}: {exc}")] * len(chunk)
            yield from zip(chunk, outcomes)


def _submit(pool: ProcessPoolExecutor, chunk: list[RunSpec]) -> Future:
    """Submit one chunk; a pool that a dead worker broke refuses it, and
    the chunk then gets a future holding that error."""
    try:
        return pool.submit(_simulate_chunk_worker, chunk)
    except BrokenProcessPool as exc:
        future: Future = Future()
        future.set_exception(exc)
        return future


def _simulate_chunk_worker(specs: Sequence[RunSpec]) -> list[tuple]:
    """One worker task: the chunk's outcomes, from one
    :class:`~repro.gpu.simulator.L1Memo` of its own.  The worker opens
    no store: the parent settles every outcome."""
    return list(_attempts(specs, L1Memo()))


def _program_scope(spec: RunSpec | None) -> tuple | None:
    """What a GPU run's decoded programs depend on: the network and the
    two loop budgets.  None for no run or an accelerator run."""
    if spec is None or spec.config.kind != "gpu":
        return None
    return spec.network, spec.options.max_trips, spec.options.max_outer_trips


def _shares_programs(spec: RunSpec, after: RunSpec | None) -> bool:
    """Whether the run after *spec* can reuse *spec*'s decoded programs."""
    scope = _program_scope(spec)
    return scope is not None and scope == _program_scope(after)


def _simulate_spec(spec: RunSpec, l1_memo: L1Memo) -> dict:
    """One full network run, as a JSON-ready payload.

    GPU configs go through the cycle-level simulator; accelerator
    configs go through the tiling mapper's analytic execution model.
    Unless the caller set ``l1_memo.keep_programs`` for this run, the
    memo's decoded programs are dropped when it ends.
    """
    if spec.config.kind != "gpu":
        from repro.mapping.execute import run_mapped_network

        live = run_mapped_network(spec.network, spec.config, spec.options)
        return result_to_payload(live)
    from repro.gpu.simulator import simulate_network

    try:
        live = simulate_network(spec.network, spec.config, spec.options, l1_memo=l1_memo)
    finally:
        if not l1_memo.keep_programs:
            l1_memo.drop_programs()
    return result_to_payload(live)


def _attempts(specs: Sequence[RunSpec], l1_memo: L1Memo, verbose: bool = False):
    """Attempt each spec once, in order.

    Yields ``(payload, None)`` or ``(None, "ErrType: message")`` per
    spec: a failure is surfaced per run, never raised.  *l1_memo* keeps
    decoded programs while the next spec is the same network at the
    same loop budgets.  With a tracer installed, each attempt records a
    ``simulate`` span (category ``run``).
    """
    tracer = get_tracer()
    for spec, after in zip(specs, [*specs[1:], None]):
        l1_memo.keep_programs = _shares_programs(spec, after)
        if verbose:
            print(f"[run] simulating {spec.describe()}", flush=True)
        sim_start = tracer.wall()
        try:
            outcome = (_simulate_spec(spec, l1_memo), None)
        except Exception as exc:
            outcome = (None, f"{type(exc).__name__}: {exc}")
        if tracer.enabled:
            tracer.span(
                f"simulate {spec.network}", "run", WALL_S,
                sim_start, tracer.wall() - sim_start,
                process="runs", thread="executor",
                args={"run": spec.describe()},
            )
        yield outcome
