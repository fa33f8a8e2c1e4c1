"""Run the whole experiment harness: every table and figure.

:func:`run_all` regenerates the selected (default: all 21) experiments
(4 tables, 16 figures and the heterogeneous-accelerator extension)
through the declarative plan -> execute -> aggregate pipeline: the
planner collects every registered experiment's required runs and
dedupes them into a minimal matrix, the executor materializes the
matrix against the unified result store (``.repro-cache/`` or
``$REPRO_CACHE_DIR``), and each experiment then aggregates its series
and checks from pure cache hits.  A re-run performs zero simulations.

The command line is ``repro harness run [exp-ids...]`` (:mod:`repro.cli`),
which also renders charts and writes JSON through this module.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.harness.report import ExperimentResult
from repro.runs import Executor, PlanContext, ResultStore, build_plan, run_experiment
from repro.runs.registry import all_experiments

#: Sentinel: ``run_all(cache_dir=DEFAULT_STORE)`` opens the unified
#: store at its default location ($REPRO_CACHE_DIR or .repro-cache).
DEFAULT_STORE = object()


def run_all(
    ids: list[str] | None = None,
    cache_dir=DEFAULT_STORE,
    verbose: bool = True,
    jobs: int = 1,
    ctx: PlanContext | None = None,
) -> list[ExperimentResult]:
    """Plan, execute and aggregate the selected (default: all) experiments.

    ``cache_dir=None`` keeps everything in memory (no disk IO); any
    other value opens a :class:`~repro.runs.store.ResultStore` there;
    the default resolves through ``$REPRO_CACHE_DIR``.  With
    ``jobs > 1`` the plan's missing runs fan out across worker
    processes before aggregation.
    """
    experiments = all_experiments()
    selected = ids or list(experiments)
    for exp_id in selected:
        if exp_id not in experiments:
            raise KeyError(f"unknown experiment {exp_id!r}")
    if cache_dir is None:
        store = None
    elif cache_dir is DEFAULT_STORE:
        store = ResultStore()
    else:
        store = ResultStore(cache_dir)
    ctx = ctx or PlanContext()
    chosen = [experiments[exp_id] for exp_id in selected]
    plan = build_plan(chosen, ctx)
    executor = Executor(store, verbose=verbose)
    if verbose and plan.specs:
        print(plan.describe(), flush=True)
    report = executor.execute(plan, jobs=jobs)
    if verbose and plan.specs:
        print(report.summary(), flush=True)
    results = []
    for experiment in chosen:
        start = time.time()
        result = run_experiment(experiment, executor, ctx)
        result.notes = (result.notes + f" [{time.time() - start:.1f}s]").strip()
        results.append(result)
        if verbose:
            print(result.format(), flush=True)
    return results


def result_payload(result: ExperimentResult) -> dict:
    """One experiment's JSON form (shared by file and stdout output)."""
    return {
        "id": result.exp_id,
        "title": result.title,
        "series": result.series,
        "checks": [
            {"claim": c.claim, "passed": c.passed, "detail": c.detail}
            for c in result.checks
        ],
        "notes": result.notes,
    }


def write_json(
    results: list[ExperimentResult], out_dir: str | Path, verbose: bool = True
) -> None:
    """Write one ``<exp_id>.json`` per result under *out_dir*."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for result in results:
        (out / f"{result.exp_id}.json").write_text(
            json.dumps(result_payload(result), indent=2)
        )
    if verbose:
        print(f"wrote {len(results)} JSON files under {out}/")
