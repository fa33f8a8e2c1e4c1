"""The declarative experiment spec: required runs -> series -> checks.

Every paper table and figure is one :class:`Experiment`:

* ``plan(ctx)`` declares the :class:`~repro.runs.spec.RunSpec` set the
  experiment needs (empty for analytic experiments that only compile);
* ``aggregate(view)`` folds the cached runs into JSON-serializable
  series (the figure's data);
* ``checks(view, series)`` evaluates the paper's qualitative claims
  into a :class:`~repro.harness.report.Check` list;
* ``render`` hints how ``--chart`` should draw the series.

Experiments never simulate directly: the :class:`RunView` handed to
``aggregate``/``checks`` reads through an
:class:`~repro.runs.executor.Executor`, so a planned-and-executed
matrix makes aggregation pure cache hits.  One evaluation shares one
view, and an analysis both halves need goes through :meth:`RunView.memo`,
so it is computed once per evaluation and never carried to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, TypeVar

from repro.gpu.config import GpuConfig, SimOptions
from repro.runs.spec import PlanContext, RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.gpu.simulator import NetworkResult
    from repro.harness.report import Check, ExperimentResult
    from repro.runs.executor import Executor

T = TypeVar("T")


class RunView:
    """Read-only access to planned runs during aggregation.

    ``view.run(network, config, options)`` mirrors the executor's
    read-through; ``view.ctx`` carries the planning context so
    aggregates iterate the same (possibly restricted) network subset
    the planner saw.  :func:`run_experiment` makes one view per
    evaluation, so :meth:`memo` results live exactly as long as it.
    """

    def __init__(self, executor: "Executor", ctx: PlanContext) -> None:
        self._executor = executor
        self.ctx = ctx
        self._memo: dict[tuple, object] = {}

    def run(
        self,
        network: str,
        config: GpuConfig,
        options: SimOptions | None = None,
    ) -> "NetworkResult":
        """The cached result of one run (simulating only on a planner miss)."""
        return self._executor.run(RunSpec(network, config, options or self.ctx.options))

    def nets(self, names: tuple[str, ...]) -> tuple[str, ...]:
        """*names* filtered to the context's network subset."""
        return self.ctx.nets(names)

    def memo(self, analysis: Callable[..., T], *args) -> T:
        """``analysis(*args)``, computed once per view and *args*; an
        analysis that reads runs takes the view as an argument.

        ``aggregate`` and ``checks`` both call it, and the second call
        returns the first call's object: neither may mutate it.
        """
        key = (analysis, args)
        if key not in self._memo:
            self._memo[key] = analysis(*args)
        return self._memo[key]  # type: ignore[return-value]


#: plan(ctx) -> the runs an experiment requires.
PlanFn = Callable[[PlanContext], tuple[RunSpec, ...]]
#: aggregate(view) -> JSON-serializable series dict.
AggregateFn = Callable[[RunView], dict]
#: checks(view, series) -> the paper-claim Check list.
ChecksFn = Callable[[RunView, dict], "list[Check]"]


def _no_runs(ctx: PlanContext) -> tuple[RunSpec, ...]:
    """Plan of an analytic experiment: nothing to simulate."""
    return ()


@dataclass(frozen=True)
class Experiment:
    """One declarative paper table or figure."""

    exp_id: str
    title: str
    aggregate: AggregateFn
    plan: PlanFn = _no_runs
    checks: ChecksFn | None = None
    #: Render hint for terminal charts: "bars", "stack" or "none".
    render: str = "bars"
    notes: str = ""


def run_experiment(
    experiment: Experiment, executor: "Executor", ctx: PlanContext | None = None
) -> "ExperimentResult":
    """Aggregate one experiment from (cached) runs and evaluate checks.

    Checks quantify over the full network matrix, so they are skipped on
    restricted contexts (golden-series fixtures aggregate only).
    """
    from repro.harness.report import ExperimentResult

    ctx = ctx or PlanContext()
    view = RunView(executor, ctx)
    series = experiment.aggregate(view)
    checks = (
        experiment.checks(view, series)
        if experiment.checks is not None and ctx.full
        else []
    )
    return ExperimentResult(
        exp_id=experiment.exp_id,
        title=experiment.title,
        series=series,
        checks=checks,
        notes=experiment.notes,
    )
