"""The three benchmark workloads: set-up, passes and output checks.

A workload object is built with the repository root and the workload
seed.  ``setup(store_dir)`` pays every cost a user pays before the first
result: importing the package, loading the spec or scenario, compiling
the networks, planning and (serve-day) building latency profiles.
``cold(store_dir)`` performs the workload against the empty result
store in *store_dir*; ``warm(store_dir)`` performs it again through a
fresh store object over the populated directory.  Both return an
:class:`Outcome` counting the operations attempted and failed.

Every output is checked, and a failed check is a failed operation, not
an exception: simulated statistics are deterministic, so they are
compared for exact equality against committed goldens.

The module imports nothing from ``repro`` at import time, so that the
timed set-up includes the package imports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

#: The paper-suite experiments: those whose full-fidelity series
#: ``tests/golden/suite_series.json`` pins, minus the L1/scheduler
#: sweeps (fig02, fig07, fig13-fig16) that l1-sweep covers and whose
#: full-outer and GK210 runs alone would cost about 65 s cold.
PAPER_SUITE_IDS = (
    "table1", "table2", "table3", "table4",
    "fig01", "fig03", "fig04", "fig05", "fig06",
    "fig08", "fig09", "fig10", "fig11", "fig12",
    "hetero",
)

#: ``ServeStats.digest()`` of examples/day_in_the_life.toml at light
#: fidelity under the scenario's own seed, recorded when the benchmark
#: was defined.  A different digest is a different serving model.
SERVE_DAY_DIGEST = "54d4e53ffe7a4583f064604d104b80bc1b796fb4b70dba26bdde730e6d12014b"


@dataclass
class Outcome:
    """Operations attempted, and one problem line per failed operation."""

    attempted: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.problems.extend(other.problems)


def _as_json(value):
    """*value* after a JSON round trip (tuples become lists, as in goldens)."""
    return json.loads(json.dumps(value))


class PaperSuite:
    """The paper's own artifact: 15 tables and figures at default fidelity.

    A pass is the body of ``repro.harness.suite.run_all`` written out
    with the ``repro.runs`` API, so that a run that raises and an
    experiment that raises each count as one failed operation instead
    of ending the pass.  Operations are the plan's unique runs plus the
    experiments.
    """

    name = "paper-suite"

    def __init__(self, root: Path, seed: int, ctx=None,
                 golden_path: Path | None = None) -> None:
        self.root = Path(root)
        self.seed = seed
        self.ctx = ctx
        self.golden_path = golden_path or self.root / "tests/golden/suite_series.json"

    def setup(self, store_dir: Path) -> None:
        from repro.core.suite import NETWORK_ORDER
        from repro.kernels.compile import compiled_network
        from repro.runs import PlanContext, build_plan
        from repro.runs.registry import all_experiments

        self.golden = json.loads(self.golden_path.read_text())
        experiments = all_experiments()
        self.experiments = [experiments[exp_id] for exp_id in PAPER_SUITE_IDS]
        self.ctx = self.ctx or PlanContext()
        self.plan = build_plan(self.experiments, self.ctx)
        for network in self.ctx.nets(NETWORK_ORDER):
            compiled_network(network)

    def cold(self, store_dir: Path) -> Outcome:
        return self._pass(store_dir)

    def warm(self, store_dir: Path) -> Outcome:
        return self._pass(store_dir)

    def _pass(self, store_dir: Path) -> Outcome:
        from repro.runs import Executor, ResultStore, run_experiment

        executor = Executor(ResultStore(store_dir))
        report = executor.execute(self.plan, jobs=1)
        outcome = Outcome(attempted=len(self.plan.specs) + len(self.experiments))
        outcome.problems.extend(f"run {error}" for error in report.failed.values())
        for experiment in self.experiments:
            exp_id = experiment.exp_id
            try:
                result = run_experiment(experiment, executor, self.ctx)
            except Exception as exc:  # one experiment is one operation
                outcome.problems.append(f"{exp_id}: {type(exc).__name__}: {exc}")
                continue
            failed_checks = [check.claim for check in result.checks if not check.passed]
            if _as_json(result.series) != self.golden.get(exp_id):
                outcome.problems.append(f"{exp_id}: series differ from the golden")
            elif failed_checks:
                outcome.problems.append(f"{exp_id}: check failed: {failed_checks[0]}")
        return outcome


class L1Sweep:
    """The Fig-2 L1D x scheduler x batch campaign at light fidelity.

    Operations are the campaign's points; a skipped point is a failed
    one, and so is a frontier that differs from the committed golden.
    """

    name = "l1-sweep"

    def __init__(self, root: Path, seed: int, spec_path: Path | None = None,
                 golden_path: Path | None = None) -> None:
        self.root = Path(root)
        self.seed = seed
        self.spec_path = spec_path or self.root / "examples/l1_sweep_campaign.toml"
        self.golden_path = golden_path or self.root / "examples/l1_sweep_frontier.json"

    def setup(self, store_dir: Path) -> None:
        from repro.campaign import load_campaign, plan_campaign
        from repro.kernels.compile import compiled_network

        self.golden = json.loads(self.golden_path.read_text())
        self.spec = load_campaign(self.spec_path)
        plan = plan_campaign(self.spec)
        for network in dict.fromkeys(run.network for run in plan.specs):
            compiled_network(network)

    def cold(self, store_dir: Path) -> Outcome:
        return self._pass(store_dir)

    def warm(self, store_dir: Path) -> Outcome:
        return self._pass(store_dir)

    def _pass(self, store_dir: Path) -> Outcome:
        from repro.campaign import compare_frontiers, run_campaign
        from repro.runs import ResultStore

        result = run_campaign(self.spec, store=ResultStore(store_dir), jobs=1)
        outcome = Outcome(attempted=result.plan.requested)
        outcome.problems.extend(
            f"point {point['axes']}: {point['error']}" for point in result.skipped
        )
        frontier = _as_json(result.frontier_payload())
        report = compare_frontiers(self.golden, frontier)
        if not report["ok"]:
            outcome.problems.append(
                f"frontier regressed: {len(report['retreats'])} retreats, "
                f"{len(report['dominated'])} dominated, errors {report['errors']}"
            )
        elif frontier != self.golden:
            outcome.problems.append("frontier differs from the golden")
        return outcome


class ServeDay:
    """examples/day_in_the_life.toml: 1M requests over 100 GP102s.

    The workload seed replaces the scenario's seed, so it drives every
    arrival stream.  Under the scenario's own seed the stats digest must
    equal *digest*; under any other seed the run is checked for
    conservation, offered = completed + shed, fleet-wide and per tenant.
    Sheds are model output, not failures.

    The cold pass is the scenario run, the workload's one operation.  The
    warm pass is what a second ``repro serve --scenario`` pays before
    serving: the latency profiles rebuilt through a fresh store object
    over the populated store, which times two store reads, not a serving
    pass.  A rebuild is no operation, unless its profiles differ from the
    set-up's: then it counts as one attempted and failed.
    """

    name = "serve-day"

    def __init__(self, root: Path, seed: int, scenario_path: Path | None = None,
                 digest: str = SERVE_DAY_DIGEST) -> None:
        self.root = Path(root)
        self.seed = seed
        self.scenario_path = scenario_path or self.root / "examples/day_in_the_life.toml"
        self.digest = digest

    def setup(self, store_dir: Path) -> None:
        from dataclasses import replace

        from repro.serve import load_scenario

        self.scenario = load_scenario(self.scenario_path)
        self.config = replace(self.scenario.config, seed=self.seed)
        self.profiles = self._profiles(store_dir)

    def _profiles(self, store_dir: Path) -> dict:
        from repro.gpu.config import SimOptions
        from repro.platforms import make_config
        from repro.runs import ResultStore
        from repro.serve import build_profiles

        scenario = self.scenario
        platforms = [device.platform for device in scenario.fleet()]
        if scenario.autoscale is not None:
            platforms.append(make_config(scenario.autoscale.template))
        return build_profiles(
            list(scenario.networks), platforms, SimOptions().light(),
            ResultStore(store_dir),
        )

    def cold(self, store_dir: Path) -> Outcome:
        from repro.serve import run_serve

        scenario = self.scenario
        stats = run_serve(
            scenario.fleet(), self.profiles, scenario.workload(), self.config,
            pipeline=scenario.pipeline(),
        )
        outcome = Outcome(attempted=1)
        if self.seed == scenario.seed:
            if stats.digest() != self.digest:
                outcome.problems.append(
                    f"stats digest {stats.digest()} != recorded {self.digest}"
                )
            return outcome
        counts = [("fleet", stats.offered, stats.completed, stats.shed)] + [
            (name, tenant.offered, tenant.completed, tenant.shed)
            for name, tenant in stats.per_tenant.items()
        ]
        for name, offered, completed, shed in counts:
            if offered != completed + shed:
                outcome.problems.append(
                    f"{name}: offered {offered} != completed {completed} + shed {shed}"
                )
        return outcome

    def warm(self, store_dir: Path) -> Outcome:
        rebuilt = self._profiles(store_dir)
        expected = {key: profile.to_dict() for key, profile in self.profiles.items()}
        if {key: profile.to_dict() for key, profile in rebuilt.items()} != expected:
            return Outcome(attempted=1, problems=["warm latency profiles differ from the set-up's"])
        return Outcome()


WORKLOADS = {cls.name: cls for cls in (PaperSuite, L1Sweep, ServeDay)}
