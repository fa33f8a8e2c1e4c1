"""Campaign expansion: axis grids -> points -> deduped run plans.

A :class:`~repro.campaign.spec.CampaignSpec` names value lists for the
six sweep axes; this module turns them into concrete
:class:`CampaignPoint` s (cartesian or zipped, minus filtered combos)
and lowers each point onto the existing run pipeline: one point maps to
exactly one :class:`~repro.runs.spec.RunSpec`, and points that differ
only in axes the simulator cannot observe (``batch``, which is modelled
analytically from the batch-1 run) collapse onto the same spec.  The
resulting :class:`CampaignPlan` is the campaign-scale analogue of
:class:`repro.runs.planner.Plan`: thousands of requested runs, deduped
by content key, executed once each through the shared
:class:`~repro.runs.executor.Executor` and the content-addressed store
— which is what makes campaign re-runs incremental and effectively
free when warm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.gpu.config import SimOptions, sim_options
from repro.obs.tracer import WALL_S, get_tracer
from repro.platforms import make_config
from repro.runs.spec import RunSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.campaign.spec import CampaignSpec

#: Axis names in canonical expansion order (slowest-varying first).
AXIS_ORDER = ("network", "platform", "l1_kb", "scheduler", "fidelity", "batch")


@dataclass(frozen=True)
class CampaignPoint:
    """One concrete design point of a campaign sweep."""

    network: str
    platform: str
    #: L1D size override in KB (``None`` keeps the platform default).
    l1_kb: int | None
    scheduler: str
    fidelity: str
    batch: int

    def axes(self) -> dict:
        """JSON-ready axis values, ``l1_kb`` resolved to real KB."""
        return {
            "network": self.network,
            "platform": self.platform,
            "l1_kb": self.resolved_l1_kb(),
            "scheduler": self.scheduler,
            "fidelity": self.fidelity,
            "batch": self.batch,
        }

    def resolved_l1_kb(self) -> int:
        """The effective L1D size in KB (platform default resolved)."""
        if self.l1_kb is not None:
            return self.l1_kb
        return make_config(self.platform).l1_size // 1024

    def describe(self) -> str:
        """One-line human identity, stable across runs."""
        return (
            f"{self.network}@{self.platform}"
            f" l1={self.resolved_l1_kb()}K sched={self.scheduler}"
            f" fid={self.fidelity} b={self.batch}"
        )


def point_options(point: CampaignPoint) -> SimOptions:
    """The :class:`SimOptions` a point's simulation runs under."""
    return sim_options(point.scheduler, point.fidelity)


def point_spec(point: CampaignPoint) -> RunSpec:
    """Lower one point onto the run pipeline.

    ``batch`` deliberately does not appear in the spec: batch-``b``
    behaviour is derived analytically from the batch-1 simulation
    (:mod:`repro.serve.profiles`), so every batch variant of a combo
    shares — and dedupes onto — a single simulated run.
    """
    config = make_config(point.platform, l1_kb=point.l1_kb)
    return RunSpec(point.network, config, point_options(point))


def _value_of(point: CampaignPoint, axis: str):
    """A point's value on *axis*, with ``l1_kb`` resolved."""
    if axis == "l1_kb":
        return point.resolved_l1_kb()
    return getattr(point, axis)


def _matches_filter(point: CampaignPoint, rule: dict) -> bool:
    """True when the point matches *every* axis constraint of *rule*."""
    for axis, values in rule.items():
        if _value_of(point, axis) not in values:
            return False
    return True


def expand_points(spec: "CampaignSpec") -> tuple[CampaignPoint, ...]:
    """All requested design points: cartesian or zipped, minus filters."""
    grids = [spec.axis(name) for name in AXIS_ORDER]
    if spec.mode == "zip":
        length = max(len(grid) for grid in grids)
        # Single-value axes broadcast along the zip; the spec validator
        # guarantees every other axis has exactly `length` values.
        rows: Iterable[tuple] = zip(
            *(grid * length if len(grid) == 1 else grid for grid in grids)
        )
    else:
        rows = itertools.product(*grids)
    points = [CampaignPoint(*row) for row in rows]
    if spec.filters:
        points = [
            point
            for point in points
            if not any(_matches_filter(point, rule) for rule in spec.filters)
        ]
    return tuple(points)


@dataclass
class CampaignPlan:
    """A campaign lowered onto the run pipeline, deduped by content key."""

    #: Every requested point, in expansion order.
    points: tuple[CampaignPoint, ...] = ()
    #: The point-aligned specs (``specs_by_point[i]`` runs ``points[i]``).
    specs_by_point: tuple[RunSpec, ...] = ()
    #: Unique specs in first-seen order — what the executor simulates.
    specs: tuple[RunSpec, ...] = ()

    @property
    def requested(self) -> int:
        """RunSpecs requested before deduplication (one per point)."""
        return len(self.points)

    @property
    def deduped(self) -> int:
        """Requested runs that collapsed onto an already-planned spec."""
        return self.requested - len(self.specs)

    def describe(self) -> str:
        """Planner-style log: points -> requested -> unique runs."""
        return (
            f"[campaign] {self.requested} points -> "
            f"{self.requested} requested runs -> {len(self.specs)} unique "
            f"({self.deduped} deduplicated)"
        )


def plan_campaign(spec: "CampaignSpec") -> CampaignPlan:
    """Expand a campaign and dedupe its runs into a minimal matrix."""
    tracer = get_tracer()
    start = tracer.wall()
    points = expand_points(spec)
    specs_by_point = tuple(point_spec(point) for point in points)
    seen: set[str] = set()
    unique: list[RunSpec] = []
    for run in specs_by_point:
        key = run.key()
        if key not in seen:
            seen.add(key)
            unique.append(run)
    plan = CampaignPlan(
        points=points, specs_by_point=specs_by_point, specs=tuple(unique)
    )
    if tracer.enabled:
        tracer.metrics.counter("campaign.points").inc(plan.requested)
        tracer.metrics.counter("campaign.unique_runs").inc(len(plan.specs))
        tracer.metrics.counter("campaign.deduped").inc(plan.deduped)
        tracer.span(
            f"plan {spec.name}", "campaign", WALL_S,
            start, tracer.wall() - start,
            process="campaign", thread="planner",
            args={
                "campaign": spec.name,
                "points": plan.requested,
                "unique": len(plan.specs),
            },
        )
    return plan
