"""Pareto frontiers and golden-frontier QoR comparison.

The aggregation end of a campaign: project every QoR row onto the
spec's objective vector (signs applied so every objective minimizes),
filter dominated points, and diff the surviving frontier against a
committed golden frontier — regressions exit non-zero, improvements
are reported and tolerated.

Dominance here is the standard product order: ``a`` dominates ``b``
when ``a`` is no worse on every objective and strictly better on at
least one.  It is a strict partial order (irreflexive, antisymmetric,
transitive), which gives the frontier its algebra — the frontier of a
frontier is itself, and adding a dominated point never changes it;
``tests/test_campaign_frontier.py`` pins those properties with
hypothesis.

Comparison semantics (relative tolerance ``tol``, per objective,
on the sign-applied values):

* **frontier retreat** — a golden point no current point attains
  (``current <= golden * (1 + tol)`` component-wise, sign-adjusted).
  The capability the golden frontier promised is gone.
* **dominated point** — a current frontier point some golden point
  dominates by more than ``tol`` on at least one objective.  The new
  frontier carries a point the old one strictly beat.

Either condition is a regression; a frontier that merely *gains*
points, or moves points inward (improvements), compares clean.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.campaign.qor import QorRow

#: Absolute slack added to every tolerance band so zero-valued
#: objectives never flap on float noise.
EPSILON = 1e-9

Objective = tuple[str, int]


def objective_vector(metrics: dict, objectives: Sequence[Objective]) -> tuple:
    """*metrics* projected onto the objectives, signs applied so every
    component minimizes."""
    return tuple(sign * float(metrics[name]) for name, sign in objectives)


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when vector *a* Pareto-dominates *b* (minimization)."""
    return all(x <= y for x, y in zip(a, b)) and any(
        x < y for x, y in zip(a, b)
    )


def pareto_frontier(
    rows: Iterable[QorRow], objectives: Sequence[Objective]
) -> list[QorRow]:
    """The non-dominated subset of *rows*, in first-seen order.

    Ties (identical objective vectors) all stay: none dominates the
    others, and which axes reach the same QoR point is itself signal.
    """
    rows = list(rows)
    vectors = [objective_vector(row.metrics, objectives) for row in rows]
    frontier = []
    for i, row in enumerate(rows):
        if not any(
            dominates(vectors[j], vectors[i])
            for j in range(len(rows))
            if j != i
        ):
            frontier.append(row)
    return frontier


def frontier_payload(
    name: str,
    objective_labels: Sequence[str],
    frontier: Sequence[QorRow],
    tolerance: float = 0.02,
) -> dict:
    """The golden-frontier JSON form of a computed frontier."""
    return {
        "campaign": name,
        "objectives": list(objective_labels),
        "tolerance": tolerance,
        "points": [row.to_dict() for row in frontier],
    }


def _band(value: float, tolerance: float) -> float:
    """The upper edge of *value*'s tolerance band."""
    return value + tolerance * abs(value) + EPSILON


def _attains(current: Sequence[float], golden: Sequence[float], tol: float) -> bool:
    """Current point is at least as good as golden, within tolerance."""
    return all(c <= _band(g, tol) for c, g in zip(current, golden))


def _beaten_beyond(
    current: Sequence[float], golden: Sequence[float], tol: float
) -> bool:
    """Golden dominates current by more than tolerance somewhere.

    The domination side is strict (no epsilon slack): two mutually
    non-dominated points can differ hugely on one objective and
    microscopically on another, and slack on the ``all`` side would
    flag them against each other — a frontier must always compare
    clean against itself.
    """
    return all(g <= c for g, c in zip(golden, current)) and any(
        _band(g, tol) < c for g, c in zip(golden, current)
    )


def _point_vectors(payload: dict, objectives: Sequence[Objective]) -> list[tuple]:
    return [
        objective_vector(point["metrics"], objectives)
        for point in payload.get("points", ())
    ]


def parse_objective_labels(labels: Sequence[str]) -> tuple[Objective, ...]:
    """``min:metric`` / ``max:metric`` labels back into objectives."""
    out = []
    for label in labels:
        direction, _, metric = label.partition(":")
        out.append((metric, -1 if direction == "max" else 1))
    return tuple(out)


def compare_frontiers(
    golden: dict, current: dict, tolerance: float | None = None
) -> dict:
    """Diff a current frontier payload against a committed golden one.

    Returns a JSON-ready report; ``report["ok"]`` is False on any
    regression (objective mismatch, frontier retreat, or a current
    point a golden point dominates beyond tolerance).  ``tolerance``
    defaults to the golden file's own (or 0.02).
    """
    report: dict = {
        "campaign": current.get("campaign", golden.get("campaign", "?")),
        "objectives": golden.get("objectives", []),
        "golden_points": len(golden.get("points", ())),
        "current_points": len(current.get("points", ())),
        "retreats": [],
        "dominated": [],
        "improvements": 0,
        "errors": [],
        "ok": True,
    }
    if tolerance is None:
        tolerance = golden.get("tolerance", 0.02)
    report["tolerance"] = tolerance
    if golden.get("objectives") != current.get("objectives"):
        report["errors"].append(
            f"objective mismatch: golden {golden.get('objectives')} "
            f"vs current {current.get('objectives')}"
        )
        report["ok"] = False
        return report
    objectives = parse_objective_labels(golden.get("objectives", ()))
    if not objectives:
        report["errors"].append("golden frontier declares no objectives")
        report["ok"] = False
        return report

    golden_vectors = _point_vectors(golden, objectives)
    current_vectors = _point_vectors(current, objectives)

    for g_point, g_vec in zip(golden["points"], golden_vectors):
        if not any(_attains(c_vec, g_vec, tolerance) for c_vec in current_vectors):
            report["retreats"].append(g_point)
    for c_point, c_vec in zip(current["points"], current_vectors):
        if any(_beaten_beyond(c_vec, g_vec, tolerance) for g_vec in golden_vectors):
            report["dominated"].append(c_point)
        elif any(
            dominates(c_vec, g_vec) and not _attains(g_vec, c_vec, tolerance)
            for g_vec in golden_vectors
        ):
            report["improvements"] += 1

    report["ok"] = not (report["retreats"] or report["dominated"] or report["errors"])
    return report


def format_compare(report: dict) -> str:
    """Human-readable rendering of a comparison report."""
    lines = [
        f"[compare] campaign {report['campaign']}: "
        f"{report['golden_points']} golden vs {report['current_points']} "
        f"current frontier points (tolerance {report['tolerance']:g})"
    ]
    for error in report["errors"]:
        lines.append(f"[compare]   ERROR {error}")
    for point in report["retreats"]:
        lines.append(f"[compare]   RETREAT golden point no longer attained: "
                     f"{point['axes']}")
    for point in report["dominated"]:
        lines.append(f"[compare]   DOMINATED current point beaten by golden: "
                     f"{point['axes']}")
    if report["improvements"]:
        lines.append(f"[compare]   {report['improvements']} current point(s) "
                     f"improve on the golden frontier")
    lines.append(
        "[compare] OK — frontier holds" if report["ok"]
        else "[compare] REGRESSION — frontier retreated"
    )
    return "\n".join(lines)
