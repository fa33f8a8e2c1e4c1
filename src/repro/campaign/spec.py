"""Declarative campaign specs: files (TOML/JSON) or dicts -> validated grids.

A campaign describes a design-space sweep over six axes —

    network x platform x l1_kb x scheduler x fidelity x batch

— as data rather than code, the way the VTR task runner describes flow
sweeps.  The grammar (TOML shown; the JSON/dict form is the same tree):

.. code-block:: toml

    [campaign]
    name = "l1-sweep"              # required
    description = "..."            # optional
    mode = "cartesian"             # "cartesian" (default) or "zip"
    fidelity = "light"             # base fidelity when not an axis

    [axes]                         # every axis takes a value list
    network = ["alexnet", "gru"]   # required, validated vs the suite
    platform = ["gp102"]           # validated vs platforms.registry
    l1_kb = [0, 64, 128, 256]      # KB; "default" keeps the platform L1
    scheduler = ["gto", "lrr"]     # warp schedulers
    batch = [1, 4, 8]              # inference batch sizes

    [[filters]]                    # drop points matching ALL entries
    network = ["gru", "lstm"]
    l1_kb = [128, 256]

    [frontier]                     # optional
    objectives = ["latency_ms", "energy_per_inf_j", "footprint_kb"]
    tolerance = 0.02               # compare tolerance (relative)

``mode = "zip"`` pairs the axes element-wise instead of taking the
cross product: every multi-valued axis must then have the same length
(single-valued axes broadcast).  Objectives minimize by default; prefix
with ``max:`` to maximize (e.g. ``"max:throughput_rps"``).

Everything is validated at load time — unknown networks, platforms,
schedulers, metrics, axes or filter axes raise :class:`CampaignError`
with the offending value named — so a campaign that plans at all can
execute.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.expand import AXIS_ORDER
from repro.campaign.qor import QOR_METRICS
from repro.core.suite import EXTENSION_NETWORKS, NETWORK_ORDER
from repro.gpu.config import FIDELITIES, WARP_SCHEDULERS
from repro.platforms import list_platforms
from repro.specfile import load_spec_file

#: Default Pareto objectives: the paper's cycles/energy/footprint
#: trade-off, batch-amortized.  All minimized.
DEFAULT_OBJECTIVES = ("latency_ms", "energy_per_inf_j", "footprint_kb")

#: Expansion-size guard: campaigns beyond this are almost certainly a
#: spec typo (e.g. a batch list pasted into l1_kb).
MAX_POINTS = 1_000_000


class CampaignError(ValueError):
    """A malformed or unsatisfiable campaign spec."""


@dataclass(frozen=True)
class CampaignSpec:
    """One validated campaign: metadata, axis grids, filters, frontier."""

    name: str
    description: str = ""
    #: "cartesian" (cross product) or "zip" (element-wise pairing).
    mode: str = "cartesian"
    #: axis name -> value tuple, complete over :data:`AXIS_ORDER`.
    axes: dict = field(default_factory=dict)
    #: Drop rules: a point matching every entry of any rule is dropped.
    filters: tuple = ()
    #: ``(metric, sign)`` pairs; sign +1 minimizes, -1 maximizes.
    objectives: tuple = ()
    #: Relative tolerance for golden-frontier comparison.
    tolerance: float = 0.02

    def axis(self, name: str) -> tuple:
        """The validated value tuple of one axis."""
        return self.axes[name]

    def objective_labels(self) -> tuple[str, ...]:
        """Objectives in their serialized ``min:metric`` spelling."""
        return tuple(
            f"{'min' if sign > 0 else 'max'}:{metric}"
            for metric, sign in self.objectives
        )


def _fail(message: str) -> "CampaignError":
    return CampaignError(f"campaign spec: {message}")


def _as_tuple(value) -> tuple:
    """A single scalar or a list, as a tuple."""
    if isinstance(value, (list, tuple)):
        return tuple(value)
    return (value,)


def _known_networks() -> tuple[str, ...]:
    return tuple(NETWORK_ORDER) + tuple(EXTENSION_NETWORKS)


def _validate_axis(name: str, values: tuple) -> tuple:
    """One axis' values: typed, known, non-empty, deduplicated."""
    if not values:
        raise _fail(f"axis {name!r} has no values")
    if len(set(values)) != len(values):
        raise _fail(f"axis {name!r} repeats a value: {list(values)}")
    if name == "network":
        known = _known_networks()
        for value in values:
            if value not in known:
                raise _fail(
                    f"unknown network {value!r}; available: {', '.join(known)}"
                )
        return values
    if name == "platform":
        known = list_platforms()
        out = []
        for value in values:
            if not isinstance(value, str) or value.lower() not in known:
                raise _fail(
                    f"unknown platform {value!r}; available: {', '.join(known)}"
                )
            out.append(value.lower())
        return tuple(out)
    if name == "l1_kb":
        out = []
        for value in values:
            if value == "default":
                out.append(None)
            elif isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise _fail(
                    f"l1_kb values must be KB integers >= 0 or 'default', "
                    f"got {value!r}"
                )
            else:
                out.append(value)
        return tuple(out)
    if name == "scheduler":
        for value in values:
            if value not in WARP_SCHEDULERS:
                raise _fail(
                    f"unknown scheduler {value!r}; "
                    f"available: {', '.join(WARP_SCHEDULERS)}"
                )
        return values
    if name == "fidelity":
        for value in values:
            if value not in FIDELITIES:
                raise _fail(
                    f"unknown fidelity {value!r}; "
                    f"available: {', '.join(FIDELITIES)}"
                )
        return values
    if name == "batch":
        for value in values:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise _fail(f"batch values must be integers >= 1, got {value!r}")
        return values
    raise _fail(f"unknown axis {name!r}; known axes: {', '.join(AXIS_ORDER)}")


def _validate_filters(raw_filters) -> tuple:
    rules = []
    for rule in raw_filters:
        if not isinstance(rule, dict) or not rule:
            raise _fail(f"each [[filters]] entry must be a non-empty table, got {rule!r}")
        clean = {}
        for axis, values in rule.items():
            if axis not in AXIS_ORDER:
                raise _fail(
                    f"filter names unknown axis {axis!r}; "
                    f"known axes: {', '.join(AXIS_ORDER)}"
                )
            clean[axis] = _as_tuple(values)
        rules.append(clean)
    return tuple(rules)


def _parse_objective(raw: str) -> tuple[str, int]:
    sign = 1
    metric = raw
    if ":" in raw:
        direction, metric = raw.split(":", 1)
        if direction == "max":
            sign = -1
        elif direction != "min":
            raise _fail(
                f"objective direction must be 'min' or 'max', got {raw!r}"
            )
    if metric not in QOR_METRICS:
        raise _fail(
            f"unknown QoR metric {metric!r}; "
            f"available: {', '.join(QOR_METRICS)}"
        )
    return metric, sign


def campaign_from_dict(data: dict) -> CampaignSpec:
    """Validate a raw spec tree into a :class:`CampaignSpec`."""
    if not isinstance(data, dict):
        raise _fail(f"expected a table/dict at the top level, got {type(data).__name__}")
    meta = data.get("campaign", {})
    if not isinstance(meta, dict) or not meta.get("name"):
        raise _fail("missing [campaign] name")
    mode = meta.get("mode", "cartesian")
    if mode not in ("cartesian", "zip"):
        raise _fail(f"mode must be 'cartesian' or 'zip', got {mode!r}")
    base_fidelity = meta.get("fidelity", "default")
    if base_fidelity not in FIDELITIES:
        raise _fail(
            f"unknown fidelity {base_fidelity!r}; "
            f"available: {', '.join(FIDELITIES)}"
        )

    raw_axes = data.get("axes", {})
    if not isinstance(raw_axes, dict):
        raise _fail("[axes] must be a table of value lists")
    unknown = [name for name in raw_axes if name not in AXIS_ORDER]
    if unknown:
        raise _fail(
            f"unknown axis {unknown[0]!r}; known axes: {', '.join(AXIS_ORDER)}"
        )
    if "network" not in raw_axes:
        raise _fail("axis 'network' is required")
    defaults = {
        "platform": ("gp102",),
        "l1_kb": (None,),
        "scheduler": ("gto",),
        "fidelity": (base_fidelity,),
        "batch": (1,),
    }
    axes = {}
    for name in AXIS_ORDER:
        if name in raw_axes:
            axes[name] = _validate_axis(name, _as_tuple(raw_axes[name]))
        else:
            axes[name] = defaults[name]

    if mode == "zip":
        lengths = {len(values) for values in axes.values() if len(values) > 1}
        if len(lengths) > 1:
            detail = ", ".join(
                f"{name}={len(values)}" for name, values in axes.items()
            )
            raise _fail(f"zip mode needs equal-length axes, got {detail}")
        size = lengths.pop() if lengths else 1
    else:
        size = 1
        for values in axes.values():
            size *= len(values)
    if size > MAX_POINTS:
        raise _fail(f"campaign expands to {size} points (limit {MAX_POINTS})")

    filters = _validate_filters(data.get("filters", ()))

    frontier = data.get("frontier", {})
    if not isinstance(frontier, dict):
        raise _fail("[frontier] must be a table")
    raw_objectives = frontier.get("objectives", list(DEFAULT_OBJECTIVES))
    objectives = tuple(_parse_objective(raw) for raw in _as_tuple(raw_objectives))
    if not objectives:
        raise _fail("frontier objectives must not be empty")
    tolerance = frontier.get("tolerance", 0.02)
    if not isinstance(tolerance, (int, float)) or tolerance < 0:
        raise _fail(f"frontier tolerance must be >= 0, got {tolerance!r}")

    return CampaignSpec(
        name=str(meta["name"]),
        description=str(meta.get("description", "")),
        mode=mode,
        axes=axes,
        filters=filters,
        objectives=objectives,
        tolerance=float(tolerance),
    )


def load_campaign(source) -> CampaignSpec:
    """Load a campaign from a TOML/JSON file path or a raw dict.

    File format follows the suffix (``.toml`` / ``.json``); anything
    else is tried as TOML first, then JSON.  Parse errors, IO errors
    and validation errors all surface as :class:`CampaignError`.
    """
    if isinstance(source, dict):
        return campaign_from_dict(source)
    return load_spec_file(Path(source), campaign_from_dict, CampaignError, _fail)
