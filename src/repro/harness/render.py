"""Terminal rendering of experiment results: bar charts and stacks.

The paper's figures are bar charts; this module renders the harness's
series as unicode bar charts so a full reproduction can be *seen* in a
terminal without a plotting stack:

    python -m repro harness run fig02 --chart
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.harness.report import ExperimentResult

#: Width of the bar area in characters.
BAR_WIDTH = 44
_BLOCKS = " ▏▎▍▌▋▊▉█"


def _bar(value: float, peak: float, width: int = BAR_WIDTH) -> str:
    """A unicode bar scaled so *peak* fills *width* characters."""
    if peak <= 0:
        return ""
    cells = value / peak * width
    full = int(cells)
    frac = int((cells - full) * (len(_BLOCKS) - 1))
    return "█" * full + (_BLOCKS[frac] if frac else "")


def _numeric_items(data: Mapping[str, Any]) -> list[tuple[str, float]]:
    out = []
    for key, value in data.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            out.append((str(key), float(value)))
    return out


def render_series(label: str, data: Mapping[str, Any], log_note: bool = False) -> str:
    """Render one flat series as a labelled bar chart."""
    items = _numeric_items(data)
    if not items:
        return ""
    peak = max(value for _, value in items) or 1.0
    key_width = max(len(key) for key, _ in items)
    lines = [f"{label}:"]
    for key, value in items:
        lines.append(f"  {key:<{key_width}} {_bar(value, peak)} {value:g}")
    return "\n".join(lines)


def render_experiment(result: ExperimentResult) -> str:
    """Render every chartable series of *result*.

    Flat numeric series ({name: value}) render directly; nested series
    ({group: {name: value}}) render one chart per group.
    """
    sections = [f"### {result.exp_id}: {result.title}"]
    for label, data in result.series.items():
        if not isinstance(data, Mapping):
            continue
        items = _numeric_items(data)
        if items:
            sections.append(render_series(label, data))
            continue
        # Nested: one chart per sub-mapping (e.g. per-network breakdowns).
        for group, sub in data.items():
            if isinstance(sub, Mapping) and _numeric_items(sub):
                sections.append(render_series(f"{label} / {group}", sub))
    return "\n\n".join(section for section in sections if section)
