"""Regenerate the golden series files (run from the repo root).

    PYTHONPATH=src python tests/golden/regen.py fixture      # seconds
    PYTHONPATH=src python tests/golden/regen.py full         # minutes
    PYTHONPATH=src python tests/golden/regen.py campaign     # < 1 minute
    PYTHONPATH=src python tests/golden/regen.py serve-scale  # seconds
    PYTHONPATH=src python tests/golden/regen.py day-in-the-life  # < 1 minute

``campaign`` rewrites the committed golden Pareto frontiers in
``examples/`` (``smoke_frontier.json``, ``l1_sweep_frontier.json``)
that ``repro campaign compare`` and CI's campaign-smoke job gate on.
``serve-scale`` rewrites ``serve_scale.digest``, the stats digest of
``examples/serve_scale.toml`` at light fidelity that CI's serve-scale
job gates on; ``day-in-the-life`` rewrites ``day_in_the_life.digest``
the same way for ``examples/day_in_the_life.toml`` (1M requests, every
open-loop shape plus a closed loop).

Only regenerate for an *intentional* behavioral change (engine bump,
new network weights, QoR-model change); the tests pin these bytes on
purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from test_golden_series import FIXTURE_CTX, canonical, series_of  # noqa: E402

GOLDEN_DIR = Path(__file__).parent
EXAMPLES_DIR = GOLDEN_DIR.parents[1] / "examples"

#: campaign spec -> committed golden frontier, both under examples/.
CAMPAIGN_GOLDENS = (
    ("smoke_campaign.toml", "smoke_frontier.json"),
    ("l1_sweep_campaign.toml", "l1_sweep_frontier.json"),
)


def regen_campaigns() -> None:
    from repro.campaign import load_campaign, run_campaign
    from repro.runs import ResultStore

    store = ResultStore()
    for spec_name, golden_name in CAMPAIGN_GOLDENS:
        spec = load_campaign(EXAMPLES_DIR / spec_name)
        result = run_campaign(spec, store=store, jobs=4)
        if not result.ok:
            raise SystemExit(
                f"{spec.name}: {len(result.skipped)} point(s) failed; "
                f"refusing to write a partial golden frontier"
            )
        path = EXAMPLES_DIR / golden_name
        path.write_text(json.dumps(result.frontier_payload(), indent=2) + "\n")
        print(f"wrote {path}")


#: serve scenario under examples/ -> committed stats digest golden.
SERVE_GOLDENS = {
    "serve-scale": ("serve_scale.toml", "serve_scale.digest"),
    "day-in-the-life": ("day_in_the_life.toml", "day_in_the_life.digest"),
}


def regen_serve_digest(scenario_name: str, golden_name: str) -> None:
    from repro.gpu.config import SimOptions
    from repro.platforms import make_config
    from repro.runs import ResultStore
    from repro.serve import build_profiles, load_scenario, run_serve

    scenario = load_scenario(EXAMPLES_DIR / scenario_name)
    fleet = scenario.fleet()
    platforms = [device.platform for device in fleet]
    if scenario.autoscale is not None:
        platforms.append(make_config(scenario.autoscale.template))
    profiles = build_profiles(
        list(scenario.networks), platforms, SimOptions().light(), ResultStore(),
    )
    stats = run_serve(
        fleet, profiles, scenario.workload(), scenario.config,
        pipeline=scenario.pipeline(),
    )
    path = GOLDEN_DIR / golden_name
    path.write_text(stats.digest() + "\n")
    print(f"wrote {path}")


def main() -> None:
    which = sys.argv[1] if len(sys.argv) > 1 else "fixture"
    if which == "fixture":
        path = GOLDEN_DIR / "fixture_series.json"
        path.write_text(canonical(series_of(FIXTURE_CTX)) + "\n")
    elif which == "full":
        path = GOLDEN_DIR / "suite_series.json"
        path.write_text(canonical(series_of()) + "\n")
    elif which == "campaign":
        regen_campaigns()
        return
    elif which.removeprefix("--") in SERVE_GOLDENS:
        regen_serve_digest(*SERVE_GOLDENS[which.removeprefix("--")])
        return
    else:
        raise SystemExit(
            f"unknown target {which!r} "
            f"(expected fixture|full|campaign|serve-scale|day-in-the-life)"
        )
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
