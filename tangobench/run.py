"""Benchmark entry point: run one workload, print its metrics as one JSON line.

    python3 tangobench/run.py --workload paper-suite --seed 1 --seconds 4 --trace 0

Run it from the root of a checkout.  Every figure comes from fresh
child interpreters (``tangobench/child.py``), one at a time, with
``src`` on ``PYTHONPATH``, ``PYTHONHASHSEED`` pinned, ``REPRO_ENGINE``,
``REPRO_SERVE_LOOP`` and ``REPRO_CACHE_DIR`` removed from the
environment, and DeprecationWarnings raised as errors.  Their stores
live under ``.tangobench/`` and are removed at the end.

``--trace 0`` reports the end-to-end metrics.  One cold child runs
set-up and the pass against an empty store: ``cold_s`` and
``peak_rss_mb``.  WARM_CHILDREN warm children then each run set-up and
repeat the warm pass over that populated store, sharing ``--seconds``
between them: ``warm_s`` is the median of every warm pass, ``setup_s``
the median of all the children's set-ups.  ``--trace 1`` runs one
untraced cold child, then a child with every layer's entry points
wrapped (``tangobench/layers.py``) that runs set-up, one cold and one
warm pass, and reports the per-layer metrics plus
``obs.overhead_ratio``, traced over untraced ``cold_s``.

Times are host seconds scaled to a reference host speed
(``child.scaled_seconds``): each window is multiplied by a fixed
reference over the mean duration of a probe loop the child ran every
10 ms during the window.  Raw windows, probe means and the traced run's
Chrome trace are kept under ``.tangobench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import scaled_seconds
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
#: Warm children per run.  Each also times one set-up, so setup_s is a
#: median of WARM_CHILDREN + 1 interpreters.
WARM_CHILDREN = 4
#: Wall-clock budget of one run; a child still running then is killed.
DEADLINE_S = 175.0
#: Environment knobs that would select a non-default engine, loop or store.
CLEARED_ENV = ("REPRO_ENGINE", "REPRO_SERVE_LOOP", "REPRO_CACHE_DIR")


class BenchError(Exception):
    """A child interpreter failed, or the run ran out of time."""


class Children:
    """Starts the child interpreters of one run."""

    def __init__(self, root: Path, work: Path, args: argparse.Namespace) -> None:
        self.root = root
        self.work = work
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (str(root / "src"), env.get("PYTHONPATH")) if path
        )
        # String hashing decides dict and set layouts; a per-process
        # random seed makes timings differ between children.
        env["PYTHONHASHSEED"] = "0"
        env["TMPDIR"] = str(work)
        self.env = env

    def run(self, phase: str, store: Path, *extra: str) -> dict:
        run_dir = Path(tempfile.mkdtemp(prefix=f"{phase}-", dir=self.work))
        out = run_dir / "figures.json"
        command = [
            sys.executable, "-W", "error::DeprecationWarning", str(HERE / "child.py"),
            "--workload", self.args.workload, "--phase", phase,
            "--seed", str(self.args.seed), "--store", str(store),
            "--out", str(out), *extra,
        ]
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"no time left for the {phase} child")
        try:
            proc = subprocess.run(
                command, cwd=self.root, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(
                f"the {phase} child was still running after {DEADLINE_S:.0f} s"
            ) from None
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-20:])
            raise BenchError(f"the {phase} child exited with {proc.returncode}:\n{tail}")
        return json.loads(out.read_text())


def measure(children: Children, warm_seconds: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the raw figures behind them."""
    store = children.work / "store"
    cold = children.run("cold", store)
    warms = [
        children.run("warm", store, "--warm-seconds", str(warm_seconds / WARM_CHILDREN))
        for _ in range(WARM_CHILDREN)
    ]
    setup = [scaled_seconds(run["setup_window"]) for run in [cold, *warms]]
    warm = [scaled_seconds(window) for run in warms for window in run["warm_windows"]]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cold_s": (scaled_seconds(cold["cold_window"]), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "peak_rss_mb": (cold["peak_rss_mb"], "MB"),
    }
    raw = {
        "cold": cold,
        "warm": warms,
        "setup_samples_s": setup,
        "warm_samples_s": warm,
        "attempted": sum(run["attempted"] for run in [cold, *warms]),
        "problems": [problem for run in [cold, *warms] for problem in run["problems"]],
    }
    return metrics, raw


def trace(children: Children, trace_path: Path) -> tuple[dict, dict]:
    """The per-layer metrics and the raw figures behind them."""
    plain = children.run("cold", children.work / "untraced-store")
    traced = children.run("traced", children.work / "traced-store",
                          "--trace-out", str(trace_path))
    metrics = {name: tuple(pair) for name, pair in traced["per_layer"].items()}
    metrics["obs.overhead_ratio"] = (
        scaled_seconds(traced["cold_window"]) / scaled_seconds(plain["cold_window"]),
        "ratio",
    )
    raw = {
        **traced,
        "untraced": plain,
        "attempted": plain["attempted"] + traced["attempted"],
        "problems": plain["problems"] + traced["problems"],
    }
    return metrics, raw


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the warm children repeat the warm pass, in all")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro").is_dir():
        print(f"tangobench: no src/repro under {root}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    results = root / ".tangobench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=results.parent))
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}")
    try:
        children = Children(root, work, args)
        if args.trace:
            metrics, raw = trace(children, results / f"{name}.trace.json")
        else:
            metrics, raw = measure(children, args.seconds)
    except BenchError as exc:
        print(f"tangobench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = raw["problems"]
    (results / f"{name}.json").write_text(
        json.dumps({"args": vars(args), "metrics": metrics, "raw": raw}, indent=1)
    )
    for line in problems[:20]:
        print(f"FAILED {line}")
    for metric, (value, unit) in metrics.items():
        print(f"{args.workload} {metric} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": raw["attempted"],
        "failed": len(problems),
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
