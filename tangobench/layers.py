"""Per-layer timing from outside the program, for the traced run.

:class:`LayerTracer` swaps the public entry points listed in
:data:`TARGETS` for timing wrappers and puts the originals back on
:meth:`LayerTracer.uninstall`.  Each wrapped call becomes one span
(name, start, duration, parent span).  A span's self time is its
duration minus the parts its wrapped children cover, so the layers'
self times plus the unattributed remainder add up to the traced wall
time.

Two gaps are deliberate:

* the library's own tracer (``repro.obs``) stays off, because the serve
  engine's per-request spans would swamp a million-request run;
* calls made once per served request (admission and scheduling) are
  timed in aggregate, without spans.

A target that no longer exists, because its layer was renamed or folded
away, is skipped and listed in :attr:`LayerTracer.missing`; its metrics
then read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

from workloads import PAPER_SUITE_IDS

#: The seven paper networks, each with a ``gpu.network_s.<net>`` metric.
NETWORKS = ("gru", "lstm", "cifarnet", "alexnet", "squeezenet", "resnet", "vggnet")

#: Layers whose self times, with ``unattributed_s``, partition the
#: traced wall time.  Each is a package of ``repro``.
LAYERS = ("kernels", "analysis", "gpu", "power", "platforms", "mapping",
          "harness", "runs", "campaign", "serve")

#: Spans kept for the Chrome trace; later spans still count in every
#: total and show up as dropped events in the export.
MAX_SPANS = 200_000


def _wave_class():
    """The active engine's resident-wave class (its memory counters)."""
    from repro.gpu.engine import wave_class

    return wave_class()


#: (layer, key, module, owner, names, hot).  *owner* is a class name in
#: *module*, a callable returning the class, or None for module-level
#: functions.  Hot targets run once per served request and are timed in
#: aggregate, without spans.
TARGETS = (
    ("kernels", "kernels.compile", "repro.kernels.compile", None,
     ("compile_network",), False),
    ("analysis", "analysis.signature", "repro.analysis.canonical", None,
     ("canonical_signature",), False),
    ("analysis", "analysis.wave_class", "repro.analysis.canonical", None,
     ("wave_class",), False),
    ("gpu", "gpu.simulate_network", "repro.gpu.simulator", None,
     ("simulate_network",), False),
    ("gpu", "gpu.simulate_kernel", "repro.gpu.simulator", None,
     ("simulate_kernel",), False),
    ("gpu", "gpu.decode", "repro.gpu.decode", None, ("decode_program",), False),
    ("gpu", "gpu.wave", "repro.gpu.engine", _wave_class, ("run",), False),
    ("power", "power.gpuwattch", "repro.power.gpuwattch", "GpuWattchModel",
     ("component_energy_joules", "dynamic_energy_joules", "kernel_power",
      "stats_power", "peak_power", "peak_kernel", "category_power",
      "network_breakdown", "network_energy_joules"), False),
    ("power", "power.accel", "repro.power.accel", "AcceleratorPowerModel",
     ("dynamic_energy_joules", "stats_power", "peak_power",
      "network_energy_joules"), False),
    ("platforms", "platforms.pynq", "repro.platforms.pynq", "PynqZ1Model",
     ("estimate_layer", "run_network"), False),
    ("mapping", "mapping.plan", "repro.mapping.mapper", None, ("map_network",), False),
    ("mapping", "mapping.execute", "repro.mapping.execute", None,
     ("run_mapped_network",), False),
    ("harness", "harness.aggregate", "repro.runs.experiment", None,
     ("run_experiment",), False),
    ("runs", "runs.plan", "repro.runs.planner", None, ("build_plan",), False),
    ("runs", "runs.execute", "repro.runs.executor", "Executor", ("execute", "run"), False),
    ("runs", "runs.kernel_cache", "repro.runs.store", "KernelResultCache",
     ("get", "put"), False),
    ("runs", "runs.store_get", "repro.runs.store", "ResultStore", ("get_run",), False),
    ("runs", "runs.store_put", "repro.runs.store", "ResultStore", ("put_run",), False),
    ("runs", "runs.payload_decode", "repro.runs.store", None,
     ("result_from_payload",), False),
    ("campaign", "campaign.expand", "repro.campaign.expand", None,
     ("plan_campaign",), False),
    ("campaign", "campaign.qor", "repro.campaign.qor", "QorModel", ("row",), False),
    ("campaign", "campaign.frontier", "repro.campaign.frontier", None,
     ("pareto_frontier", "compare_frontiers"), False),
    ("campaign", "campaign.run", "repro.campaign.runner", None, ("run_campaign",), False),
    ("serve", "serve.scenario", "repro.serve.scenario", None, ("load_scenario",), False),
    ("serve", "serve.profiles", "repro.serve.profiles", None, ("build_profiles",), False),
    ("serve", "serve.run", "repro.serve.engine", "ServeSim", ("run",), False),
    ("serve", "serve.autoscale", "repro.serve.autoscale", "QueueDepthAutoscaler",
     ("decide",), False),
    ("serve", "serve.admission", "repro.serve.admission", "SloAwareAdmission",
     ("assess", "place"), True),
    ("serve", "serve.admission", "repro.serve.admission", "NullAdmission",
     ("assess", "place"), True),
    ("serve", "serve.scheduler", "repro.serve.schedulers", "LeastLoadedScheduler",
     ("choose",), True),
    ("serve", "serve.scheduler", "repro.serve.schedulers", "LatencyAwareScheduler",
     ("choose",), True),
    ("serve", "serve.scheduler", "repro.serve.schedulers", "RoundRobinScheduler",
     ("choose",), True),
)

#: Span labels: which network a simulation ran, which experiment aggregated.
LABELS = {
    "gpu.simulate_network": lambda args: str(args[0]),
    "harness.aggregate": lambda args: args[0].exp_id,
}


def _count_network(tracer, args, result) -> None:
    tracer.counts["gpu.kernels_requested"] += len(result.kernels)


def _count_wave(tracer, args, stats) -> None:
    hierarchy = args[0].hier
    tracer.counts["gpu.sim_warp_insts"] += stats.issued
    tracer.counts["memory.l1_accesses"] += hierarchy.l1.stats.accesses
    tracer.counts["memory.l2_accesses"] += hierarchy.l2.stats.accesses


def _count_tiles(tracer, args, plan) -> None:
    tracer.counts["mapping.tiles"] += plan.n_tiles


def _count_put(tracer, args, result) -> None:
    store, spec = args[0], args[1]
    try:
        tracer.counts["runs.store_put_bytes"] += store.run_path(spec).stat().st_size
    except OSError:  # puts are best-effort; an unwritten entry has no size
        pass


def _count_get(tracer, args, result) -> None:
    tracer.counts["runs.store_hits"] += result is not None


def _count_campaign(tracer, args, result) -> None:
    tracer.counts["campaign.points"] += result.plan.requested
    tracer.counts["campaign.frontier_points"] += len(result.frontier)


def _count_serve(tracer, args, stats) -> None:
    tracer.counts["serve.requests"] += stats.offered
    tracer.counts["serve.completed"] += stats.completed
    tracer.counts["serve.shed"] += stats.shed
    tracer.counts["serve.batches"] += sum(device.batches for device in stats.devices)


#: Counters read off a wrapped call's arguments and result.
AFTER = {
    "gpu.simulate_network": _count_network,
    "gpu.wave": _count_wave,
    "mapping.plan": _count_tiles,
    "runs.store_put": _count_put,
    "runs.store_get": _count_get,
    "campaign.run": _count_campaign,
    "serve.run": _count_serve,
}


class LayerTracer:
    """Wraps each layer's entry points and adds up their time and counts."""

    def __init__(self) -> None:
        from repro.obs.tracer import WALL_S, Tracer

        self.t0 = time.perf_counter()
        self._domain = WALL_S
        self.trace = Tracer(warps=False, max_events=MAX_SPANS)
        #: Open spans, innermost last: ``[span id, time covered by children]``.
        self.stack: list[list] = []
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.labelled: defaultdict[tuple, float] = defaultdict(float)
        self.layer_self: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._depth: defaultdict[str, int] = defaultdict(int)
        self._restore: list[tuple] = []
        self._last_id = 0
        self._phase_id = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every target that exists; list the others in :attr:`missing`."""
        for layer, key, module_name, owner, names, hot in TARGETS:
            try:
                module = importlib.import_module(module_name)
                if owner is None:
                    holder = module
                elif isinstance(owner, str):
                    holder = getattr(module, owner)
                else:
                    holder = owner()
                for name in names:
                    original = getattr(holder, name)
                    self._patch(holder, name, original,
                                self._wrap(original, layer, key, hot),
                                rebind=owner is None)
            except (ImportError, AttributeError, ValueError) as exc:
                self.missing.append(f"{key}: {type(exc).__name__}: {exc}")

    def uninstall(self) -> None:
        """Put every original back."""
        for holder, name, original, had in reversed(self._restore):
            if had:
                setattr(holder, name, original)
            else:
                delattr(holder, name)
        self._restore.clear()

    def _patch(self, holder, name, original, wrapper, rebind: bool) -> None:
        self._restore.append((holder, name, original, name in vars(holder)))
        setattr(holder, name, wrapper)
        if not rebind:
            return
        # ``from module import name`` made copies elsewhere in the package.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is holder:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original, True))
                    setattr(module, attr, wrapper)

    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        self._last_id += 1
        return self._last_id

    def _wrap(self, fn, layer: str, key: str, hot: bool):
        perf = time.perf_counter
        stack = self.stack
        if hot:
            incl, own, calls, layer_self = (
                self.incl, self.self_time, self.calls, self.layer_self
            )

            @functools.wraps(fn)
            def hot_wrapper(*args, **kwargs):
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = perf() - start
                    incl[key] += duration
                    own[key] += duration
                    calls[key] += 1
                    layer_self[layer] += duration
                    if stack:
                        stack[-1][1] += duration

            return hot_wrapper

        label_of = LABELS.get(key)
        after = AFTER.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._new_id(), 0.0]
            parent = stack[-1] if stack else None
            outermost = self._depth[key] == 0
            self._depth[key] += 1
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                self._depth[key] -= 1
                label = label_of(args) if label_of is not None else None
                self._close(layer, key, fn.__name__, label, frame, parent,
                            start, duration, outermost)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper

    def _close(self, layer, key, name, label, frame, parent, start, duration,
               outermost) -> None:
        if parent is not None:
            parent[1] += duration
        own = duration - frame[1]
        self.self_time[key] += own
        self.layer_self[layer] += own
        self.calls[key] += 1
        if outermost:
            self.incl[key] += duration
            if label is not None:
                self.labelled[key, label] += duration
        self.trace.span(
            f"{name} {label}" if label else name, layer, self._domain,
            start - self.t0, duration, process="tangobench", thread="main",
            args={"id": frame[0],
                  "parent": parent[0] if parent is not None else self._phase_id,
                  "key": key},
        )

    @contextmanager
    def phase(self, name: str):
        """Group the spans of one benchmark phase under a parent span."""
        self._phase_id = phase_id = self._new_id()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.trace.span(
                name, "phase", self._domain, start - self.t0, time.perf_counter() - start,
                process="tangobench", thread="main",
                args={"id": phase_id, "parent": 0},
            )

    def export(self, path, meta: dict) -> list[str]:
        """Write the Chrome trace; returns the validator's problems."""
        from repro.obs.export import validate_chrome_trace, write_trace

        payload = write_trace(self.trace, path, {**meta, "missing": self.missing})
        return validate_chrome_trace(payload)

    # ------------------------------------------------------------------
    def metrics(self, wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``."""
        incl, own, calls, counts = self.incl, self.self_time, self.calls, self.counts
        seconds = {
            "kernels.compile_s": incl["kernels.compile"],
            "analysis.signature_s": incl["analysis.signature"],
            "gpu.simulate_network_s": own["gpu.simulate_network"],
            "gpu.simulate_kernel_s": incl["gpu.simulate_kernel"],
            "gpu.decode_s": incl["gpu.decode"],
            "gpu.wave_s": incl["gpu.wave"],
            **{f"gpu.network_s.{net}": self.labelled["gpu.simulate_network", net]
               for net in NETWORKS},
            "power.gpuwattch_s": incl["power.gpuwattch"],
            "power.accel_s": incl["power.accel"],
            "platforms.pynq_s": incl["platforms.pynq"],
            "harness.aggregate_s": incl["harness.aggregate"],
            **{f"harness.aggregate_s.{exp_id}": self.labelled["harness.aggregate", exp_id]
               for exp_id in PAPER_SUITE_IDS},
            "mapping.plan_s": incl["mapping.plan"],
            "mapping.execute_s": own["mapping.execute"],
            "runs.plan_s": incl["runs.plan"],
            "runs.kernel_cache_s": incl["runs.kernel_cache"],
            "runs.store_put_s": incl["runs.store_put"],
            "runs.store_get_s": incl["runs.store_get"],
            "runs.payload_decode_s": incl["runs.payload_decode"],
            "campaign.expand_s": incl["campaign.expand"],
            "campaign.qor_s": incl["campaign.qor"],
            "campaign.frontier_s": incl["campaign.frontier"],
            "serve.profiles_s": incl["serve.profiles"],
            "serve.run_s": incl["serve.run"],
            "serve.engine_self_s": own["serve.run"],
            "serve.admission_s": incl["serve.admission"],
            "serve.scheduler_s": incl["serve.scheduler"],
            "serve.autoscale_s": incl["serve.autoscale"],
            **{f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS},
            "unattributed_s": wall_s - sum(self.layer_self[layer] for layer in LAYERS),
            "trace.wall_s": wall_s,
        }
        counted = {
            "analysis.signatures": calls["analysis.signature"],
            "gpu.kernels_requested": counts["gpu.kernels_requested"],
            "gpu.kernels_simulated": calls["gpu.simulate_kernel"],
            "gpu.waves_simulated": calls["gpu.wave"],
            "gpu.sim_warp_insts": counts["gpu.sim_warp_insts"],
            "memory.l1_accesses": counts["memory.l1_accesses"],
            "memory.l2_accesses": counts["memory.l2_accesses"],
            "mapping.tiles": counts["mapping.tiles"],
            "runs.store_puts": calls["runs.store_put"],
            "runs.store_gets": calls["runs.store_get"],
            "campaign.points": counts["campaign.points"],
            "campaign.frontier_points": counts["campaign.frontier_points"],
            "serve.requests": counts["serve.requests"],
            "serve.completed": counts["serve.completed"],
            "serve.shed": counts["serve.shed"],
            "serve.batches": counts["serve.batches"],
        }
        out = {name: (value, "s") for name, value in seconds.items()}
        out.update((name, (value, "count")) for name, value in counted.items())
        gets, insts, requests = (
            calls["runs.store_get"], counts["gpu.sim_warp_insts"], counts["serve.requests"]
        )
        out["runs.store_put_bytes"] = (counts["runs.store_put_bytes"], "bytes")
        out["runs.store_hit_ratio"] = (counts["runs.store_hits"] / gets if gets else 0.0, "ratio")
        out["gpu.host_ns_per_sim_inst"] = (
            incl["gpu.wave"] / insts * 1e9 if insts else 0.0, "ns"
        )
        out["serve.host_us_per_request"] = (
            incl["serve.run"] / requests * 1e6 if requests else 0.0, "us"
        )
        return out
