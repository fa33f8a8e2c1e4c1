"""The ``repro`` command-line interface.

Subcommands:

``repro lint [networks...]``
    Compile the named suite networks (default: all seven) and run the
    :mod:`repro.analysis` static verifier over every kernel launch,
    printing a per-kernel grouped diagnostics report.  ``--json`` emits
    the machine-readable form instead; ``--strict`` promotes warnings to
    the failure condition; ``--quiet`` hides note-severity diagnostics.
    Exit status: 0 when clean, 1 when the failure condition is met, 2 on
    usage errors (argparse's convention).

``repro simulate [networks...]``
    Run whole-network GPU simulations and print per-network cycle and
    time totals.  Each run persists as one entry in the result store
    (``.repro-cache/`` or ``$REPRO_CACHE_DIR``; ``--no-cache``
    disables).  ``--jobs N`` fans networks out across N worker
    processes; output order stays the input order.

``repro harness list`` / ``repro harness run [exp-ids...]``
    The paper-experiment harness: ``list`` prints every registered
    table/figure experiment with its planned run count; ``run`` plans
    the selected experiments' minimal run matrix, executes it against
    the unified result store (``--jobs N`` fans fresh simulations out),
    aggregates each experiment's series and evaluates the paper-claim
    checks.  Exit status 1 when any check fails.  ``--json`` prints all
    results as one JSON document, ``--json-dir DIR`` writes one file
    per experiment, ``--chart`` renders terminal bar charts.

``repro serve``
    Run the discrete-event inference-serving simulator over a fleet of
    simulated devices (``--devices gp102:2,tx1``): latency profiles are
    built per (network, device) through the same planner/executor the
    harness uses — a prior harness sweep makes ``repro serve`` start
    warm — then a workload (``--arrival poisson|bursty|trace|closed``)
    is scheduled across the fleet with dynamic batching, bounded queues
    and a choice of schedulers.  Reports latency tails, goodput, SLO
    violations and per-device utilization; ``--json`` and ``--report``
    emit machine- and markdown-readable forms.

``repro trace simulate [networks...]`` / ``repro trace serve``
    Record an execution trace (:mod:`repro.obs`) of a simulation or a
    serving run and write it as Chrome-trace-event JSON — load the file
    in https://ui.perfetto.dev.  ``trace simulate`` re-simulates the
    named networks (default: alexnet) so GPU kernel and warp-phase
    spans are always captured (``--l1-kb 0,64,128,256`` sweeps the L1D
    through one executor, so kernels whose wave another size served
    trace with ``source="l1_reuse"``); ``trace serve`` accepts the full
    ``repro serve`` option set and additionally captures request/batch/queue
    spans.  ``--output PATH`` names the artifact, ``--no-warps`` drops
    the (voluminous) per-warp stall phases, ``--max-events N`` bounds
    trace memory (overflow is counted, never silent).  In text mode,
    ``trace simulate`` then prints one table per GPU run, built from
    that run's kernel spans: each kernel's category, source (``fresh``,
    ``local``, ``wave`` or ``l1_reuse``), simulated cycles, host
    milliseconds and share of the run's kernel host seconds, slowest on
    the host first.  ``local`` copies an earlier launch of the same
    signature; ``wave`` rescales the wave of an earlier launch that
    differs only in grid or region extents.

``repro campaign run|compare|list SPEC``
    Declarative design-space-exploration campaigns (see
    :mod:`repro.campaign`): ``list`` expands and dedupes the spec
    without simulating, ``run`` executes the campaign (resumable via
    the result store; ``--frontier-out`` writes the golden-frontier
    JSON, ``--output`` the full result document), ``compare`` re-runs
    and diffs the Pareto frontier against a committed golden file
    (``--golden``), exiting 1 on any regression — the QoR gate CI runs.

``repro cache``
    Inspect (``stats``) or empty (``clear``) the result store: one
    whole-network run entry per simulated run, under ``runs/``.  Both
    actions also cover ``*.json`` files in the store root, where older
    checkouts wrote per-kernel entries.  ``cache stats`` breaks entries
    and bytes down by the engine version that wrote them; ``cache clear
    --engine VER`` prunes only that version's (e.g. stale) entries.

``repro networks``
    List the benchmark suite (paper networks plus extensions);
    ``--json`` emits machine-readable rows.

Shared flags behave identically everywhere they appear: ``--json``
(machine-readable stdout), ``--jobs N`` (worker processes),
``--cache-dir DIR`` / ``--no-cache`` (the unified result store) and
``--fidelity default|light`` (simulation sampling).

Also invocable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis import Severity, analyze_network
from repro.core.suite import BENCHMARK_INFO, EXTENSION_NETWORKS, NETWORK_ORDER


def _check_networks(names: list[str]) -> int | None:
    """Exit code 2 and a message on unknown names, else None."""
    known = set(NETWORK_ORDER) | set(EXTENSION_NETWORKS)
    unknown = [n for n in names if n not in known]
    if unknown:
        print(
            f"unknown network(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(known))}",
            file=sys.stderr,
        )
        return 2
    return None


def _cmd_lint(args: argparse.Namespace) -> int:
    # Extension networks are first-class: the default lint sweep covers
    # the paper's seven plus every extension.
    names = args.networks or list(NETWORK_ORDER) + list(EXTENSION_NETWORKS)
    err = _check_networks(names)
    if err is not None:
        return err
    min_severity = Severity.WARNING if args.quiet else Severity.NOTE
    failed = False
    json_reports = []
    for name in names:
        if getattr(args, "netflow", False):
            from repro.analysis import analyze_network_flow

            report = analyze_network_flow(name)
        else:
            report = analyze_network(name)
        failed |= report.has_errors or (
            args.strict and report.count(Severity.WARNING) > 0
        )
        if args.json:
            json_reports.append(report.to_json())
        else:
            print(report.format(min_severity=min_severity))
    if args.json:
        print("[" + ",\n".join(json_reports) + "]")
    return 1 if failed else 0


def _sim_options(scheduler: str, fidelity: str):
    """The simulation options a warp scheduler and fidelity name."""
    from repro.gpu.config import SimOptions

    options = SimOptions(scheduler=scheduler)
    if fidelity == "light":
        options = options.light()
    return options


def _platform_configs(args: argparse.Namespace) -> list | int:
    """The configs of ``--platform`` at each ``--l1-kb`` size (its own
    L1D where the subcommand has no such flag); exit code 2 and a
    one-line message on an unknown platform."""
    from repro.platforms import make_config

    try:
        return [
            make_config(args.platform, l1_kb=kb)
            for kb in getattr(args, "l1_kb", None) or [None]
        ]
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.runs import Executor, ResultStore, RunSpec

    names = args.networks or list(NETWORK_ORDER)
    err = _check_networks(names)
    if err is not None:
        return err
    configs = _platform_configs(args)
    if isinstance(configs, int):
        return configs
    config = configs[0]
    options = _sim_options(args.scheduler, args.fidelity)
    store = None if args.no_cache else ResultStore(args.cache_dir)
    executor = Executor(store)
    specs = [RunSpec(name, config, options) for name in names]
    executor.execute(specs, jobs=args.jobs)
    rows = []
    for spec in specs:  # output order stays the input order
        result = executor.run(spec)
        rows.append({
            "network": spec.network,
            "platform": config.name,
            "kernels": len(result.kernels),
            "total_cycles": result.total_cycles,
            "total_time_ms": result.total_time_ms,
        })

    if args.json:
        import json

        print(json.dumps(rows, indent=2))
    else:
        print(f"{'network':12s} {'platform':8s} {'kernels':>7s} "
              f"{'cycles':>16s} {'time_ms':>10s}")
        for row in rows:
            print(f"{row['network']:12s} {row['platform']:8s} "
                  f"{row['kernels']:7d} {row['total_cycles']:16.0f} "
                  f"{row['total_time_ms']:10.3f}")
    return 0


def _make_workload(args: argparse.Namespace, names: list[str]):
    from repro.serve.workload import (
        BurstyWorkload,
        ClosedLoopWorkload,
        PoissonWorkload,
        TraceWorkload,
    )

    if args.arrival == "poisson":
        return PoissonWorkload(args.rps, args.requests, names)
    if args.arrival == "bursty":
        return BurstyWorkload(
            args.rps, args.requests, names,
            on_ms=args.burst_on_ms, off_ms=args.burst_off_ms,
            off_factor=args.burst_off_factor,
        )
    if args.arrival == "closed":
        return ClosedLoopWorkload(
            args.clients, args.requests, names, think_ms=args.think_ms
        )
    if args.trace is None:
        print("--arrival trace requires --trace PATH", file=sys.stderr)
        return None
    return TraceWorkload.from_json(args.trace)


def _serve_prepare(
    args: argparse.Namespace, quiet: bool = False, refresh: bool = False
):
    """Validate serve arguments and build fleet, profiles and workload.

    Returns an int exit code on error, else the tuple ``(fleet,
    profiles, workload, schedulers, base_config, scenario)`` where
    ``scenario`` is the loaded :class:`~repro.serve.ServeScenario` for
    ``--scenario`` runs and None otherwise.  Shared by ``repro serve``
    and ``repro trace serve`` (which passes ``refresh=True`` so profile
    building re-simulates and the trace captures the GPU layer too).
    """
    from repro.platforms import make_config
    from repro.serve import ServeConfig, build_fleet
    from repro.serve.schedulers import SCHEDULERS

    scenario = None
    if getattr(args, "scenario", None):
        from repro.serve import ScenarioError, load_scenario

        try:
            scenario = load_scenario(args.scenario)
        except ScenarioError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        names = list(scenario.networks)
        fleet = scenario.fleet()
        workload = scenario.workload()
        schedulers = [scenario.config.scheduler]
        base = scenario.config
    else:
        names = [name for name in args.networks.split(",") if name]
        err = _check_networks(names)
        if err is not None:
            return err
        schedulers = [name for name in args.scheduler.split(",") if name]
        unknown = [name for name in schedulers if name not in SCHEDULERS]
        if unknown:
            print(
                f"unknown scheduler(s): {', '.join(unknown)}; "
                f"available: {', '.join(SCHEDULERS)}",
                file=sys.stderr,
            )
            return 2
        try:
            fleet = build_fleet(args.devices)
        except (KeyError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            workload = _make_workload(args, names)
            base = ServeConfig(
                slo_ms=args.slo_ms,
                max_batch=args.batch,
                batch_timeout_ms=args.batch_timeout_ms,
                max_queue=args.queue,
                seed=args.seed,
                admission=args.admission,
            )
        except ValueError as exc:
            print(f"serve: {exc}", file=sys.stderr)
            return 2
        if workload is None:
            return 2

    # Profiles use the simulator's default warp scheduler; ``--scheduler``
    # here names the *serving* policy, not the warp scheduler.  The
    # autoscaler template needs profiles too: scale-ups may add devices
    # of a platform absent from the initial fleet.
    platforms = [device.platform for device in fleet]
    if scenario is not None and scenario.autoscale is not None:
        platforms.append(make_config(scenario.autoscale.template))
    options = _sim_options(args.sim_scheduler, args.fidelity)
    profiles, build_s, detail = _serve_profiles(args, names, platforms, options, refresh)
    if not quiet and not args.json:
        print(f"fleet: {' '.join(device.name for device in fleet)}")
        print(f"profiles: {len(profiles)} built in {build_s:.2f} s {detail}")

    return fleet, profiles, workload, schedulers, base, scenario


def _serve_profiles(args, names, platforms, options, refresh):
    """Build the latency-profile table, timing the build."""
    import time

    from repro.runs import Executor, ResultStore
    from repro.serve import build_profiles

    store = None if args.no_cache else ResultStore(args.cache_dir)
    executor = Executor(store)
    start = time.perf_counter()
    profiles = build_profiles(
        names, platforms, options,
        executor=executor, jobs=getattr(args, "jobs", 1), refresh=refresh,
    )
    build_s = time.perf_counter() - start
    detail = (
        f"(runs: {executor.fresh} fresh, {store.run_hits} cached)"
        if store is not None else "(uncached)"
    )
    return profiles, build_s, detail


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    from dataclasses import replace

    from repro.serve import run_serve

    prep = _serve_prepare(args)
    if isinstance(prep, int):
        return prep
    fleet, profiles, workload, schedulers, base, scenario = prep
    if scenario is not None:
        configs = [(base, scenario.pipeline())]
    else:
        configs = [(replace(base, scheduler=name), None) for name in schedulers]
    runs = []
    run_metrics = []
    for config, pipeline in configs:
        if args.report:
            # capture the engine's histograms/gauges for the report,
            # one registry per run so schedulers don't merge
            from repro.obs import Tracer, set_tracer

            tracer = Tracer(warps=False)
            previous = set_tracer(tracer)
            try:
                stats = run_serve(fleet, profiles, workload, config, pipeline)
            finally:
                set_tracer(previous)
            run_metrics.append(tracer.metrics.to_dict())
        else:
            stats = run_serve(fleet, profiles, workload, config, pipeline)
        runs.append(stats)

    if args.json:
        payload = [stats.to_dict() for stats in runs]
        print(json.dumps(payload[0] if len(payload) == 1 else payload, indent=2))
    else:
        for stats in runs:
            print(f"\nscheduler={stats.scheduler} offered={stats.offered} "
                  f"completed={stats.completed} shed={stats.shed}")
            print(f"  latency ms: p50={stats.latency_p50_ms:.2f} "
                  f"p95={stats.latency_p95_ms:.2f} p99={stats.latency_p99_ms:.2f} "
                  f"mean={stats.latency_mean_ms:.2f} max={stats.latency_max_ms:.2f}")
            print(f"  slo {stats.slo_ms:g} ms: violations={stats.slo_violations} "
                  f"attainment={stats.slo_attainment:.4f}")
            print(f"  throughput={stats.throughput_rps:.1f} rps "
                  f"goodput={stats.goodput_rps:.1f} rps "
                  f"duration={stats.duration_ms / 1e3:.2f} s")
            if stats.shed_reasons:
                breakdown = " ".join(
                    f"{reason}={count}"
                    for reason, count in stats.shed_reasons.items()
                )
                print(f"  shed by reason: {breakdown}")
            if stats.energy:
                print(f"  energy: total={stats.energy.get('total_j', 0.0):.2f} J "
                      f"cost={stats.energy.get('cost_per_request_j', 0.0):.4f} "
                      f"J/request")
            if stats.autoscale:
                print(f"  autoscale: events={len(stats.autoscale.get('events', []))} "
                      f"peak={stats.autoscale.get('peak_devices')} "
                      f"final={stats.autoscale.get('final_devices')}")
            if len(stats.per_tenant) > 1:
                print(f"  {'tenant':12s} {'slo ms':>7s} {'offered':>8s} "
                      f"{'shed':>6s} {'p99 ms':>8s} {'attain':>7s} "
                      f"{'goodput':>7s} {'J/req':>8s}")
                for tenant in stats.per_tenant.values():
                    print(f"  {tenant.name:12s} {tenant.slo_ms:7g} "
                          f"{tenant.offered:8d} {tenant.shed:6d} "
                          f"{tenant.latency_p99_ms:8.2f} "
                          f"{tenant.slo_attainment:7.4f} "
                          f"{tenant.goodput_ratio:7.4f} "
                          f"{tenant.cost_per_request_j:8.4f}")
            print(f"  {'device':12s} {'platform':8s} {'util':>6s} {'reqs':>7s} "
                  f"{'batches':>7s} {'m.batch':>7s} {'shed':>6s}")
            for device in stats.devices:
                print(f"  {device.name:12s} {device.platform:8s} "
                      f"{device.utilization:6.3f} {device.requests:7d} "
                      f"{device.batches:7d} {device.mean_batch:7.2f} "
                      f"{device.shed:6d}")

    if args.report:
        from repro.serve.report import write_serve_report

        if scenario is not None:
            params = scenario.describe()
        else:
            params = {
                "networks": args.networks,
                "devices": args.devices,
                "arrival": args.arrival,
                "rps": args.rps,
                "requests": args.requests,
                "slo_ms": args.slo_ms,
                "max_batch": args.batch,
                "batch_timeout_ms": args.batch_timeout_ms,
                "max_queue": args.queue,
                "admission": args.admission,
                "seed": args.seed,
            }
        write_serve_report(args.report, runs, params, metrics=run_metrics)
        if not args.json:
            print(f"\nwrote {args.report}")
    return 0


def _kb_list(text: str) -> list[int]:
    """``"0,64,128"`` -> ``[0, 64, 128]`` (argparse type for ``--l1-kb``)."""
    try:
        sizes = [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated KB, got {text!r}")
    if any(kb < 0 for kb in sizes):
        raise argparse.ArgumentTypeError("L1D sizes must be non-negative")
    return sizes


def _trace_tracer(args: argparse.Namespace):
    from repro.obs import Tracer

    return Tracer(warps=not args.no_warps, max_events=args.max_events)


def _print_trace_outcome(args: argparse.Namespace, tracer, payload) -> None:
    if args.json:
        import json

        print(json.dumps(payload))
    else:
        dropped = f", {tracer.dropped} dropped" if tracer.dropped else ""
        print(f"wrote {args.output}: {len(tracer.spans)} spans, "
              f"{len(tracer.instants)} instants{dropped}")


def _print_kernel_table(title: str, kernels: list) -> None:
    """Where one GPU run's host time went, from its kernel spans."""
    host_s = sum(span.args["host_s"] for span in kernels)
    print(f"\n{title}: {len(kernels)} kernels, {host_s:.3f} s host")
    print(f"{'kernel':20s} {'category':12s} {'source':8s} {'cycles':>12s} "
          f"{'host ms':>9s} {'share':>6s}")
    for span in sorted(kernels, key=lambda span: span.args["host_s"], reverse=True):
        args = span.args
        print(f"{span.name:20s} {args['category']:12s} {args['source']:8s} "
              f"{span.dur:12.0f} {args['host_s'] * 1e3:9.2f} "
              f"{args['host_s'] / host_s:6.1%}")


def _cmd_trace_simulate(args: argparse.Namespace) -> int:
    from repro.obs import set_tracer, write_trace
    from repro.runs import Executor, ResultStore, RunSpec

    names = args.networks or ["alexnet"]
    err = _check_networks(names)
    if err is not None:
        return err
    configs = _platform_configs(args)
    if isinstance(configs, int):
        return configs
    options = _sim_options(args.scheduler, args.fidelity)
    store = None if args.no_cache else ResultStore(args.cache_dir)
    tracer = _trace_tracer(args)
    previous = set_tracer(tracer)
    runs = []  # (run identity, that run's kernel spans)
    try:
        executor = Executor(store)
        for name in names:
            for config in configs:
                spec = RunSpec(name, config, options)
                first = len(tracer.spans)
                # refresh=True: re-simulate even on a warm store so the
                # trace always contains live GPU spans.
                executor.run(spec, refresh=True)
                kernels = [span for span in tracer.spans[first:] if span.cat == "kernel"]
                runs.append((spec.describe(), kernels))
    finally:
        set_tracer(previous)
    payload = write_trace(tracer, args.output, meta={
        "command": "trace simulate",
        "networks": names,
        "platform": configs[0].name,
        "l1_kb": args.l1_kb,
        "scheduler": args.scheduler,
        "fidelity": args.fidelity,
    })
    _print_trace_outcome(args, tracer, payload)
    if not args.json:
        for title, kernels in runs:
            if kernels:  # a mapped accelerator run records none
                _print_kernel_table(title, kernels)
    return 0


def _cmd_trace_serve(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from repro.obs import set_tracer, write_trace
    from repro.serve import run_serve

    tracer = _trace_tracer(args)
    previous = set_tracer(tracer)
    schedulers: list[str] = []
    scenario = None
    try:
        prep = _serve_prepare(args, quiet=True, refresh=True)
        if isinstance(prep, int):
            return prep
        fleet, profiles, workload, schedulers, base, scenario = prep
        if scenario is not None:
            run_serve(
                fleet, profiles, workload, base, pipeline=scenario.pipeline()
            )
        else:
            for name in schedulers:
                run_serve(fleet, profiles, workload, replace(base, scheduler=name))
    finally:
        set_tracer(previous)
    payload = write_trace(tracer, args.output, meta={
        "command": "trace serve",
        "networks": ",".join(scenario.networks) if scenario else args.networks,
        "devices": scenario.fleet_spec if scenario else args.devices,
        "schedulers": ",".join(schedulers),
        "arrival": "scenario" if scenario else args.arrival,
    })
    _print_trace_outcome(args, tracer, payload)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    from repro.runs.store import cache_stats, clear_cache

    if args.action == "stats":
        stats = cache_stats(args.cache_dir)
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"cache dir: {stats['dir']}")
            print(f"entries:   {stats['entries']}")
            print(f"bytes:     {stats['bytes']}")
            print(f"engine:    {stats['engine_version']}")
            for engine, bucket in stats["by_engine"].items():
                stale = "" if engine == stats["engine_version"] else "  (stale)"
                print(f"  {engine}: {bucket['entries']} entries, "
                      f"{bucket['bytes']} bytes{stale}")
            dedup = stats["dedup"]
            if dedup["kernels_requested"]:
                print(f"dedup:     {dedup['kernels_simulated']} kernels "
                      f"simulated for {dedup['kernels_requested']} requested "
                      f"({dedup['replicated']} deduplicated)")
    else:
        engine = getattr(args, "engine", None)
        removed = clear_cache(args.cache_dir, engine=engine)
        scope = f" for engine {engine}" if engine else ""
        print(f"removed {removed} cache file(s){scope}")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    import json

    from repro.campaign import (
        CampaignError,
        compare_frontiers,
        format_campaign,
        format_compare,
        load_campaign,
        plan_campaign,
        run_campaign,
    )
    from repro.runs import ResultStore

    if args.action == "compare" and args.golden is None:
        print("error: campaign compare requires --golden PATH",
              file=sys.stderr)
        return 2
    try:
        spec = load_campaign(args.spec)
    except (CampaignError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "list":
        plan = plan_campaign(spec)
        if args.json:
            print(json.dumps({
                "campaign": spec.name,
                "description": spec.description,
                "mode": spec.mode,
                "axes": {axis: list(spec.axis(axis))
                         for axis in plan.points[0].axes()} if plan.points
                        else {},
                "points": plan.requested,
                "unique_runs": len(plan.specs),
                "deduped": plan.deduped,
                "objectives": list(spec.objective_labels()),
            }, indent=2))
        else:
            print(plan.describe())
            for axis, values in spec.axes.items():
                rendered = ", ".join("default" if v is None else str(v)
                                     for v in values)
                print(f"  {axis}: {rendered}")
            print(f"  objectives: {', '.join(spec.objective_labels())}")
        return 0

    store = None if args.no_cache else ResultStore(args.cache_dir)
    result = run_campaign(spec, store=store, jobs=args.jobs)

    if args.action == "run":
        if args.output is not None:
            Path(args.output).write_text(json.dumps(result.to_dict(), indent=2))
        if args.frontier_out is not None:
            Path(args.frontier_out).write_text(
                json.dumps(result.frontier_payload(), indent=2) + "\n")
        if args.json:
            print(json.dumps(result.to_dict(), indent=2))
        else:
            print(format_campaign(result))
            print(result.summary())
        return 0 if result.ok else 1

    # compare: diff the just-computed frontier against the golden file.
    try:
        golden = json.loads(Path(args.golden).read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read golden frontier {args.golden}: {exc}",
              file=sys.stderr)
        return 2
    report = compare_frontiers(
        golden, result.frontier_payload(), tolerance=args.tolerance
    )
    if args.json:
        print(json.dumps({
            "compare": report,
            "execution": result.report.to_dict(),
            "skipped": result.skipped,
        }, indent=2))
    else:
        for entry in result.skipped:
            print(f"[compare]   SKIPPED {entry['axes']}: {entry['error']}")
        print(format_compare(report))
    return 0 if report["ok"] and result.ok else 1


def _cmd_harness(args: argparse.Namespace) -> int:
    from repro.runs import PlanContext, build_plan
    from repro.runs.registry import all_experiments

    experiments = all_experiments()
    if args.action == "list":
        for exp_id, experiment in experiments.items():
            planned = len(experiment.plan(PlanContext()))
            runs = f"{planned} runs" if planned else "analytic"
            print(f"{exp_id:8s} {experiment.title} [{runs}]")
        return 0
    # action == "run"
    unknown = [exp_id for exp_id in args.experiments if exp_id not in experiments]
    if unknown:
        print(
            f"unknown experiment(s): {', '.join(unknown)}; "
            f"available: {', '.join(experiments)}",
            file=sys.stderr,
        )
        return 2
    from repro.harness.suite import (
        DEFAULT_STORE,
        result_payload,
        run_all,
        write_json,
    )

    if args.no_cache:
        cache_dir = None
    else:
        cache_dir = args.cache_dir if args.cache_dir else DEFAULT_STORE
    results = run_all(
        ids=args.experiments or None,
        cache_dir=cache_dir,
        jobs=args.jobs,
        verbose=not args.json,
    )
    if args.chart and not args.json:
        from repro.harness.render import render_experiment

        for result in results:
            chart = render_experiment(result)
            if chart:
                print("\n" + chart)
    if args.json:
        import json

        print(json.dumps([result_payload(r) for r in results], indent=2))
    if args.json_dir:
        write_json(results, args.json_dir, verbose=not args.json)
    failed = [
        f"{r.exp_id}: {c.claim}" for r in results for c in r.checks if not c.passed
    ]
    if not args.json:
        print(f"\n{len(results)} experiments, "
              f"{sum(len(r.checks) for r in results)} checks, {len(failed)} failed")
        for line in failed:
            print(f"  FAIL {line}")
    return 1 if failed else 0


def _cmd_networks(args: argparse.Namespace) -> int:
    rows = [
        {
            "name": name,
            "display_name": BENCHMARK_INFO[name].display_name,
            "kind": BENCHMARK_INFO[name].kind,
            "extension": name in EXTENSION_NETWORKS,
        }
        for name in NETWORK_ORDER + EXTENSION_NETWORKS
    ]
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            extra = " (extension)" if row["extension"] else ""
            print(f"{row['name']:12s} {row['display_name']} "
                  f"[{row['kind']}]{extra}")
    return 0


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.platforms import list_platforms, make_config

    try:
        names = list_platforms(kind=args.kind)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows = []
    for name in names:
        config = make_config(name)
        # A GPU tile is one SM: its L1D plus shared memory, one MAC per
        # CUDA core per cycle.
        if config.kind == "gpu":
            tile_bytes = config.l1_size + config.shared_mem_per_sm
            macs_per_tile = config.cores_per_sm
        else:
            tile_bytes = config.tile_memory_bytes
            macs_per_tile = config.mac_rows * config.mac_cols
        macs_per_cycle = macs_per_tile * config.num_sms
        rows.append({
            "name": name,
            "display_name": config.name,
            "kind": config.kind,
            "tiles": config.num_sms,
            "tile_kb": tile_bytes / 1024,
            "macs_per_cycle": macs_per_cycle,
            "clock_ghz": config.clock_ghz,
            "peak_gmacs": macs_per_cycle * config.clock_ghz,
            "dram_gb_per_s": config.dram_gb_per_s,
        })
    if args.json:
        import json

        print(json.dumps(rows, indent=2))
    else:
        print(f"{'name':10s} {'kind':5s} {'tiles':>5s} {'KB/tile':>8s} "
              f"{'MAC/cyc':>8s} {'GHz':>6s} {'GMAC/s':>8s} {'GB/s':>7s}")
        for row in rows:
            print(f"{row['name']:10s} {row['kind']:5s} {row['tiles']:5d} "
                  f"{row['tile_kb']:8.0f} {row['macs_per_cycle']:8d} "
                  f"{row['clock_ghz']:6.3f} {row['peak_gmacs']:8.1f} "
                  f"{row['dram_gb_per_s']:7.1f}")
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.mapping import MappingError, map_network

    err = _check_networks([args.network])
    if err is not None:
        return err
    configs = _platform_configs(args)
    if isinstance(configs, int):
        return configs
    config = configs[0]
    if config.kind == "gpu":
        print(f"error: {args.platform} is a GPU platform; the tiling "
              f"mapper targets fpga/npu platforms (see 'repro platforms')",
              file=sys.stderr)
        return 2
    try:
        plan = map_network(args.network, config)
    except MappingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(plan.to_dict(), indent=2))
    else:
        print(plan.describe())
    return 0


def _shared_parents() -> dict[str, argparse.ArgumentParser]:
    """Parent parsers for the flags that must behave identically across
    subcommands (one definition, shared help text)."""
    json_p = argparse.ArgumentParser(add_help=False)
    json_p.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON on stdout")
    jobs_p = argparse.ArgumentParser(add_help=False)
    jobs_p.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="fan fresh simulations out across N worker "
                             "processes (default: 1)")
    cache_dir_p = argparse.ArgumentParser(add_help=False)
    cache_dir_p.add_argument("--cache-dir", default=None, metavar="DIR",
                             help="result-store directory (default: "
                                  "$REPRO_CACHE_DIR or .repro-cache)")
    no_cache_p = argparse.ArgumentParser(add_help=False)
    no_cache_p.add_argument("--no-cache", action="store_true",
                            help="skip the persistent result store")
    return {
        "json": json_p,
        "jobs": jobs_p,
        "cache_dir": cache_dir_p,
        "no_cache": no_cache_p,
    }


def _add_sim_args(sub_parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``simulate`` and ``trace simulate``."""
    sub_parser.add_argument("--platform", default="gp102",
                            help="platform model (default: gp102)")
    sub_parser.add_argument("--scheduler", default="gto",
                            choices=("gto", "lrr", "tlv"),
                            help="warp scheduler (default: gto)")
    _add_fidelity_args(sub_parser)


def _add_fidelity_args(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--fidelity", default="default",
                            choices=("default", "light"),
                            help="simulation sampling fidelity: 'light' "
                                 "is fast for smoke tests but not "
                                 "comparable to default runs")


def _add_serve_args(sub_parser: argparse.ArgumentParser) -> None:
    """Workload/fleet/policy arguments shared by ``serve`` and
    ``trace serve`` (store and output flags come from the parents)."""
    sub_parser.add_argument("--networks", default="alexnet,resnet",
                            metavar="A,B",
                            help="comma-separated networks to serve "
                                 "(default: alexnet,resnet; extensions like "
                                 "mobilenet are accepted)")
    sub_parser.add_argument("--devices", default="gp102:2,tx1", metavar="SPEC",
                            help="fleet spec, e.g. gp102:2,tx1 "
                                 "(default: gp102:2,tx1)")
    sub_parser.add_argument("--arrival", default="poisson",
                            choices=("poisson", "bursty", "trace", "closed"),
                            help="workload shape (default: poisson)")
    sub_parser.add_argument("--rps", type=float, default=100.0,
                            help="offered request rate for poisson/bursty "
                                 "(default: 100)")
    sub_parser.add_argument("--requests", type=int, default=10000, metavar="N",
                            help="number of requests (default: 10000)")
    sub_parser.add_argument("--slo-ms", type=float, default=50.0,
                            help="latency SLO in milliseconds (default: 50)")
    sub_parser.add_argument("--batch", type=int, default=8, metavar="B",
                            help="dynamic batcher max batch size (default: 8)")
    sub_parser.add_argument("--batch-timeout-ms", type=float, default=2.0,
                            help="max co-batching wait for a queued head "
                                 "request (default: 2)")
    sub_parser.add_argument("--queue", type=int, default=256, metavar="Q",
                            help="per-device admission queue bound; overflow "
                                 "is shed (default: 256)")
    sub_parser.add_argument("--scheduler", default="latency-aware",
                            metavar="NAME[,NAME]",
                            help="scheduling policies to run, comma-separated "
                                 "(round-robin, least-loaded, latency-aware; "
                                 "default: latency-aware)")
    sub_parser.add_argument("--admission", default="none",
                            choices=("none", "slo-aware"),
                            help="admission policy: 'slo-aware' sheds "
                                 "low-priority work under load and "
                                 "SLO-infeasible placements (default: none)")
    sub_parser.add_argument("--scenario", default=None, metavar="PATH",
                            help="TOML/JSON multi-tenant scenario file; "
                                 "overrides the workload/fleet/policy flags "
                                 "(see examples/day_in_the_life.toml)")
    sub_parser.add_argument("--seed", type=int, default=0,
                            help="workload/simulation seed (default: 0)")
    sub_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="JSON request log for --arrival trace")
    sub_parser.add_argument("--clients", type=int, default=32,
                            help="closed-loop client count (default: 32)")
    sub_parser.add_argument("--think-ms", type=float, default=10.0,
                            help="closed-loop mean think time (default: 10)")
    sub_parser.add_argument("--burst-on-ms", type=float, default=100.0,
                            help="bursty: burst window length (default: 100)")
    sub_parser.add_argument("--burst-off-ms", type=float, default=400.0,
                            help="bursty: quiet window length (default: 400)")
    sub_parser.add_argument("--burst-off-factor", type=float, default=0.1,
                            help="bursty: quiet-window rate factor "
                                 "(default: 0.1)")
    sub_parser.add_argument("--sim-scheduler", default="gto",
                            choices=("gto", "lrr", "tlv"),
                            help="warp scheduler used when building latency "
                                 "profiles (default: gto)")
    _add_fidelity_args(sub_parser)


def _add_trace_args(
    sub_parser: argparse.ArgumentParser, default_output: str
) -> None:
    """Output/volume arguments shared by the ``trace`` subcommands."""
    sub_parser.add_argument("--output", default=default_output, metavar="PATH",
                            help=f"Chrome-trace JSON artifact path "
                                 f"(default: {default_output})")
    sub_parser.add_argument("--no-warps", action="store_true",
                            help="skip per-warp stall-phase spans (much "
                                 "smaller traces)")
    sub_parser.add_argument("--max-events", type=int, default=2_000_000,
                            metavar="N",
                            help="cap on recorded events; overflow is "
                                 "counted in otherData.dropped_events "
                                 "(default: 2000000)")


def build_parser() -> argparse.ArgumentParser:
    """The top-level ``repro`` argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = _shared_parents()

    lint = sub.add_parser(
        "lint",
        parents=[p["json"]],
        help="statically verify the compiled kernels of suite networks",
        description="Run the static kernel-IR verifier (def-use, address "
        "intervals, shared-memory races, lints) over compiled networks.",
    )
    lint.add_argument("networks", nargs="*",
                      help="network names (default: the paper's seven)")
    lint.add_argument("--strict", action="store_true",
                      help="treat warnings as failures too")
    lint.add_argument("--netflow", action="store_true",
                      help="run the whole-network inter-kernel dataflow "
                           "verifier instead of the per-kernel passes")
    lint.add_argument("--quiet", action="store_true",
                      help="hide note-severity diagnostics in text output")
    lint.set_defaults(func=_cmd_lint)

    simulate = sub.add_parser(
        "simulate",
        parents=[p["json"], p["jobs"], p["cache_dir"], p["no_cache"]],
        help="run whole-network GPU simulations (cached, parallelizable)",
        description="Simulate suite networks on a platform model; each "
        "run persists as one entry in the result store.",
    )
    simulate.add_argument("networks", nargs="*",
                          help="network names (default: the paper's seven)")
    _add_sim_args(simulate)
    simulate.set_defaults(func=_cmd_simulate)

    serve = sub.add_parser(
        "serve",
        parents=[p["json"], p["jobs"], p["cache_dir"], p["no_cache"]],
        help="simulate inference serving over a fleet of devices",
        description="Discrete-event serving simulation: per-(network, "
        "device) latency profiles from the GPU simulator (cached), a "
        "generated or replayed request stream, dynamic batching, "
        "bounded queues and pluggable schedulers.",
    )
    _add_serve_args(serve)
    serve.add_argument("--report", default=None, metavar="PATH",
                       help="also write a markdown report to PATH")
    serve.set_defaults(func=_cmd_serve)

    trace = sub.add_parser(
        "trace",
        help="record a Chrome-trace (Perfetto) JSON of a run",
        description="Record spans and metrics through the GPU, "
        "run-orchestration and serving layers (repro.obs) and write "
        "Chrome-trace-event JSON, loadable in https://ui.perfetto.dev.",
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_sim = trace_sub.add_parser(
        "simulate",
        parents=[p["json"], p["cache_dir"], p["no_cache"]],
        help="trace whole-network GPU simulations",
        description="Re-simulate the named networks (cache refreshed, "
        "never read) with the tracer installed and write the trace.",
    )
    trace_sim.add_argument("networks", nargs="*",
                           help="network names (default: alexnet)")
    trace_sim.add_argument("--l1-kb", type=_kb_list, default=None, metavar="KB[,KB...]",
                           help="L1D sizes to sweep, in KB (default: the "
                                "platform's own)")
    _add_sim_args(trace_sim)
    _add_trace_args(trace_sim, "trace-simulate.json")
    trace_sim.set_defaults(func=_cmd_trace_simulate)
    trace_serve = trace_sub.add_parser(
        "serve",
        parents=[p["json"], p["cache_dir"], p["no_cache"]],
        help="trace an inference-serving run",
        description="Run the serving simulator (same options as 'repro "
        "serve') with the tracer installed — profile building included, "
        "so GPU and executor spans appear too — and write the trace.",
    )
    _add_serve_args(trace_serve)
    _add_trace_args(trace_serve, "trace-serve.json")
    trace_serve.set_defaults(func=_cmd_trace_serve)

    harness = sub.add_parser(
        "harness",
        parents=[p["json"], p["jobs"], p["cache_dir"], p["no_cache"]],
        help="plan and run the paper-experiment harness",
        description="List the registered table/figure experiments or "
        "run a selection: plan the minimal simulation matrix, execute "
        "it against the unified result store, aggregate each "
        "experiment's series and evaluate the paper-claim checks.",
    )
    harness.add_argument("action", choices=("list", "run"),
                         help="list experiments, or run a selection")
    harness.add_argument("experiments", nargs="*", metavar="EXP",
                         help="experiment ids for 'run' (default: all)")
    harness.add_argument("--json-dir", metavar="DIR", default=None,
                         help="write each experiment's series/checks as "
                              "JSON under DIR")
    harness.add_argument("--chart", action="store_true",
                         help="render series as terminal bar charts")
    harness.set_defaults(func=_cmd_harness)

    campaign = sub.add_parser(
        "campaign",
        parents=[p["json"], p["jobs"], p["cache_dir"], p["no_cache"]],
        help="run declarative design-space-exploration campaigns",
        description="Expand a declarative campaign spec (TOML/JSON) over "
        "its sweep axes, execute the deduplicated run matrix through the "
        "unified result store, aggregate per-axis QoR tables and the "
        "Pareto frontier, and optionally gate against a committed golden "
        "frontier.",
    )
    campaign.add_argument("action", choices=("run", "compare", "list"),
                          help="run the campaign, compare its frontier "
                               "against a golden file, or just expand "
                               "and count")
    campaign.add_argument("spec", metavar="SPEC",
                          help="campaign spec path (.toml or .json)")
    campaign.add_argument("--output", default=None, metavar="PATH",
                          help="run: also write the full campaign result "
                               "JSON to PATH")
    campaign.add_argument("--frontier-out", default=None, metavar="PATH",
                          help="run: write the frontier as golden-frontier "
                               "JSON to PATH (commit it to gate CI)")
    campaign.add_argument("--golden", default=None, metavar="PATH",
                          help="compare: committed golden frontier JSON "
                               "to diff against (required)")
    campaign.add_argument("--tolerance", type=float, default=None,
                          metavar="T",
                          help="compare: relative per-objective tolerance "
                               "(default: the golden file's own)")
    campaign.set_defaults(func=_cmd_campaign)

    cache = sub.add_parser(
        "cache",
        parents=[p["json"], p["cache_dir"]],
        help="inspect or clear the unified result store",
        description="Summarize (stats) or empty (clear) the cross-run "
        "result store shared by simulate/serve/harness/campaign: one "
        "whole-network run entry per simulated run.",
    )
    cache.add_argument("action", choices=("stats", "clear"),
                       help="what to do with the cache")
    cache.add_argument("--engine", default=None, metavar="VER",
                       help="clear only entries written by this engine "
                       "version (see 'cache stats' for versions present)")
    cache.set_defaults(func=_cmd_cache)

    networks = sub.add_parser(
        "networks",
        parents=[p["json"]],
        help="list the benchmark suite",
    )
    networks.set_defaults(func=_cmd_networks)

    platforms = sub.add_parser(
        "platforms",
        parents=[p["json"]],
        help="list registered platforms and their capability budgets",
        description="Enumerate the platform registry (GPU, FPGA and NPU "
        "backends) with each device's memory and compute budgets.",
    )
    platforms.add_argument("--kind", default=None,
                           help="filter by device kind (gpu, fpga, npu)")
    platforms.set_defaults(func=_cmd_platforms)

    map_cmd = sub.add_parser(
        "map",
        parents=[p["json"]],
        help="show the tiling mapper's plan for a network on a device",
        description="Run the compile-time tiling/partitioning mapper and "
        "print the per-layer plan (strategy, tiles, footprints, "
        "utilization).",
    )
    map_cmd.add_argument("network", help="suite network name")
    map_cmd.add_argument("--platform", default="s2npu",
                         help="accelerator platform (default: s2npu)")
    map_cmd.set_defaults(func=_cmd_map)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
