"""The run pipeline: planner dedup, executor read-through, unified store.

The planner must collapse the 21 registered experiments' requested runs
into the minimal unique matrix; the executor must simulate each unique
spec at most once (memory -> store -> simulate); the store must round-
trip whole-network results byte-identically and invalidate on any key
ingredient change.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.gpu.config import SimOptions
from repro.platforms import GP102, TX1, make_config
from repro.runs import (
    Executor,
    PlanContext,
    ResultStore,
    RunSpec,
    build_plan,
    run_key,
)
from repro.runs.registry import all_experiments
from repro.runs.store import cache_stats, clear_cache, result_from_payload, result_to_payload

LIGHT = SimOptions(max_trips=4, max_outer_trips=1, max_sim_blocks=1)


class TestPlanner:
    def test_full_suite_dedupes_to_59_unique_runs(self):
        plan = build_plan(all_experiments().values())
        assert len(plan.specs) == 59
        assert plan.total_requested > len(plan.specs)
        # Dedup really is by content: no two specs share a key.
        keys = [spec.key() for spec in plan.specs]
        assert len(set(keys)) == len(keys)

    def test_every_simulating_experiment_contributes(self):
        plan = build_plan(all_experiments().values())
        assert set(plan.by_experiment) == set(all_experiments())
        analytic = {exp_id for exp_id, specs in plan.by_experiment.items() if not specs}
        assert analytic == {
            "table1", "table2", "table3", "table4",
            "fig08", "fig09", "fig10", "fig11", "fig12",
        }

    def test_shared_runs_planned_once(self):
        experiments = all_experiments()
        plan = build_plan([experiments["fig01"], experiments["fig02"]])
        # Figure 1's default-config CNN runs are inside Figure 2's L1
        # sweep: together they need no more than the sweep alone.
        assert len(plan.specs) == len(build_plan([experiments["fig02"]]).specs)

    def test_restricted_context_shrinks_matrix(self):
        ctx = PlanContext(networks=("cifarnet", "gru"), options=LIGHT)
        plan = build_plan(all_experiments().values(), ctx)
        assert 0 < len(plan.specs) < 59
        assert {spec.network for spec in plan.specs} == {"cifarnet", "gru"}

    def test_describe_lists_each_unique_run_once(self):
        plan = build_plan(all_experiments().values())
        lines = plan.describe().splitlines()
        assert "-> 59 unique" in lines[0]
        assert len(lines) == 1 + 59


class TestRunKey:
    def test_key_differs_by_network(self):
        assert run_key("gru", GP102, LIGHT) != run_key("lstm", GP102, LIGHT)

    def test_key_differs_by_config(self):
        assert run_key("gru", GP102, LIGHT) != run_key("gru", TX1, LIGHT)
        assert run_key("gru", GP102, LIGHT) != run_key("gru", GP102.with_l1(0), LIGHT)

    def test_key_differs_by_options(self):
        assert run_key("gru", GP102, LIGHT) != run_key(
            "gru", GP102, replace(LIGHT, scheduler="lrr")
        )

    def test_key_differs_by_engine_version(self, monkeypatch):
        import repro.gpu.sm as sm

        before = run_key("gru", GP102, LIGHT)
        monkeypatch.setattr(sm, "ENGINE_VERSION", "test-engine")
        assert run_key("gru", GP102, LIGHT) != before


class TestExecutor:
    def test_memory_read_through(self):
        executor = Executor()
        spec = RunSpec("gru", GP102, LIGHT)
        first = executor.run(spec)
        second = executor.run(spec)
        assert executor.fresh == 1
        assert second is first

    def test_store_read_through_is_value_identical(self, tmp_path):
        spec = RunSpec("gru", GP102, LIGHT)
        fresh = Executor(ResultStore(tmp_path)).run(spec)
        cached = Executor(ResultStore(tmp_path)).run(spec)
        assert cached.total_cycles == fresh.total_cycles
        assert cached.total_time_ms == fresh.total_time_ms
        assert cached.cycles_by_category() == fresh.cycles_by_category()
        assert cached.aggregate().issued == fresh.aggregate().issued

    def test_execute_reports_fresh_then_cached(self, tmp_path):
        specs = [RunSpec("gru", GP102, LIGHT), RunSpec("gru", TX1, LIGHT)]
        store = ResultStore(tmp_path)
        report = Executor(store).execute(specs)
        assert (report.planned, report.fresh, report.cached) == (2, 2, 0)
        rerun = Executor(ResultStore(tmp_path)).execute(specs)
        assert (rerun.planned, rerun.fresh, rerun.cached) == (2, 0, 2)
        assert "2 unique runs: 0 fresh, 2 cached" in rerun.summary()

    def test_parallel_execute_matches_serial(self, tmp_path):
        specs = [RunSpec("gru", GP102, LIGHT), RunSpec("cifarnet", GP102, LIGHT)]
        serial = Executor()
        for spec in specs:
            serial.run(spec)
        parallel = Executor(ResultStore(tmp_path))
        report = parallel.execute(specs, jobs=2)
        assert report.fresh == 2
        for spec in specs:
            assert parallel.run(spec).total_cycles == serial.run(spec).total_cycles

    def test_parallel_execute_chunks_large_plans(self, tmp_path):
        from repro.runs import executor as executor_mod

        # 2 pending specs at jobs=2 -> ceil(2/8)=1 spec per chunk; the
        # chunking must never produce an empty or oversize chunk, nor
        # drop, duplicate or reorder specs that share no L1D sweep.
        for pending, jobs in ((2, 2), (100, 4), (1, 8)):
            specs = [RunSpec(f"net{i}", GP102, LIGHT) for i in range(pending)]
            chunks = executor_mod.chunk_specs(specs, jobs)
            assert all(1 <= len(c) <= executor_mod.CHUNK_MAX_SPECS for c in chunks)
            assert [spec for chunk in chunks for spec in chunk] == specs

    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_parallel_chunks_keep_l1_sweeps_together(self, jobs):
        from pathlib import Path

        from repro.campaign import load_campaign, plan_campaign
        from repro.runs.executor import chunk_specs

        toml = Path(__file__).parent.parent / "examples" / "l1_sweep_campaign.toml"
        specs = list(plan_campaign(load_campaign(toml)).specs)
        chunks = chunk_specs(specs, jobs)
        flat = [spec for chunk in chunks for spec in chunk]
        assert sorted(s.key() for s in flat) == sorted(s.key() for s in specs)
        home: dict[tuple, set[int]] = {}
        for index, chunk in enumerate(chunks):
            for spec in chunk:
                sweep = (spec.network, replace(spec.config, l1_size=0), spec.options)
                home.setdefault(sweep, set()).add(index)
        # 7 networks x 3 schedulers, each swept over all four L1D sizes
        # inside one worker task.
        assert len(home) == 21
        assert all(len(chunk_ids) == 1 for chunk_ids in home.values())
        # Deterministic merge order: each sweep keeps its plan order.
        for chunk in chunks:
            for spec in chunk:
                same = [s for s in specs if s.network == spec.network
                        and s.options == spec.options]
                assert [s for s in chunk if s in same] == same

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_spec_is_surfaced_not_raised(self, tmp_path, jobs):
        good = [RunSpec("gru", GP102, LIGHT), RunSpec("cifarnet", GP102, LIGHT)]
        bad = RunSpec("no_such_net", GP102, LIGHT)
        report = Executor(ResultStore(tmp_path)).execute(good + [bad], jobs=jobs)
        assert report.planned == 3
        assert report.fresh == 2
        assert report.cached == 0
        assert list(report.failed) == [bad.key()]
        message = report.failed[bad.key()]
        assert "no_such_net" in message and "KeyError" in message
        assert "1 failed" in report.summary()

    def test_failed_report_roundtrips_and_stays_compatible(self):
        from repro.runs.executor import ExecutionReport

        with_failure = ExecutionReport(
            planned=2, fresh=1, cached=0, failed={"k": "boom"}
        )
        assert ExecutionReport.from_dict(with_failure.to_dict()) == with_failure
        # pre-failure payloads (no 'failed' key) still load
        legacy = ExecutionReport.from_dict(
            {"planned": 5, "fresh": 2, "cached": 3}
        )
        assert legacy.failed == {}


class TestWorkerDeath:
    """A worker process that dies mid-pass (``os._exit`` stands in for a
    kill or an out-of-memory abort) breaks the pool: every run the pool
    did not finish is reported as failed, in one line, and the pass
    returns.  Forked workers inherit the patched ``_simulate_spec``."""

    SPECS = [RunSpec(network, GP102, LIGHT) for network in ("gru", "lstm", "cifarnet")]

    @pytest.fixture
    def kill_worker(self, tmp_path, monkeypatch):
        """Arm ``kill_worker(network, after=None)``: the worker that runs
        *network* exits, once the parent has stored *after*'s run."""
        import multiprocessing
        import time

        import repro.runs.executor as executor_mod
        from repro.runs.store import RUNS_SUBDIR

        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the patch only under the fork start method")
        parent = os.getpid()
        real = executor_mod._simulate_spec

        def arm(network: str, after: str | None = None) -> None:
            def dying(spec, *args):
                if spec.network != network:
                    return real(spec, *args)
                if os.getpid() == parent:
                    raise AssertionError("the parent re-ran a run its pool lost")
                deadline = time.monotonic() + 60
                while (after and time.monotonic() < deadline
                       and not any((tmp_path / RUNS_SUBDIR).glob(f"{after}-*.json"))):
                    time.sleep(0.01)
                os._exit(1)

            monkeypatch.setattr(executor_mod, "_simulate_spec", dying)

        before = set(multiprocessing.active_children())
        yield arm
        assert set(multiprocessing.active_children()) <= before

    def _check(self, report, store) -> None:
        assert report.planned == report.fresh + report.cached + len(report.failed) == 3
        for spec in self.SPECS:
            message = report.failed.get(spec.key())
            if message is None:
                assert store.get_run(spec) is not None, spec.describe()
            else:
                assert "\n" not in message
                assert message.startswith(spec.describe() + ": BrokenProcessPool")
                assert not store.run_path(spec).exists()

    def test_unfinished_runs_are_reported_not_raised(self, tmp_path, kill_worker):
        # GRU's chunk is merged and stored before the LSTM worker dies.
        kill_worker("lstm", after="gru")
        store = ResultStore(tmp_path)
        report = Executor(store).execute(self.SPECS, jobs=2)
        self._check(report, store)
        assert [s.key() in report.failed for s in self.SPECS[:2]] == [False, True]

    def test_death_before_the_last_submit(self, tmp_path, kill_worker, monkeypatch):
        # A pool a worker already broke refuses further submits.
        from concurrent.futures import ProcessPoolExecutor, wait

        import repro.runs.executor as executor_mod

        class LateSubmits(ProcessPoolExecutor):
            first = None

            def submit(self, *args, **kwargs):
                if self.first is not None:
                    wait([self.first], timeout=60)
                future = super().submit(*args, **kwargs)
                self.first = self.first or future
                return future

        monkeypatch.setattr(executor_mod, "ProcessPoolExecutor", LateSubmits)
        kill_worker("gru")
        store = ResultStore(tmp_path)
        report = Executor(store).execute(self.SPECS, jobs=2)
        self._check(report, store)
        assert len(report.failed) == 3

    def test_campaign_skips_the_lost_points(self, tmp_path, kill_worker):
        from repro.campaign import campaign_from_dict, run_campaign

        kill_worker("lstm", after="gru")
        spec = campaign_from_dict({
            "campaign": {"name": "t", "fidelity": "light"},
            "axes": {"network": ["gru", "lstm", "cifarnet"]},
        })
        result = run_campaign(spec, store=ResultStore(tmp_path), jobs=2)
        skipped = {s["axes"]["network"]: s["error"] for s in result.skipped}
        assert "lstm" in skipped and "gru" not in skipped
        assert all("BrokenProcessPool" in error for error in skipped.values())
        assert len(result.rows) + len(result.skipped) == result.plan.requested == 3


class TestStore:
    @pytest.mark.parametrize("platform", ["gp102", "s2npu"])
    def test_payload_roundtrip_is_exact(self, platform):
        config = make_config(platform)
        result = Executor().run(RunSpec("gru", config, LIGHT))
        payload = json.loads(json.dumps(result_to_payload(result)))
        clone = result_from_payload(payload, config, LIGHT)
        assert result_to_payload(clone) == payload
        assert clone.total_time_ms == result.total_time_ms
        assert clone.total_cycles == result.total_cycles
        assert clone.cycles_by_category() == result.cycles_by_category()
        for ka, kb in zip(result.kernels, clone.kernels):
            assert ka.stats.to_dict() == kb.stats.to_dict()
            assert ka.kernel.signature() == kb.kernel.signature()

    def test_one_run_writes_one_entry(self, tmp_path):
        store = ResultStore(tmp_path)
        spec = RunSpec("gru", GP102, LIGHT)
        Executor(store).run(spec)
        # One JSON file under runs/, nothing in the store root.
        assert sorted(tmp_path.rglob("*.json")) == [store.run_path(spec)]
        stats = cache_stats(tmp_path)
        assert stats["entries"] == 1
        assert stats["bytes"] == store.run_path(spec).stat().st_size

    def test_stats_break_down_by_engine(self, tmp_path):
        Executor(ResultStore(tmp_path)).run(RunSpec("gru", GP102, LIGHT))
        (tmp_path / "stale000.json").write_text(
            json.dumps({"engine": "old-engine", "stats": {}})
        )
        stats = cache_stats(tmp_path)
        by_engine = stats["by_engine"]
        assert set(by_engine) == {stats["engine_version"], "old-engine"}
        assert by_engine["old-engine"]["entries"] == 1
        assert by_engine["old-engine"]["bytes"] > 0
        live = by_engine[stats["engine_version"]]
        assert live["entries"] == stats["entries"] - 1
        assert sum(b["bytes"] for b in by_engine.values()) == stats["bytes"]

    def test_clear_by_engine_prunes_only_that_engine(self, tmp_path):
        Executor(ResultStore(tmp_path)).run(RunSpec("gru", GP102, LIGHT))
        before = cache_stats(tmp_path)
        (tmp_path / "stale000.json").write_text(
            json.dumps({"engine": "old-engine", "stats": {}})
        )
        removed = clear_cache(tmp_path, engine="old-engine")
        assert removed == 1
        after = cache_stats(tmp_path)
        assert "old-engine" not in after["by_engine"]
        assert after["entries"] == before["entries"]
        # the surviving entries are still valid warm hits
        rerun = Executor(ResultStore(tmp_path)).execute(
            [RunSpec("gru", GP102, LIGHT)]
        )
        assert rerun.fresh == 0

    def test_clear_covers_runs_and_legacy_dir(self, tmp_path, monkeypatch):
        # clear_cache empties its own store and touches nothing outside
        # it: a .tango_cache in the working directory is not part of it.
        monkeypatch.chdir(tmp_path)
        store_dir = tmp_path / "store"
        Executor(ResultStore(store_dir)).run(RunSpec("gru", GP102, LIGHT))
        legacy = tmp_path / ".tango_cache" / "x.json"
        legacy.parent.mkdir()
        legacy.write_text("{}")
        assert clear_cache(store_dir) == 1
        assert cache_stats(store_dir)["entries"] == 0
        assert not (store_dir / "runs").exists()
        assert legacy.exists()

    def test_corrupt_run_entry_reads_as_miss(self, tmp_path):
        spec = RunSpec("gru", GP102, LIGHT)
        store = ResultStore(tmp_path)
        Executor(store).run(spec)
        store.run_path(spec).write_text("{broken")
        reread = ResultStore(tmp_path)
        assert reread.get_run(spec) is None
        result = Executor(reread).run(spec)
        assert result.total_cycles > 0

    def test_engine_bump_misses_stale_run(self, tmp_path, monkeypatch):
        import repro.gpu.sm as sm

        spec = RunSpec("gru", GP102, LIGHT)
        Executor(ResultStore(tmp_path)).run(spec)
        monkeypatch.setattr(sm, "ENGINE_VERSION", "test-engine")
        assert ResultStore(tmp_path).get_run(spec) is None
