"""Tests for the experiment harness: report, store-backed executor, experiments.

Simulation-heavy experiments are exercised through the analytic ones
plus the run-store machinery; the full figure set is regenerated by the
benchmark harness (``pytest benchmarks/``).
"""

from __future__ import annotations

import json

import pytest

from repro.gpu.config import SimOptions
from repro.harness.report import Check, ExperimentResult
from repro.isa.opcodes import Pipe
from repro.platforms import GP102
from repro.profiling.stall import StallReason
from repro.profiling.stats import KernelStats
from repro.runs import Executor, ResultStore, RunSpec, run_experiment
from repro.runs.registry import all_experiments, get_experiment


class TestReport:
    def test_check_renders_pass_fail(self):
        assert "PASS" in str(Check("claim", True))
        assert "FAIL" in str(Check("claim", False, "why"))

    def test_experiment_all_passed(self):
        result = ExperimentResult("x", "t", checks=[Check("a", True), Check("b", False)])
        assert not result.all_passed

    def test_format_includes_series_and_checks(self):
        result = ExperimentResult(
            "fig99", "Title", series={"s": {"a": 0.5}}, checks=[Check("c", True)]
        )
        text = result.format()
        assert "fig99" in text and "a=0.5" in text and "PASS" in text

    def test_series_json_serializable(self):
        result = run_experiment(get_experiment("table2"), Executor())
        json.dumps(result.series)  # must not raise


class TestRunStore:
    def test_stats_roundtrip(self):
        stats = KernelStats()
        stats.cycles = 123.0
        stats.issued_by_pipe[Pipe.FPU] = 7.0
        stats.stalls[StallReason.PIPE_BUSY] = 3.0
        stats.l2_misses = 11.0
        clone = KernelStats.from_dict(stats.to_dict())
        assert clone.cycles == 123.0
        assert clone.issued_by_pipe[Pipe.FPU] == 7.0
        assert clone.stalls[StallReason.PIPE_BUSY] == 3.0
        assert clone.l2_misses == 11.0

    def test_disk_cache_hit(self, tmp_path):
        options = SimOptions(max_trips=4, max_outer_trips=1, max_sim_blocks=1)
        spec = RunSpec("gru", GP102, options)
        store = ResultStore(tmp_path)
        first = Executor(store).run(spec)
        assert len(list((tmp_path / "runs").glob("*.json"))) == 1
        fresh_store = ResultStore(tmp_path)
        second = Executor(fresh_store).run(spec)
        assert second.total_cycles == first.total_cycles
        assert fresh_store.run_hits == 1

    def test_cache_key_differs_by_config(self, tmp_path):
        options = SimOptions(max_trips=4, max_outer_trips=1, max_sim_blocks=1)
        executor = Executor(ResultStore(tmp_path))
        executor.run(RunSpec("gru", GP102, options))
        executor.run(RunSpec("gru", GP102.with_l1(0), options))
        assert len(list((tmp_path / "runs").glob("*.json"))) == 2

    def test_cached_result_api(self, tmp_path):
        options = SimOptions(max_trips=4, max_outer_trips=1, max_sim_blocks=1)
        spec = RunSpec("gru", GP102, options)
        Executor(ResultStore(tmp_path)).run(spec)
        result = Executor(ResultStore(tmp_path)).run(spec)
        assert result.network == "gru"
        assert result.total_time_ms > 0
        assert sum(result.cycles_by_category().values()) == pytest.approx(
            result.total_cycles
        )
        assert result.aggregate().issued > 0


class TestAnalyticExperiments:
    """Experiments that need no simulation run fully in unit tests."""

    @pytest.fixture(scope="class")
    def executor(self):
        return Executor()

    @pytest.mark.parametrize(
        "exp_id",
        ["table1", "table2", "table3", "table4",
         "fig08", "fig09", "fig10", "fig11", "fig12"],
    )
    def test_experiment_checks_pass(self, executor, exp_id):
        result = run_experiment(get_experiment(exp_id), executor)
        failed = [str(c) for c in result.checks if not c.passed]
        assert not failed, failed

    def test_registry_covers_all_tables_and_figures(self):
        expected = {f"table{i}" for i in range(1, 5)} | {
            f"fig{i:02d}" for i in range(1, 17)
        } | {"hetero"}
        assert set(all_experiments()) == expected
