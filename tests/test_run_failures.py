"""A failed run is attempted once and reported in one line.

Every simulation goes through the executor's one attempt loop, and a
run whose simulation raises is recorded per executor: a later
``Executor.run`` or ``Executor.execute`` reports the recorded line
(``"<run>: <ErrorType>: <message>"``) instead of simulating it again.
Every CLI subcommand then ends with that line on stderr and exit
status 1, never a traceback.  Faults are injected two ways: the
``hopeless_platform`` fixture (an NPU whose tiles no layer fits) and a
patched ``_simulate_spec`` that raises for one named run.
"""

from __future__ import annotations

import multiprocessing
from types import SimpleNamespace

import pytest

import repro.runs.executor as executor_mod
from repro.cli import main
from repro.gpu.config import SimOptions
from repro.platforms import GP102
from repro.runs import Executor, RunFailed, RunSpec

LIGHT = SimOptions().light()

#: The executor's line for any CifarNet run on the hopeless platform.
HOPELESS = (
    "cifarnet on Hopeless: MappingError: conv1: a 1-channel, 1-row, "
    "1-input-channel conv tile still exceeds 64 bytes on Hopeless"
)


@pytest.fixture
def attempts(tmp_path, monkeypatch):
    """Log every ``_simulate_spec`` call by its run identity, in a file
    so that forked workers log too; a run named in ``attempts.fail``
    raises ``RuntimeError("injected")`` instead of simulating."""
    log = tmp_path / "attempts.log"
    log.touch()
    real = executor_mod._simulate_spec
    fail: set[str] = set()

    def logged(spec, *args):
        with log.open("a") as out:
            out.write(spec.describe() + "\n")
        if spec.describe() in fail:
            raise RuntimeError("injected")
        return real(spec, *args)

    monkeypatch.setattr(executor_mod, "_simulate_spec", logged)
    return SimpleNamespace(fail=fail, read=lambda: log.read_text().splitlines())


class TestExecutorAttemptsOnce:
    GOOD = RunSpec("gru", GP102, LIGHT)
    BAD = RunSpec("lstm", GP102, LIGHT)
    LINE = "lstm on GP102: RuntimeError: injected"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_is_never_attempted_again(self, attempts, jobs):
        if jobs > 1 and multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the patch only under the fork start method")
        attempts.fail.add(self.BAD.describe())
        executor = Executor()
        report = executor.execute([self.GOOD, self.BAD], jobs=jobs)
        assert (report.fresh, report.cached) == (1, 0)
        assert report.failed == {self.BAD.key(): self.LINE}
        # run() or simulate() after execute(): the recorded line, no
        # second attempt.
        for attempt in (executor.run, lambda spec: next(executor.simulate([spec]))):
            with pytest.raises(RunFailed) as raised:
                attempt(self.BAD)
            assert str(raised.value) == self.LINE
        # A second pass reports the failure without attempting it.
        again = executor.execute([self.GOOD, self.BAD], jobs=jobs)
        assert (again.fresh, again.cached, again.failed) == (0, 1, report.failed)
        assert sorted(attempts.read()) == ["gru on GP102", "lstm on GP102"]

    def test_failed_run_raises_once_through_run(self, attempts):
        attempts.fail.add(self.BAD.describe())
        executor = Executor()
        for _ in range(2):
            with pytest.raises(RunFailed, match=f"^{self.LINE}$"):
                executor.run(self.BAD)
        assert executor.failed == {self.BAD.key(): self.LINE}
        assert attempts.read() == ["lstm on GP102"]


class TestCliReportsOneLine:
    """exit 1, ``error: <line>`` as the whole of stderr, one attempt."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "cifarnet", "--platform", "hopeless"],
        ["trace", "simulate", "cifarnet", "--platform", "hopeless"],
        ["trace", "serve", "--networks", "cifarnet", "--devices", "hopeless",
         "--requests", "20"],
    ], ids=["simulate", "trace-simulate", "trace-serve"])
    def test_unmappable_platform(
        self, argv, hopeless_platform, attempts, capsys, tmp_path
    ):
        if argv[0] == "trace":
            argv = [*argv, "--output", str(tmp_path / "trace.json")]
        assert main([*argv, "--cache-dir", str(tmp_path / "store")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {HOPELESS}\n"
        assert captured.out == ""
        assert attempts.read() == ["cifarnet on Hopeless"]
        assert not (tmp_path / "trace.json").exists()

    def test_harness_run(self, attempts, capsys, tmp_path):
        bad = "alexnet on GP102 (sched=lrr)"
        attempts.fail.add(bad)
        assert main(["harness", "run", "fig16", "--cache-dir", str(tmp_path / "store")]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {bad}: RuntimeError: injected\n"
        # stdout holds the progress log and nothing after it.
        assert captured.out.splitlines()[-1] == "[plan] 3 unique runs: 2 fresh, 0 cached, 1 failed"
        assert attempts.read().count(bad) == 1
