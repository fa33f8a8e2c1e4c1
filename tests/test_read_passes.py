"""A read pass does each piece of work once, and keeps nothing after.

Figures 8-12 are static properties of the compiled kernels and the
other figures fold stored runs, so a warm harness pass is all reading.
Three rules keep it from repeating itself (DESIGN.md sections 9, 12):

* one experiment evaluation (``aggregate``, then ``checks``, on one
  :class:`~repro.runs.experiment.RunView`) computes each analysis once,
  and the next evaluation computes it again;
* per-launch static analyses (Figure 12's liveness and occupancy,
  Figure 10's data-type mix) run once per launch signature, against the
  per-launch computations kept here as references;
* a store read decodes each distinct entry of a payload once, where
  distinct means another signature or another stats dict, and every
  launch still owns its stats.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter

import pytest

from repro.core.suite import NETWORK_ORDER
from repro.gpu.config import SimOptions
from repro.gpu.occupancy import compute_occupancy
from repro.harness import fig12_register_usage as fig12
from repro.harness.common import sim_platform
from repro.isa.dtypes import DType
from repro.isa.opcodes import Pipe
from repro.isa.program import max_live_registers
from repro.kernels.compile import compiled_network
from repro.kernels.launch import WARP_SIZE
from repro.platforms import GP102
from repro.profiling import instmix
from repro.profiling.instmix import dtype_mix_per_kernel, program_histogram
from repro.profiling.stall import StallReason
from repro.profiling.stats import KernelStats
from repro.runs import Executor, PlanContext, ResultStore, RunSpec, RunView, build_plan
from repro.runs import run_experiment
from repro.runs.registry import get_experiment
from repro.runs.store import result_to_payload

LIGHT = SimOptions().light()

#: Full-matrix context at light fidelity: checks run, runs stay cheap.
CTX = PlanContext(options=LIGHT)

#: experiment id -> (harness module, the analyses its aggregate and
#: checks both read).
ANALYSES = {
    "fig01": ("fig01_exec_breakdown", ("_fractions",)),
    "fig04": ("fig04_layer_power", ("_category_power",)),
    "fig06": ("fig06_tx1_pynq", ("_measure",)),
    "hetero": ("figx_hetero_energy", ("_measure",)),
    "fig08": ("fig08_op_breakdown", ("_mixes",)),
    "fig09": ("fig09_top_ops", ("top_ops",)),
    "fig10": ("fig10_dtype_breakdown", ("dtype_mix_per_kernel", "f32_fraction")),
    "fig11": ("fig11_memfootprint", ("footprint",)),
    "fig12": ("fig12_register_usage", ("_usage",)),
    "fig13": ("fig13_l2_misses", ("_misses",)),
    "fig14": ("fig14_l2_miss_ratio", ("_ratios",)),
    "fig16": ("fig16_scheduler_alexnet", ("_per_sched",)),
}


@pytest.fixture(scope="module")
def executor() -> Executor:
    """An in-memory executor holding every run the experiments read."""
    executor = Executor()
    report = executor.execute(build_plan([get_experiment(e) for e in ANALYSES], CTX))
    assert not report.failed
    return executor


def _spy(monkeypatch, module, names: tuple[str, ...]) -> list[tuple]:
    """Log each call of *module*'s *names* as ``(name, args, kwargs)``,
    the :class:`RunView` argument left out."""
    calls: list[tuple] = []
    for name in names:
        real = getattr(module, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            shown = tuple(a for a in args if not isinstance(a, RunView))
            calls.append((_name, shown, tuple(sorted(kwargs.items()))))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


class TestOneAnalysisPerEvaluation:
    @pytest.mark.parametrize("exp_id", sorted(ANALYSES))
    def test_each_analysis_runs_once_per_evaluation(self, exp_id, executor, monkeypatch):
        module_name, names = ANALYSES[exp_id]
        module = importlib.import_module(f"repro.harness.{module_name}")
        calls = _spy(monkeypatch, module, names)
        experiment = get_experiment(exp_id)
        first = run_experiment(experiment, executor, CTX)
        assert first.checks, "checks did not run"
        once = Counter(calls)
        assert set(once.values()) == {1}, once
        assert {name for name, *_ in once} == set(names)
        # The next evaluation computes everything again: nothing of the
        # first one's memo outlives it.
        run_experiment(experiment, executor, CTX)
        assert Counter(calls) == Counter({call: 2 for call in once})

    @pytest.mark.parametrize("exp_id", sorted(ANALYSES))
    def test_sharing_changes_no_result(self, exp_id, executor):
        experiment = get_experiment(exp_id)
        shared = run_experiment(experiment, executor, CTX)
        # aggregate and checks each on a view of its own share nothing.
        series = experiment.aggregate(RunView(executor, CTX))
        checks = experiment.checks(RunView(executor, CTX), series)
        assert shared.series == series
        assert shared.checks == checks


def _register_usage_per_launch(name: str) -> tuple[float, float]:
    """Figure 12's peaks computed launch by launch (the reference)."""
    config = sim_platform()
    alloc_peak = 0.0
    live_peak = 0.0
    for kernel in compiled_network(name):
        occ = compute_occupancy(kernel, config)
        alloc_kb = occ.allocated_register_bytes / 1024.0
        live = max_live_registers(kernel.program).max_live
        live_kb = live * occ.warps * WARP_SIZE * 4 / 1024.0
        alloc_peak = max(alloc_peak, alloc_kb)
        live_peak = max(live_peak, min(live_kb, alloc_kb))
    return alloc_peak, live_peak


def _dtype_mix_per_launch(name: str) -> list[tuple[str, dict[str, float]]]:
    """Figure 10's mixes computed launch by launch (the reference)."""
    out = []
    for kernel in compiled_network(name):
        hist = program_histogram(kernel.program)
        typed = {key: count for key, count in hist.items() if key[1] is not DType.NONE}
        total = sum(typed.values())
        mix: dict[str, float] = {}
        if total:
            for (_op, dtype), count in typed.items():
                mix[dtype.value] = mix.get(dtype.value, 0.0) + count / total
        out.append((kernel.name, mix))
    return out


def _signatures(name: str) -> int:
    return len({kernel.signature() for kernel in compiled_network(name)})


class TestPerSignatureAnalyses:
    @pytest.mark.parametrize("name", NETWORK_ORDER)
    def test_register_usage_equals_the_per_launch_peaks(self, name):
        assert fig12.register_usage(name) == _register_usage_per_launch(name)

    @pytest.mark.parametrize("name", NETWORK_ORDER)
    def test_dtype_mix_equals_the_per_launch_mixes(self, name):
        mixes = dtype_mix_per_kernel(name)
        assert mixes == _dtype_mix_per_launch(name)
        # Every launch owns its dict, even where signatures repeat.
        assert len({id(mix) for _, mix in mixes}) == len(mixes)

    def test_each_signature_is_analysed_once(self, monkeypatch):
        liveness = _spy(monkeypatch, fig12, ("max_live_registers",))
        histograms = _spy(monkeypatch, instmix, ("program_histogram",))
        fig12.register_usage("resnet")
        dtype_mix_per_kernel("resnet")
        # ResNet repeats its bottleneck kernels: 228 launches, 55 signatures.
        assert len(compiled_network("resnet")) == 228
        assert len(liveness) == len(histograms) == _signatures("resnet") == 55


@pytest.fixture(scope="module")
def gru_payload() -> dict:
    """A light GRU run's payload: its two timestep launches share a
    signature and carry equal stats; the projection differs."""
    payload = json.loads(json.dumps(
        result_to_payload(Executor().run(RunSpec("gru", GP102, LIGHT)))
    ))
    first, second, projection = payload["kernels"]
    assert first["signature"] == second["signature"] != projection["signature"]
    assert first["stats"] == second["stats"]
    return payload


def _decode(payload: dict, tmp_path):
    """*payload* written as a store entry and read back."""
    spec = RunSpec("gru", GP102, LIGHT)
    store = ResultStore(tmp_path)
    store.put_run(spec, payload)
    result = store.get_run(spec)
    assert result is not None
    return result


class TestDecodeOncePerDistinctEntry:
    def test_equal_entries_decode_once(self, gru_payload, tmp_path, monkeypatch):
        decoded = []
        real = KernelStats.from_dict.__func__

        def counting(cls, data):
            decoded.append(data)
            return real(cls, data)

        monkeypatch.setattr(KernelStats, "from_dict", classmethod(counting))
        result = _decode(gru_payload, tmp_path)
        assert len(decoded) == 2
        for kernel, entry in zip(result.kernels, gru_payload["kernels"]):
            assert kernel.stats.to_dict() == entry["stats"]

    def test_differing_twins_decode_as_stored(self, gru_payload, tmp_path):
        # Hand-edited: the second timestep's stats no longer equal the
        # first's, under the same signature.
        payload = json.loads(json.dumps(gru_payload))
        edited = payload["kernels"][1]["stats"]
        edited["cycles"] += 1.0
        edited["stalls"][StallReason.SYNC.value] = 7.0
        result = _decode(payload, tmp_path)
        for kernel, entry in zip(result.kernels, payload["kernels"]):
            assert kernel.stats.to_dict() == entry["stats"]
        first, second, _ = result.kernels
        assert second.stats.cycles == first.stats.cycles + 1.0

    def test_twins_own_their_stats(self, gru_payload, tmp_path):
        result = _decode(gru_payload, tmp_path)
        first, second, _ = result.kernels
        assert first.stats is not second.stats
        first.stats.cycles += 1.0
        first.stats.issued_by_pipe[Pipe.SP] += 1.0
        first.stats.stalls[StallReason.SYNC] += 1.0
        assert second.stats.to_dict() == gru_payload["kernels"][1]["stats"]
