"""The single registry of paper experiments.

Experiment modules (``repro.harness.tables``, the sixteen
``repro.harness.figNN_*`` modules and ``figx_hetero_energy``) call
:func:`register` at import time;
:func:`all_experiments` imports them all and returns the registry in
paper order.  The registry is the one source of truth behind
``repro harness list|run`` (through :func:`repro.harness.suite.run_all`)
and the planner's full-suite matrix.
"""

from __future__ import annotations

from importlib import import_module

from repro.runs.experiment import Experiment

#: Modules that define (and register) experiments, in paper order.
EXPERIMENT_MODULES = (
    "repro.harness.tables",
    "repro.harness.fig01_exec_breakdown",
    "repro.harness.fig02_l1_sensitivity",
    "repro.harness.fig03_peak_power",
    "repro.harness.fig04_layer_power",
    "repro.harness.fig05_component_power",
    "repro.harness.fig06_tx1_pynq",
    "repro.harness.fig07_stall_breakdown",
    "repro.harness.fig08_op_breakdown",
    "repro.harness.fig09_top_ops",
    "repro.harness.fig10_dtype_breakdown",
    "repro.harness.fig11_memfootprint",
    "repro.harness.fig12_register_usage",
    "repro.harness.fig13_l2_misses",
    "repro.harness.fig14_l2_miss_ratio",
    "repro.harness.fig15_scheduler",
    "repro.harness.fig16_scheduler_alexnet",
    "repro.harness.figx_hetero_energy",
)

_REGISTRY: dict[str, Experiment] = {}


def register(experiment: Experiment) -> Experiment:
    """Add one experiment to the registry (idempotent per exp_id)."""
    _REGISTRY[experiment.exp_id] = experiment
    return experiment


def all_experiments() -> dict[str, Experiment]:
    """Every registered experiment, id -> spec, in paper order.

    Importing the experiment modules is deferred to first use so the
    ``repro.runs`` core stays import-cycle-free (the harness modules
    import :class:`Experiment` from here).
    """
    for module in EXPERIMENT_MODULES:
        import_module(module)
    order = {exp_id: i for i, exp_id in enumerate(_expected_order())}
    return dict(
        sorted(_REGISTRY.items(), key=lambda kv: order.get(kv[0], len(order)))
    )


def get_experiment(exp_id: str) -> Experiment:
    """One experiment by id; raises KeyError with the known ids."""
    experiments = all_experiments()
    if exp_id not in experiments:
        raise KeyError(
            f"unknown experiment {exp_id!r} (known: {', '.join(experiments)})"
        )
    return experiments[exp_id]


def _expected_order() -> tuple[str, ...]:
    return tuple(
        [f"table{i}" for i in range(1, 5)] + [f"fig{i:02d}" for i in range(1, 17)]
    )
