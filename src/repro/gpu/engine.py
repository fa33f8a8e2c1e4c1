"""Simulation-engine registry and selection.

Two engines can drive a resident-wave simulation, bit-identical by
construction and by test (``tests/test_engine_equivalence.py``):

* ``seed`` — the frozen reference implementation in
  :mod:`repro.gpu.seed_engine` (per-cycle ``O(warps)`` scans;
  deliberately slow, the equivalence oracle);
* ``vector`` — the default: :mod:`repro.gpu.sm`, an event-heap wake
  loop over pre-decoded instructions with all three warp policies
  inlined, coalesced transactions resolved once per wave and a
  vectorized L2 warm front (``ENGINE_VERSION = "fast-3"``).

Selection, in precedence order: :func:`set_engine` (the ``--engine``
CLI flag), the ``REPRO_ENGINE`` environment variable, then
:data:`DEFAULT_ENGINE`.  :func:`engine_version` resolves the *active*
engine's version string; both persistent result-store layers
(:mod:`repro.runs.store`, :mod:`repro.runs.spec`) fold it into their
content keys, so switching engines never aliases cached numbers.
"""

from __future__ import annotations

import os

#: Recognized engine names: the oracle, then the optimized engine.
ENGINES = ("seed", "vector")

#: Engine used when neither :func:`set_engine` nor ``$REPRO_ENGINE``
#: chose one.
DEFAULT_ENGINE = "vector"

#: Environment variable consulted by :func:`get_engine`.
ENGINE_ENV = "REPRO_ENGINE"

_forced: str | None = None


def _validate(name: str, source: str) -> str:
    if name not in ENGINES:
        raise ValueError(
            f"unknown engine {name!r} (from {source}); "
            f"expected one of {', '.join(ENGINES)}"
        )
    return name


def set_engine(name: str | None) -> None:
    """Force the active engine for this process (``None`` resets to the
    environment/default resolution)."""
    global _forced
    _forced = None if name is None else _validate(name, "set_engine")


def get_engine() -> str:
    """Name of the active engine (set_engine > $REPRO_ENGINE > default)."""
    if _forced is not None:
        return _forced
    env = os.environ.get(ENGINE_ENV)
    if env:
        return _validate(env, ENGINE_ENV)
    return DEFAULT_ENGINE


def engine_version(name: str | None = None) -> str:
    """Result-cache version string of *name* (default: active engine).

    Reads the owning module's ``ENGINE_VERSION`` attribute at call time,
    so tests can monkeypatch a version to exercise cache invalidation.
    """
    name = _validate(name, "engine_version") if name is not None else get_engine()
    if name == "seed":
        from repro.gpu import seed_engine

        return seed_engine.ENGINE_VERSION
    from repro.gpu import sm

    return sm.ENGINE_VERSION


def wave_class(name: str | None = None):
    """The resident-wave class the simulator drivers should construct.

    Only the optimized engine plugs into
    :func:`repro.gpu.simulator._run_wave`; the seed engine keeps its own
    frozen drivers, and :func:`repro.gpu.simulator.simulate_network`
    delegates to them wholesale when ``seed`` is active.
    """
    name = _validate(name, "wave_class") if name is not None else get_engine()
    if name == "seed":
        raise ValueError("the seed engine has no pluggable wave class")
    from repro.gpu.sm import SmWave

    return SmWave
