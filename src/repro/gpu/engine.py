"""The simulation engine's identity: its version string and wave class.

Every simulation runs :class:`repro.gpu.sm.SmWave`, an event-heap wake
loop over pre-decoded instructions with all three warp policies
inlined and a vectorized L2 warm front (``ENGINE_VERSION = "fast-3"``).
The frozen seed engine in :mod:`repro.gpu.seed_engine` is not
selectable: it is the bit-identity oracle that
``tests/test_engine_equivalence.py`` calls directly.

:func:`engine_version` is folded into every stored run's content key
(:mod:`repro.runs.spec`, :mod:`repro.runs.store`), so an engine bump
never aliases stored numbers.
"""

from __future__ import annotations


def engine_version() -> str:
    """The engine's result-store version string.

    Reads :data:`repro.gpu.sm.ENGINE_VERSION` at call time, so tests can
    monkeypatch it to exercise store invalidation.
    """
    from repro.gpu import sm

    return sm.ENGINE_VERSION


def wave_class():
    """The resident-wave class :func:`repro.gpu.simulator._run_wave` builds."""
    from repro.gpu.sm import SmWave

    return SmWave
