"""Run identities and planning contexts.

A :class:`RunSpec` names one whole-network simulation: the network, the
frozen :class:`~repro.gpu.config.GpuConfig` it runs on, and the frozen
:class:`~repro.gpu.config.SimOptions` knobs (which include the warp
scheduler).  Because both component dataclasses are frozen, a spec is
hashable and its content key is a pure function of its fields plus the
engine version (DESIGN.md section 9).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field

from repro.gpu.config import GpuConfig, SimOptions


@dataclass(frozen=True)
class RunSpec:
    """Identity of one whole-network simulation."""

    network: str
    config: GpuConfig
    options: SimOptions = field(default_factory=SimOptions)

    def key(self) -> str:
        """Content key of this spec (see :func:`run_key`)."""
        return run_key(self.network, self.config, self.options)

    def describe(self) -> str:
        """One-line human identity for planner/executor logs."""
        extras = []
        if self.config.kind == "gpu" and self.config.l1_size != 64 * 1024:
            extras.append(f"l1={self.config.l1_size // 1024}K")
        if self.options.scheduler != "gto":
            extras.append(f"sched={self.options.scheduler}")
        if self.options.max_outer_trips is None:
            extras.append("full-outer")
        suffix = f" ({', '.join(extras)})" if extras else ""
        return f"{self.network} on {self.config.name}{suffix}"


def run_key(network: str, config: GpuConfig, options: SimOptions) -> str:
    """SHA-256 key of one network run, folding in the engine version.

    Any change to any field of the config or options — or an engine
    bump — yields a new key, so stale entries are never looked up.
    """
    from repro.gpu.engine import engine_version

    payload = json.dumps(
        {
            "kind": "network-run",
            "engine": engine_version(),
            "network": network,
            "config": asdict(config),
            "options": asdict(options),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class PlanContext:
    """Knobs a planning pass is parameterized by.

    ``networks=None`` (the default) plans the paper's full matrix.  A
    tuple restricts every experiment to the named subset — used by the
    golden-series fixtures, which run the whole registry over just
    (cifarnet, gru) with light options.  Checks are only evaluated on
    full-matrix contexts: the paper's qualitative claims quantify over
    the complete network set.
    """

    networks: tuple[str, ...] | None = None
    options: SimOptions = field(default_factory=SimOptions)

    @property
    def full(self) -> bool:
        """True when the whole network matrix is planned."""
        return self.networks is None

    def nets(self, names: tuple[str, ...]) -> tuple[str, ...]:
        """*names* filtered down to this context's network subset."""
        if self.networks is None:
            return tuple(names)
        allowed = set(self.networks)
        return tuple(name for name in names if name in allowed)
