"""Queue-depth / SLO-attainment autoscaling with hysteresis.

The autoscaler is evaluated at fixed simulated intervals (``tick``
events in the engine).  Each tick it sees one :class:`AutoscaleSignals`
snapshot — accepting-device count, total queued requests, and the
completion/SLO counts of the window since the previous tick — and
answers with a fleet delta: +1 (add or un-drain one device), -1 (drain
one device) or 0.

Hysteresis is structural, not incidental (DESIGN.md §15):

* **dead band** — the scale-up queue-depth threshold is strictly above
  the scale-down threshold, so a fleet sitting between them never
  moves;
* **projection guard** — a scale-down is allowed only when the queue
  depth *projected onto the smaller fleet* stays below the scale-up
  threshold times a safety margin, so under constant load a removal
  can never trigger the next tick's addition;
* **cooldown** — after any action, further actions wait
  ``cooldown_ms``, bounding the reaction rate to bursts.

Together these make oscillation impossible under constant load: a
scale-down leaves the projected per-device depth below ``up_queue_depth
* safety``, so with an unchanged offered load the up condition cannot
fire next — the property test in ``tests/test_serve_autoscale.py``
drives random signal streams through the policy and asserts a
down-decision is never followed by an up-decision while the total
queue signal is non-increasing.

Like every pipeline stage, the policy is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AutoscaleConfig:
    """Policy knobs of the queue-depth autoscaler."""

    #: Platform name used for devices the autoscaler creates.
    template: str
    min_devices: int = 1
    max_devices: int = 8
    #: Evaluation period (one tick) in simulated milliseconds.
    interval_ms: float = 1000.0
    #: Minimum simulated time between two scaling actions.
    cooldown_ms: float = 5000.0
    #: Scale up when mean queued requests per accepting device exceed this.
    up_queue_depth: float = 8.0
    #: Scale down only when they are below this (must be < up_queue_depth).
    down_queue_depth: float = 1.0
    #: Scale up when the window's SLO attainment drops below this floor.
    slo_floor: float = 0.95
    #: Scale-down projection margin: the post-removal depth must stay
    #: below ``up_queue_depth * safety``.
    safety: float = 0.8

    def __post_init__(self) -> None:
        if self.min_devices < 1:
            raise ValueError("min_devices must be >= 1")
        if self.max_devices < self.min_devices:
            raise ValueError("max_devices must be >= min_devices")
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be > 0")
        if self.cooldown_ms < 0:
            raise ValueError("cooldown_ms must be >= 0")
        if self.down_queue_depth < 0:
            raise ValueError("down_queue_depth must be >= 0")
        if self.up_queue_depth <= self.down_queue_depth:
            raise ValueError(
                "up_queue_depth must be strictly above down_queue_depth "
                "(the hysteresis dead band)"
            )
        if not 0.0 <= self.slo_floor <= 1.0:
            raise ValueError("slo_floor must be in [0, 1]")
        if not 0.0 < self.safety <= 1.0:
            raise ValueError("safety must be in (0, 1]")


@dataclass(frozen=True)
class AutoscaleSignals:
    """One tick's snapshot of the fleet, as the autoscaler sees it."""

    now_ms: float
    #: Devices currently accepting new work.
    accepting: int
    #: Requests queued across the whole fleet (not yet launched).
    pending_total: int
    #: Completions in the window since the last tick.
    window_completed: int
    #: Window completions that met their tenant's SLO.
    window_good: int

    @property
    def queue_per_device(self) -> float:
        return self.pending_total / self.accepting if self.accepting else 0.0

    @property
    def slo_attainment(self) -> float:
        """Window attainment; an empty window reads as healthy (1.0)."""
        if not self.window_completed:
            return 1.0
        return self.window_good / self.window_completed


class QueueDepthAutoscaler:
    """The default hysteresis autoscaler over queue depth + SLO signals."""

    name = "queue-depth"

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        self._last_action_ms = float("-inf")

    def reset(self) -> None:
        """Forget run state (the engine calls this at run start)."""
        self._last_action_ms = float("-inf")

    def decide(self, signals: AutoscaleSignals) -> int:
        """+1 to grow the fleet, -1 to shrink it, 0 to hold."""
        cfg = self.config
        if signals.now_ms - self._last_action_ms < cfg.cooldown_ms:
            return 0
        depth = signals.queue_per_device
        attainment = signals.slo_attainment
        if signals.accepting < cfg.min_devices:
            self._last_action_ms = signals.now_ms
            return 1
        if signals.accepting < cfg.max_devices and (
            depth > cfg.up_queue_depth or attainment < cfg.slo_floor
        ):
            self._last_action_ms = signals.now_ms
            return 1
        if (
            signals.accepting > cfg.min_devices
            and depth < cfg.down_queue_depth
            and attainment >= cfg.slo_floor
        ):
            projected = signals.pending_total / (signals.accepting - 1)
            if projected < cfg.up_queue_depth * cfg.safety:
                self._last_action_ms = signals.now_ms
                return -1
        return 0
