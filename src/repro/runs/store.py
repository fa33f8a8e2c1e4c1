"""The single content-addressed result store.

One directory (default ``.repro-cache/``, overridable with the
``REPRO_CACHE_DIR`` environment variable) persists every deterministic
simulation result the project produces, at one granularity: a
**run entry**, one JSON file per :class:`~repro.runs.spec.RunSpec` key
under the ``runs/`` subdirectory, written by
:class:`~repro.runs.executor.Executor`.  Each entry holds the whole
network's per-kernel stats, occupancies and sampling factors.

The invalidation contract: every field of the frozen config/options
dataclasses plus the engine's version string
(:func:`repro.gpu.engine.engine_version`, read at call time) folds
into a SHA-256 key, so stale entries are never returned — they are
simply never looked up again.  Corrupt, truncated or schema-mismatched
files read as misses (and are rewritten on the next store), never as
errors: the store must not be able to make a simulation fail.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict
from pathlib import Path

from repro.gpu.config import GpuConfig, SimOptions
from repro.gpu.engine import engine_version
from repro.gpu.occupancy import Occupancy
from repro.gpu.simulator import KernelInfo, KernelResult, NetworkResult
from repro.profiling.stats import KernelStats
from repro.runs.spec import RunSpec

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk location, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Subdirectory of the store holding whole-network run entries.
RUNS_SUBDIR = "runs"


def default_cache_dir() -> Path:
    """The cache directory honouring ``REPRO_CACHE_DIR``."""
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


# ----------------------------------------------------------------------
# whole-network run entries
# ----------------------------------------------------------------------
def result_to_payload(result: NetworkResult) -> dict:
    """JSON payload of a network run."""
    return {
        "engine": engine_version(),
        "network": result.network,
        "unique_kernels": result.unique_kernels,
        "kernels": [
            {
                "name": k.kernel.name,
                "node_name": k.kernel.node_name,
                "category": k.category,
                "signature": k.kernel.signature(),
                "total_blocks": k.kernel.total_blocks,
                "stats": k.stats.to_dict(),
                "occupancy": asdict(k.occupancy),
                "sample_factor": k.sample_factor,
                "block_factor": k.block_factor,
            }
            for k in result.kernels
        ],
    }


def result_from_payload(
    payload: dict, config: GpuConfig, options: SimOptions
) -> NetworkResult | None:
    """Payload dict -> NetworkResult, or None when malformed.

    A :class:`~repro.gpu.simulator.KernelInfo` stands in for each
    kernel's launch.  Each distinct entry is decoded once: an entry
    whose signature and stats dict equal an earlier entry's gets a copy
    of that entry's stats, so every launch still owns its
    :class:`~repro.profiling.stats.KernelStats`."""
    try:
        if payload["engine"] != engine_version():
            return None
        decoded: dict[str, list[tuple[dict, KernelStats]]] = {}
        return NetworkResult(
            network=payload["network"],
            config=config,
            options=options,
            kernels=[
                KernelResult(
                    kernel=KernelInfo(
                        name=entry["name"],
                        node_name=entry["node_name"],
                        category=entry["category"],
                        sig=entry["signature"],
                        total_blocks=entry["total_blocks"],
                    ),
                    stats=_entry_stats(entry, decoded),
                    occupancy=Occupancy(**entry["occupancy"]),
                    sample_factor=entry["sample_factor"],
                    block_factor=entry["block_factor"],
                )
                for entry in payload["kernels"]
            ],
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


def _entry_stats(
    entry: dict, decoded: dict[str, list[tuple[dict, KernelStats]]]
) -> KernelStats:
    """*entry*'s stats, decoded or copied from an equal earlier entry.

    *decoded* maps a signature to the ``(stats dict, stats)`` pairs of
    one payload's entries decoded so far.  The stats dict takes part in
    the match because a store file is outside input: same-signature
    entries that differ each decode as stored.
    """
    stored = entry["stats"]
    twins = decoded.setdefault(entry["signature"], [])
    for earlier, stats in twins:
        if earlier == stored:
            return stats.copy()
    stats = KernelStats.from_dict(stored)
    twins.append((stored, stats))
    return stats


class ResultStore:
    """The on-disk store of whole-network run entries.

    ``cache_dir=None`` resolves through ``REPRO_CACHE_DIR``.  Run-entry
    writes are atomic (tmp + replace), making concurrent worker
    processes safe.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else default_cache_dir()
        self.run_hits = 0
        self.run_misses = 0
        self.run_stores = 0

    # ------------------------------------------------------------------
    def run_path(self, spec: RunSpec) -> Path:
        """On-disk location of one network-run entry."""
        name = f"{spec.network}-{spec.config.name}-{spec.key()[:24]}.json"
        return self.cache_dir / RUNS_SUBDIR / name

    def get_run(self, spec: RunSpec) -> NetworkResult | None:
        """Look up one network run; None on miss or unreadable entry."""
        try:
            payload = json.loads(self.run_path(spec).read_text())
        except (OSError, ValueError):
            self.run_misses += 1
            return None
        result = result_from_payload(payload, spec.config, spec.options)
        if result is None:
            self.run_misses += 1
            return None
        self.run_hits += 1
        return result

    def put_run(self, spec: RunSpec, payload: dict) -> None:
        """Store one network-run payload (best-effort, atomic)."""
        self.run_stores += 1
        try:
            path = self.run_path(spec)
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
        except OSError:
            pass


# ----------------------------------------------------------------------
# maintenance (backs ``repro cache stats|clear``)
# ----------------------------------------------------------------------
def cache_stats(cache_dir: str | Path | None = None) -> dict:
    """Entry count / byte size summary of the store.

    Counts run entries under ``runs/`` and any ``*.json`` left in the
    store root (older checkouts wrote per-kernel entries there; ``cache
    clear`` removes them).  A missing directory reads as an empty
    cache, never an error.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    entries = 0
    total_bytes = 0
    engines: dict[str, dict] = {}
    kernels_requested = 0
    kernels_simulated = 0

    def scan(paths) -> int:
        nonlocal total_bytes, kernels_requested, kernels_simulated
        count = 0
        for path in paths:
            size = 0
            try:
                size = path.stat().st_size
                total_bytes += size
                payload = json.loads(path.read_text())
                engine = payload.get("engine", "?")
            except (OSError, ValueError):
                payload = {}
                engine = "corrupt"
            count += 1
            bucket = engines.setdefault(engine, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += size
            kernels = payload.get("kernels")
            if isinstance(kernels, list):  # a run entry
                kernels_requested += len(kernels)
                kernels_simulated += payload.get(
                    "unique_kernels",
                    len({k.get("signature") for k in kernels}),
                )
        return count

    if directory.is_dir():
        entries = scan(sorted(directory.glob("*.json")))
        entries += scan(sorted((directory / RUNS_SUBDIR).glob("*.json")))
    return {
        "dir": str(directory),
        "entries": entries,
        "bytes": total_bytes,
        "engine_version": engine_version(),
        "by_engine": dict(sorted(engines.items())),
        "dedup": {
            "kernels_requested": kernels_requested,
            "kernels_simulated": kernels_simulated,
            "replicated": kernels_requested - kernels_simulated,
        },
    }


def clear_cache(
    cache_dir: str | Path | None = None, engine: str | None = None
) -> int:
    """Delete store entries; returns the number removed.

    With ``engine=None`` everything goes — run entries, any ``*.json``
    in the store root and stray ``.tmp`` files.  With an engine version
    string (see ``repro cache stats`` for the versions present) only
    entries written by that engine are pruned, which is how a store
    that has accumulated results from several engine revisions is
    trimmed back to the live one without losing warm entries.  Backs
    ``repro cache clear [--engine VER]``.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    removed = 0
    for root in (directory, directory / RUNS_SUBDIR):
        if not root.is_dir():
            continue
        targets = list(root.glob("*.json"))
        if engine is None:
            targets += list(root.glob("*.tmp"))
        for path in targets:
            if engine is not None and not _entry_matches_engine(path, engine):
                continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    if engine is None:
        try:
            (directory / RUNS_SUBDIR).rmdir()
        except OSError:
            pass
    return removed


def _entry_matches_engine(path: Path, engine: str) -> bool:
    """True when the entry was written by *engine* (corrupt entries
    match the special engine name ``"corrupt"`` that ``cache_stats``
    reports them under)."""
    try:
        return json.loads(path.read_text()).get("engine", "?") == engine
    except (OSError, ValueError):
        return engine == "corrupt"
