"""The result store's run entries: key contract and robustness.

A run key must change when *any* ingredient changes — the network,
every GpuConfig field, every SimOptions field and the engine version —
so a stale entry can never be returned.  Broken run entries (corrupt
JSON, truncation, a missing ``kernels`` list, another engine's
payload) must read as misses and be rewritten by the next store, and
an unwritable store must never fail a run.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace

from repro.gpu.config import GpuConfig, SimOptions
from repro.platforms import GP102
from repro.runs import Executor, ResultStore, RunSpec, run_key
from repro.runs.store import default_cache_dir

SPEC = RunSpec("gru", GP102, SimOptions().light())

#: A replacement value per field type, distinct from any default.
_BUMP = {
    str: lambda v: v + "-x",
    float: lambda v: v + 1.25,
    bool: lambda v: not v,
}


def _bumped(value):
    if value is None:
        return 5
    fn = _BUMP.get(type(value))
    if fn is not None:
        return fn(value)
    return value + 1  # int


def _same_stats(a, b) -> bool:
    return [k.stats.to_dict() for k in a.kernels] == [k.stats.to_dict() for k in b.kernels]


class TestKeyContract:
    def test_every_options_field_invalidates(self):
        base = SimOptions()
        base_key = run_key("gru", GP102, base)
        for f in fields(SimOptions):
            varied = replace(base, **{f.name: _bumped(getattr(base, f.name))})
            key = run_key("gru", GP102, varied)
            assert key != base_key, f"SimOptions.{f.name} not in run key"

    def test_every_config_field_invalidates(self):
        base = SimOptions()
        base_key = run_key("gru", GP102, base)
        for f in fields(GpuConfig):
            varied = replace(GP102, **{f.name: _bumped(getattr(GP102, f.name))})
            key = run_key("gru", varied, base)
            assert key != base_key, f"GpuConfig.{f.name} not in run key"

    def test_signature_invalidates(self, tmp_path):
        # A run's kernel sequence is named by its network: two networks
        # never share a key, nor an entry file.
        other = replace(SPEC, network="lstm")
        assert other.key() != SPEC.key()
        store = ResultStore(tmp_path)
        assert store.run_path(other) != store.run_path(SPEC)

    def test_engine_version_invalidates(self, monkeypatch):
        import repro.gpu.sm as sm

        before = SPEC.key()
        monkeypatch.setattr(sm, "ENGINE_VERSION", "test-engine")
        assert SPEC.key() != before

    def test_stale_engine_entry_not_returned(self, tmp_path):
        Executor(ResultStore(tmp_path)).run(SPEC)
        # Rewrite the stored payload as if an older engine produced it
        # *at the same key* (an on-disk collision).
        path = ResultStore(tmp_path).run_path(SPEC)
        payload = json.loads(path.read_text())
        payload["engine"] = "fast-0"
        path.write_text(json.dumps(payload))
        stale = ResultStore(tmp_path)
        assert stale.get_run(SPEC) is None
        result = Executor(stale).run(SPEC)
        assert stale.run_stores == 1 and result.kernels
        assert ResultStore(tmp_path).get_run(SPEC) is not None


class TestRobustness:
    def _populated(self, tmp_path):
        store = ResultStore(tmp_path)
        baseline = Executor(store).run(SPEC)
        path = store.run_path(SPEC)
        assert path.exists()
        return baseline, path

    def test_corrupt_files_read_as_misses(self, tmp_path):
        baseline, path = self._populated(tmp_path)
        path.write_text("{not json at all")
        store = ResultStore(tmp_path)
        result = Executor(store).run(SPEC)
        assert store.run_misses == 1 and store.run_hits == 0
        assert _same_stats(baseline, result)

    def test_truncated_files_read_as_misses(self, tmp_path):
        baseline, path = self._populated(tmp_path)
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        store = ResultStore(tmp_path)
        result = Executor(store).run(SPEC)
        assert store.run_misses == 1 and store.run_hits == 0
        assert _same_stats(baseline, result)
        assert ResultStore(tmp_path).get_run(SPEC) is not None

    def test_schema_mismatch_reads_as_miss(self, tmp_path):
        _, path = self._populated(tmp_path)
        payload = json.loads(path.read_text())
        del payload["kernels"]
        path.write_text(json.dumps(payload))
        store = ResultStore(tmp_path)
        assert store.get_run(SPEC) is None
        assert store.run_misses == 1
        Executor(store).run(SPEC)
        assert ResultStore(tmp_path).get_run(SPEC) is not None

    def test_misses_are_healed_by_store(self, tmp_path):
        baseline, path = self._populated(tmp_path)
        path.write_text("garbage")
        store = ResultStore(tmp_path)
        Executor(store).run(SPEC)
        assert store.run_stores == 1
        healed = ResultStore(tmp_path)
        assert _same_stats(baseline, healed.get_run(SPEC))
        assert healed.run_misses == 0

    def test_unwritable_directory_is_nonfatal(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("")  # a file where the store dir should be
        store = ResultStore(blocked)
        executor = Executor(store)
        result = executor.run(SPEC)
        assert result.kernels and store.run_stores == 1
        # The executor's memory layer still serves the run.
        assert executor.run(SPEC) is result and executor.fresh == 1


class TestEnvironment:
    def test_env_var_overrides_directory(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_cache_dir() == tmp_path / "env-cache"
        assert ResultStore().cache_dir == tmp_path / "env-cache"

    def test_default_directory(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()) == ".repro-cache"
