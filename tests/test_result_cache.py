"""Tests for the result cache: the ``results`` layer of the store."""

from __future__ import annotations

from functools import partial
from pathlib import Path

from repro.harness import ResultCache
from repro.store import (
    CACHE_ENV_VAR,
    CheckpointStore,
    code_version,
    default_store_dir,
    resolve_store,
    result_store_key as cache_key,
)
from repro.harness.experiment import SCALES
from repro.sampling import SimulatorConfigs

CI = SCALES["ci"]
BENCH = SCALES["bench"]
resolve_cache = partial(resolve_store, layer="results")


class TestCacheKey:
    def test_stable_across_calls(self):
        first = cache_key("cell", "ammp", CI, CI.configs(), "S$BP")
        second = cache_key("cell", "ammp", CI, CI.configs(), "S$BP")
        assert first == second
        assert len(first) == 64
        int(first, 16)  # hex digest

    def test_every_component_participates(self):
        from repro.branch import paper_predictor_config
        from repro.cache import paper_hierarchy_config

        other_configs = SimulatorConfigs(
            hierarchy=paper_hierarchy_config(scale=64),
            predictor=paper_predictor_config(scale=64),
        )
        base = cache_key("cell", "ammp", CI, CI.configs(), "S$BP")
        assert cache_key("true", "ammp", CI, CI.configs(), "S$BP") != base
        assert cache_key("cell", "gcc", CI, CI.configs(), "S$BP") != base
        assert cache_key("cell", "ammp", BENCH, CI.configs(), "S$BP") != base
        assert cache_key("cell", "ammp", CI, other_configs, "S$BP") != base
        assert cache_key("cell", "ammp", CI, CI.configs(), "None") != base

    def test_equal_configs_hash_equally(self):
        # scale.configs() builds fresh objects each call; value equality
        # must be what the key sees, not object identity.
        assert CI.configs() is not CI.configs()
        assert cache_key("cell", "ammp", CI, CI.configs(), "S$BP") == \
            cache_key("cell", "ammp", CI, SimulatorConfigs(
                hierarchy=CI.configs().hierarchy,
                predictor=CI.configs().predictor,
            ), "S$BP")

    def test_code_version_is_stable_hex(self):
        assert code_version() == code_version()
        int(code_version(), 16)


class TestResultCache:
    def test_result_cache_is_the_store(self):
        assert ResultCache is CheckpointStore

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        key = cache_key("cell", "ammp", CI, CI.configs(), "S$BP")
        assert cache.get(key, "results") is None
        assert cache.stats.misses == 1
        cache.put(key, {"ipc": 1.25}, "results")
        assert key in cache
        assert cache.get(key, "results") == {"ipc": 1.25}
        assert cache.stats.hits == 1
        assert cache.entry_count() == 1
        # One blob and its manifest, under the results kind.
        entry = tmp_path / "cache" / "results" / key[:2] / key
        assert entry.with_suffix(".pkl").is_file()
        assert entry.with_suffix(".json").is_file()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        # pickle raises different exception types depending on the
        # garbage (UnpicklingError, ValueError, EOFError...); all of
        # them must read as misses, never crash a run.
        for index, garbage in enumerate(
            (b"not a pickle", b"garbage\n", b"", b"\x80")
        ):
            cache = ResultCache(tmp_path / f"cache-{index}")
            key = "ab" + "0" * 62
            cache.put(key, [1, 2, 3], "results")
            cache._blob_path(key, "results").write_bytes(garbage)
            assert cache.get(key, "results") is None
            assert cache.stats.misses == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        for prefix in ("aa", "bb", "cc"):
            cache.put(prefix + "0" * 62, prefix, "results")
        assert cache.clear() == 3
        assert cache.entry_count() == 0


class TestResolveCache:
    def test_env_unset_defaults_off(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert resolve_cache() is None

    def test_env_unset_with_default_on(self, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        cache = resolve_cache(default="on")
        assert cache is not None
        assert cache.root == default_store_dir()

    def test_env_off_values(self, monkeypatch):
        for value in ("off", "0", "none", "false", ""):
            monkeypatch.setenv(CACHE_ENV_VAR, value)
            assert resolve_cache(default="on") is None

    def test_env_path(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "results"))
        cache = resolve_cache()
        assert cache is not None
        assert cache.root == tmp_path / "results"

    def test_explicit_setting_beats_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, "off")
        cache = resolve_cache(str(tmp_path / "explicit"))
        assert cache is not None
        assert cache.root == tmp_path / "explicit"

    def test_passthrough_instances(self, tmp_path):
        existing = ResultCache(tmp_path)
        assert resolve_cache(existing) is existing
        assert resolve_cache(Path(tmp_path)).root == Path(tmp_path)
