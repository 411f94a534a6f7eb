"""Persistent result store + parallel runner tests."""

import base64
import errno
import json
from pathlib import Path

import pytest

from repro import baseline_config
from repro.harness import cache_stats, configure, run_sim, run_sims_parallel
from repro.harness.diskcache import DiskCache, cache_key
from repro.harness import runner
from repro.harness.runner import clear_cache
from repro.sim.results import SimulationResult


@pytest.fixture(autouse=True)
def isolated_runner(tmp_path):
    """Point the runner at a throwaway disk cache; restore after."""
    clear_cache()
    configure(jobs=1, cache_dir=str(tmp_path / "cache"))
    yield
    configure(jobs=1, disk_cache=False)
    clear_cache()


SMALL = {"footprint_mb": 4.0}


class TestDiskCache:
    def test_round_trip(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        cache.store(key, result)
        loaded = cache.load(key)
        assert isinstance(loaded, SimulationResult)
        assert loaded.to_dict() == result.to_dict()
        assert cache.stats() == {
            "disk_hits": 1, "disk_misses": 0, "disk_quarantined": 0,
            "snap_hits": 0, "snap_misses": 0,
        }

    def test_miss_on_unknown_key(self, tmp_path):
        cache = DiskCache(tmp_path / "store")
        assert cache.load("0" * 64) is None
        assert cache.stats() == {
            "disk_hits": 0, "disk_misses": 1, "disk_quarantined": 0,
            "snap_hits": 0, "snap_misses": 0,
        }

    def test_corrupt_entry_is_a_miss(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        path.write_text("{not json")
        assert cache.load(key) is None

    def test_corrupt_entry_is_quarantined(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        path.write_text("{not json")
        assert cache.load(key) is None
        assert not path.exists()  # moved aside, not left to re-trip
        assert (tmp_path / "store" / "quarantine" / path.name).exists()
        assert cache.stats()["disk_quarantined"] == 1
        # A second load is a clean miss, no double quarantine.
        assert cache.load(key) is None
        assert cache.stats()["disk_quarantined"] == 1

    def test_truncated_entry_is_quarantined(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # killed mid-write
        assert cache.load(key) is None
        assert cache.stats()["disk_quarantined"] == 1

    def test_checksum_mismatch_is_quarantined(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        payload = json.loads(path.read_text())
        payload["result"]["total_time_ns"] += 1.0  # silent bit-flip
        path.write_text(json.dumps(payload))
        assert cache.load(key) is None
        assert cache.stats()["disk_quarantined"] == 1

    def test_store_heals_after_quarantine(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        path.write_text("garbage")
        assert cache.load(key) is None
        cache.store(key, result)
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()

    def test_failed_quarantine_is_not_counted(self, config, tmp_path,
                                              monkeypatch):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        path.write_text("{not json")

        def refuse(src, dst):
            raise OSError("read-only store")

        with monkeypatch.context() as m:
            m.setattr("repro.harness.diskcache.os.replace", refuse)
            assert cache.load(key) is None  # still a clean miss
            assert cache.stats()["disk_quarantined"] == 0
            assert path.exists()  # nothing actually moved aside
        # Once the store is writable again the quarantine goes through
        # and is counted exactly once.
        assert cache.load(key) is None
        assert cache.stats()["disk_quarantined"] == 1
        assert not path.exists()

    def test_key_depends_on_parameters(self, config):
        base = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        assert cache_key(config, "st", "on_touch", 4.0, 0, {}) != base
        assert cache_key(config, "mm", "oasis", 4.0, 0, {}) != base
        assert cache_key(config, "mm", "on_touch", 8.0, 0, {}) != base
        assert cache_key(config, "mm", "on_touch", 4.0, 1, {}) != base
        assert (
            cache_key(config, "mm", "on_touch", 4.0, 0, {"x": 1}) != base
        )
        other = config.replace(reset_threshold=4)
        assert cache_key(other, "mm", "on_touch", 4.0, 0, {}) != base

    def test_key_depends_on_slow_path(self, config, monkeypatch):
        monkeypatch.delenv("REPRO_FORCE_SLOW_PATH", raising=False)
        fast = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        monkeypatch.setenv("REPRO_FORCE_SLOW_PATH", "1")
        slow = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        assert fast != slow

    def test_run_sim_survives_cleared_memory_cache(self, config):
        a = run_sim(config, "mm", "on_touch", **SMALL)
        clear_cache()
        b = run_sim(config, "mm", "on_touch", **SMALL)
        assert a is not b  # rebuilt from disk, not the same object
        assert a.to_dict() == b.to_dict()
        assert cache_stats()["disk_hits"] == 1


class TestCacheKeyCanonicalization:
    def test_reordered_kwargs_share_a_key(self, config):
        a = cache_key(config, "mm", "oasis", 4.0, 0, {"alpha": 1, "beta": 2})
        b = cache_key(config, "mm", "oasis", 4.0, 0, {"beta": 2, "alpha": 1})
        assert a == b

    def test_nested_and_non_string_keys_canonicalize(self, config):
        a = cache_key(config, "mm", "oasis", 4.0, 0,
                      {"weights": {2: 0.5, 1: 0.25}, "tiers": [1, 2]})
        b = cache_key(config, "mm", "oasis", 4.0, 0,
                      {"tiers": [1, 2], "weights": {1: 0.25, 2: 0.5}})
        assert a == b

    def test_set_values_are_order_independent(self, config):
        a = cache_key(config, "mm", "oasis", 4.0, 0,
                      {"gpus": {"g0", "g1", "g2"}})
        b = cache_key(config, "mm", "oasis", 4.0, 0,
                      {"gpus": {"g2", "g0", "g1"}})
        assert a == b

    def test_different_kwargs_still_differ(self, config):
        base = cache_key(config, "mm", "oasis", 4.0, 0, {"alpha": 1})
        assert cache_key(config, "mm", "oasis", 4.0, 0, {"alpha": 2}) != base
        assert cache_key(config, "mm", "oasis", 4.0, 0, {"alpha": [1]}) != base
        assert cache_key(config, "mm", "oasis", 4.0, 0, {"beta": 1}) != base

    def test_reordered_kwargs_hit_the_same_disk_entry(self, config, tmp_path):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key_a = cache_key(config, "mm", "on_touch", 4.0, 0,
                          {"x": {"b": 2, "a": 1}, "y": 3})
        cache.store(key_a, result)
        key_b = cache_key(config, "mm", "on_touch", 4.0, 0,
                          {"y": 3, "x": {"a": 1, "b": 2}})
        loaded = cache.load(key_b)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        assert cache.stats()["disk_hits"] == 1


class TestBoundedMemoryCache:
    def test_lru_cap_evicts_oldest(self, config, monkeypatch):
        monkeypatch.setattr(runner._session, "capacity", 2)
        for app in ("mm", "st", "i2c"):
            run_sim(config, app, "on_touch", **SMALL)
        stats = cache_stats()
        assert stats["size"] == 2
        assert stats["capacity"] == 2
        assert stats["evictions"] == 1
        keys = list(runner._session.results)
        assert [k[1] for k in keys] == ["st", "i2c"]

    def test_hit_refreshes_recency(self, config, monkeypatch):
        monkeypatch.setattr(runner._session, "capacity", 2)
        run_sim(config, "mm", "on_touch", **SMALL)
        run_sim(config, "st", "on_touch", **SMALL)
        run_sim(config, "mm", "on_touch", **SMALL)  # refresh mm
        run_sim(config, "i2c", "on_touch", **SMALL)  # evicts st
        assert [k[1] for k in runner._session.results] == ["mm", "i2c"]

    def test_cache_stats_counts(self, config):
        run_sim(config, "mm", "on_touch", **SMALL)
        run_sim(config, "mm", "on_touch", **SMALL)
        stats = cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1


class TestDurableWrites:
    def test_store_fsyncs_file_and_directory(self, config, tmp_path,
                                             monkeypatch):
        import os as _os

        monkeypatch.delenv("REPRO_NO_FSYNC", raising=False)
        calls = []
        real_fsync = _os.fsync

        def counting(fd):
            calls.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr("repro.harness.diskcache.os.fsync", counting)
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        calls.clear()
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        cache.store(key, result)
        assert len(calls) >= 2  # the entry's bytes and its directory

    def test_no_fsync_knob_skips_barriers(self, config, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv("REPRO_NO_FSYNC", "1")

        def forbidden(fd):
            raise AssertionError("fsync called with REPRO_NO_FSYNC=1")

        monkeypatch.setattr("repro.harness.diskcache.os.fsync", forbidden)
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        cache.store(key, result)  # atomicity unaffected, barriers skipped
        loaded = cache.load(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()

    def test_interrupted_write_leaves_no_temp_litter(self, config,
                                                     tmp_path, monkeypatch):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})

        def refuse(src, dst):
            raise OSError("device error at rename")

        with monkeypatch.context() as m:
            m.setattr("repro.harness.diskcache.os.replace", refuse)
            with pytest.raises(OSError):
                cache.store(key, result)
        assert cache.load(key) is None  # nothing at the final path
        assert not list((tmp_path / "store").rglob(".tmp-*"))


class TestStoreFaults:
    def test_runner_tolerates_store_errors(self, config, monkeypatch):
        def refuse(src, dst):
            raise OSError("disk full")

        with monkeypatch.context() as m:
            m.setattr("repro.harness.diskcache.os.replace", refuse)
            result = run_sim(config, "mm", "on_touch", **SMALL)
        assert isinstance(result, SimulationResult)  # the run is unharmed
        assert cache_stats()["store_errors"] == 1
        assert cache_stats()["disk_hits"] == 0

    def test_injected_read_error_is_a_soft_miss(self, config, tmp_path,
                                                monkeypatch):
        cache = DiskCache(tmp_path / "store")
        result = run_sim(config, "mm", "on_touch", **SMALL)
        key = cache_key(config, "mm", "on_touch", 4.0, 0, {})
        path = cache.store(key, result)
        real_open = Path.open

        def flaky_open(self, *args, **kwargs):
            if self == path:
                raise OSError(errno.EIO, "transient I/O error")
            return real_open(self, *args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(Path, "open", flaky_open)
            assert cache.load(key) is None
        assert cache.stats()["disk_misses"] == 1
        # Transient read errors never quarantine the (healthy) entry.
        assert cache.stats()["disk_quarantined"] == 0
        assert cache.load(key) is not None

    def test_blob_bit_rot_is_quarantined(self, tmp_path):
        cache = DiskCache(tmp_path / "store")
        key = "a" * 64
        path = cache.store_blob(key, b"snapshot-bytes")
        payload = json.loads(path.read_text())
        rotted = bytearray(base64.b64decode(payload["blob"]))
        rotted[5] ^= 0xFF  # one flipped byte; the entry still parses
        payload["blob"] = base64.b64encode(bytes(rotted)).decode("ascii")
        path.write_text(json.dumps(payload))
        assert cache.load_blob(key) is None  # silent rot caught on read
        assert cache.stats()["snap_misses"] == 1
        assert cache.stats()["disk_quarantined"] == 1
        assert not path.exists()


class TestRunSimsParallel:
    def test_matches_serial(self, config):
        requests = [
            (config, app, policy, SMALL)
            for app in ("mm", "i2c")
            for policy in ("on_touch", "oasis")
        ]
        parallel = run_sims_parallel(requests, jobs=2)
        clear_cache()
        serial = [
            run_sim(config, app, policy, **SMALL)
            for app in ("mm", "i2c")
            for policy in ("on_touch", "oasis")
        ]
        assert len(parallel) == len(serial)
        for p, s in zip(parallel, serial):
            assert p.to_dict() == s.to_dict()

    def test_results_enter_memory_cache(self, config):
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        assert run_sim(config, "mm", "on_touch", **SMALL) is not None
        assert cache_stats()["hits"] >= 1

    def test_dict_requests(self, config):
        [result] = run_sims_parallel(
            [{"config": config, "app": "mm", "policy": "on_touch",
              "footprint_mb": 4.0}],
            jobs=1,
        )
        assert result.workload == "mm"

    def test_rejects_bad_jobs(self, config):
        with pytest.raises(ValueError):
            run_sims_parallel([(config, "mm", "on_touch")], jobs=0)
