"""Failure handling of the parallel runner.

A run that raises becomes a RunFailure in its slot, and a worker that
dies breaks the sweep's one pool: the runs it did not return finish
in-process.  Either way the sweep returns one entry per request, never
an exception.  The crash tests patch ``runner._run_spec`` so that a
forked pool worker, and only a worker, calls ``os._exit`` on one run.
"""

import multiprocessing
import os

import pytest

from repro import make_policy
from repro.harness import (
    RunFailure,
    cache_stats,
    clear_cache,
    configure,
    last_sweep_summary,
    run_sims_parallel,
)
from repro.harness import runner
from repro.harness.runner import Session, Settings, _spec_key, _worker
from repro.sim import simulate
from repro.sim.results import SimulationResult
from repro.workloads import get_workload


@pytest.fixture(autouse=True)
def isolated_runner(tmp_path):
    clear_cache()
    configure(jobs=1, cache_dir=str(tmp_path / "cache"))
    yield
    configure(jobs=1, disk_cache=False, memo=False)
    clear_cache()


SMALL = {"footprint_mb": 4.0}

fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a patched _run_spec reaches pool workers only by fork",
)


def _crash_in_workers(monkeypatch, app, policy, marker=None):
    """Make any forked worker that runs ``app``/``policy`` die at once,
    touching ``marker`` first; this process still runs it normally."""
    parent = os.getpid()
    run_spec = runner._run_spec

    def crashing(spec):
        if os.getpid() != parent and (spec["app"], spec["policy"]) == (
            app, policy
        ):
            if marker is not None:
                marker.touch()
            os._exit(13)
        return run_spec(spec)

    monkeypatch.setattr(runner, "_run_spec", crashing)


class TestStatsReconciliation:
    def test_hits_plus_misses_covers_every_slot(self, config):
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "oasis", SMALL),
            (config, "i2c", "on_touch", SMALL),
            (config, "mm", "on_touch", SMALL),  # duplicate -> hit
        ]
        results = run_sims_parallel(requests, jobs=2)
        assert all(isinstance(r, SimulationResult) for r in results)
        stats = cache_stats()
        assert stats["misses"] == 3  # three distinct specs
        assert stats["hits"] == 1  # the duplicate
        assert stats["hits"] + stats["misses"] == len(requests)

    def test_precached_specs_count_as_hits(self, config):
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        before = cache_stats()
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        after = cache_stats()
        assert after["misses"] == before["misses"]
        assert after["hits"] == before["hits"] + 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_run_is_neither_hit_nor_miss(self, config, jobs):
        # The bad kwarg raises inside _run_spec, after the cache lookups:
        # serial and pool sweeps must both leave it out of the counts.
        requests = [
            (config, "mm", "grit", dict(SMALL, policy_kwargs={"bogus": 1})),
            (config, "i2c", "on_touch", SMALL),
        ]
        failure, success = run_sims_parallel(requests, jobs=jobs)
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "TypeError"
        assert isinstance(success, SimulationResult)
        stats = cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 0


@fork_only
class TestWorkerCrash:
    def test_crashed_worker_is_retried(self, config, tmp_path, monkeypatch):
        # The run whose worker died is rerun in-process, and its result
        # matches a clean run's bit for bit.
        marker = tmp_path / "crashed"
        _crash_in_workers(monkeypatch, "mm", "on_touch", marker)
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        crashed, other = run_sims_parallel(requests, jobs=2)
        assert marker.exists()  # the crash really happened
        assert isinstance(other, SimulationResult)
        clean = simulate(
            config, get_workload("mm", config, footprint_mb=4.0),
            make_policy("on_touch"),
        )
        assert crashed.to_dict() == clean.to_dict()

    def test_poisoned_run_degrades_to_serial(self, config, monkeypatch):
        # The run kills every worker that picks it up.  The sweep's one
        # pool breaks once, and the serial loop finishes what it left.
        _crash_in_workers(monkeypatch, "mm", "on_touch")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "i2c", "on_touch", SMALL),
            (config, "mm", "oasis", SMALL),
        ]
        results = run_sims_parallel(requests, jobs=2)
        assert all(isinstance(r, SimulationResult) for r in results)
        stats = cache_stats()
        assert stats["pool_failures"] == 1
        assert stats["hits"] + stats["misses"] == len(requests)
        assert last_sweep_summary()["cache"]["pool_failures"] == 1

    def test_degraded_sweep_keeps_failure_slots_and_accounting(
        self, config, monkeypatch
    ):
        # A deterministically bad spec must still come back as its own
        # structured failure slot when a worker death sends the rest of
        # the sweep to the serial loop.
        _crash_in_workers(monkeypatch, "mm", "on_touch")
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "bogus_policy", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        results = run_sims_parallel(requests, jobs=2)
        by_policy = {spec[2]: result
                     for spec, result in zip(requests, results)}
        assert isinstance(by_policy["on_touch"], SimulationResult)
        assert isinstance(by_policy["bogus_policy"], RunFailure)
        assert by_policy["bogus_policy"].error_type == "ValueError"
        assert isinstance(results[2], SimulationResult)
        stats = cache_stats()
        assert stats["pool_failures"] == 1
        # Two ok slots, one failure: hits+misses covers exactly the oks.
        assert stats["hits"] + stats["misses"] == 2
        summary = last_sweep_summary()
        assert summary["runs"] == 3
        assert summary["ok"] == 2 and summary["failed"] == 1


class TestWorkerRaise:
    def test_worker_raise_is_a_structured_failure(self, config):
        # The pool path keeps a failure loud: the slot carries the
        # worker's own traceback, down to the frame that raised.
        requests = [
            (config, "mm", "bogus_policy", SMALL),
            (config, "i2c", "on_touch", SMALL),
        ]
        failure, success = run_sims_parallel(requests, jobs=2)
        assert isinstance(failure, RunFailure)
        assert not failure.ok
        assert failure.error_type == "ValueError"
        assert "unknown policy 'bogus_policy'" in failure.message
        assert "in _worker" in failure.traceback
        assert "in _run_spec" in failure.traceback
        assert isinstance(success, SimulationResult)
        stats = cache_stats()
        assert stats["pool_failures"] == 0  # the worker survived
        assert stats["hits"] + stats["misses"] == 1  # the ok slot only
        summary = last_sweep_summary()
        assert summary["ok"] == 1 and summary["failed"] == 1


class TestFailureRendering:
    def test_failure_renders_diagnosably(self, config):
        failure = RunFailure(
            app="mm", policy="oasis", seed=3,
            error_type="ValueError", message="unknown policy 'x'",
        )
        text = str(failure)
        assert "mm/oasis" in text
        assert "seed=3" in text
        assert "ValueError: unknown policy 'x'" in text


class TestWorkerConfigPassthrough:
    def test_snapshot_round_trips(self, tmp_path):
        configure(jobs=3, cache_dir=str(tmp_path / "elsewhere"))
        settings = runner._session.settings
        assert settings == Settings(
            jobs=3, disk_root=str(tmp_path / "elsewhere"), memo=False,
        )
        # A spawned worker starts from defaults; adopting the parent's
        # settings must open the parent's store.
        worker = Session()
        assert worker.settings != settings
        worker.configure(settings)
        assert worker.settings == settings
        assert worker.disk.root == tmp_path / "elsewhere"
        assert worker.memo is None

    def test_disk_cache_disabled_round_trips(self):
        configure(jobs=2, disk_cache=False)
        settings = runner._session.settings
        assert settings.disk_root is None
        worker = Session()
        worker.configure(settings)
        assert worker.settings == settings
        assert worker.disk is None

    def test_workers_see_parent_disk_cache(self, config, tmp_path):
        # The workers must write results into the parent's configured
        # store — the regression was workers falling back to defaults.
        configure(jobs=2, cache_dir=str(tmp_path / "shared"))
        run_sims_parallel([(config, "mm", "on_touch", SMALL)], jobs=2)
        store = tmp_path / "shared"
        entries = [
            p for p in store.rglob("*.json") if p.parent.name != "quarantine"
        ]
        assert entries, "worker did not write to the configured disk cache"

    def test_worker_session_serves_consecutive_runs(self, config, tmp_path):
        # A worker given the settings it already holds keeps its session:
        # one DiskCache and one PhaseMemo serve every run it computes.
        configure(jobs=2, cache_dir=str(tmp_path / "cache"), memo=True)
        session = runner._session
        settings, disk, memo = session.settings, session.disk, session.memo
        assert disk is not None and memo is not None
        for policy in ("on_touch", "oasis"):  # c2d: a multi-phase trace
            spec = {"config": config, "app": "c2d", "policy": policy,
                    "footprint_mb": 4.0, "seed": 0, "policy_kwargs": {}}
            result, elapsed = _worker((spec, settings))
            assert isinstance(result, SimulationResult)
            assert elapsed >= 0.0
        assert session.disk is disk and session.memo is memo
        assert disk.misses == 2  # both runs read through the one store
        assert memo.stats()["misses"] == 2  # and probed the one memo
        # whose snapshots land beside the results, where other workers look.
        assert list((tmp_path / "cache" / "snap").rglob("*.json"))


class TestSerialFailureIsolation:
    def test_serial_bad_spec_yields_failure_not_abort(self, config):
        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "bogus_policy", SMALL),
        ]
        good, bad = run_sims_parallel(requests, jobs=1)
        assert isinstance(good, SimulationResult)
        assert isinstance(bad, RunFailure)
        assert bad.error_type == "ValueError"

    def test_serial_raise_is_not_retried(self, config, monkeypatch):
        # The simulator is deterministic: a run that raised once would
        # raise again, so the serial loop records it after one call.
        calls = []

        def flaky(spec):
            calls.append(spec["app"])
            raise OSError("store unavailable")

        monkeypatch.setattr(runner, "_run_spec", flaky)
        (failure,) = run_sims_parallel(
            [(config, "mm", "on_touch", SMALL)], jobs=1
        )
        assert calls == ["mm"]
        assert isinstance(failure, RunFailure)
        assert failure.error_type == "OSError"

    def test_spec_key_distinguishes_kwargs(self, config):
        a = {"config": config, "app": "mm", "policy": "grit",
             "footprint_mb": 4.0, "seed": 0, "policy_kwargs": {}}
        b = dict(a, policy_kwargs={"neighbor_window": 0})
        assert _spec_key(a) != _spec_key(b)


class TestSweepSummary:
    def test_summary_shape_and_counts(self, config):
        from repro.harness import last_sweep_summary

        requests = [
            (config, "mm", "on_touch", SMALL),
            (config, "mm", "oasis", SMALL),
        ]
        run_sims_parallel(requests, jobs=2)
        summary = last_sweep_summary()
        assert summary is not None
        assert summary["runs"] == 2
        assert summary["ok"] == 2 and summary["failed"] == 0
        assert summary["cache"]["misses"] == 2
        per_run = summary["wall_clock_s"]["per_run"]
        assert set(per_run) == {"mm/on_touch@4MB", "mm/oasis@4MB"}
        assert all(t >= 0.0 for t in per_run.values())
        assert summary["wall_clock_s"]["total"] >= 0.0
        # Counters are merged from every run's metrics snapshot.
        assert summary["counters"]["fault.page"] > 0
        assert list(summary["counters"]) == sorted(summary["counters"])

    def test_warm_sweep_reports_hits(self, config):
        from repro.harness import last_sweep_summary

        requests = [(config, "mm", "on_touch", SMALL)]
        run_sims_parallel(requests, jobs=2)
        run_sims_parallel(requests, jobs=2)
        summary = last_sweep_summary()
        assert summary["cache"]["hits"] == 1
        assert summary["cache"]["misses"] == 0
