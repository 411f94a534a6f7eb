"""Benchmark-suite helpers.

Each benchmark regenerates one table/figure of the paper via the
experiment registry, times it with pytest-benchmark, writes the rendered
report to ``results/``, and asserts the paper's qualitative shape.

Environment knobs:

* ``REPRO_BENCH_APPS`` — comma-separated subset of applications (e.g.
  ``mm,st,bfs``) for quick smoke runs; default is all eleven.
* ``REPRO_BENCH_NO_CACHE`` — set to disable the persistent result cache.

Simulation results are memoized per process (see
:mod:`repro.harness.runner`), so benchmarks that share runs — Fig. 2 is a
subset of Fig. 15; Figs. 22/23/24 reuse the GRIT/OASIS runs — only pay
once per session.  They are additionally persisted to the on-disk store
(``results/cache/``), so a re-run of the suite replays every figure from
cache instead of re-simulating; the session summary reports the hit/miss
counts for both levels.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.harness import cache_stats, configure, run_experiment

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def write_bench_artifact(name: str, payload: dict, out=None) -> Path:
    """Write one ``results/BENCH_<name>.json`` perf-trajectory artifact.

    The single emitter every benchmark and script goes through, so all
    ``BENCH_*.json`` files land in one place (``results/``) with one
    format, and ``scripts/reproduce_all`` can consolidate them into
    ``results/BENCH_all.json``.  ``out`` overrides the full path (used
    by the ``--out`` flags of the standalone benchmark drivers).
    """
    path = Path(out) if out else RESULTS_DIR / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@pytest.fixture(scope="session", autouse=True)
def persistent_result_cache():
    """Route every benchmark's runs through the on-disk result store."""
    use_disk = not os.environ.get("REPRO_BENCH_NO_CACHE", "").strip()
    configure(disk_cache=use_disk)
    yield
    stats = cache_stats()
    print(
        f"\n[simulation cache: in-process {stats['hits']} hits / "
        f"{stats['misses']} misses, disk {stats['disk_hits']} hits / "
        f"{stats['disk_misses']} misses]"
    )


def bench_apps() -> list[str] | None:
    raw = os.environ.get("REPRO_BENCH_APPS", "").strip()
    if not raw:
        return None
    return [a.strip().lower() for a in raw.split(",") if a.strip()]


@pytest.fixture
def experiment(benchmark):
    """Run one experiment under the benchmark timer and save its report."""

    def runner(exp_id: str):
        result = benchmark.pedantic(
            run_experiment, args=(exp_id,), kwargs={"apps": bench_apps()},
            rounds=1, iterations=1,
        )
        path = result.save(RESULTS_DIR)
        print(f"\n{result.render()}\n[saved to {path}]")
        return result

    return runner


def geomean_row(result):
    """The geomean row of a speedup-table experiment."""
    return result.row_dict()["geomean"]


def column(result, name):
    return result.headers.index(name)
