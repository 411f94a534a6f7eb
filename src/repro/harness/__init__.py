"""Experiment harness: one entry per paper table/figure.

Use :func:`~repro.harness.experiments.run_experiment` (or the benchmarks
under ``benchmarks/``) to regenerate any table or figure of the paper::

    from repro.harness import run_experiment
    result = run_experiment("fig15")
    print(result.render())
"""

from repro.harness.diskcache import DiskCache
from repro.harness.experiments import (
    EXPERIMENTS,
    SEEDED_EXPERIMENTS,
    run_experiment,
)
from repro.harness.report import (
    ExperimentResult,
    format_table,
    geomean,
)
from repro.harness.runner import (
    RunFailure,
    cache_stats,
    clear_cache,
    configure,
    disk_cache,
    last_sweep_summary,
    run_sim,
    run_sims_parallel,
    speedup_table,
)

__all__ = [
    "EXPERIMENTS",
    "SEEDED_EXPERIMENTS",
    "DiskCache",
    "ExperimentResult",
    "RunFailure",
    "cache_stats",
    "clear_cache",
    "configure",
    "disk_cache",
    "format_table",
    "geomean",
    "last_sweep_summary",
    "run_experiment",
    "run_sim",
    "run_sims_parallel",
    "speedup_table",
]
