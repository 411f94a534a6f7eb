"""Reproduce-all artifact pipeline (``scripts/reproduce_all``).

One command regenerates every paper table/figure through the parallel
harness (persistent result cache engaged, phase-snapshot tier off) and
leaves a self-describing artifact directory — ``manifest.json``,
``metrics.jsonl``, ``summary.json`` — plus the consolidated
``results/BENCH_all.json`` perf trajectory and a regenerated
``EXPERIMENTS.md``.  See :mod:`repro.artifacts.pipeline`.
"""

from repro.artifacts.experiments_md import (
    render_experiments_md,
    write_experiments_md,
)
from repro.artifacts.pipeline import (
    SMOKE_APPS,
    run_pipeline,
    write_bench_all,
)
from repro.artifacts.registry import (
    discover_experiments,
    normalize_exp_id,
    repo_root,
)

__all__ = [
    "SMOKE_APPS",
    "discover_experiments",
    "normalize_exp_id",
    "render_experiments_md",
    "repo_root",
    "run_pipeline",
    "write_bench_all",
    "write_experiments_md",
]
