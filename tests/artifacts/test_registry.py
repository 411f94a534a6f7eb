"""The pipeline's experiment list and id canonicalization."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.artifacts import discover_experiments, normalize_exp_id
from repro.harness import EXPERIMENTS

REPO = Path(__file__).resolve().parents[2]


def test_discovery_covers_every_registry_experiment():
    # The pipeline runs exactly the harness's experiments, in its order.
    assert discover_experiments() == list(EXPERIMENTS)


def test_every_experiment_has_a_benchmark_module():
    # `make bench` times and shape-checks every experiment the
    # pipeline runs.
    benched = {
        f"{match['kind']}{int(match['number'])}"
        for path in (REPO / "benchmarks").glob("bench_*.py")
        if (match := re.match(
            r"bench_(?P<kind>fig|table)(?P<number>\d+)_", path.name))
    }
    assert set(EXPERIMENTS) <= benched, set(EXPERIMENTS) - benched


def test_discovery_order_is_tables_then_figures():
    order = discover_experiments()
    tables = [e for e in order if e.startswith("table")]
    figures = [e for e in order if e.startswith("fig")]
    assert order == tables + figures
    assert tables == sorted(tables, key=lambda e: int(e[5:]))
    assert figures == sorted(figures, key=lambda e: int(e[3:]))


@pytest.mark.parametrize("raw, canonical", [
    ("fig02", "fig2"),
    ("fig2", "fig2"),
    ("Fig15", "fig15"),
    ("table1", "table1"),
    ("TABLE01", "table1"),
])
def test_normalize_exp_id(raw, canonical):
    assert normalize_exp_id(raw) == canonical


@pytest.mark.parametrize("raw", ["fig1", "fig99", "bogus", ""])
def test_normalize_rejects_unknown_ids(raw):
    with pytest.raises(ValueError, match="unknown experiment"):
        normalize_exp_id(raw)
