"""Experiment ids for the artifact pipeline.

:data:`repro.harness.EXPERIMENTS` is the one list of paper artifacts,
kept in paper order (tables, then figures).  This module canonicalizes
the ids users type (``fig02``, ``Fig2``) against it.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.harness import EXPERIMENTS

_EXP_ID_RE = re.compile(r"^(?P<kind>fig|table)0*(?P<number>\d+)$")


def repo_root() -> Path:
    """The repository root (this file lives at src/repro/artifacts/)."""
    return Path(__file__).resolve().parents[3]


def normalize_exp_id(raw: str) -> str:
    """Canonicalize an experiment id (``fig02``/``Fig2`` -> ``fig2``).

    Raises ``ValueError`` for ids that are not in the experiment
    registry, listing the known ones.
    """
    match = _EXP_ID_RE.match(raw.strip().lower())
    exp_id = (
        f"{match.group('kind')}{int(match.group('number'))}" if match else raw
    )
    if exp_id not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise ValueError(f"unknown experiment {raw!r}; known: {known}")
    return exp_id


def discover_experiments() -> list[str]:
    """Every experiment id, in paper order (perfbench's reproduce plan
    selects its subset from this list)."""
    return list(EXPERIMENTS)
