"""Golden-digest regression: pin every (workload, policy) result.

``tests/golden/golden.json`` holds one entry per (app, policy) pair of
the full registry matrix at the baseline config, plus Fig. 25's
capacity-managed cells: on-touch and OASIS at 150% oversubscription on
every app, keyed ``app/policy@x1.5``.  Only those cells exercise
eviction, so only they pin the capacity manager and ``evict_from``
exactly.  A matrix cell names its policy the way its key does
(``"oasis"`` or ``"oasis@x1.5"``).  Each entry is content-addressed: the core
sha256 of the whole result (see
:func:`repro.verify.differential.core_digest`), a digest per phase, and
the full canonical counter map.  The counter map is stored verbatim —
not just hashed — so that when a digest moves the diff report can name
*exactly* which counter changed and by how much, instead of "something
differs".

Workflow:

* ``make verify`` (→ :func:`check_golden`) recomputes the matrix and
  compares against the pinned file; any drift fails with a named diff.
* ``make golden-update`` (→ :func:`update_golden`) re-pins after an
  *intentional* model change; the file is committed, so the review diff
  shows every counter the change moved.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.verify.differential import (
    canonical_json,
    core_digest,
    diff_payloads,
)

#: Pinned digests live in the test tree so CI always has them.
GOLDEN_PATH = Path(__file__).resolve().parents[3] / "tests" / "golden" / "golden.json"

#: Golden file schema version (bump when the entry layout changes).
SCHEMA = 1

#: Fig. 25's cells: these policies at this oversubscription factor.
OVERSUB_FACTOR = 1.5
OVERSUB_POLICIES = ("oasis", "on_touch")


def golden_key(app: str, policy: str, seed: int = 0) -> str:
    key = f"{app}/{policy}"
    if seed:
        key += f"#{seed}"
    return key


def oversub_cell(policy: str) -> str:
    """The matrix cell of ``policy`` run at :data:`OVERSUB_FACTOR`."""
    return f"{policy}@x{OVERSUB_FACTOR:g}"


def split_cell(cell: str) -> tuple[str, bool]:
    """``"oasis@x1.5"`` -> ``("oasis", True)``; ``"oasis"`` -> ``("oasis", False)``.

    Raises ``ValueError`` for any other ``@x`` suffix: the only pinned
    oversubscription level is :data:`OVERSUB_FACTOR`.
    """
    policy, sep, _ = cell.partition("@x")
    if not sep:
        return cell, False
    if cell != oversub_cell(policy):
        raise ValueError(
            f"golden cell {cell!r}: the only pinned oversubscription "
            f"is x{OVERSUB_FACTOR:g}, as in {oversub_cell(policy)!r}"
        )
    return policy, True


def entry_for(result) -> dict:
    """The pinned view of one result."""
    import hashlib

    payload = result.to_dict()
    phases = [
        {
            "name": phase["name"],
            "digest": hashlib.sha256(
                canonical_json(phase).encode()
            ).hexdigest(),
        }
        for phase in payload["phases"]
    ]
    return {
        "core": core_digest(result),
        "total_time_ns": payload["total_time_ns"],
        "phases": phases,
        "counters": dict(result.stats),
    }


def entry_diff(pinned: dict, fresh: dict) -> list[str]:
    """Name exactly what moved between a pinned entry and a fresh one."""
    diffs: list[str] = []
    for line in diff_payloads(pinned["counters"], fresh["counters"]):
        diffs.append(f"counter {line}")
    if pinned["total_time_ns"] != fresh["total_time_ns"]:
        diffs.append(
            f"total_time_ns: {pinned['total_time_ns']!r} != "
            f"{fresh['total_time_ns']!r}"
        )
    old_phases = {p["name"]: p["digest"] for p in pinned["phases"]}
    new_phases = {p["name"]: p["digest"] for p in fresh["phases"]}
    for name in sorted(set(old_phases) | set(new_phases)):
        old_digest = old_phases.get(name)
        new_digest = new_phases.get(name)
        if old_digest != new_digest:
            diffs.append(
                f"phase {name!r}: "
                + (
                    "added" if old_digest is None
                    else "removed" if new_digest is None
                    else "digest moved"
                )
            )
    if not diffs:
        # Core digests can differ through fields no sub-view covers
        # (stats breakdowns are in counters, but e.g. policy_histogram
        # is not) — fall back to "core moved" rather than silence.
        diffs.append("core digest moved (non-counter field)")
    return diffs


# -- matrix ----------------------------------------------------------------


def golden_matrix(apps=None, policies=None) -> list[tuple[str, str]]:
    """The (app, cell) pairs the golden file pins.

    By default every registry app against every registry policy at the
    baseline config and every :data:`OVERSUB_POLICIES` cell at
    :data:`OVERSUB_FACTOR`; ``policies`` narrows the cells (name an
    oversubscribed one as ``"oasis@x1.5"``).
    """
    from repro import POLICY_FACTORIES
    from repro.workloads.registry import APPLICATION_ORDER

    if apps is None:
        apps = APPLICATION_ORDER
    if policies is None:
        policies = sorted(POLICY_FACTORIES) + [
            oversub_cell(policy) for policy in OVERSUB_POLICIES
        ]
    return [(app, policy) for app in apps for policy in policies]


def _compute(pairs, seed: int, jobs: int) -> dict[str, dict]:
    from repro import baseline_config
    from repro.harness import runner
    from repro.sim import SimulationResult

    requests = []
    for app, cell in pairs:
        policy, oversubscribed = split_cell(cell)
        config = (
            baseline_config(oversubscription=OVERSUB_FACTOR)
            if oversubscribed else baseline_config()
        )
        requests.append((config, app, policy, {"seed": seed}))
    results = runner.run_sims_parallel(requests, jobs=jobs)
    fresh: dict[str, dict] = {}
    for (app, policy), result in zip(pairs, results):
        key = golden_key(app, policy, seed)
        if not isinstance(result, SimulationResult):
            raise RuntimeError(f"golden run {key} failed: {result}")
        fresh[key] = entry_for(result)
    return fresh


def load_golden(path=None) -> dict:
    path = Path(path) if path is not None else GOLDEN_PATH
    with open(path) as fh:
        return json.load(fh)


def update_golden(path=None, apps=None, policies=None, *, seed: int = 0,
                  jobs: int = 1) -> dict:
    """(Re)compute the matrix and pin it; returns a change summary.

    Pairs outside the requested scope keep their existing entries, so a
    partial update (one app, say) never drops the rest of the matrix.
    """
    path = Path(path) if path is not None else GOLDEN_PATH
    pairs = golden_matrix(apps, policies)
    fresh = _compute(pairs, seed, jobs)
    entries: dict[str, dict] = {}
    changed: list[str] = []
    added: list[str] = []
    if path.exists():
        entries = load_golden(path).get("entries", {})
    for key, entry in fresh.items():
        if key not in entries:
            added.append(key)
        elif entries[key]["core"] != entry["core"]:
            changed.append(key)
        entries[key] = entry
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": SCHEMA,
        "entries": {key: entries[key] for key in sorted(entries)},
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return {"pinned": len(entries), "added": added, "changed": changed}


def check_golden(path=None, apps=None, policies=None, *, seed: int = 0,
                 jobs: int = 1) -> dict:
    """Recompute the matrix and compare against the pinned file.

    Returns ``{"checked": int, "missing": [...], "mismatches": [...]}``;
    each mismatch line names the pair and the exact counters/phases that
    moved.  Raises ``FileNotFoundError`` when the golden file is absent
    (run ``make golden-update`` once to create it).
    """
    path = Path(path) if path is not None else GOLDEN_PATH
    pinned = load_golden(path)
    if pinned.get("schema") != SCHEMA:
        raise ValueError(
            f"golden file {path} has schema {pinned.get('schema')!r}, "
            f"expected {SCHEMA} — regenerate with `make golden-update`"
        )
    entries = pinned.get("entries", {})
    pairs = golden_matrix(apps, policies)
    fresh = _compute(pairs, seed, jobs)
    missing: list[str] = []
    mismatches: list[str] = []
    for key, entry in fresh.items():
        pin = entries.get(key)
        if pin is None:
            missing.append(key)
            continue
        if pin["core"] != entry["core"]:
            mismatches.extend(
                f"{key}: {line}" for line in entry_diff(pin, entry)
            )
    return {
        "checked": len(fresh),
        "missing": missing,
        "mismatches": mismatches,
    }
