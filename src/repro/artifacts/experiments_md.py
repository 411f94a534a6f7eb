"""EXPERIMENTS.md generator: stitch saved reports into one document.

The Results section is produced mechanically from the per-experiment
reports under ``results/`` (written by ``result.save()``), so the
document can never disagree with the artifacts a run actually produced.
``scripts/reproduce_all`` (and ``repro-oasis reproduce``) regenerate it
after a full-profile pipeline run; ``scripts/make_experiments_md.py``
remains as a thin standalone wrapper.
"""

from __future__ import annotations

from pathlib import Path

from repro.artifacts.registry import experiment_order, repo_root

HEADER = """\
<!-- Generated by `scripts/reproduce_all` (also: `repro-oasis reproduce`
     or `python scripts/make_experiments_md.py`) from the reports under
     `results/` — edit the generator's header in
     src/repro/artifacts/experiments_md.py, not the Results section. -->

# EXPERIMENTS — paper vs measured

Every table and figure of the OASIS paper's evaluation, regenerated by
`scripts/reproduce_all` (reports in `results/`; regenerate any single
one with `python examples/reproduce_figure.py <id>`).  The tables below
are **generated** — no hand-edited numbers.

Absolute numbers are not expected to match the authors' MGPUSim testbed —
this substrate is a trace-driven page-policy simulator (DESIGN.md §1).
The reproduced quantity is the *shape*: per-application winners, rough
factors, and crossovers.

Every number below is **golden-pinned**: `tests/golden/golden.json`
stores the content-addressed digest, total time, per-phase digests and
the full counter map of all 11 workloads × all 8 policies, and
`make verify` recomputes the matrix and fails on any drift, naming the
exact counters that moved.  A model change that shifts these results is
therefore always deliberate — it ships with a `make golden-update`
re-pin whose diff lists every affected number (see `docs/MODEL.md` §10).

## Known deviations from the paper

* **Uniform duplication never drops below the on-touch baseline.** In
  the paper Fig. 2 shows duplication under 1.0 for some write-heavy
  apps; here its write-collapse pain (priced per extra revoked copy)
  leaves it at or slightly above on-touch at worst. It still loses those
  apps to the counter policy, preserving Observation 1 (no universal
  winner).
* **Margins over the two adaptive baselines are redistributed.** The
  paper reports OASIS +35% over the counter policy and +42% over
  duplication; in this substrate duplication is the stronger baseline
  (OASIS margin over it is thinner, over the counter policy wider).
  The calibration was resolved in favour of the paper's *per-application*
  claims — duplication wins MM/MT, the counter policy wins BFS/ST,
  on-touch is the best realizable policy for I2C, and OASIS matches or
  beats the best uniform policy on essentially every app — at the cost of
  these two aggregate margins.
* **Fig. 16 (reset threshold).** The measured sensitivity is far weaker
  than the paper's ±9 points: weighted trace records compress fault
  streams, so a stale policy episode lasts only a handful of simulated
  faults at any threshold. The ordering (8 not worse than 4 or 32) holds.
* **Fig. 20's rw-mix growth is flat.** The shared-page fraction grows
  strongly with 2 MB pages (as in the paper), but the rw-mix fraction
  stays roughly constant because several workloads' pages are already
  rw-mix at 4 KB in our traces.
* **OASIS-InMem overhead** is ~1% rather than the paper's 2%: shadow-map
  lookups are charged per shared fault, and our fault costs are calibrated
  lower than MGPUSim's.
* **Fig. 25 (oversubscription)** needs a capacity guard — OASIS degrades
  duplication to remote mappings when the requesting GPU is at capacity —
  to avoid duplicate-eviction churn under our stricter capacity model;
  documented in DESIGN.md.

## Results

"""


def render_experiments_md(results_dir: str | Path | None = None) -> tuple[str, list[str]]:
    """Render the document; returns ``(markdown, missing_report_ids)``."""
    results = Path(results_dir) if results_dir else repo_root() / "results"
    parts = [HEADER]
    missing = []
    for exp_id in experiment_order():
        path = results / f"{exp_id}.txt"
        if not path.exists():
            missing.append(exp_id)
            continue
        body = path.read_text().rstrip()
        parts.append(f"### {exp_id}\n\n```\n{body}\n```\n")
    if missing:
        parts.append(
            "\n*(missing reports: " + ", ".join(missing)
            + " — run `scripts/reproduce_all`)*\n"
        )
    return "\n".join(parts), missing


def write_experiments_md(
    results_dir: str | Path | None = None,
    out_path: str | Path | None = None,
) -> list[str]:
    """Regenerate EXPERIMENTS.md; returns the ids with missing reports."""
    out = Path(out_path) if out_path else repo_root() / "EXPERIMENTS.md"
    text, missing = render_experiments_md(results_dir)
    out.write_text(text)
    return missing
