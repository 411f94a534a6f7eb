"""Generate EXPERIMENTS.md from the saved experiment reports.

Standalone wrapper over :mod:`repro.artifacts.experiments_md` — the
same generator ``scripts/reproduce_all`` runs after a full-profile
pipeline run, kept as its own script for regenerating the document
from an already-populated ``results/`` without re-running anything.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.artifacts.experiments_md import write_experiments_md  # noqa: E402
from repro.harness import EXPERIMENTS  # noqa: E402


def main() -> None:
    missing = write_experiments_md()
    total = len(EXPERIMENTS)
    print(f"wrote EXPERIMENTS.md ({total - len(missing)} reports)")
    if missing:
        print("missing reports: " + ", ".join(missing)
              + " — run scripts/reproduce_all")


if __name__ == "__main__":
    main()
