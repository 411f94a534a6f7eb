"""Benchmark-experiment registry: enumerate benchmarks outside pytest.

The ``benchmarks/`` directory holds one ``bench_fig*``/``bench_table*``
module per paper artifact.  The artifact pipeline must enumerate them
without importing pytest (or the modules themselves, which pull in
pytest-benchmark fixtures), so discovery works off the filenames: each
``bench_<kind><NN>_<slug>.py`` maps to the experiment id
``<kind><N>`` in :data:`repro.harness.EXPERIMENTS`, and the module
docstring's first line becomes the human title (parsed with ``ast``, no
import).  ``benchmarks/conftest.py`` exposes the same registry to the
pytest side, so both runners agree on what "every experiment" means.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

from repro.harness import EXPERIMENTS, SEEDED_EXPERIMENTS

#: ``bench_fig02_uniform_policies.py`` -> (fig, 02, uniform_policies)
_BENCH_FILE_RE = re.compile(
    r"^bench_(?P<kind>fig|table)(?P<number>\d+)(?:_(?P<slug>[a-z0-9_]+))?\.py$"
)

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


@dataclass(frozen=True)
class BenchExperiment:
    """One discovered benchmark module and its experiment-registry id."""

    exp_id: str  # registry id, e.g. "fig2"
    kind: str  # "fig" | "table"
    number: int
    slug: str  # filename suffix, e.g. "uniform_policies"
    path: Path  # benchmarks/bench_fig02_uniform_policies.py
    title: str  # first line of the module docstring
    #: Whether the experiment runs simulations (responds to ``seed``).
    seeded: bool

    @property
    def order_key(self) -> tuple:
        """Tables first, then figures, each by number (paper order)."""
        return (self.kind != "table", self.number)


def _module_title(path: Path) -> str:
    try:
        doc = ast.get_docstring(ast.parse(path.read_text()))
    except (OSError, SyntaxError):
        return ""
    return (doc or "").strip().splitlines()[0] if doc else ""


def discover_experiments(
    bench_dir: str | Path | None = None,
) -> dict[str, BenchExperiment]:
    """Map experiment id -> benchmark module, in paper order.

    Only files whose id exists in :data:`repro.harness.EXPERIMENTS` are
    returned; auxiliary benchmarks (``bench_memo``, ablations, ...) do
    not regenerate a paper artifact and are skipped.
    """
    directory = Path(bench_dir) if bench_dir else repo_root() / "benchmarks"
    found: list[BenchExperiment] = []
    for path in sorted(directory.glob("bench_*.py")):
        match = _BENCH_FILE_RE.match(path.name)
        if match is None:
            continue
        exp_id = f"{match.group('kind')}{int(match.group('number'))}"
        if exp_id not in EXPERIMENTS:
            continue
        found.append(BenchExperiment(
            exp_id=exp_id,
            kind=match.group("kind"),
            number=int(match.group("number")),
            slug=match.group("slug") or "",
            path=path,
            title=_module_title(path),
            seeded=exp_id in SEEDED_EXPERIMENTS,
        ))
    found.sort(key=lambda entry: entry.order_key)
    return {entry.exp_id: entry for entry in found}


def experiment_order(bench_dir: str | Path | None = None) -> list[str]:
    """Every discovered experiment id, tables first then figures."""
    return list(discover_experiments(bench_dir))
