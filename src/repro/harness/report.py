"""Report formatting: ASCII tables and summary statistics."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's 'average' for normalized performance)."""
    values = list(values)
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_table(headers: list[str], rows: list[list]) -> str:
    """Render an ASCII table with right-aligned numeric columns."""
    cells = [[_format_cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in cells)) if cells else len(headers[c])
        for c in range(len(headers))
    ]

    def fmt_row(row: list[str]) -> str:
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))

    lines = [fmt_row(headers), "-+-".join("-" * w for w in widths)]
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)


@dataclass
class ExperimentResult:
    """The regenerated form of one paper table or figure."""

    exp_id: str
    title: str
    headers: list[str]
    rows: list[list]
    #: What the paper reports for this artifact.
    paper_claim: str = ""
    #: The corresponding measurement from this run.
    measured_claim: str = ""
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """Full human-readable report."""
        parts = [f"== {self.exp_id}: {self.title} ==",
                 format_table(self.headers, self.rows)]
        if self.paper_claim:
            parts.append(f"paper:    {self.paper_claim}")
        if self.measured_claim:
            parts.append(f"measured: {self.measured_claim}")
        parts.extend(f"note: {n}" for n in self.notes)
        return "\n".join(parts)

    def save(self, directory: str | Path) -> Path:
        """Write the rendered report to ``<directory>/<exp_id>.txt``
        (plus a machine-readable ``.json`` twin)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.exp_id}.txt"
        path.write_text(self.render() + "\n")
        json_path = directory / f"{self.exp_id}.json"
        json_path.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return path

    def to_dict(self) -> dict:
        """JSON-serializable form of the experiment result."""
        return {
            "exp_id": self.exp_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
            "paper_claim": self.paper_claim,
            "measured_claim": self.measured_claim,
            "notes": list(self.notes),
        }

    def row_dict(self, key_column: int = 0) -> dict:
        """Rows keyed by one column (convenience for tests)."""
        return {row[key_column]: row for row in self.rows}
