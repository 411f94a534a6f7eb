"""Hierarchical statistics counters.

Every simulator component increments named counters (``"fault.shared"``,
``"migration.count"``, ...).  :class:`StatCounters` is a defaultdict-like
accumulator with a prefix-sum query; a finished run hands its counts to
:attr:`~repro.sim.SimulationResult.stats`.
"""

from __future__ import annotations

from typing import Iterator, Mapping


class StatCounters:
    """Named numeric counters with prefix sums.

    Reads of unknown keys return ``0.0`` without creating an entry, and
    every exported view — :meth:`as_dict`, iteration, :meth:`items` — is
    sorted by name, so reports and golden comparisons never depend on
    counter-creation (dict-insertion) order.
    """

    def __init__(self, initial: Mapping[str, float] | None = None) -> None:
        self._counts: dict[str, float] = {}
        if initial:
            for key, value in initial.items():
                self._counts[key] = float(value)

    def add(self, name: str, amount: float = 1.0) -> None:
        """Increment counter ``name`` by ``amount``."""
        counts = self._counts
        counts[name] = counts.get(name, 0.0) + amount

    def __getitem__(self, name: str) -> float:
        return self._counts.get(name, 0.0)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __len__(self) -> int:
        return len(self._counts)

    def items(self):
        """Iterate ``(name, value)`` pairs in sorted name order."""
        return sorted(self._counts.items())

    def total(self, prefix: str) -> float:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(v for k, v in self._counts.items() if k.startswith(prefix))

    def as_dict(self) -> dict[str, float]:
        """A plain-dict snapshot in sorted-name order."""
        counts = self._counts
        return {key: counts[key] for key in sorted(counts)}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in self.items())
        return f"StatCounters({body})"
