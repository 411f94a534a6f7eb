"""Hardware access counters for counter-based migration.

NVIDIA Volta-class GPUs count *remote* accesses per 64 KB page group and
migrate the group once a threshold (256 in the driver the paper cites) is
reached.  :class:`AccessCounterFile` models one counter per
``(gpu, page group)`` pair, stored sparsely — only groups that actually see
remote traffic allocate a counter.
"""

from __future__ import annotations


class AccessCounterFile:
    """Per-(GPU, page-group) remote access counters."""

    def __init__(self, n_gpus: int, pages_per_group: int, threshold: int) -> None:
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if pages_per_group < 1:
            raise ValueError("pages_per_group must be >= 1")
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        self._n_gpus = n_gpus
        self._pages_per_group = pages_per_group
        self._threshold = threshold
        self._counts: dict[int, int] = {}

    @property
    def threshold(self) -> int:
        return self._threshold

    @property
    def pages_per_group(self) -> int:
        return self._pages_per_group

    @property
    def n_gpus(self) -> int:
        return self._n_gpus

    def group_of(self, page: int) -> int:
        """Counter group covering ``page``."""
        return page // self._pages_per_group

    def _key(self, gpu: int, group: int) -> int:
        return group * self._n_gpus + gpu

    def count(self, gpu: int, page: int) -> int:
        """Current remote-access count of ``gpu`` for ``page``'s group."""
        return self._counts.get(self._key(gpu, self.group_of(page)), 0)

    def record_remote(self, gpu: int, page: int) -> bool:
        """Count one remote access; returns True if the threshold is hit.

        On a threshold hit the counter resets (the hardware notification
        fires once and migration follows).
        """
        key = self._key(gpu, self.group_of(page))
        value = self._counts.get(key, 0) + 1
        if value >= self._threshold:
            self._counts.pop(key, None)
            return True
        self._counts[key] = value
        return False

    def record_remote_bulk(self, gpu: int, page: int, weight: int) -> bool:
        """Count ``weight`` remote accesses at once; True on threshold hit.

        Equivalent to ``weight`` calls to :meth:`record_remote` except the
        trip can only fire once (the caller migrates the group right
        after, which resets the counters anyway).
        """
        if weight < 1:
            raise ValueError("weight must be >= 1")
        key = self._key(gpu, self.group_of(page))
        value = self._counts.get(key, 0) + weight
        if value >= self._threshold:
            self._counts.pop(key, None)
            return True
        self._counts[key] = value
        return False

    def count_by_key(self, key: int) -> int:
        """Current count for a raw ``group * n_gpus + gpu`` key.

        The vectorized replay path computes keys in bulk with numpy using
        the same formula as :meth:`_key`; this reader,
        :meth:`add_bulk_below_threshold` and :meth:`store_counts` let it
        read and apply counts without re-deriving (gpu, page) pairs.
        """
        return self._counts.get(key, 0)

    def add_bulk_below_threshold(self, key: int, weight: int) -> None:
        """Add pre-validated accesses that provably cannot trip.

        Equivalent to the same total weight of :meth:`record_remote` calls
        when the caller has already proven the threshold is unreachable;
        raises if the proof was wrong rather than silently skipping the
        migration a per-record replay would have performed.
        """
        value = self._counts.get(key, 0) + weight
        if value >= self._threshold:
            raise RuntimeError(
                f"bulk counter add crossed the threshold (key={key})"
            )
        self._counts[key] = value

    def store_counts(self, counts: dict[int, int]) -> None:
        """Write back counts a fused replay loop kept locally.

        ``counts`` maps raw keys (see :meth:`count_by_key`) to their
        final values; a 0 stands for a counter that tripped or was reset,
        which the file does not keep, so its key is dropped.
        """
        live = self._counts
        for key, value in counts.items():
            if value:
                live[key] = value
            else:
                live.pop(key, None)

    def reset_group(self, page: int) -> None:
        """Clear every GPU's counter for ``page``'s group (after migration)."""
        counts = self._counts
        if counts:
            base = self.group_of(page) * self._n_gpus
            for key in range(base, base + self._n_gpus):
                counts.pop(key, None)

    def reset_all(self) -> None:
        """Drop all counters."""
        self._counts.clear()

    @property
    def active_counters(self) -> int:
        """Number of non-zero counters currently allocated."""
        return len(self._counts)
