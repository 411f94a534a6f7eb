"""Page-table state for the whole multi-GPU system.

:class:`PageTables` holds, for every virtual page, the union of what the
paper's three translation structures know:

* the **centralized host page table** (UVM driver): which device currently
  holds the authoritative copy of the page — queried by physical address
  range to classify a fault as private vs shared (Section V-D);
* the **per-GPU local page tables**: which GPUs have a valid PTE for the
  page, whether that PTE grants write permission, and whether it points at
  local or remote memory;
* the OASIS **PTE policy bits** (Fig. 12).

State is stored column-wise in plain Python lists (one entry per global
page index) because the simulator touches single pages on its hot path;
bulk views for analysis are exposed via :meth:`policy_histogram` and
friends.

Reads come the same two ways.  :meth:`entry` returns a page's five
columns after one bounds check; the machine's per-record path and the
policies' fault handlers read one entry per probe (and read again after
anything that may have mutated the page).  The single-aspect probes
(``is_mapped``, ``has_copy``, ``location``, ...) remain for everything
else.

Two kinds of mutator change the columns.  The *whole-page transitions*
(:meth:`install_exclusive`, :meth:`install_duplicate`,
:meth:`release_to_host`, :meth:`release_copy`) are what the UVM
driver's migrate, collapse, duplicate, evict and ``evict_from``
primitives call: each moves one page to its final state with one bounds
check and one mirror mark, and returns the page's prior columns so the
caller derives copy source, shootdown victims and released holders with
bit operations.  The *fine-grained* mutators (``map_local``,
``unmap_all_except``, ``set_exclusive``, ``add_copy``, ...) change one
aspect at a time; the driver's ``map_remote``, ``map_local`` and
``ideal_copy`` use them, and every transition equals a fixed sequence of
them.  The fast path's fused loops read the columns directly and write
back through one batch transition, :meth:`store_entries`: the final
entries (policy bits included) of the pages a loop installed, evicted
or re-mapped.

The same columns are also available as numpy arrays
(:meth:`bulk_views`), which the phase-snapshot tier hashes into its
decision digest.  The arrays are built lazily on first request.  After
that every mutator records the page indices it changed, and
:meth:`bulk_views` flushes them with one fancy-index store per column
before returning.

Invariants maintained by the mutators (checked by :meth:`check_invariants`):

* if ``owner`` is a GPU, that GPU is in the copy set;
* write permission is exclusive: at most one device may be writable, and a
  writable page has no other copies (no stale duplicates);
* ``writable`` implies ``mapped``.

That a GPU with a *local* mapping holds a copy needs no check: a mapped
bit without a copy bit *is* a remote mapping, and :meth:`map_local`
refuses to map a GPU that holds no copy.
"""

from __future__ import annotations

import numpy as np

from repro.config import HOST
from repro.memory.page import POLICY_ON_TOUCH


def duplicated(owner: int, copies: int) -> bool:
    """True if the ``owner`` / ``copies`` columns put the page's data on
    more than one device (a host owner counts as one)."""
    return copies.bit_count() + (owner == HOST) > 1


class PageTables:
    """Unified page-table state, indexed by global virtual page number."""

    #: Indices whose numpy mirrors are stale, flushed by :meth:`bulk_views`;
    #: ``None`` while no mirrors exist.  A class attribute too, so tables
    #: restored from snapshots pickled before it existed resolve it.
    _dirty: list[int] | None = None

    def __init__(
        self,
        n_pages: int,
        n_gpus: int,
        initial_placement: str = "host",
        first_page: int = 0,
        coherent: bool = True,
    ) -> None:
        """Create page-table state.

        Args:
            n_pages: number of tracked pages.
            n_gpus: number of GPUs.
            initial_placement: ``"host"`` or ``"distributed"``.
            first_page: global index of the first tracked page.
            coherent: when False, write exclusivity is not enforced — used
                only by the hypothetical Ideal policy, which keeps multiple
                writable copies with no coherence.
        """
        if n_pages < 0:
            raise ValueError("n_pages must be non-negative")
        if n_gpus < 1:
            raise ValueError("need at least one GPU")
        if initial_placement not in ("host", "distributed"):
            raise ValueError(f"bad initial placement {initial_placement!r}")
        self._n_pages = n_pages
        self._n_gpus = n_gpus
        self._first_page = first_page
        self._coherent = coherent
        if initial_placement == "host":
            self._owner = [HOST] * n_pages
            self._copy_mask = [0] * n_pages
        else:
            # Round-robin pages across GPUs (Fig. 21 sensitivity study).
            self._owner = [(first_page + i) % n_gpus for i in range(n_pages)]
            self._copy_mask = [1 << o for o in self._owner]
        self._mapped_mask = [0] * n_pages
        self._writable_mask = [0] * n_pages
        self._policy = [POLICY_ON_TOUCH] * n_pages
        self._views: dict[str, np.ndarray] | None = None
        self._dirty = None

    # -- geometry ---------------------------------------------------------

    @property
    def n_pages(self) -> int:
        return self._n_pages

    @property
    def n_gpus(self) -> int:
        return self._n_gpus

    def _idx(self, page: int) -> int:
        idx = page - self._first_page
        if not 0 <= idx < self._n_pages:
            raise IndexError(f"page {page} outside tracked range")
        return idx

    # -- bulk numpy views ---------------------------------------------------

    def bulk_views(self) -> dict[str, np.ndarray]:
        """Numpy mirrors of the per-page columns.

        Returns arrays indexed by ``page - first_page``: ``owner`` (device
        ids), ``copies`` / ``mapped`` / ``writable`` (per-GPU bitmasks) and
        ``policy`` (PTE policy bits), all int64.  Built lazily on first
        call; every later call first flushes the pages mutated since the
        previous one, so the arrays are current when returned.  Callers
        must treat them as read-only and call again after any mutation.
        """
        views = self._views
        if views is None:
            views = self._views = {
                "owner": np.array(self._owner, dtype=np.int64),
                "copies": np.array(self._copy_mask, dtype=np.int64),
                "mapped": np.array(self._mapped_mask, dtype=np.int64),
                "writable": np.array(self._writable_mask, dtype=np.int64),
                "policy": np.array(self._policy, dtype=np.int64),
            }
            self._dirty = []
        elif self._dirty:
            dirty = self._dirty
            idxs = np.array(dirty, dtype=np.intp)
            for name, column in (
                ("owner", self._owner),
                ("copies", self._copy_mask),
                ("mapped", self._mapped_mask),
                ("writable", self._writable_mask),
                ("policy", self._policy),
            ):
                views[name][idxs] = [column[idx] for idx in dirty]
            dirty.clear()
        return views

    def _touch(self, idx: int) -> None:
        """Record a mutation of one page: mark its mirrors.

        Once more marks pile up than the table has pages (a slow-path
        run reads the mirrors only at phase boundaries), rebuilding is
        cheaper than flushing: the mirrors are dropped instead.
        """
        dirty = self._dirty
        if dirty is not None:
            dirty.append(idx)
            if len(dirty) > self._n_pages:
                self._views = self._dirty = None

    def store_entries(self, entries: dict[int, list[int]]) -> None:
        """Write back the entries a fused replay loop kept locally.

        ``entries`` maps a page to its final ``[owner, copies, mapped,
        writable, policy]`` (the :meth:`entry` columns), each a state the
        driver primitives and policies reach.  Each page gets one
        mirror mark for :meth:`bulk_views` to flush.
        """
        if not entries:
            return
        owner = self._owner
        copies = self._copy_mask
        mapped = self._mapped_mask
        writable = self._writable_mask
        policy = self._policy
        first = self._first_page
        idxs = []
        for page, state in entries.items():
            idx = page - first
            owner[idx] = state[0]
            copies[idx] = state[1]
            mapped[idx] = state[2]
            writable[idx] = state[3]
            policy[idx] = state[4]
            idxs.append(idx)
        dirty = self._dirty
        if dirty is not None:
            dirty.extend(idxs)
            if len(dirty) > self._n_pages:
                self._views = self._dirty = None

    # -- whole-entry probe ---------------------------------------------------

    def entry(self, page: int) -> tuple[int, int, int, int, int]:
        """The page's ``(owner, copies, mapped, writable, policy)`` columns.

        One bounds check for what :meth:`location`, :meth:`has_copy`,
        :meth:`is_mapped`, :meth:`is_writable` and :meth:`policy` each
        answer for one aspect; ``copies``, ``mapped`` and ``writable`` are
        per-GPU bitmasks.  The tuple is a copy: re-read after a mutation.
        """
        idx = page - self._first_page
        if not 0 <= idx < self._n_pages:
            raise IndexError(f"page {page} outside tracked range")
        return (self._owner[idx], self._copy_mask[idx],
                self._mapped_mask[idx], self._writable_mask[idx],
                self._policy[idx])

    # -- host page table (centralized) -------------------------------------

    def location(self, page: int) -> int:
        """Device holding the authoritative copy (the host PT lookup)."""
        return self._owner[self._idx(page)]

    def copy_holders(self, page: int) -> list[int]:
        """GPUs currently holding a copy of the page's data."""
        mask = self._copy_mask[self._idx(page)]
        return [g for g in range(self._n_gpus) if mask >> g & 1]

    def has_copy(self, gpu: int, page: int) -> bool:
        """True if ``gpu`` holds the page's data in its local memory."""
        return bool(self._copy_mask[self._idx(page)] >> gpu & 1)

    def is_duplicated(self, page: int) -> bool:
        """True if more than one device holds the page's data."""
        idx = self._idx(page)
        return duplicated(self._owner[idx], self._copy_mask[idx])

    # -- per-GPU local page tables -----------------------------------------

    def is_mapped(self, gpu: int, page: int) -> bool:
        """True if ``gpu``'s local page table holds a valid PTE."""
        return bool(self._mapped_mask[self._idx(page)] >> gpu & 1)

    def is_writable(self, gpu: int, page: int) -> bool:
        """True if ``gpu``'s PTE grants write permission."""
        return bool(self._writable_mask[self._idx(page)] >> gpu & 1)

    def mapped_gpus(self, page: int) -> list[int]:
        """GPUs with a valid PTE for the page."""
        mask = self._mapped_mask[self._idx(page)]
        return [g for g in range(self._n_gpus) if mask >> g & 1]

    def map_local(self, gpu: int, page: int, writable: bool) -> None:
        """Install a PTE pointing at the GPU's own copy."""
        idx = self._idx(page)
        if not self._copy_mask[idx] >> gpu & 1:
            raise ValueError(
                f"GPU {gpu} has no local copy of page {page}; cannot map local"
            )
        bit = 1 << gpu
        self._mapped_mask[idx] |= bit
        if writable:
            self._writable_mask[idx] |= bit
        else:
            self._writable_mask[idx] &= ~bit
        self._touch(idx)

    def map_remote(self, gpu: int, page: int) -> None:
        """Install a PTE pointing at the remote authoritative copy."""
        idx = self._idx(page)
        bit = 1 << gpu
        if self._copy_mask[idx] >> gpu & 1:
            raise ValueError(
                f"GPU {gpu} holds page {page} locally; use map_local"
            )
        self._mapped_mask[idx] |= bit
        self._writable_mask[idx] &= ~bit
        self._touch(idx)

    def unmap(self, gpu: int, page: int) -> bool:
        """Invalidate ``gpu``'s PTE; returns True if it was valid."""
        idx = self._idx(page)
        bit = 1 << gpu
        was = bool(self._mapped_mask[idx] & bit)
        self._mapped_mask[idx] &= ~bit
        self._writable_mask[idx] &= ~bit
        self._touch(idx)
        return was

    def unmap_all_except(self, page: int, keep: int | None = None) -> list[int]:
        """Invalidate every GPU PTE except ``keep``'s; returns shot-down GPUs."""
        idx = self._idx(page)
        mask = self._mapped_mask[idx]
        victims = [
            g for g in range(self._n_gpus) if (mask >> g & 1) and g != keep
        ]
        keep_bit = 0 if keep is None else (mask & (1 << keep))
        self._mapped_mask[idx] = keep_bit
        self._writable_mask[idx] &= keep_bit
        self._touch(idx)
        return victims

    # -- data movement ------------------------------------------------------

    def set_exclusive(self, page: int, device: int) -> None:
        """Make ``device`` the sole holder of the page's data.

        Mappings are not touched; callers invalidate stale PTEs first via
        :meth:`unmap_all_except` (that is where shootdown costs come from).
        """
        idx = self._idx(page)
        self._owner[idx] = device
        self._copy_mask[idx] = 0 if device == HOST else (1 << device)
        self._touch(idx)

    def add_copy(self, gpu: int, page: int) -> None:
        """Record a duplicate of the page on ``gpu``.

        In coherent mode (the default) duplicating strips write permission
        everywhere — a duplicated page can have no writer.
        """
        idx = self._idx(page)
        self._copy_mask[idx] |= 1 << gpu
        if self._coherent:
            self._writable_mask[idx] = 0
        self._touch(idx)

    def drop_copy(self, gpu: int, page: int) -> None:
        """Discard ``gpu``'s duplicate (PTE must be unmapped separately)."""
        idx = self._idx(page)
        if self._owner[idx] == gpu:
            raise ValueError(f"cannot drop the owner copy of page {page}")
        self._copy_mask[idx] &= ~(1 << gpu)
        self._touch(idx)

    # -- whole-page transitions ---------------------------------------------

    def install_exclusive(
        self, page: int, gpu: int
    ) -> tuple[int, int, int, int]:
        """Make ``gpu`` the sole holder, locally mapped and writable.

        The page-table side of a migration and of a write-collapse:
        equal to ``unmap_all_except`` → ``set_exclusive(gpu)`` →
        ``map_local(gpu, writable=True)`` (with ``keep=None`` or
        ``keep=gpu``, which end in the same state).  Returns the prior
        ``(owner, copies, mapped, writable)`` columns.
        """
        return self._replace(page, gpu, 1 << gpu)

    def release_to_host(self, page: int) -> tuple[int, int, int, int]:
        """Unmap the page everywhere and make the host its sole holder.

        The page-table side of an eviction: equal to
        ``unmap_all_except(keep=None)`` → ``set_exclusive(HOST)``.
        Returns the prior ``(owner, copies, mapped, writable)`` columns.
        """
        return self._replace(page, HOST, 0)

    def _replace(
        self, page: int, owner: int, mask: int
    ) -> tuple[int, int, int, int]:
        """Set the page's owner and all three GPU masks; return the prior."""
        idx = self._idx(page)
        prior = (self._owner[idx], self._copy_mask[idx],
                 self._mapped_mask[idx], self._writable_mask[idx])
        self._owner[idx] = owner
        self._copy_mask[idx] = mask
        self._mapped_mask[idx] = mask
        self._writable_mask[idx] = mask
        self._touch(idx)
        return prior

    def install_duplicate(
        self, page: int, gpu: int
    ) -> tuple[int, int, int, int]:
        """Give ``gpu`` a read-only local copy of the page.

        The page-table side of a duplication: equal to ``add_copy(gpu)``
        → ``map_local(gpu, writable=False)``, plus — when ``gpu`` held no
        copy before — ``map_local(writer, writable=False)`` for the
        lowest GPU with a writable mapping.  In coherent mode any copy
        strips every write permission; incoherent tables only lose the
        two demoted bits.  Returns the prior ``(owner, copies, mapped,
        writable)`` columns.
        """
        idx = self._idx(page)
        _owner, copies, mapped, writable = prior = (
            self._owner[idx], self._copy_mask[idx],
            self._mapped_mask[idx], self._writable_mask[idx],
        )
        bit = 1 << gpu
        self._copy_mask[idx] = copies | bit
        self._mapped_mask[idx] = mapped | bit
        if self._coherent:
            self._writable_mask[idx] = 0
        else:
            demoted = bit
            if not copies & bit:
                writers = mapped & writable
                demoted |= writers & -writers
            self._writable_mask[idx] = writable & ~demoted
        self._touch(idx)
        return prior

    def release_copy(
        self, page: int, gpu: int
    ) -> tuple[int, int, int, int] | None:
        """Drop ``gpu``'s copy and mapping while another GPU keeps one.

        The page-table side of evicting a copy that is not the page's
        last GPU copy: equal to ``unmap(gpu)`` → ``drop_copy(gpu)``, or,
        when ``gpu`` owns the page, ``unmap(gpu)`` →
        ``set_exclusive(new_owner)`` → ``add_copy`` for every further
        holder, where the new owner is the lowest other holder.  Those
        ``add_copy`` calls strip no write permission: a coherent table
        has no writer on a page with several copies.  Returns the prior
        ``(owner, copies, mapped, writable)`` columns.  For a sole GPU
        holder the table is left alone and ``None`` returned: the caller
        evicts the whole page instead (:meth:`release_to_host`).

        Raises:
            ValueError: if ``gpu`` holds no copy of the page.
        """
        idx = self._idx(page)
        owner, copies, mapped, writable = prior = (
            self._owner[idx], self._copy_mask[idx],
            self._mapped_mask[idx], self._writable_mask[idx],
        )
        bit = 1 << gpu
        if not copies & bit:
            raise ValueError(f"GPU {gpu} holds no copy of page {page}")
        others = copies & ~bit
        if not others:
            return None
        self._copy_mask[idx] = others
        self._mapped_mask[idx] = mapped & ~bit
        self._writable_mask[idx] = writable & ~bit
        if owner == gpu:
            self._owner[idx] = (others & -others).bit_length() - 1
        self._touch(idx)
        return prior

    # -- PTE policy bits -----------------------------------------------------

    def policy(self, page: int) -> int:
        """PTE policy bits of ``page``."""
        return self._policy[self._idx(page)]

    def set_policy(self, page: int, bits: int) -> None:
        """Set the PTE policy bits of one page."""
        idx = self._idx(page)
        self._policy[idx] = bits
        self._touch(idx)

    def set_policy_range(self, first_page: int, n_pages: int, bits: int) -> None:
        """Set the policy bits of a contiguous page range (object-wide)."""
        start = self._idx(first_page)
        stop = start + n_pages
        if stop > self._n_pages:
            raise IndexError("policy range extends past tracked pages")
        self._policy[start:stop] = [bits] * n_pages
        if self._views is not None:
            self._views["policy"][start:stop] = bits

    def policy_histogram(self) -> dict[int, int]:
        """Count of pages per policy-bit value."""
        hist: dict[int, int] = {}
        for bits in self._policy:
            hist[bits] = hist.get(bits, 0) + 1
        return hist

    # -- validation -----------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        for idx in range(self._n_pages):
            owner = self._owner[idx]
            copies = self._copy_mask[idx]
            mapped = self._mapped_mask[idx]
            writable = self._writable_mask[idx]
            page = self._first_page + idx
            if owner != HOST:
                assert copies >> owner & 1, (
                    f"page {page}: GPU owner {owner} missing from copy set"
                )
            assert writable & ~mapped == 0, (
                f"page {page}: writable PTE without valid mapping"
            )
            if self._coherent:
                assert writable.bit_count() <= 1, (
                    f"page {page}: multiple writers"
                )
                if writable:
                    n_holders = copies.bit_count() + (1 if owner == HOST else 0)
                    assert n_holders <= 1, (
                        f"page {page}: writable while duplicated"
                    )
