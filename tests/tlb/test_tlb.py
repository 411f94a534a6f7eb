"""Set-associative TLB tests, including an LRU reference model."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TLBConfig
from repro.tlb import SetAssociativeTLB


def make(entries=8, ways=2):
    return SetAssociativeTLB(TLBConfig(entries, ways))


class TestBasics:
    def test_miss_then_hit(self):
        tlb = make()
        assert not tlb.lookup(5)
        tlb.fill(5)
        assert tlb.lookup(5)

    def test_hit_and_miss_counters(self):
        tlb = make()
        tlb.lookup(1)
        tlb.fill(1)
        tlb.lookup(1)
        assert tlb.misses == 1
        assert tlb.hits == 1

    def test_fill_evicts_lru_within_set(self):
        tlb = make(entries=4, ways=2)  # 2 sets
        # Pages 0, 2, 4 all map to set 0.
        tlb.fill(0)
        tlb.fill(2)
        victim = tlb.fill(4)
        assert victim == 0

    def test_lookup_refreshes_lru(self):
        tlb = make(entries=4, ways=2)
        tlb.fill(0)
        tlb.fill(2)
        tlb.lookup(0)  # 0 becomes MRU; 2 is now LRU
        assert tlb.fill(4) == 2

    def test_refill_existing_is_not_eviction(self):
        tlb = make(entries=4, ways=2)
        tlb.fill(0)
        assert tlb.fill(0) is None
        assert tlb.occupancy == 1

    def test_invalidate(self):
        tlb = make()
        tlb.fill(3)
        assert tlb.invalidate(3)
        assert not tlb.invalidate(3)
        assert tlb.invalidations == 1
        assert not tlb.contains(3)

    def test_flush(self):
        tlb = make()
        for p in range(4):
            tlb.fill(p)
        tlb.flush()
        assert tlb.occupancy == 0

    def test_contains_does_not_mutate(self):
        tlb = make()
        tlb.fill(1)
        hits = tlb.hits
        assert tlb.contains(1)
        assert tlb.hits == hits

    def test_pages_map_to_sets_by_modulo(self):
        tlb = make(entries=8, ways=2)  # 4 sets
        tlb.fill(1)
        tlb.fill(5)  # same set (1 % 4 == 5 % 4)
        tlb.fill(9)
        assert not tlb.contains(1)  # evicted by 9

    def test_fully_associative_table_i_l1(self):
        # Table I: 32 entries, 32-way = fully associative.
        tlb = make(entries=32, ways=32)
        for p in range(32):
            tlb.fill(p)
        assert tlb.fill(32) == 0  # global LRU


class ReferenceLRU:
    """Brute-force per-set LRU model."""

    def __init__(self, sets, ways):
        self.sets = [[] for _ in range(sets)]
        self.ways = ways

    def lookup(self, page):
        s = self.sets[page % len(self.sets)]
        if page in s:
            s.remove(page)
            s.append(page)
            return True
        return False

    def fill(self, page):
        s = self.sets[page % len(self.sets)]
        if page in s:
            s.remove(page)
        elif len(s) >= self.ways:
            s.pop(0)
        s.append(page)

    def invalidate(self, page):
        s = self.sets[page % len(self.sets)]
        if page in s:
            s.remove(page)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["lookup", "fill", "invalidate"]),
                st.integers(min_value=0, max_value=30),
            ),
            max_size=120,
        )
    )
    def test_matches_reference_model(self, ops):
        tlb = make(entries=8, ways=2)
        ref = ReferenceLRU(sets=4, ways=2)
        for op, page in ops:
            if op == "lookup":
                assert tlb.lookup(page) == ref.lookup(page)
            elif op == "fill":
                tlb.fill(page)
                ref.fill(page)
            else:
                tlb.invalidate(page)
                ref.invalidate(page)
        for page in range(31):
            assert tlb.contains(page) == any(
                page in s for s in ref.sets
            )


class TestInterleavedAddressSpaces:
    """Address spaces whose windows are set-count aligned collide per set."""

    def test_window_aligned_pages_share_sets(self):
        tlb = make(entries=8, ways=2)  # 4 sets
        window = 64  # multiple of n_sets: page and page+window collide
        tlb.fill(3)
        tlb.fill(3 + window)
        victim = tlb.fill(3 + 2 * window)
        assert victim == 3  # LRU of the shared set, not another set

    def test_cross_address_space_conflict_evictions(self):
        tlb = make(entries=8, ways=2)
        window = 64
        # Two address spaces fill the shared sets to capacity without
        # evicting each other; a third working set at the same offsets
        # evicts the LRU (address space a) from every set.
        for page in range(4):
            tlb.fill(page)
        for page in range(4):
            assert tlb.fill(window + page) is None
        assert tlb.occupancy == 8
        for page in range(4):
            assert tlb.fill(2 * window + page) == page
        for page in range(4):
            assert not tlb.contains(page)
            assert tlb.contains(window + page)
            assert tlb.contains(2 * window + page)
        assert tlb.occupancy == 8

    def test_disjoint_sets_do_not_conflict(self):
        tlb = make(entries=8, ways=2)  # 4 sets
        for page in range(4):  # one page per set: no pressure anywhere
            assert tlb.fill(page) is None
        for page in range(4):
            assert tlb.contains(page)

    def test_interleaved_streams_deterministic(self):
        rng = np.random.default_rng(7)
        pages = [
            int(rng.integers(0, 16)) + (64 if rng.integers(0, 2) else 0)
            for _ in range(200)
        ]
        a, b = make(16, 4), make(16, 4)
        for page in pages:
            if not a.lookup(page):
                a.fill(page)
            if not b.lookup(page):
                b.fill(page)
        assert (a.hits, a.misses, a.lookups) == (b.hits, b.misses, b.lookups)
        assert a.cached_pages() == b.cached_pages()


class TestStatsConservation:
    def test_single_level_lookups_partition(self):
        tlb = make(16, 4)
        rng = np.random.default_rng(0)
        for _ in range(300):
            page = int(rng.integers(0, 48))
            if not tlb.lookup(page):
                tlb.fill(page)
        assert tlb.lookups == 300
        assert tlb.hits + tlb.misses == tlb.lookups
