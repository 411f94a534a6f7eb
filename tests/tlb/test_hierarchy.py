"""TLB hierarchy tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import LatencyModel, TLBConfig
from repro.tlb import TLBHierarchy


@pytest.fixture
def tlb():
    return TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())


LAT = LatencyModel()


class TestHierarchy:
    def test_cold_access_walks(self, tlb):
        result = tlb.translate(7)
        assert result.level == "walk"
        assert result.l2_miss
        assert result.cost_ns == pytest.approx(
            LAT.l1_tlb_hit_ns + LAT.l2_tlb_ns + LAT.walk_ns
        )

    def test_second_access_hits_l1(self, tlb):
        tlb.translate(7)
        result = tlb.translate(7)
        assert result.level == "l1"
        assert result.cost_ns == LAT.l1_tlb_hit_ns
        assert not result.l2_miss

    def test_l1_eviction_falls_back_to_l2(self, tlb):
        # Fill set 0 of the 2-way L1 beyond capacity; L2 (4-way sets)
        # still holds the evicted translation.
        tlb.translate(0)
        tlb.translate(2)
        tlb.translate(4)  # evicts 0 from L1 set 0
        result = tlb.translate(0)
        assert result.level == "l2"
        assert result.cost_ns == pytest.approx(
            LAT.l1_tlb_hit_ns + LAT.l2_tlb_ns
        )

    def test_l2_hit_refills_l1(self, tlb):
        tlb.translate(0)
        tlb.translate(2)
        tlb.translate(4)
        tlb.translate(0)  # L2 hit, refills L1
        assert tlb.translate(0).level == "l1"

    def test_shootdown_clears_both_levels(self, tlb):
        tlb.translate(9)
        assert tlb.shootdown(9)
        assert tlb.translate(9).level == "walk"

    def test_shootdown_absent_returns_false(self, tlb):
        assert not tlb.shootdown(99)

    def test_flush(self, tlb):
        tlb.translate(1)
        tlb.flush()
        assert tlb.translate(1).level == "walk"

    def test_l2_miss_counter(self, tlb):
        tlb.translate(1)
        tlb.translate(1)
        tlb.translate(2)
        assert tlb.l2_misses == 2


def _state(tlb: TLBHierarchy):
    """Every observable of both levels: per-set contents in LRU order
    (first key is the next victim) and the four counters."""
    return [
        (
            [list(entries) for entries in level._sets],
            level.hits, level.misses, level.lookups, level.invalidations,
        )
        for level in (tlb.l1, tlb.l2)
    ]


#: A stream step: ``(shoot down?, page)``.
_steps = st.lists(
    st.tuples(st.booleans(), st.integers(0, 23)), min_size=1, max_size=120
)


class TestFastPathsMatchTranslate:
    """``translate()`` is the reference; both fast paths must agree."""

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps)
    def test_translate_fast_matches_translate(self, steps):
        ref = TLBHierarchy(TLBConfig(4, 2), TLBConfig(8, 4), LAT)
        fast = TLBHierarchy(TLBConfig(4, 2), TLBConfig(8, 4), LAT)
        for is_shootdown, page in steps:
            if is_shootdown:
                assert fast.shootdown(page) == ref.shootdown(page)
            else:
                result = ref.translate(page)
                assert fast.translate_fast(page) == (
                    result.cost_ns, result.l2_miss
                )
            assert _state(fast) == _state(ref)

    @settings(max_examples=200, deadline=None)
    @given(steps=_steps)
    def test_translate_run_matches_translate(self, steps):
        ref = TLBHierarchy(TLBConfig(4, 2), TLBConfig(8, 4), LAT)
        run = TLBHierarchy(TLBConfig(4, 2), TLBConfig(8, 4), LAT)
        # Runs of translations between shootdowns, as the fast path
        # replays the records between two page-table mutations.
        pending: list[int] = []

        def flush():
            results = [ref.translate(page) for page in pending]
            costs, walks = run.translate_run(pending)
            assert costs == [r.cost_ns for r in results]
            assert walks == [i for i, r in enumerate(results) if r.l2_miss]
            pending.clear()

        for is_shootdown, page in steps:
            if is_shootdown:
                flush()
                assert run.shootdown(page) == ref.shootdown(page)
            else:
                pending.append(page)
        flush()
        assert _state(run) == _state(ref)


class TestStatsConservation:
    @pytest.mark.parametrize("seed", range(3))
    def test_hierarchy_levels_conserve(self, seed):
        tlb = TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())
        rng = np.random.default_rng(seed)
        for _ in range(400):
            page = int(rng.integers(0, 64)) + (
                128 if rng.integers(0, 2) else 0
            )
            tlb.translate(page)
        assert tlb.l1.hits + tlb.l1.misses == tlb.l1.lookups
        assert tlb.l2.hits + tlb.l2.misses == tlb.l2.lookups
        assert tlb.l2.lookups == tlb.l1.misses
        assert tlb.l1.lookups == 400

    def test_translate_run_counts_like_translate_fast(self):
        rng = np.random.default_rng(1)
        pages = [int(rng.integers(0, 96)) for _ in range(500)]
        one = TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())
        two = TLBHierarchy(TLBConfig(4, 2), TLBConfig(16, 4), LatencyModel())
        costs_fast = []
        walks_fast = []
        for pos, page in enumerate(pages):
            cost, walked = one.translate_fast(page)
            costs_fast.append(cost)
            if walked:
                walks_fast.append(pos)
        costs_run, walks_run = two.translate_run(pages)
        assert costs_run == costs_fast
        assert walks_run == walks_fast
        for mine, theirs in ((one.l1, two.l1), (one.l2, two.l2)):
            assert (mine.hits, mine.misses, mine.lookups) == (
                theirs.hits, theirs.misses, theirs.lookups
            )
            assert mine.hits + mine.misses == mine.lookups
