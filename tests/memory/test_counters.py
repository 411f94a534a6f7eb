"""Hardware access-counter tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import AccessCounterFile


def make(threshold=256, group=16, gpus=4):
    return AccessCounterFile(n_gpus=gpus, pages_per_group=group,
                             threshold=threshold)


class TestAccessCounterFile:
    def test_counts_accumulate_within_group(self):
        c = make(threshold=10)
        for page in range(16):  # all one group
            c.record_remote(0, page)
        # 16 accesses with threshold 10: tripped once at the 10th, counter
        # restarted, 6 left.
        assert c.count(0, 0) == 6

    def test_threshold_trip_resets(self):
        c = make(threshold=3)
        assert not c.record_remote(1, 0)
        assert not c.record_remote(1, 0)
        assert c.record_remote(1, 0)
        assert c.count(1, 0) == 0

    def test_counters_per_gpu_independent(self):
        c = make(threshold=5)
        c.record_remote(0, 0)
        c.record_remote(0, 0)
        assert c.count(1, 0) == 0

    def test_counters_per_group_independent(self):
        c = make(threshold=5, group=4)
        c.record_remote(0, 0)
        assert c.count(0, 4) == 0  # page 4 is in group 1

    def test_group_of(self):
        c = make(group=16)
        assert c.group_of(0) == 0
        assert c.group_of(15) == 0
        assert c.group_of(16) == 1

    def test_reset_group_clears_all_gpus(self):
        c = make(threshold=100)
        c.record_remote(0, 3)
        c.record_remote(1, 3)
        c.reset_group(3)
        assert c.count(0, 3) == 0
        assert c.count(1, 3) == 0

    def test_reset_all(self):
        c = make(threshold=100)
        c.record_remote(0, 0)
        c.record_remote(1, 40)
        c.reset_all()
        assert c.active_counters == 0

    def test_bulk_trip(self):
        c = make(threshold=256)
        assert not c.record_remote_bulk(0, 0, 255)
        assert c.record_remote_bulk(0, 0, 1)
        assert c.count(0, 0) == 0

    def test_store_counts_sets_values_and_drops_zeros(self):
        c = make(threshold=100, group=16, gpus=4)
        c.record_remote(0, 0)  # key 0
        c.record_remote(1, 16)  # key 5
        c.store_counts({0: 0, 5: 7, 9: 3, 13: 0})
        assert c.count(0, 0) == 0
        assert c.count(1, 16) == 7
        assert c.count_by_key(9) == 3
        # Tripped or reset counters are not kept, not even as zeros.
        assert c.active_counters == 2

    def test_bulk_weight_validation(self):
        with pytest.raises(ValueError):
            make().record_remote_bulk(0, 0, 0)

    def test_single_page_groups(self):
        c = make(group=1, threshold=2)
        c.record_remote(0, 5)
        assert c.count(0, 5) == 1
        assert c.count(0, 6) == 0

    @given(
        weights=st.lists(st.integers(min_value=1, max_value=300), max_size=20),
        threshold=st.integers(min_value=1, max_value=256),
    )
    def test_bulk_equivalent_to_singles_until_trip(self, weights, threshold):
        bulk = make(threshold=threshold)
        single = make(threshold=threshold)
        for w in weights:
            tripped_bulk = bulk.record_remote_bulk(0, 0, w)
            tripped_single = False
            for _ in range(w):
                if single.record_remote(0, 0):
                    tripped_single = True
                    break
            assert tripped_bulk == tripped_single
            if tripped_bulk:
                # After a trip the caller migrates and resets; emulate.
                bulk.reset_group(0)
                single.reset_group(0)
            else:
                assert bulk.count(0, 0) == single.count(0, 0)
