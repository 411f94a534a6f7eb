"""UVM driver primitive tests: migrate / duplicate / collapse / evict."""

from repro.config import HOST, SystemConfig
from repro.engine import StatCounters
from repro.interconnect import Topology
from repro.memory import AccessCounterFile, CapacityManager, PageTables
from repro.tlb import TLBHierarchy
from repro.uvm import UVMDriver

N_PAGES = 8
N_GPUS = 4


def make_driver(capacity_pages=None, placement="host"):
    config = SystemConfig()
    pt = PageTables(N_PAGES, N_GPUS, initial_placement=placement)
    tlbs = [
        TLBHierarchy(config.l1_tlb, config.l2_tlb, config.latency)
        for _ in range(N_GPUS)
    ]
    driver = UVMDriver(
        config=config,
        page_tables=pt,
        topology=Topology(N_GPUS, config.latency),
        tlbs=tlbs,
        capacity=CapacityManager(N_GPUS, capacity_pages),
        counters=AccessCounterFile(N_GPUS, config.pages_per_counter_group,
                                   config.access_counter_threshold),
        stats=StatCounters(),
    )
    return driver


class TestMigrate:
    def test_first_touch_from_host(self):
        d = make_driver()
        cost = d.migrate(1, 0)
        assert cost > 0
        assert d.page_tables.location(0) == 1
        assert d.page_tables.is_writable(1, 0)
        assert d.stats["migration.count"] == 1
        # Data moved over PCIe.
        assert d.stats["traffic.pcie_bytes"] == d.config.page_size

    def test_gpu_to_gpu_migration_unmaps_previous_owner(self):
        d = make_driver()
        d.migrate(0, 0)
        d.migrate(2, 0)
        assert d.page_tables.location(0) == 2
        assert not d.page_tables.is_mapped(0, 0)
        assert d.stats["shootdown.count"] == 1
        assert d.stats["traffic.nvlink_bytes"] == d.config.page_size

    def test_migration_shoots_down_tlbs(self):
        d = make_driver()
        d.migrate(0, 0)
        d.tlbs[0].translate(0)
        d.migrate(1, 0)
        assert d.tlbs[0].translate(0).level == "walk"

    def test_migration_resets_group_counters(self):
        d = make_driver()
        d.migrate(0, 0)
        d.counters.record_remote(1, 0)
        d.migrate(1, 0)
        assert d.counters.count(1, 0) == 0

    def test_remigration_to_holder_skips_transfer(self):
        d = make_driver()
        d.migrate(0, 0)
        before = d.stats["traffic.pcie_bytes"]
        d.page_tables.unmap(0, 0)
        d.migrate(0, 0)
        assert d.stats["traffic.pcie_bytes"] == before


class TestDuplicate:
    def test_duplicate_from_host_keeps_host_owner(self):
        d = make_driver()
        d.duplicate(0, 0)
        assert d.page_tables.location(0) == HOST
        assert d.page_tables.has_copy(0, 0)
        assert not d.page_tables.is_writable(0, 0)

    def test_second_duplicate_copies_from_gpu_not_host(self):
        d = make_driver()
        d.duplicate(0, 0)
        nv_before = d.stats["traffic.nvlink_bytes"]
        d.duplicate(1, 0)
        assert d.stats["traffic.nvlink_bytes"] == nv_before + d.config.page_size

    def test_duplicate_demotes_writer(self):
        d = make_driver()
        d.migrate(0, 0)  # GPU 0 writable owner
        d.duplicate(1, 0)
        assert not d.page_tables.is_writable(0, 0)
        assert d.page_tables.is_mapped(0, 0)  # still mapped, read-only
        assert d.stats["duplication.demotions"] == 1

    def test_duplicate_remap_for_existing_holder(self):
        d = make_driver()
        d.duplicate(0, 0)
        d.page_tables.unmap(0, 0)
        cost = d.duplicate(0, 0)
        assert cost == d.config.latency.pte_update_ns
        assert d.stats["duplication.remap"] == 1
        assert d.stats["duplication.count"] == 1  # no new copy


class TestCollapse:
    def test_collapse_invalidates_all_duplicates(self):
        d = make_driver()
        for gpu in range(3):
            d.duplicate(gpu, 0)
        d.collapse(3, 0)
        pt = d.page_tables
        assert pt.location(0) == 3
        assert pt.copy_holders(0) == [3]
        assert pt.is_writable(3, 0)
        for gpu in range(3):
            assert not pt.is_mapped(gpu, 0)

    def test_collapse_cost_scales_with_copies(self):
        d1 = make_driver()
        d1.duplicate(0, 0)
        cost_one = d1.collapse(3, 0)

        d3 = make_driver()
        for gpu in range(3):
            d3.duplicate(gpu, 0)
        cost_three = d3.collapse(3, 0)
        assert cost_three > cost_one

    def test_collapse_by_existing_holder_skips_transfer(self):
        d = make_driver()
        d.duplicate(0, 0)
        d.duplicate(1, 0)
        bytes_before = d.stats["traffic.nvlink_bytes"]
        d.collapse(0, 0)
        assert d.stats["traffic.nvlink_bytes"] == bytes_before
        assert d.page_tables.is_writable(0, 0)

    def test_collapse_on_exclusive_page_has_no_copy_overhead(self):
        d = make_driver()
        cost = d.collapse(0, 0)  # from host, no duplicates anywhere
        assert d.stats["collapse.invalidated_copies"] == 0
        assert cost < d.config.latency.collapse_overhead_ns + 2000


class TestMapRemote:
    def test_map_remote_leaves_data_in_place(self):
        d = make_driver()
        d.migrate(0, 0)
        cost = d.map_remote(1, 0)
        assert cost == d.config.latency.pte_update_ns
        assert d.page_tables.location(0) == 0
        assert d.page_tables.is_mapped(1, 0)
        assert not d.page_tables.has_copy(1, 0)


class TestMapLocal:
    def test_map_local_remaps_resident_copy_and_counts(self):
        d = make_driver(placement="distributed")
        # Distributed placement leaves GPU 0 a copy of page 0, unmapped.
        assert d.page_tables.has_copy(0, 0)
        assert not d.page_tables.is_mapped(0, 0)
        cost = d.map_local(0, 0, writable=True)
        assert cost == d.config.latency.pte_update_ns
        assert d.page_tables.is_writable(0, 0)
        assert d.stats["local_map.count"] == 1
        assert d.stats["traffic.pcie_bytes"] == 0

    def test_map_local_after_evict_from_hands_over_ownership(self):
        d = make_driver()
        d.migrate(0, 0)
        d.duplicate(1, 0)
        d.page_tables.unmap(1, 0)
        d.evict_from(0, 0)
        # GPU 1 now owns the page's only copy but holds no PTE for it.
        assert d.page_tables.location(0) == 1
        assert not d.page_tables.is_mapped(1, 0)
        d.map_local(1, 0, writable=True)
        assert d.page_tables.is_mapped(1, 0)
        assert d.stats["local_map.count"] == 1


class TestEvict:
    def test_evict_returns_page_to_host(self):
        d = make_driver()
        d.migrate(0, 0)
        d.evict(0)
        assert d.page_tables.location(0) == HOST
        assert not d.page_tables.is_mapped(0, 0)
        assert d.stats["eviction.count"] == 1

    def test_evict_preserves_policy_bits(self):
        from repro.memory import POLICY_DUPLICATION

        d = make_driver()
        d.migrate(0, 0)
        d.page_tables.set_policy(0, POLICY_DUPLICATION)
        d.evict(0)
        assert d.page_tables.policy(0) == POLICY_DUPLICATION

    def test_capacity_pressure_triggers_eviction_on_migrate(self):
        d = make_driver(capacity_pages=2)
        for page in range(3):
            d.migrate(0, page)
        assert d.stats["eviction.count"] == 1
        assert d.page_tables.location(0) == HOST  # LRU page evicted
        assert d.capacity.resident_count(0) == 2

    def test_eviction_protects_incoming_page(self):
        d = make_driver(capacity_pages=1)
        d.migrate(0, 0)
        d.migrate(0, 1)
        assert d.page_tables.location(1) == 0
        assert d.page_tables.location(0) == HOST


class TestIdealCopy:
    def test_ideal_copy_multiple_writers(self):
        config = SystemConfig()
        pt = PageTables(N_PAGES, N_GPUS, coherent=False)
        d = make_driver()
        d.page_tables = pt
        d.ideal_copy(0, 0)
        d.ideal_copy(1, 0)
        assert pt.is_writable(0, 0)
        assert pt.is_writable(1, 0)
        pt.check_invariants()

    def test_ideal_copy_charges_once_per_gpu(self):
        pt = PageTables(N_PAGES, N_GPUS, coherent=False)
        d = make_driver()
        d.page_tables = pt
        first = d.ideal_copy(0, 0)
        second = d.ideal_copy(0, 0)
        assert second < first
