"""Machine access-path and timing tests."""

import pytest

from repro import make_policy
from repro.sim.machine import Machine, simulate
from tests.conftest import make_trace, sweep_records


class TestConstruction:
    def test_gpu_count_mismatch_rejected(self, config):
        trace = make_trace({"obj": 1}, [[(0, "obj", 0, False)]], n_gpus=2)
        with pytest.raises(ValueError):
            Machine(config, trace, make_policy("on_touch"))

    def test_page_size_mismatch_rejected(self, config):
        trace = make_trace({"obj": 1}, [[(0, "obj", 0, False)]],
                           page_size=8192)
        with pytest.raises(ValueError):
            Machine(config, trace, make_policy("on_touch"))

    def test_object_map(self, config):
        trace = make_trace({"a": 2, "b": 3}, [[(0, "a", 0, False)]])
        machine = Machine(config, trace, make_policy("on_touch"))
        first = trace.first_page
        assert machine.object_id_of(first) == 0
        assert machine.object_id_of(first + 1) == 0
        assert machine.object_id_of(first + 2) == 1
        assert machine.tracks_page(first + 4)
        assert not machine.tracks_page(first + 5)
        assert not machine.tracks_page(first - 1)
        # Outside the traced range there is no object; the lookup must
        # not wrap to the other end of the range.
        assert machine.object_id_of(first - 1) == -1
        assert machine.object_id_of(first + trace.n_pages) == -1

    def test_incoherent_tables_for_ideal(self, config):
        trace = make_trace({"obj": 1}, [[(0, "obj", 0, False)]])
        machine = Machine(config, trace, make_policy("ideal"))
        assert machine.page_tables._coherent is False


class TestTiming:
    def test_time_is_positive_and_finite(self, config):
        trace = make_trace({"obj": 4},
                           [sweep_records(range(4), "obj", 4, False, 4)])
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.total_time_ns > 0

    def test_total_is_sum_of_phases(self, config):
        records = sweep_records(range(2), "obj", 2, False, 2)
        trace = make_trace({"obj": 2}, [records, records])
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.total_time_ns == pytest.approx(
            sum(p.duration_ns for p in result.phases)
        )

    def test_phase_duration_covers_every_resource(self, config):
        records = sweep_records(range(4), "obj", 4, False, 8)
        trace = make_trace({"obj": 4}, [records])
        result = simulate(config, trace, make_policy("on_touch"))
        phase = result.phases[0]
        assert phase.duration_ns == pytest.approx(max(
            phase.gpu_busy_ns, phase.driver_busy_ns, phase.link_busy_ns
        ))

    def test_more_weight_takes_longer(self, config):
        light = make_trace({"obj": 2}, [[(0, "obj", 0, False, 1)]])
        heavy = make_trace({"obj": 2}, [[(0, "obj", 0, False, 1000)]])
        t_light = simulate(config, light, make_policy("on_touch")).total_time_ns
        t_heavy = simulate(config, heavy, make_policy("on_touch")).total_time_ns
        assert t_heavy > t_light

    def test_remote_accesses_slower_than_local(self, config):
        config = config.replace(access_counter_threshold=10**9)
        records = [(0, "obj", 0, False, 500)] * 4
        local = make_trace({"obj": 1}, [records])
        t_local = simulate(config, local, make_policy("on_touch")).total_time_ns
        t_remote = simulate(config, local, make_policy("access_counter")).total_time_ns
        assert t_remote > t_local


class TestAccessSemantics:
    def test_faulting_record_charges_remaining_weight(self, config):
        trace = make_trace({"obj": 1}, [[(0, "obj", 0, False, 10)]])
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.stats["access.local"] == 9  # 1 fault + 9 local

    def test_l2_miss_policy_attribution(self, config):
        records = sweep_records(range(2), "obj", 2, False, 2)
        trace = make_trace({"obj": 2}, [records])
        result = simulate(config, trace, make_policy("duplication"))
        mix = result.l2_miss_policy_mix()
        assert mix.get("duplication", 0) == 1.0

    def test_alloc_callbacks_fire_once(self, config):
        calls = []

        from repro.policies import OnTouchPolicy

        class Spy(OnTouchPolicy):
            def on_alloc(self, obj):
                calls.append(obj.name)

        trace = make_trace({"a": 1, "b": 1}, [[(0, "a", 0, False)]])
        Machine(config, trace, Spy()).run()
        assert calls == ["a", "b"]

    def test_phase_callbacks(self, config):
        phases_seen = []

        from repro.policies import OnTouchPolicy

        class Spy(OnTouchPolicy):
            def on_phase_start(self, index, phase):
                phases_seen.append((index, phase.explicit))

        records = [(0, "obj", 0, False)]
        trace = make_trace({"obj": 1}, [records, records, records],
                           explicit=[True, False, True])
        Machine(config, trace, Spy()).run()
        assert phases_seen == [(0, True), (1, False), (2, True)]


class TestOversubscription:
    def test_capacity_derived_from_factor(self, config):
        config = config.replace(oversubscription=2.0)
        trace = make_trace({"obj": 16}, [[(0, "obj", 0, False)]])
        machine = Machine(config, trace, make_policy("on_touch"))
        # 16 pages / (4 GPUs * 2.0) = 2 pages per GPU.
        assert machine.capacity.capacity_pages == 2

    def test_oversubscription_causes_evictions(self, config):
        config = config.replace(oversubscription=2.0)
        records = [(0, "obj", p, True, 2) for p in range(16)]
        trace = make_trace({"obj": 16}, [records])
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.evictions > 0

    def test_no_capacity_modelling_by_default(self, config):
        trace = make_trace({"obj": 16}, [[(0, "obj", 0, False)]])
        machine = Machine(config, trace, make_policy("on_touch"))
        assert not machine.capacity.enabled


class TestDistributedPlacement:
    def test_pages_start_on_gpus(self, config):
        config = config.replace(initial_placement="distributed")
        trace = make_trace({"obj": 8}, [[(0, "obj", 0, False)]])
        machine = Machine(config, trace, make_policy("on_touch"))
        locations = {
            machine.page_tables.location(trace.first_page + p)
            for p in range(8)
        }
        assert locations == {0, 1, 2, 3}


class TestPerGpuFaultAccounting:
    def test_faults_attributed_to_the_faulting_gpu(self, config):
        records = [(0, "obj", 0, True), (2, "obj", 1, True),
                   (2, "obj", 2, True)]
        trace = make_trace({"obj": 3}, [records], burst=1)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.stats["fault.by_gpu.0"] == 1
        assert result.stats["fault.by_gpu.2"] == 2
        assert result.stats.get("fault.by_gpu.1", 0) == 0

    def test_per_gpu_counts_sum_to_total(self, config):
        records = sweep_records(range(4), "obj", 4, write=True, weight=2)
        trace = make_trace({"obj": 4}, [records])
        result = simulate(config, trace, make_policy("duplication"))
        per_gpu = sum(
            result.stats.get(f"fault.by_gpu.{g}", 0) for g in range(4)
        )
        assert per_gpu == result.total_faults


class TestPerObjectFaultAccounting:
    def test_faults_attributed_to_objects(self, config):
        records = [(0, "hot", 0, True), (1, "hot", 0, True),
                   (0, "cold", 0, False)]
        trace = make_trace({"hot": 1, "cold": 1}, [records], burst=1)
        result = simulate(config, trace, make_policy("on_touch"))
        assert result.stats["fault.by_object.hot"] == 2
        assert result.stats["fault.by_object.cold"] == 1

    def test_object_fault_totals_match(self, config):
        records = sweep_records(range(2), "a", 2, write=True)
        records += sweep_records(range(2), "b", 2, write=False)
        trace = make_trace({"a": 2, "b": 2}, [records])
        result = simulate(config, trace, make_policy("oasis"))
        by_object = sum(
            v for k, v in result.stats.items()
            if k.startswith("fault.by_object.")
        )
        assert by_object == result.total_faults
