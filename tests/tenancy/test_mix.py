"""Mix parsing, window layout, and interleaver properties."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.tenancy.mix import (
    MAX_TENANTS,
    TenantMix,
    TenantSpec,
    _window_pages,
    build_mix_trace,
    get_mix_workload,
    merge_traces,
    parse_mix,
    trace_digest,
)
from tests.conftest import make_trace


def random_trace(seed: int, n_gpus: int = 4):
    """A small seeded trace: 1-3 objects, 1-3 phases, varied weights."""
    rng = np.random.default_rng(seed)
    n_objects = int(rng.integers(1, 4))
    objects = {
        f"o{i}": int(rng.integers(2, 24)) for i in range(n_objects)
    }
    names = list(objects)
    phases = []
    for _ in range(int(rng.integers(1, 4))):
        records = []
        for _ in range(int(rng.integers(3, 30))):
            name = names[int(rng.integers(0, n_objects))]
            records.append((
                int(rng.integers(0, n_gpus)),
                name,
                int(rng.integers(0, objects[name])),
                bool(rng.integers(0, 2)),
                int(rng.integers(1, 5)),
            ))
        phases.append(records)
    explicit = [bool(rng.integers(0, 2)) for _ in phases]
    return make_trace(objects, phases, n_gpus=n_gpus, explicit=explicit,
                      seed=seed, burst=4)


class TestParseMix:
    def test_simple_two_tenant(self):
        mix = parse_mix("mm+bfs")
        assert [t.app for t in mix.tenants] == ["mm", "bfs"]
        assert [t.name for t in mix.tenants] == ["mm", "bfs"]
        assert mix.label == "mm+bfs"

    def test_suffixes_round_trip(self):
        mix = parse_mix("mm@16#3+bfs@8")
        assert mix.tenants[0].footprint_mb == 16.0
        assert mix.tenants[0].seed == 3
        assert mix.tenants[1].footprint_mb == 8.0
        assert mix.tenants[1].seed is None
        assert parse_mix(mix.label).label == mix.label

    def test_duplicate_apps_get_distinct_names(self):
        mix = parse_mix("mm+mm+mm")
        assert [t.name for t in mix.tenants] == ["mm", "mm2", "mm3"]
        assert all(t.app == "mm" for t in mix.tenants)

    @pytest.mark.parametrize("bad", [
        "", "+", "mm+", "+bfs", "mm++bfs", "mm@x", "mm#", "m m+bfs",
        "mm+bfs+i2c+st+gups",
    ])
    def test_malformed_mixes_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_mix(bad)

    def test_tenant_mix_validation(self):
        spec = TenantSpec(name="a", app="mm")
        with pytest.raises(ValueError):
            TenantMix(tenants=())
        with pytest.raises(ValueError):
            TenantMix(tenants=(spec,) * (MAX_TENANTS + 1))
        with pytest.raises(ValueError):
            TenantMix(tenants=(spec, TenantSpec(name="a", app="bfs")))
        with pytest.raises(ValueError):
            TenantMix(tenants=(TenantSpec(name="a.b", app="mm"),))
        with pytest.raises(ValueError):
            TenantMix(tenants=(spec,), burst=0)


class TestMergeProperties:
    """Seeded property sweep over the interleaver invariants."""

    @pytest.mark.parametrize("seed", range(8))
    def test_windows_are_disjoint_and_power_of_two(self, seed):
        parts = [random_trace(seed), random_trace(seed + 100)]
        merged = merge_traces(parts, ["a", "b"], burst=4)
        window = _window_pages(parts)
        assert window & (window - 1) == 0
        a, b = merged.tenants
        assert a.first_page + a.n_pages <= b.first_page
        assert b.first_page - a.first_page == window
        assert a.n_pages == parts[0].n_pages
        assert b.n_pages == parts[1].n_pages
        assert merged.n_pages == window + parts[1].n_pages

    @pytest.mark.parametrize("seed", range(8))
    def test_record_counts_are_conserved(self, seed):
        parts = [random_trace(seed), random_trace(seed + 200)]
        merged = merge_traces(parts, ["a", "b"], burst=4)
        assert merged.total_records == sum(p.total_records for p in parts)
        for k, phase in enumerate(merged.phases):
            expect = sum(
                len(p.phases[k]) for p in parts if k < len(p.phases)
            )
            assert len(phase) == expect

    @pytest.mark.parametrize("seed", range(8))
    def test_each_tenant_stream_is_an_ordered_subsequence(self, seed):
        parts = [random_trace(seed), random_trace(seed + 300)]
        merged = merge_traces(parts, ["a", "b"], burst=4)
        shifts = [t.first_page - merged.first_page for t in merged.tenants]
        for i, part in enumerate(parts):
            for k, phase in enumerate(merged.phases):
                mask = phase.tenant == i
                if k >= len(part.phases):
                    assert not mask.any()
                    continue
                solo = part.phases[k]
                np.testing.assert_array_equal(
                    phase.page[mask] - shifts[i], solo.page
                )
                np.testing.assert_array_equal(phase.gpu[mask], solo.gpu)
                np.testing.assert_array_equal(phase.write[mask], solo.write)
                np.testing.assert_array_equal(
                    phase.weight[mask], solo.weight
                )

    @pytest.mark.parametrize("seed", range(4))
    def test_merge_is_deterministic(self, seed):
        parts = [random_trace(seed), random_trace(seed + 400)]
        once = merge_traces(parts, ["a", "b"], burst=4)
        twice = merge_traces(parts, ["a", "b"], burst=4)
        assert trace_digest(once) == trace_digest(twice)

    def test_phase_names_and_explicit_flags(self):
        a = make_trace({"x": 2}, [[(0, "x", 0, False)], [(1, "x", 1, True)]],
                       explicit=[True, False])
        b = make_trace({"y": 2}, [[(2, "y", 0, False)]], explicit=[True])
        merged = merge_traces([a, b], ["a", "b"], burst=4)
        assert merged.phases[0].name == "p0:a+b"
        assert merged.phases[0].explicit is True
        # Phase 1 only has tenant a's records; explicit follows a's flag.
        assert merged.phases[1].name == "p1:a"
        assert merged.phases[1].explicit is False

    def test_mismatched_geometry_rejected(self):
        a = make_trace({"x": 2}, [[(0, "x", 0, False)]], n_gpus=2)
        b = make_trace({"y": 2}, [[(0, "y", 0, False)]], n_gpus=4)
        with pytest.raises(ValueError):
            merge_traces([a, b], ["a", "b"])
        c = make_trace({"y": 2}, [[(0, "y", 0, False)]], n_gpus=2,
                       page_size=8192)
        with pytest.raises(ValueError):
            merge_traces([a, c], ["a", "b"])

    def test_address_space_exhaustion_raises(self):
        huge = make_trace({"x": 1 << 35}, [[(0, "x", 0, False)]])
        with pytest.raises(MemoryError):
            merge_traces([huge, huge], ["a", "b"])

    def test_single_tenant_merge_is_identity(self):
        solo = random_trace(9)
        merged = merge_traces([solo], ["alone"], burst=4)
        assert merged.tenants is None
        assert merged.name == solo.name
        assert merged.n_pages == solo.n_pages
        assert [o.name for o in merged.objects] == [
            o.name for o in solo.objects
        ]
        for ours, theirs in zip(merged.phases, solo.phases):
            assert ours.name == theirs.name
            assert ours.tenant is None
            np.testing.assert_array_equal(ours.page, theirs.page)


class TestMixBuild:
    def test_build_mix_trace_attaches_metadata(self):
        mix = parse_mix("mm+bfs")
        trace = build_mix_trace(mix, footprint_mb=8, seed=0)
        assert trace.name == "mm+bfs"
        assert len(trace.tenants) == 2
        mm, bfs = trace.tenants
        assert (mm.app, bfs.app) == ("mm", "bfs")
        # Derived tenant seeds: mix seed + tenant index.
        assert (mm.seed, bfs.seed) == (0, 1)
        assert all(o.name.startswith(("mm.", "bfs.")) for o in trace.objects)
        assert [o.obj_id for o in trace.objects] == list(
            range(len(trace.objects))
        )

    def test_explicit_seed_override(self):
        trace = build_mix_trace(parse_mix("mm#7+bfs"), footprint_mb=8,
                                seed=3)
        assert trace.tenants[0].seed == 7
        assert trace.tenants[1].seed == 4

    def test_get_mix_workload_caches_by_canonical_label(self):
        a = get_mix_workload("mm+bfs", footprint_mb=8, seed=0)
        b = get_mix_workload(" mm + bfs ", footprint_mb=8, seed=0)
        assert a is b

    def test_registry_routes_mix_names(self):
        from repro.workloads import get_workload

        trace = get_workload("mm+bfs", footprint_mb=8, seed=0)
        assert trace.tenants is not None
        assert trace is get_mix_workload("mm+bfs", footprint_mb=8, seed=0)


class TestDeterminismAcrossProcesses:
    """The interleaver must not depend on hash order or process state."""

    def _digests(self, hash_seed: str) -> str:
        code = (
            "from repro.tenancy.mix import trace_digest, get_mix_workload\n"
            "print(trace_digest(get_mix_workload('bfs#5+mm+mm', "
            "footprint_mb=8, seed=1)))\n"
            "print(trace_digest(get_mix_workload('mm+bfs', "
            "footprint_mb=8, seed=0)))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, env=env, check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        return proc.stdout

    def test_digests_stable_across_hash_seeds_and_restarts(self):
        first = self._digests("1")
        second = self._digests("271828")
        assert first == second
        assert len(first.split()) == 2
