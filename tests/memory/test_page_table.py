"""PageTables state-machine tests."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HOST
from repro.memory import (
    POLICY_COUNTER,
    POLICY_DUPLICATION,
    POLICY_ON_TOUCH,
    PageTables,
)


@pytest.fixture
def pt():
    return PageTables(n_pages=8, n_gpus=4)


class TestInitialPlacement:
    def test_host_placement(self):
        pt = PageTables(4, 2, initial_placement="host")
        assert all(pt.location(p) == HOST for p in range(4))
        assert all(not pt.copy_holders(p) for p in range(4))

    def test_distributed_placement_round_robin(self):
        pt = PageTables(4, 2, initial_placement="distributed")
        assert [pt.location(p) for p in range(4)] == [0, 1, 0, 1]
        for p in range(4):
            assert pt.copy_holders(p) == [pt.location(p)]

    def test_distributed_respects_first_page(self):
        pt = PageTables(4, 4, initial_placement="distributed", first_page=2)
        assert pt.location(2) == 2 % 4

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            PageTables(1, 1, initial_placement="banana")


class TestMappings:
    def test_map_local_requires_copy(self, pt):
        with pytest.raises(ValueError):
            pt.map_local(0, 0, writable=True)

    def test_exclusive_then_map_local(self, pt):
        pt.set_exclusive(0, 1)
        pt.map_local(1, 0, writable=True)
        assert pt.is_mapped(1, 0)
        assert pt.is_writable(1, 0)
        assert pt.location(0) == 1

    def test_map_remote_rejected_for_local_holder(self, pt):
        pt.set_exclusive(0, 1)
        with pytest.raises(ValueError):
            pt.map_remote(1, 0)

    def test_map_remote_is_read_write_capable_but_not_writable_flag(self, pt):
        pt.set_exclusive(0, 1)
        pt.map_remote(2, 0)
        assert pt.is_mapped(2, 0)
        assert not pt.is_writable(2, 0)
        assert not pt.has_copy(2, 0)

    def test_unmap_returns_whether_mapped(self, pt):
        pt.set_exclusive(0, 0)
        pt.map_local(0, 0, writable=True)
        assert pt.unmap(0, 0)
        assert not pt.unmap(0, 0)
        assert not pt.is_writable(0, 0)

    def test_unmap_all_except_returns_victims(self, pt):
        pt.set_exclusive(3, 0)
        pt.map_local(0, 3, writable=False)
        pt.map_remote(1, 3)
        pt.map_remote(2, 3)
        victims = pt.unmap_all_except(3, keep=0)
        assert sorted(victims) == [1, 2]
        assert pt.is_mapped(0, 3)
        assert not pt.is_mapped(1, 3)

    def test_unmap_all(self, pt):
        pt.set_exclusive(0, 2)
        pt.map_local(2, 0, writable=True)
        victims = pt.unmap_all_except(0, keep=None)
        assert victims == [2]
        assert pt.mapped_gpus(0) == []

    def test_page_outside_range_rejected(self, pt):
        with pytest.raises(IndexError):
            pt.location(100)


class TestDuplication:
    def test_add_copy_clears_writers(self, pt):
        pt.set_exclusive(0, 0)
        pt.map_local(0, 0, writable=True)
        pt.add_copy(1, 0)
        assert not pt.is_writable(0, 0)
        assert pt.is_duplicated(0)
        assert sorted(pt.copy_holders(0)) == [0, 1]

    def test_host_owner_plus_gpu_copy_is_duplicated(self, pt):
        pt.add_copy(2, 5)
        assert pt.location(5) == HOST
        assert pt.is_duplicated(5)

    def test_single_gpu_owner_not_duplicated(self, pt):
        pt.set_exclusive(0, 1)
        assert not pt.is_duplicated(0)

    def test_drop_copy(self, pt):
        pt.set_exclusive(0, 0)
        pt.add_copy(1, 0)
        pt.drop_copy(1, 0)
        assert pt.copy_holders(0) == [0]

    def test_drop_owner_copy_rejected(self, pt):
        pt.set_exclusive(0, 0)
        with pytest.raises(ValueError):
            pt.drop_copy(0, 0)

    def test_set_exclusive_drops_other_copies(self, pt):
        pt.add_copy(0, 0)
        pt.add_copy(1, 0)
        pt.set_exclusive(0, 2)
        assert pt.copy_holders(0) == [2]


class TestPolicyBits:
    def test_default_on_touch(self, pt):
        assert pt.policy(0) == POLICY_ON_TOUCH

    def test_set_policy(self, pt):
        pt.set_policy(3, POLICY_COUNTER)
        assert pt.policy(3) == POLICY_COUNTER

    def test_set_policy_range(self, pt):
        pt.set_policy_range(2, 3, POLICY_COUNTER)
        assert [pt.policy(p) for p in range(8)] == [
            0, 0, 1, 1, 1, 0, 0, 0
        ]

    def test_policy_range_overflow_rejected(self, pt):
        with pytest.raises(IndexError):
            pt.set_policy_range(6, 5, POLICY_COUNTER)

    def test_policy_histogram(self, pt):
        pt.set_policy_range(0, 4, POLICY_COUNTER)
        assert pt.policy_histogram() == {POLICY_COUNTER: 4, POLICY_ON_TOUCH: 4}

    def test_store_entries_writes_policy_bits(self, pt):
        pt.store_entries({5: [1, 0b10, 0b10, 0b10, POLICY_DUPLICATION]})
        assert pt.entry(5) == (1, 0b10, 0b10, 0b10, POLICY_DUPLICATION)
        assert pt.policy(5) == POLICY_DUPLICATION
        assert pt.policy_histogram() == {
            POLICY_ON_TOUCH: 7, POLICY_DUPLICATION: 1
        }
        assert [pt.policy(p) for p in range(8)] == [
            0, 0, 0, 0, 0, POLICY_DUPLICATION, 0, 0
        ]


class TestIncoherentMode:
    def test_multiple_writers_allowed(self):
        pt = PageTables(2, 2, coherent=False)
        pt.add_copy(0, 0)
        pt.map_local(0, 0, writable=True)
        pt.add_copy(1, 0)
        pt.map_local(1, 0, writable=True)
        assert pt.is_writable(0, 0)
        assert pt.is_writable(1, 0)
        pt.check_invariants()


@st.composite
def pt_operations(draw):
    """Random but structurally valid operation sequences."""
    ops = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        kind = draw(st.sampled_from(
            ["migrate", "duplicate", "collapse", "unmap", "remote"]
        ))
        ops.append((kind, draw(st.integers(0, 3)), draw(st.integers(0, 5))))
    return ops


class TestInvariantsUnderRandomOps:
    @settings(max_examples=60, deadline=None)
    @given(ops=pt_operations())
    def test_invariants_hold(self, ops):
        pt = PageTables(n_pages=6, n_gpus=4)
        for kind, gpu, page in ops:
            if kind == "migrate":
                pt.unmap_all_except(page, keep=None)
                pt.set_exclusive(page, gpu)
                pt.map_local(gpu, page, writable=True)
            elif kind == "duplicate":
                pt.add_copy(gpu, page)
                pt.map_local(gpu, page, writable=False)
            elif kind == "collapse":
                pt.unmap_all_except(page, keep=gpu)
                pt.set_exclusive(page, gpu)
                pt.map_local(gpu, page, writable=True)
            elif kind == "unmap":
                pt.unmap(gpu, page)
            elif kind == "remote":
                if not pt.has_copy(gpu, page):
                    pt.map_remote(gpu, page)
            pt.check_invariants()


# -- whole-page transitions vs the fine-grained sequences -----------------

N_GPUS = 4
N_PAGES = 3


def gpus_of(mask: int) -> list[int]:
    return [g for g in range(N_GPUS) if mask >> g & 1]


def columns(pt: PageTables, page: int) -> tuple:
    """The page's five columns, read through the per-page API."""
    def mask(test):
        return sum(1 << g for g in range(N_GPUS) if test(g, page))

    return (
        pt.location(page),
        mask(pt.has_copy),
        mask(pt.is_mapped),
        mask(pt.is_writable),
        pt.policy(page),
    )


def source_of(owner: int, copies: int, gpu: int) -> int:
    """Copy source implied by prior masks: lowest other GPU, else owner."""
    others = gpus_of(copies & ~(1 << gpu))
    return others[0] if others else owner


@st.composite
def page_states(draw):
    """A table driven into a random reachable state: pages host-owned,
    GPU-owned, duplicated, remote-mapped and writable, under coherent
    and incoherent tables alike."""
    coherent = draw(st.booleans())
    pt = PageTables(n_pages=N_PAGES, n_gpus=N_GPUS, coherent=coherent)
    kinds = ["migrate", "duplicate", "collapse", "unmap", "remote",
             "evict", "policy"]
    if not coherent:
        kinds.append("ideal")
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        kind = draw(st.sampled_from(kinds))
        gpu = draw(st.integers(0, N_GPUS - 1))
        page = draw(st.integers(0, N_PAGES - 1))
        if kind == "migrate":
            pt.unmap_all_except(page, keep=None)
            pt.set_exclusive(page, gpu)
            pt.map_local(gpu, page, writable=True)
        elif kind == "duplicate":
            pt.add_copy(gpu, page)
            pt.map_local(gpu, page, writable=False)
        elif kind == "collapse":
            pt.unmap_all_except(page, keep=gpu)
            pt.set_exclusive(page, gpu)
            pt.map_local(gpu, page, writable=True)
        elif kind == "unmap":
            pt.unmap(gpu, page)
        elif kind == "remote":
            if not pt.has_copy(gpu, page):
                pt.map_remote(gpu, page)
        elif kind == "evict":
            pt.unmap_all_except(page, keep=None)
            pt.set_exclusive(page, HOST)
        elif kind == "policy":
            pt.set_policy(page, draw(st.sampled_from(
                [POLICY_ON_TOUCH, POLICY_COUNTER, POLICY_DUPLICATION]
            )))
        else:  # ideal: incoherent writable copy
            pt.add_copy(gpu, page)
            pt.map_local(gpu, page, writable=True)
    return pt


def reference_exclusive(pt: PageTables, page: int, gpu: int, keep):
    """The driver's old migrate (keep=None) / collapse (keep=gpu) steps."""
    src = source_of(pt.location(page), columns(pt, page)[1], gpu)
    victims = pt.unmap_all_except(page, keep=keep)
    released = [h for h in pt.copy_holders(page) if h != gpu]
    pt.set_exclusive(page, gpu)
    pt.map_local(gpu, page, writable=True)
    return src, sorted(victims), released


def reference_duplicate(pt: PageTables, page: int, gpu: int):
    """The driver's old duplicate steps; returns (src, demoted writer)."""
    if pt.has_copy(gpu, page):
        pt.add_copy(gpu, page)
        pt.map_local(gpu, page, writable=False)
        return None, None
    src = source_of(pt.location(page), columns(pt, page)[1], gpu)
    writer = next(
        (g for g in pt.mapped_gpus(page) if pt.is_writable(g, page)), None
    )
    pt.add_copy(gpu, page)
    if writer is not None:
        pt.map_local(writer, page, writable=False)
    pt.map_local(gpu, page, writable=False)
    return src, writer


def reference_release_copy(pt: PageTables, page: int, gpu: int) -> bool:
    """The driver's old ``evict_from`` steps for one of several holders;
    returns whether ``gpu`` was mapped."""
    holders = pt.copy_holders(page)
    others = [h for h in holders if h != gpu]
    was_mapped = pt.is_mapped(gpu, page)
    if pt.location(page) == gpu:
        new_owner = others[0]
        pt.unmap(gpu, page)
        remaining = pt.copy_holders(page)
        pt.set_exclusive(page, new_owner)
        for holder in remaining:
            if holder not in (gpu, new_owner):
                pt.add_copy(holder, page)
    else:
        pt.unmap(gpu, page)
        pt.drop_copy(gpu, page)
    return was_mapped


def check_release_copy(pt: PageTables, page: int, gpu: int) -> str:
    """Hold ``release_copy`` to the old chain; returns the case taken."""
    before = columns(pt, page)
    holders = pt.copy_holders(page)
    if gpu not in holders:
        with pytest.raises(ValueError):
            pt.release_copy(page, gpu)
        assert columns(pt, page) == before
        return "non-holder"
    if holders == [gpu]:
        # The sole GPU copy is the data: the caller must write it back.
        assert pt.release_copy(page, gpu) is None
        assert columns(pt, page) == before
        return "sole holder"
    ref = copy.deepcopy(pt)
    was_mapped = reference_release_copy(ref, page, gpu)
    prior = pt.release_copy(page, gpu)
    assert columns(pt, page) == columns(ref, page)
    assert prior == before[:4]
    assert bool(prior[2] >> gpu & 1) == was_mapped
    pt.check_invariants()
    return "owner" if before[0] == gpu else "copy"


class TestWholePageTransitions:
    @settings(max_examples=150, deadline=None)
    @given(
        pt=page_states(),
        gpu=st.integers(0, N_GPUS - 1),
        page=st.integers(0, N_PAGES - 1),
        keep_self=st.booleans(),
    )
    def test_install_exclusive_matches_sequence(self, pt, gpu, page,
                                                keep_self):
        ref = copy.deepcopy(pt)
        src, victims, released = reference_exclusive(
            ref, page, gpu, keep=gpu if keep_self else None
        )
        owner, copies, mapped, _writable = pt.install_exclusive(page, gpu)
        assert columns(pt, page) == columns(ref, page)
        bit = 1 << gpu
        assert source_of(owner, copies, gpu) == src
        # Migration shoots down every mapping; collapse keeps its own.
        assert gpus_of(mapped & ~bit if keep_self else mapped) == victims
        assert gpus_of(copies & ~bit) == released
        pt.check_invariants()

    @settings(max_examples=150, deadline=None)
    @given(
        pt=page_states(),
        gpu=st.integers(0, N_GPUS - 1),
        page=st.integers(0, N_PAGES - 1),
    )
    def test_install_duplicate_matches_sequence(self, pt, gpu, page):
        ref = copy.deepcopy(pt)
        src, writer = reference_duplicate(ref, page, gpu)
        owner, copies, mapped, writable = pt.install_duplicate(page, gpu)
        assert columns(pt, page) == columns(ref, page)
        if copies >> gpu & 1:
            assert (src, writer) == (None, None)
        else:
            assert source_of(owner, copies, gpu) == src
            writers = gpus_of(mapped & writable)
            assert (writers[0] if writers else None) == writer
        pt.check_invariants()

    @settings(max_examples=100, deadline=None)
    @given(pt=page_states(), page=st.integers(0, N_PAGES - 1))
    def test_release_to_host_matches_sequence(self, pt, page):
        ref = copy.deepcopy(pt)
        victims = ref.unmap_all_except(page, keep=None)
        holders = ref.copy_holders(page)
        ref_owner = ref.location(page)
        ref.set_exclusive(page, HOST)
        owner, copies, mapped, _writable = pt.release_to_host(page)
        assert columns(pt, page) == columns(ref, page)
        assert (owner, gpus_of(copies), gpus_of(mapped)) == (
            ref_owner, holders, sorted(victims)
        )
        pt.check_invariants()

    def test_transitions_reject_untracked_pages(self, pt):
        for transition in (
            lambda: pt.install_exclusive(8, 0),
            lambda: pt.install_duplicate(-1, 0),
            lambda: pt.release_to_host(8),
        ):
            with pytest.raises(IndexError):
                transition()

    @settings(max_examples=300, deadline=None)
    @given(
        pt=page_states(),
        page=st.integers(0, N_PAGES - 1),
        extra=st.lists(st.integers(0, N_GPUS - 1), max_size=3),
        data=st.data(),
    )
    def test_release_copy_matches_sequence(self, pt, page, extra, data):
        # Extra duplicates make several-holder pages common; the GPU is
        # then drawn from the holders whenever there are any.
        for gpu in extra:
            pt.install_duplicate(page, gpu)
        holders = pt.copy_holders(page)
        gpu = data.draw(
            st.sampled_from(holders) if holders
            else st.integers(0, N_GPUS - 1)
        )
        check_release_copy(pt, page, gpu)

    @pytest.mark.parametrize("coherent", [True, False])
    def test_release_copy_owner_handoff(self, coherent):
        # GPU 1 owns a page duplicated on GPUs 2 and 3: ownership passes
        # to GPU 2, and (incoherent) GPU 3 keeps its write permission.
        pt = PageTables(n_pages=N_PAGES, n_gpus=N_GPUS, coherent=coherent)
        pt.install_exclusive(0, 1)
        pt.install_duplicate(0, 3)
        pt.install_duplicate(0, 2)
        if not coherent:
            pt.map_local(3, 0, writable=True)
        assert check_release_copy(pt, 0, 1) == "owner"
        assert pt.location(0) == 2
        assert pt.is_writable(3, 0) is not coherent
        assert check_release_copy(pt, 0, 3) == "copy"
        assert check_release_copy(pt, 0, 2) == "sole holder"
        assert check_release_copy(pt, 0, 1) == "non-holder"

    def test_release_copy_rejects_untracked_pages(self, pt):
        with pytest.raises(IndexError):
            pt.release_copy(8, 0)

    @settings(max_examples=100, deadline=None)
    @given(pt=page_states(), page=st.integers(0, N_PAGES - 1))
    def test_entry_matches_single_aspect_probes(self, pt, page):
        assert pt.entry(page) == columns(pt, page)

    def test_entry_bounds(self):
        pt = PageTables(n_pages=4, n_gpus=N_GPUS, first_page=10)
        pt.install_exclusive(13, 2)
        assert pt.entry(10) == columns(pt, 10) == (HOST, 0, 0, 0,
                                                    POLICY_ON_TOUCH)
        assert pt.entry(13) == columns(pt, 13) == (2, 4, 4, 4,
                                                    POLICY_ON_TOUCH)
        for page in (9, 14):
            with pytest.raises(IndexError):
                pt.entry(page)
