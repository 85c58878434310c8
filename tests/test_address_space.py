"""Page table, region reservation, and the fault pipeline ordering."""

import copy
import random
import tracemalloc

import pytest

import sasfork.system
from sasfork.address_space import (
    AccessKind,
    AddressSpace,
    Fault,
    FaultError,
    FaultKind,
    PageState,
    PageTableEntry,
)
from sasfork.capability import (
    CODE_PERMS,
    DATA_PERMS,
    GRANULE,
    GRANULES_PER_PAGE,
    PAGE_SIZE,
    VIRTUAL_SPACE_LIMIT,
    Capability,
    Perm,
)
from sasfork.errors import AddressSpaceExhausted, DoubleMap, SimInternalError, UnmappedPage
from sasfork.process import KERNEL_PID, LayoutSpec
from sasfork.system import System
from sasfork.tagged_memory import ChangeLog, FrameTable
from state_digest import pages_by_frame, state_digest


@pytest.fixture
def space():
    return AddressSpace(FrameTable())


def mapped_page(space, *, state=PageState.PRIVATE, pid=1, ro_pages=0):
    region = space.reserve_region(PAGE_SIZE)
    space.map_fresh_region(region, pid, ro_pages)
    space._rows[-1].states[0] = state
    return region, space._frames.get(space.entry_at(region.base).frame_id)


def frames_of(space, region):
    """The frame that each page of ``region`` maps, in page order."""
    return [space._frames.get(space.entry_at(va).frame_id) for va in region.page_addresses()]


def data_cap(region, offset=0, length=None, perms=DATA_PERMS):
    length = region.size if length is None else length
    return Capability(
        base=region.base, length=length, cursor=region.base + offset, perms=perms
    )


class TestRegions:
    def test_successive_reservations_are_disjoint(self, space):
        a = space.reserve_region(0x0400_0000)
        b = space.reserve_region(0x0400_0000)
        assert a.end <= b.base or b.end <= a.base

    def test_no_reuse_after_any_activity(self, space):
        a = space.reserve_region(PAGE_SIZE)
        b = space.reserve_region(PAGE_SIZE)
        assert b.base >= a.end  # bump-only, never compacted

    def test_zero_size_is_an_error(self, space):
        with pytest.raises(ValueError):
            space.reserve_region(0)

    def test_exhaustion(self, space):
        # Reservations are Region values only, so no memory backs them.
        last = space.reserve_region(VIRTUAL_SPACE_LIMIT - PAGE_SIZE)
        assert last.end == VIRTUAL_SPACE_LIMIT
        with pytest.raises(AddressSpaceExhausted):
            space.reserve_region(PAGE_SIZE)

    @pytest.mark.parametrize("booted", [False, True], ids=["bare", "booted"])
    def test_reserving_the_whole_space_allocates_nothing_per_page(self, booted):
        space = System().address_space if booted else AddressSpace(FrameTable())
        # All that is left: VIRTUAL_SPACE_LIMIT - PAGE_SIZE on a bare space.
        size = VIRTUAL_SPACE_LIMIT - space._next_base
        tracemalloc.start()
        try:
            last = space.reserve_region(size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert last.end == VIRTUAL_SPACE_LIMIT
        assert peak < 10 * 2**20


class TestOwners:
    """A page's owner is the pid its reservation was made for."""

    def test_the_first_and_last_page_of_each_region_name_its_pid(self):
        system = System()
        procs = [system.create_initial_process(LayoutSpec(heap_pages=n)) for n in (1, 2, 3)]
        regions = [(KERNEL_PID, system.kernel_region)]
        regions += [(proc.pid, proc.region) for proc in procs]
        space = system.address_space
        for pid, region in regions:
            assert space.owner_of(region.base) == pid
            assert space.owner_of(region.end - PAGE_SIZE) == pid
            assert space.owner_of(region.end - 1) == pid

    def test_an_address_outside_every_reservation_has_no_owner(self):
        system = System()
        proc = system.create_initial_process()
        space = system.address_space
        assert system.kernel_region.base == PAGE_SIZE
        assert space.owner_of(0) is None
        assert space.owner_of(PAGE_SIZE - 1) is None
        # The last reservation ends at the next free base.
        assert proc.region.end == space._next_base
        assert space.owner_of(proc.region.end) is None


class TestMappings:
    def test_map_then_unmap_restores_refcount(self, space):
        region, frame = mapped_page(space)
        assert frame.mapcount == 1
        assert space.unmap(region.base) == 0
        assert frame.frame_id not in space._frames.by_id

    def test_aliasing_one_frame_counts_two(self, space):
        region, frame = mapped_page(space)
        other = space.reserve_region(PAGE_SIZE)
        space.share_region(1, other, 2, PageState.SHARED_COPA, {})
        assert frame.mapcount == 2
        assert space.mappers([frame.frame_id]) == [(1, region.base), (2, other.base)]
        space.verify_refcounts({1, 2})
        assert space.unmap(region.base) == 1
        assert space.mappers([frame.frame_id]) == [(2, other.base)]

    @pytest.mark.parametrize("place", ["another index", "another family"])
    def test_map_refuses_a_frame_elsewhere_and_changes_nothing(self, space, place):
        region = space.reserve_region(2 * PAGE_SIZE)
        space.map_fresh_region(region, 1, 0)
        frame = frames_of(space, region)[0]
        other = space.reserve_region(region.size)
        if place == "another index":
            space.share_region(1, other, 2, PageState.SHARED_COPA, {})
            page_va = other.base + PAGE_SIZE
        else:
            space.map_fresh_region(other, 2, 0)
            page_va = other.base
        for va in other.page_addresses():
            space.unmap(va)
        log = ChangeLog()
        space._frames.logs.append(log)
        before = space.entries()
        with pytest.raises(SimInternalError, match=f"{page_va:#x} cannot map frame"):
            space.map(page_va, frame.frame_id, PageState.SHARED_COPA)
        assert space.entries() == before
        assert (frame.mapcount, frame.index) == (1, 0)
        assert not log.frames and not log.pids
        space.verify_refcounts({1, 2})

    def test_a_remap_refuses_a_frame_elsewhere_and_changes_nothing(self, space):
        region, frame = mapped_page(space)
        elsewhere, stray = mapped_page(space, pid=2)
        before = space.entries()
        with pytest.raises(SimInternalError, match="cannot map frame"):
            space.remap(region.base, stray.frame_id)
        assert space.entries() == before
        assert frame.mapcount == stray.mapcount == 1
        space.verify_refcounts({1, 2})

    def test_double_map_and_unmapped_unmap(self, space):
        region, frame = mapped_page(space)
        with pytest.raises(DoubleMap):
            space.map(region.base, frame.frame_id)
        with pytest.raises(UnmappedPage):
            space.unmap(region.base + PAGE_SIZE)

    def test_verify_catches_two_pages_that_swapped_frames(self, space):
        a, frame_a = mapped_page(space)
        b, frame_b = mapped_page(space, pid=2)
        space.verify_refcounts({1, 2})
        row_a, row_b = space._rows
        row_a.frames[0], row_b.frames[0] = frame_b.frame_id, frame_a.frame_id
        # Each frame still has one mapping, so only the page sets can tell.
        assert frame_a.mapcount == 1
        with pytest.raises(SimInternalError):
            space.verify_refcounts({1, 2})

    def test_verify_catches_a_frame_listing_an_unmapped_page(self, space):
        region, frame = mapped_page(space)
        frame.mapcount += 1
        with pytest.raises(SimInternalError, match="counts 2 mappings, the page table maps it 1"):
            space.verify_refcounts({1, 2})

    def test_unmapping_a_page_its_frame_does_not_list_is_internal_and_changes_nothing(
        self, space
    ):
        self.assert_unmap_refused(space, "mapcount", 0)

    @pytest.mark.parametrize("corrupt, wrong", [("index", 1), ("family", [])])
    def test_unmapping_a_page_whose_frame_lies_elsewhere_is_internal(self, space, corrupt, wrong):
        self.assert_unmap_refused(space, corrupt, wrong)

    @staticmethod
    def assert_unmap_refused(space, corrupt, wrong):
        """With the frame's ``corrupt`` attribute set to ``wrong``, unmapping
        one of its two pages raises and changes nothing."""
        region, frame = mapped_page(space)
        other = space.reserve_region(PAGE_SIZE)
        space.share_region(1, other, 2, PageState.SHARED_COPA, {})
        other = other.base
        setattr(frame, corrupt, wrong)
        entry, log = space.entry_at(other), ChangeLog()
        space._frames.logs.append(log)
        with pytest.raises(SimInternalError, match=f"{other:#x}"):
            space.unmap(other)
        assert space.entry_at(other) == entry
        assert getattr(frame, corrupt) is wrong and frame.frame_id in space._frames.by_id
        assert not log.frames and not log.pids

    def test_region_passes_over_a_page_its_frame_does_not_list_are_internal(self, space):
        region, frame = mapped_page(space)
        frame.mapcount = 0
        with pytest.raises(SimInternalError):
            space.unmap_owned(1)
        assert space.entry_at(region.base) is not None

    def test_region_passes_over_an_unknown_frame_are_internal(self, space):
        parent, frame = mapped_page(space)
        del space._frames.by_id[frame.frame_id]
        # The share pass and the exit sweep read no frame that every row of
        # its family maps; the full debug pass refuses it.
        with pytest.raises(SimInternalError, match=f"maps frame {frame.frame_id}"):
            space.verify_refcounts({1})
        # The teardown of a lone row reads every frame.
        with pytest.raises(SimInternalError):
            space.unmap_owned(1)

    def test_a_teardown_over_a_corrupt_last_page_changes_nothing(self):
        system = System()
        proc = system.create_initial_process(LayoutSpec(heap_pages=2))
        space, frames = system.address_space, system.frames.by_id
        log = ChangeLog()
        system.frames.logs.append(log)
        last = proc.region.end - PAGE_SIZE
        frames[space.entry_at(last).frame_id].mapcount = 0

        before = state_digest(system)
        with pytest.raises(SimInternalError, match=f"{last:#x}"):
            space.unmap_owned(proc.pid)
        assert state_digest(system) == before
        assert not log.frames and not log.pids

    @pytest.mark.parametrize("fault", ["unmapped parent", "unknown frame"])
    def test_a_share_pass_that_raises_at_a_later_page_changes_nothing(self, fault):
        system = System()
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        space, frames = system.address_space, system.frames.by_id
        assert system.gateway.audit().clean
        system.verify_invariants()
        child = space.reserve_region(parent.region.size)
        delta = child.base - parent.region.base
        # An eager copy the pass places, as it places the fork engine's.
        eager = system.frames.allocate(origin=child)
        copies = {parent.layout.got.base + delta: eager.frame_id}
        last = parent.region.end - PAGE_SIZE
        if fault == "unmapped parent":
            space.unmap(last)
        else:
            # The pass reads only the frames at divergent indices; pinning
            # the count of the last page's frame makes its index one.
            frame = frames.pop(space.entry_at(last).frame_id)
            frame.mapcount = frame.mapcount
        parent_pages = [space.entry_at(va) for va in parent.region.page_addresses()]
        # Every earlier parent page is private, some of them read-only.
        assert {entry.state for entry in parent_pages[:-1]} == {PageState.PRIVATE}
        assert {entry.writable for entry in parent_pages[:-1]} == {True, False}

        before = logged_state(system)
        assert len(before[1]) == 2
        with pytest.raises(SimInternalError):
            space.share_region(parent.pid, child, parent.pid + 1, PageState.SHARED_COA, copies)
        assert logged_state(system) == before

    @pytest.mark.parametrize(
        "state",
        [PageState.SHARED_COA, PageState.SHARED_COPA, PageState.SHARED_COW],
        ids=["coa", "copa", "unsafe-cow"],
    )
    def test_the_share_pass_keeps_what_the_child_row_maps(self, state):
        system = System()
        parent = system.create_initial_process()
        space = system.address_space
        child = space.reserve_region(parent.region.size)
        delta = child.base - parent.region.base
        got = parent.layout.got.base
        # An eager copy of the GOT page, collected as the fork engine collects it.
        eager = system.frames.allocate(origin=child)
        copies = {got + delta: eager.frame_id}
        before = space.entries()
        shared = parent.region.page_count - 1
        # Each other child page is shared, and each other parent page,
        # all private, becomes copy-on-write.
        assert space.share_region(parent.pid, child, parent.pid + 1, state, copies) == 2 * shared
        after = space.entries()
        assert after[got + delta] == (eager.frame_id, PageState.PRIVATE, True)
        assert eager.mapcount == 1 and pages_by_frame(space)[eager.frame_id] == [got + delta]
        assert after[got] == before[got] == (before[got].frame_id, PageState.PRIVATE, True)
        for va in parent.region.page_addresses():
            if va != got:
                frame_id = before[va].frame_id
                assert after[va] == (frame_id, PageState.SHARED_COW, False)
                assert after[va + delta] == (frame_id, state, False)
        space.verify_refcounts({KERNEL_PID, parent.pid, parent.pid + 1})


def shared_child(space, pages=3):
    """A parent of ``pages`` private pages and a child region sharing them."""
    parent = space.reserve_region(pages * PAGE_SIZE)
    space.map_fresh_region(parent, 1, 0)
    frames = frames_of(space, parent)
    child = space.reserve_region(parent.size)
    assert space.share_region(1, child, 2, PageState.SHARED_COPA, {}) == 2 * pages
    return parent, child, frames


def logged_state(system):
    """The state digest, both change logs and the next frame id: what a
    pass that raises must leave as it found them."""
    logs = [(set(log.frames), list(log.pids)) for log in system.frames.logs]
    return state_digest(system), logs, system.frames._next_id


#: Each whole-row pass given a pid it must refuse: a second live row for
#: one pid, or a pid with no row.  Each takes the address space, a pid
#: with a row and a fresh child reservation; ``missing`` is the next pid,
#: which has none.
PID_REFUSALS = {
    "map_fresh_region, pid with a row": (
        lambda space, pid, child: space.map_fresh_region(child, pid, 1),
        "pid {pid} already has a row",
    ),
    "share_region, pid with a row": (
        lambda space, pid, child: space.share_region(pid, child, pid, PageState.SHARED_COA, {}),
        "pid {pid} already has a row",
    ),
    "share_region, parent with no row": (
        lambda space, pid, child: space.share_region(
            pid + 1, child, pid + 2, PageState.SHARED_COA, {}
        ),
        "pid {missing} has no row",
    ),
    "unmap_owned, pid with no row": (
        lambda space, pid, child: space.unmap_owned(pid + 1),
        "pid {missing} has no row",
    ),
    "owned_refcounts, pid with no row": (
        lambda space, pid, child: space.owned_refcounts(pid + 1),
        "pid {missing} has no row",
    ),
}


def rows(space):
    return {va: (e.frame_id, e.state, e.writable) for va, e in space.entries().items()}


def columns(space):
    """A copy of every row's two columns."""
    return [
        (row.frames and list(row.frames), row.states and list(row.states)) for row in space._rows
    ]


class TestRows:
    def test_a_share_builds_frame_ids_that_the_expanded_view_shows(self, space):
        parent, child, frames = shared_child(space)
        parent_row, child_row = space._rows
        assert child_row.frames == parent_row.frames == [frame.frame_id for frame in frames]
        assert child_row.states == [PageState.SHARED_COPA] * 3
        assert parent_row.states == [PageState.SHARED_COW] * 3
        for va, frame in zip(child.page_addresses(), frames):
            assert space.mappers([frame.frame_id]) == [(1, va - child.base + parent.base), (2, va)]
            shared = PageTableEntry(frame.frame_id, PageState.SHARED_COPA, False)
            assert space.entries()[va] == shared
            assert space.entry_at(va + 8) == shared
        space.verify_refcounts({1, 2})
        assert space.owned_refcounts(2) == {2: 3}

    def test_entry_at_is_a_read_only_view(self, space):
        parent, child, frames = shared_child(space)
        before = columns(space)
        entry = space.entry_at(child.base + PAGE_SIZE + 8)
        assert entry == PageTableEntry(frames[1].frame_id, PageState.SHARED_COPA, False)
        with pytest.raises(AttributeError):
            entry.state = PageState.PRIVATE
        assert space.entry_at(child.end) is None
        assert columns(space) == before

    def test_readers_take_a_frame_id_in_place(self, space):
        parent, child, frames = shared_child(space)
        before = columns(space)
        assert space.check_and_access(2, data_cap(child, PAGE_SIZE), AccessKind.READ_INT) == 0
        with pytest.raises(FaultError) as err:
            space.check_and_access(2, data_cap(child, 8), AccessKind.WRITE, b"\x01")
        assert err.value.fault.kind is FaultKind.PAGE_WRITE
        space.entry_at(child.base)
        space.entries()
        assert list(space.loadable_frames(2, range(3))) == []
        space.verify_refcounts({1, 2})
        space.owned_refcounts(2)
        assert columns(space) == before

    def test_map_and_unmap_of_a_frame_id_act_on_its_mapping(self, space):
        parent, child, frames = shared_child(space)
        stray = space._frames.allocate()
        with pytest.raises(DoubleMap):
            space.map(child.base, stray.frame_id)
        assert space.entry_at(child.base).frame_id == frames[0].frame_id
        assert space.unmap(child.end - PAGE_SIZE) == 1
        assert space._rows[1].frames[2] is space._rows[1].states[2] is None
        assert child.end - PAGE_SIZE not in space.entries()
        assert space.mappers([frames[2].frame_id]) == [(1, parent.end - PAGE_SIZE)]

    def test_remap_of_a_frame_id_moves_the_page_to_the_new_frame(self, space):
        parent, child, frames = shared_child(space)
        fresh = space._frames.allocate()
        space.remap(child.base, fresh.frame_id)
        assert space.entry_at(child.base) == PageTableEntry(fresh.frame_id, PageState.PRIVATE, True)
        assert space.mappers([frames[0].frame_id]) == [(1, parent.base)]
        assert space.mappers([fresh.frame_id]) == [(2, child.base)]
        space.verify_refcounts({1, 2})
        with pytest.raises(UnmappedPage):
            space.remap(child.base + 8, fresh.frame_id)

    def test_a_grandchild_share_copies_frame_ids_in_place(self, space):
        parent, child, frames = shared_child(space)
        grandchild = space.reserve_region(child.size)
        assert space.share_region(2, grandchild, 3, PageState.SHARED_COA, {}) == 3
        view = space.entries()
        for index, frame in enumerate(frames):
            va = grandchild.base + index * PAGE_SIZE
            assert view[va] == PageTableEntry(frame.frame_id, PageState.SHARED_COA, False)
            assert view[child.base + index * PAGE_SIZE].state is PageState.SHARED_COPA
            assert frame.mapcount == 3
        space.verify_refcounts({1, 2, 3})

    @pytest.mark.parametrize(
        "case",
        [
            "child with a row",
            "not the last reservation",
            "another size",
            "mapped copy",
        ],
    )
    def test_a_share_pass_refuses_a_child_it_cannot_build_and_changes_nothing(self, case):
        system = System()
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        space, size = system.address_space, parent.region.size
        assert system.gateway.audit().clean
        system.verify_invariants()
        if case == "child with a row":
            child = system.create_initial_process(LayoutSpec(heap_pages=2)).region
            match = "still has a row"
        elif case == "not the last reservation":
            child = space.reserve_region(size)
            space.reserve_region(PAGE_SIZE)
            match = "is not the last reservation"
        elif case == "another size":
            child = space.reserve_region(size + PAGE_SIZE)
            match = "is not a reservation the size of"
        else:
            child = space.reserve_region(size)
            match = "cannot take copy"
        delta = child.base - parent.region.base
        # A fresh copy of the GOT page, and as the copy of the allocator
        # page a frame that a page of the parent maps.
        copies = {
            parent.layout.got.base + delta: system.frames.allocate(origin=child).frame_id,
            parent.layout.alloc_meta.base + delta: space.entry_at(parent.layout.heap.base).frame_id,
        }
        if case != "mapped copy":
            del copies[parent.layout.alloc_meta.base + delta]

        before = logged_state(system)
        assert len(before[1]) == 2
        with pytest.raises(SimInternalError, match=match):
            space.share_region(parent.pid, child, 9, PageState.SHARED_COA, copies)
        assert logged_state(system) == before

    @pytest.mark.parametrize("case", sorted(PID_REFUSALS))
    def test_a_whole_row_pass_refuses_a_pid_and_changes_nothing(self, case):
        system = System()
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        space = system.address_space
        assert system.gateway.audit().clean
        system.verify_invariants()
        child = space.reserve_region(parent.region.size)
        refuse, match = PID_REFUSALS[case]
        match = match.format(pid=parent.pid, missing=parent.pid + 1)
        before = logged_state(system)
        assert len(before[1]) == 2
        with pytest.raises(SimInternalError, match=match):
            refuse(space, parent.pid, child)
        assert logged_state(system) == before

    def test_a_teardown_drops_the_rows_columns(self, space):
        parent, child, frames = shared_child(space)
        assert space.unmap_owned(2) == frames
        assert rows(space).keys() == set(parent.page_addresses())
        # The row is gone: its addresses lie in no reservation.
        assert [row.pid for row in space._rows] == [1] and list(space._pid_rows) == [1]
        assert space.owner_of(child.base) is None and space.entry_at(child.base) is None
        space.verify_refcounts({1})

    def test_a_teardown_over_a_shared_page_its_frame_does_not_list_changes_nothing(self):
        system = System()
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        child = system.process(system.fork_engine.fork(parent.pid))
        space = system.address_space
        log = ChangeLog()
        system.frames.logs.append(log)
        last = child.region.end - PAGE_SIZE
        assert space.entry_at(last).state is not PageState.PRIVATE
        system.frames.get(space.entry_at(last).frame_id).mapcount = 0

        before = state_digest(system)
        with pytest.raises(SimInternalError, match=f"{last:#x}"):
            space.unmap_owned(child.pid)
        assert state_digest(system) == before
        assert not log.frames and not log.pids

    @pytest.mark.parametrize("case", ["dropped", "replaced", "kept after teardown"])
    def test_both_debug_checks_catch_a_row_that_is_not_its_pids_row(self, case):
        system = System()
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        child = system.process(system.fork_engine.fork(parent.pid))
        space, pid = system.address_space, child.pid
        assert system.gateway.audit().clean
        system.verify_invariants()
        row = space._pid_rows[pid]
        if case == "dropped":
            del space._pid_rows[pid]
            match = f"is not the row of pid {pid}"
        elif case == "replaced":
            space._pid_rows[pid] = copy.copy(row)
            match = f"is not the row of pid {pid}"
        else:
            # A teardown that drops the row but leaves the pid naming it.
            space.unmap_owned(pid)
            space._pid_rows[pid] = row
            match = "a pid names a row outside the page table"
        before = logged_state(system)
        for full in (True, False):
            with pytest.raises(SimInternalError, match=match):
                system.verify_invariants(full=full)
            assert logged_state(system) == before

    def test_the_full_pass_counts_every_mapped_page(self, space):
        parent, child, frames = shared_child(space)
        frames[0].mapcount += 1
        with pytest.raises(
            SimInternalError,
            match=f"frame {frames[0].frame_id} counts 3 mappings, the page table maps it 2 times",
        ):
            space.verify_refcounts({1, 2})

    def test_the_full_pass_reads_what_the_derived_counts_rest_on(self, space):
        parent, child, frames = shared_child(space)
        space.remap(child.base, space._frames.allocate().frame_id)
        assert space._pid_rows[2].family.divergent == {0}
        space.verify_refcounts({1, 2})
        # A page missing at an index where every row maps one frame.
        space._pid_rows[2].frames[1] = None
        with pytest.raises(SimInternalError, match=f"{child.base + PAGE_SIZE:#x} maps nothing"):
            space.verify_refcounts({1, 2})

    def test_a_teardown_makes_an_index_uniform_once_one_frame_counts_every_row_left(self, space):
        parent, child, frames = shared_child(space)
        sibling = space.reserve_region(parent.size)
        space.share_region(1, sibling, 3, PageState.SHARED_COPA, {})
        copy = space._frames.allocate()
        space.remap(child.base, copy.frame_id)
        family = space._pid_rows[1].family
        assert family.divergent == {0} and frames[0].mapcount == 2
        space.unmap_owned(2)
        # The parent and the sibling map one frame there again.
        assert copy.frame_id not in space._frames.by_id
        assert not family.divergent and frames[0].mapcount == 2
        space.verify_refcounts({1, 3})

    def test_an_unmapped_index_stays_divergent_through_a_teardown(self, space):
        parent, child, frames = shared_child(space)
        copy = space._frames.allocate()
        space.remap(child.base, copy.frame_id)
        space.unmap(parent.base)
        family = space._pid_rows[1].family
        # The teardown frees the child's frame at index 0, where the parent
        # maps nothing, so the index stays divergent.
        assert space.unmap_owned(2) == frames[1:]
        assert copy.frame_id not in space._frames.by_id
        assert family.divergent == {0}
        assert space.entry_at(parent.base) is None
        space.verify_refcounts({1})

    def test_only_the_last_unused_reservation_is_taken_back(self, space):
        parent, child, _ = shared_child(space)
        with pytest.raises(SimInternalError, match="not the last reservation"):
            space.unreserve(parent)
        with pytest.raises(SimInternalError, match="still has a row"):
            space.unreserve(child)
        fresh = space.reserve_region(PAGE_SIZE)
        space.map_fresh_region(fresh, 3, 0)
        # Only a reservation whose row a teardown has dropped goes back.
        space.unmap_owned(3)
        space.unreserve(fresh)
        assert space.owner_of(fresh.base) is None
        assert space.reserve_region(PAGE_SIZE) == fresh


class TestAccessPipelineOrder:
    """Check ordering is tag, seal, bounds, perms, page state (golden)."""

    def kinds(self, space, cap, kind, payload=None):
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, cap, kind, payload)
        return err.value.fault.kind

    def test_tag_checked_first(self, space):
        region, _ = mapped_page(space)
        bad = data_cap(region).untagged().seal(5)  # untagged AND sealed
        assert self.kinds(space, bad, AccessKind.READ_INT) is FaultKind.CAP_TAG

    def test_seal_checked_before_bounds(self, space):
        region, _ = mapped_page(space)
        sealed = data_cap(region).with_cursor(region.end + 64).seal(5)
        assert self.kinds(space, sealed, AccessKind.READ_INT) is FaultKind.CAP_SEALED

    def test_bounds_checked_before_perms(self, space):
        region, _ = mapped_page(space)
        off = data_cap(region, offset=region.size + 8, perms=Perm.STORE)
        assert self.kinds(space, off, AccessKind.READ_INT) is FaultKind.CAP_BOUNDS

    def test_perms_checked_before_page_state(self, space):
        region, _ = mapped_page(space, state=PageState.SHARED_COA)
        read_only = data_cap(region, perms=Perm.LOAD)
        assert self.kinds(space, read_only, AccessKind.WRITE, b"x") is FaultKind.CAP_PERM

    def test_out_of_bounds_cursor_faults_at_dereference(self, space):
        region, _ = mapped_page(space)
        cap = data_cap(region).with_cursor(region.end + PAGE_SIZE)
        assert self.kinds(space, cap, AccessKind.READ_INT) is FaultKind.CAP_BOUNDS

    def test_misaligned_capability_store_is_rejected(self, space):
        region, _ = mapped_page(space)
        cap = data_cap(region, offset=8)
        payload = data_cap(region)
        assert self.kinds(space, cap, AccessKind.CAP_STORE, payload) is FaultKind.CAP_BOUNDS


def _two_page_space(rng):
    """A two-page row of pid 1 in random page states, private more often
    than not, possibly read-only in its first page, with random bytes and
    tagged granules at both sides of the page boundary and at random."""
    space = AddressSpace(FrameTable())
    region = space.reserve_region(2 * PAGE_SIZE)
    space.map_fresh_region(region, 1, rng.choice((0, 1)))
    row = space._rows[-1]
    for index, frame in enumerate(frames_of(space, region)):
        row.states[index] = rng.choice([*PageState, PageState.PRIVATE, PageState.PRIVATE])
        frame.store_bytes(0, rng.randbytes(PAGE_SIZE))
        for granule in (0, GRANULES_PER_PAGE - 1, rng.randrange(GRANULES_PER_PAGE)):
            space._frames.store_capability(frame, granule, data_cap(region, length=64))
    return space, region


def _random_cap(rng, region):
    """A capability whose bounds lie in or around ``region``, with random
    permissions, its tag or seal dropped at times, and a random cursor."""
    base = region.base + rng.randrange(-2, 2 * GRANULES_PER_PAGE - 2) * GRANULE
    base += rng.choice((0, 0, 0, rng.randrange(GRANULE)))
    length = rng.randrange(1, 2 * PAGE_SIZE + 64)
    perms = rng.choice((DATA_PERMS, DATA_PERMS | Perm.EXEC, CODE_PERMS, Perm.LOAD, Perm.STORE))
    cursor = base + rng.randrange(-64, length + 64)
    otype = rng.randrange(8) if rng.random() < 0.1 else None
    return Capability(base, length, cursor, perms, otype, rng.random() > 0.1)


def _outcome(space, region, cap, kind, payload, width, **at):
    """What one access returns or raises, and the frames' bytes and
    capabilities and the page states it leaves."""
    try:
        result = space.check_and_access(1, cap, kind, payload, width=width, **at)
    except FaultError as err:
        result = err.fault
    except SimInternalError as err:
        result = str(err)
    frames = frames_of(space, region)
    state = [(bytes(f.data), f.entries()) for f in frames], list(space._rows[-1].states)
    return result, state


class TestAccessAt:
    """An access at ``at`` is the access through the capability with its
    cursor at ``at``: the same value or fault, and the same state after."""

    #: The page-level faults each kind can take, besides ``PAGE_ACCESS``.
    PAGE_FAULTS = {
        AccessKind.READ_INT: {FaultKind.CAP_LOAD},
        AccessKind.WRITE: {FaultKind.PAGE_WRITE},
        AccessKind.CAP_LOAD: {FaultKind.CAP_LOAD},
        AccessKind.CAP_STORE: {FaultKind.PAGE_WRITE},
        AccessKind.EXEC: {FaultKind.CAP_LOAD},
    }

    @pytest.mark.parametrize("kind", list(AccessKind))
    def test_an_access_at_an_address_equals_one_through_a_moved_cursor(self, kind):
        seen = set()
        for seed in range(300):
            name = f"{kind.value}-{seed}"
            rng = random.Random(name)
            space, region = _two_page_space(rng)
            cap = _random_cap(rng, region)
            at = region.base + rng.randrange(-64, 2 * PAGE_SIZE + 64)
            if rng.random() < 0.4:  # near the page boundary
                at = region.base + PAGE_SIZE + rng.randrange(-12, 4)
            if rng.random() < 0.5:
                at -= at % GRANULE
            width = rng.randrange(1, 9)
            payload = None
            if kind is AccessKind.WRITE:
                payload = rng.randbytes(width)
            elif kind is AccessKind.CAP_STORE:
                payload = data_cap(region, offset=rng.randrange(64), length=64)
            # with_cursor refuses a sealed capability, so build the fields.
            moved = Capability(cap.base, cap.length, at, cap.perms, cap.otype, cap.tag)
            if cap.otype is None:
                assert cap.with_cursor(at) == moved
            twin, _ = _two_page_space(random.Random(name))
            expected = _outcome(twin, region, moved, kind, payload, width)
            assert _outcome(space, region, cap, kind, payload, width, at=at) == expected, name
            result = expected[0]
            if isinstance(result, Fault):
                assert result.page_va == at - at % PAGE_SIZE
                seen.add(result.kind)
            else:
                seen.add("crosses a page" if isinstance(result, str) else "done")
        # The cases reach every check of the pipeline, and get past it.
        expected = {FaultKind.CAP_TAG, FaultKind.CAP_SEALED, FaultKind.CAP_BOUNDS}
        expected |= {FaultKind.CAP_PERM, FaultKind.PAGE_ACCESS, "done"}
        expected |= self.PAGE_FAULTS[kind]
        if kind not in (AccessKind.CAP_LOAD, AccessKind.CAP_STORE):
            expected.add("crosses a page")
        assert seen == expected


class TestOneAccessPerPage:
    """``System``'s bulk helpers make a range on one page one access, with
    no split, and a range that crosses a page one access per page."""

    @pytest.mark.parametrize("offset", [0, 4088, 4089, 4092, 4095])
    def test_a_word_is_one_access_per_page_it_touches(self, offset, monkeypatch):
        system = System()
        proc = system.create_initial_process()
        heap = proc.registers["hp"]
        at = heap.base + offset
        word = bytes(range(0xA1, 0xA9))
        accesses, splits = [], []
        access, page_chunks = System.access, sasfork.system._page_chunks

        def counted_access(self, pid, cap, kind, payload=None, *, width=8, at=None):
            accesses.append((kind, at, payload if kind is AccessKind.WRITE else width))
            return access(self, pid, cap, kind, payload, width=width, at=at)

        def counted_chunks(addr, count):
            splits.append((addr, count))
            return page_chunks(addr, count)

        monkeypatch.setattr(System, "access", counted_access)
        monkeypatch.setattr(sasfork.system, "_page_chunks", counted_chunks)
        assert system.write_user_bytes(proc.pid, heap, word, at) == 8
        assert system.read_user_int(proc.pid, heap, 8, at) == int.from_bytes(word, "little")
        first = PAGE_SIZE - offset
        if first >= 8:
            assert splits == []
            assert accesses == [
                (AccessKind.WRITE, at, word),
                (AccessKind.READ_INT, at, 8),
            ]
        else:
            edge = at + first
            assert splits == [(at, 8), (at, 8)]
            assert accesses == [
                (AccessKind.WRITE, at, word[:first]),
                (AccessKind.WRITE, edge, word[first:]),
                (AccessKind.READ_INT, at, first),
                (AccessKind.READ_INT, edge, 8 - first),
            ]
        assert system.peek_bytes(at, 8) == word

    def test_a_page_whose_frame_is_gone_is_an_internal_error(self):
        system = System()
        proc = system.create_initial_process()
        heap = proc.registers["hp"]
        frame_id = system.address_space.entry_at(heap.base).frame_id
        del system.frames.by_id[frame_id]
        with pytest.raises(SimInternalError, match=f"^frame {frame_id} does not exist$"):
            system.address_space.check_and_access(proc.pid, heap, AccessKind.READ_INT)


class TestFaultValues:
    #: Each kind and whether the fork engine may resolve it by copying: a
    #: new kind must be added here, which forces the decision.
    RESOLVABLE = {
        FaultKind.CAP_TAG: False,
        FaultKind.CAP_SEALED: False,
        FaultKind.CAP_BOUNDS: False,
        FaultKind.CAP_PERM: False,
        FaultKind.PAGE_WRITE: True,
        FaultKind.PAGE_ACCESS: True,
        FaultKind.CAP_LOAD: True,
        FaultKind.PRIVILEGE: False,
    }

    def test_only_page_level_faults_are_resolvable(self):
        assert {kind: kind.resolvable for kind in FaultKind} == self.RESOLVABLE
        for kind, resolvable in self.RESOLVABLE.items():
            assert Fault(kind, 1, PAGE_SIZE, AccessKind.WRITE).resolvable is resolvable

    def test_a_fault_error_reads_as_its_fault(self):
        fault = Fault(FaultKind.PAGE_WRITE, 3, 0x5000, AccessKind.CAP_STORE)
        err = FaultError(fault)
        assert str(fault) == "PageWriteFault(pid=3, page=0x5000, access=CapStore)"
        assert str(err) == str(fault)
        assert err.fault is fault

    def test_a_fault_error_from_the_pipeline_reads_as_its_fault(self, space):
        region, _ = mapped_page(space, state=PageState.SHARED_COA)
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, data_cap(region, offset=24), AccessKind.READ_INT)
        fault = Fault(FaultKind.PAGE_ACCESS, 1, region.base, AccessKind.READ_INT)
        assert err.value.fault == fault
        assert str(err.value) == f"PageAccessFault(pid=1, page={region.base:#x}, access=ReadInt)"

    def test_faults_compare_and_hash_by_their_fields(self):
        fault = Fault(FaultKind.CAP_LOAD, 2, PAGE_SIZE, AccessKind.CAP_LOAD)
        same = Fault(FaultKind.CAP_LOAD, 2, PAGE_SIZE, AccessKind.CAP_LOAD)
        assert fault == same and hash(fault) == hash(same)
        assert len({fault, same}) == 1
        for other in (
            fault._replace(kind=FaultKind.PAGE_ACCESS),
            fault._replace(pid=3),
            fault._replace(page_va=2 * PAGE_SIZE),
            fault._replace(access=AccessKind.READ_INT),
        ):
            assert other != fault


class TestPageStates:
    def test_coa_page_faults_on_any_access(self, space):
        region, _ = mapped_page(space, state=PageState.SHARED_COA)
        cap = data_cap(region)
        for kind, payload in (
            (AccessKind.READ_INT, None),
            (AccessKind.WRITE, b"12345678"),
            (AccessKind.CAP_LOAD, None),
        ):
            with pytest.raises(FaultError) as err:
                space.check_and_access(1, cap, kind, payload)
            assert err.value.fault.kind is FaultKind.PAGE_ACCESS

    def test_copa_page_reads_but_blocks_cap_loads_and_writes(self, space):
        region, frame = mapped_page(
            space, state=PageState.SHARED_COPA
        )
        cap = data_cap(region)
        assert space.check_and_access(1, cap, AccessKind.READ_INT) == 0
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, cap, AccessKind.CAP_LOAD)
        assert err.value.fault.kind is FaultKind.CAP_LOAD
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, cap, AccessKind.WRITE, b"x")
        assert err.value.fault.kind is FaultKind.PAGE_WRITE

    @pytest.mark.parametrize("offset", [0, 8, 12, 16, 32, 4088])
    def test_copa_integer_read_of_a_tagged_granule_is_a_cap_load_fault(self, space, offset):
        region, frame = mapped_page(
            space, state=PageState.SHARED_COPA
        )
        space._frames.store_capability(frame, 0, data_cap(region))
        space._frames.store_capability(frame, 2, data_cap(region).untagged())
        cap = data_cap(region, offset=offset)
        if offset >= GRANULE:  # untagged granules read in place
            expected = frame.load_value(offset, 8)
            assert space.check_and_access(1, cap, AccessKind.READ_INT) == expected
            return
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, cap, AccessKind.READ_INT)
        assert err.value.fault.kind is FaultKind.CAP_LOAD

    def test_cow_page_allows_cap_load(self, space):
        region, frame = mapped_page(
            space, state=PageState.SHARED_COW
        )
        stored = data_cap(region)
        space._frames.store_capability(frame, 0, stored)
        loaded = space.check_and_access(1, data_cap(region), AccessKind.CAP_LOAD)
        assert loaded == stored

    def test_unmapped_page_is_an_access_fault(self, space):
        region = space.reserve_region(2 * PAGE_SIZE)
        space.map_fresh_region(region, 1, 0)
        space.unmap(region.base + PAGE_SIZE)
        cap = data_cap(region, offset=PAGE_SIZE)  # second page unmapped
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, cap, AccessKind.READ_INT)
        assert err.value.fault.kind is FaultKind.PAGE_ACCESS


class TestDataMovement:
    def test_write_then_read_round_trip(self, space):
        region, _ = mapped_page(space)
        cap = data_cap(region, offset=24)
        space.check_and_access(1, cap, AccessKind.WRITE, (123456).to_bytes(8, "little"))
        assert space.check_and_access(1, cap, AccessKind.READ_INT) == 123456

    def test_cap_store_load_round_trip(self, space):
        region, _ = mapped_page(space)
        where = data_cap(region, offset=GRANULE * 3)
        stored = data_cap(region, offset=8, length=64).with_cursor(region.base + 16)
        space.check_and_access(1, where, AccessKind.CAP_STORE, stored)
        assert space.check_and_access(1, where, AccessKind.CAP_LOAD) == stored

    def test_page_crossing_access_is_an_internal_error(self, space):
        region = space.reserve_region(2 * PAGE_SIZE)
        space.map_fresh_region(region, 1, 0)
        frames = frames_of(space, region)
        for frame in frames:
            frame.store_bytes(0, b"\x5a" * PAGE_SIZE)
        # A tagged granule on each side of the boundary.
        for offset in (PAGE_SIZE - GRANULE, PAGE_SIZE):
            where = data_cap(region, offset=offset)
            space.check_and_access(1, where, AccessKind.CAP_STORE, data_cap(region))
        before = [(bytes(f.data), f.entries()) for f in frames]
        crossing = data_cap(region, offset=PAGE_SIZE - 4)
        with pytest.raises(SimInternalError, match="crosses a page"):
            space.check_and_access(1, crossing, AccessKind.WRITE, b"\x11" * 8)
        with pytest.raises(SimInternalError, match="crosses a page"):
            space.check_and_access(1, crossing, AccessKind.READ_INT)
        assert [(bytes(f.data), f.entries()) for f in frames] == before

    def test_page_chunked_helpers_round_trip_a_crossing_range(self):
        system = System()
        proc = system.create_initial_process()
        heap = proc.layout.heap
        cap = Capability(
            base=heap.base, length=heap.size, cursor=heap.base + PAGE_SIZE - 4, perms=DATA_PERMS
        )
        payload = bytes(range(1, 9))
        assert system.write_user_bytes(proc.pid, cap, payload) == 8
        assert system.read_user_bytes(proc.pid, cap, 8) == payload


class TestWritable:
    """A page is writable exactly when it is private and lies past its
    reservation's read-only pages."""

    def test_the_read_only_pages_of_a_reservation_refuse_stores(self, space):
        region = space.reserve_region(3 * PAGE_SIZE)
        space.map_fresh_region(region, 1, 1)
        assert [entry.writable for entry in space.entries().values()] == [False, True, True]
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, data_cap(region), AccessKind.WRITE, bytes(8))
        assert err.value.fault.kind is FaultKind.PAGE_WRITE
        assert space.check_and_access(1, data_cap(region, PAGE_SIZE), AccessKind.WRITE, bytes(8)) == 8

    @pytest.mark.parametrize(
        "state", [PageState.SHARED_COW, PageState.SHARED_COA, PageState.SHARED_COPA]
    )
    def test_a_store_to_a_read_only_page_is_a_write_fault_in_every_state(self, space, state):
        region, _ = mapped_page(space, state=state, ro_pages=1)
        # Under copy-on-access too: no copy would make the page writable.
        with pytest.raises(FaultError) as err:
            space.check_and_access(1, data_cap(region), AccessKind.WRITE, bytes(8))
        assert err.value.fault.kind is FaultKind.PAGE_WRITE
