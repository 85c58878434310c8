"""Page table, region reservation, and the fault pipeline ordering."""

import pytest

from sasfork.address_space import (
    AccessKind,
    AddressSpace,
    FaultError,
    FaultKind,
    PageState,
    PageTableEntry,
)
from sasfork.capability import (
    DATA_PERMS,
    GRANULE,
    PAGE_SIZE,
    VIRTUAL_SPACE_LIMIT,
    Capability,
    Perm,
    Region,
)
from sasfork.errors import AddressSpaceExhausted, DoubleMap, SimInternalError, UnmappedPage
from sasfork.process import KERNEL_PID, LayoutSpec
from sasfork.system import System
from sasfork.tagged_memory import ChangeLog, FrameTable


@pytest.fixture
def space():
    return AddressSpace(FrameTable())


def mapped_page(space, *, state=PageState.PRIVATE, writable=True, pid=1):
    region = space.reserve_region(PAGE_SIZE, pid)
    frame = space._frames.allocate(origin=region)
    space.map(
        region.base,
        PageTableEntry(frame_id=frame.frame_id, state=state, writable=writable),
    )
    return region, frame


def data_cap(region, offset=0, length=None, perms=DATA_PERMS):
    length = region.size if length is None else length
    return Capability(
        base=region.base, length=length, cursor=region.base + offset, perms=perms
    )


class TestRegions:
    def test_successive_reservations_are_disjoint(self, space):
        a = space.reserve_region(0x0400_0000, 1)
        b = space.reserve_region(0x0400_0000, 2)
        assert a.end <= b.base or b.end <= a.base

    def test_no_reuse_after_any_activity(self, space):
        a = space.reserve_region(PAGE_SIZE, 1)
        b = space.reserve_region(PAGE_SIZE, 2)
        assert b.base >= a.end  # bump-only, never compacted

    def test_zero_size_is_an_error(self, space):
        with pytest.raises(ValueError):
            space.reserve_region(0, 1)

    def test_exhaustion(self, space):
        # Reservations are Region values only, so no memory backs them.
        last = space.reserve_region(VIRTUAL_SPACE_LIMIT - PAGE_SIZE, 1)
        assert last.end == VIRTUAL_SPACE_LIMIT
        with pytest.raises(AddressSpaceExhausted):
            space.reserve_region(PAGE_SIZE, 2)


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
        assert space._frames.refcount(frame.frame_id) == 1
        assert space.unmap(region.base) == 0

    def test_aliasing_one_frame_counts_two(self, space):
        region, frame = mapped_page(space)
        other = space.reserve_region(PAGE_SIZE, 2)
        space.map(other.base, PageTableEntry(frame.frame_id, PageState.SHARED_COPA, False))
        assert space._frames.refcount(frame.frame_id) == 2
        assert frame.pages == {region.base, other.base}
        space.verify_refcounts({1, 2})
        assert space.unmap(region.base) == 1
        assert frame.pages == {other.base}

    def test_double_map_and_unmapped_unmap(self, space):
        region, frame = mapped_page(space)
        with pytest.raises(DoubleMap):
            space.map(region.base, PageTableEntry(frame.frame_id, PageState.PRIVATE, True))
        with pytest.raises(UnmappedPage):
            space.unmap(region.base + PAGE_SIZE)

    def test_verify_catches_two_pages_that_swapped_frames(self, space):
        a, frame_a = mapped_page(space)
        b, frame_b = mapped_page(space)
        space.verify_refcounts({1, 2})
        entries = space.entries()
        entries[a.base].frame_id, entries[b.base].frame_id = frame_b.frame_id, frame_a.frame_id
        # Each frame still has one mapping, so only the page sets can tell.
        assert space._frames.refcount(frame_a.frame_id) == 1
        with pytest.raises(SimInternalError):
            space.verify_refcounts({1, 2})

    def test_verify_catches_a_frame_listing_an_unmapped_page(self, space):
        region, frame = mapped_page(space)
        frame.pages.add(region.base + PAGE_SIZE)
        with pytest.raises(SimInternalError, match="frames list"):
            space.verify_refcounts({1, 2})

    def test_unmapping_a_page_its_frame_does_not_list_is_internal_and_changes_nothing(
        self, space
    ):
        region, frame = mapped_page(space)
        other = space.reserve_region(PAGE_SIZE, 2).base
        space.map(other, PageTableEntry(frame.frame_id, PageState.SHARED_COPA, False))
        frame.pages.remove(other)
        entry, log = space.entry_at(other), ChangeLog()
        space._frames.logs.append(log)
        with pytest.raises(SimInternalError, match=f"{other:#x}"):
            space.unmap(other)
        assert space.entry_at(other) is entry
        assert frame.pages == {region.base}
        assert not log.frames and not log.regions

    def test_region_passes_over_a_page_its_frame_does_not_list_are_internal(self, space):
        region, frame = mapped_page(space)
        frame.pages.clear()
        with pytest.raises(SimInternalError):
            space.unmap_owned(region)
        assert space.entry_at(region.base) is not None

    def test_region_passes_over_an_unknown_frame_are_internal(self, space):
        parent, frame = mapped_page(space)
        child = space.reserve_region(PAGE_SIZE, 2)
        del space._frames.by_id[frame.frame_id]
        with pytest.raises(SimInternalError):
            space.share_region(parent, child, set(), PageState.SHARED_COPA)
        assert space.entry_at(child.base) is None
        with pytest.raises(SimInternalError):
            space.owned_refcounts(parent)
        with pytest.raises(SimInternalError):
            space.unmap_owned(parent)

    def test_a_teardown_over_a_corrupt_last_page_changes_nothing(self):
        system = System()
        proc = system.create_initial_process(LayoutSpec(heap_pages=2))
        space, frames = system.address_space, system.frames.by_id
        log = ChangeLog()
        system.frames.logs.append(log)
        last = proc.region.end - PAGE_SIZE
        frames[space.entry_at(last).frame_id].pages.clear()

        def state():
            pages = {fid: set(frame.pages) for fid, frame in frames.items()}
            return space.entries(), pages, sorted(frames)

        before = state()
        with pytest.raises(SimInternalError, match=f"{last:#x}"):
            space.unmap_owned(proc.region)
        assert state() == before
        assert not log.frames and not log.regions

    @pytest.mark.parametrize("fault", ["unmapped parent", "unknown frame", "double map"])
    def test_a_share_pass_that_raises_at_a_later_page_changes_nothing(self, fault):
        system = System()
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        space, frames = system.address_space, system.frames.by_id
        assert system.gateway.audit().clean
        system.verify_invariants()
        child = space.reserve_region(parent.region.size, parent.pid + 1)
        delta = child.base - parent.region.base
        # An eager copy the pass skips, as the fork engine's are.
        skip = {parent.layout.got.base}
        eager = system.frames.allocate(origin=child)
        eager_entry = PageTableEntry(eager.frame_id, PageState.PRIVATE, True)
        space.map(parent.layout.got.base + delta, eager_entry)
        last = parent.region.end - PAGE_SIZE
        if fault == "unmapped parent":
            space.unmap(last)
        elif fault == "unknown frame":
            del frames[space.entry_at(last).frame_id]
        else:
            stray = system.frames.allocate()
            space.map(last + delta, PageTableEntry(stray.frame_id, PageState.PRIVATE, True))
        parent_pages = [space.entry_at(va) for va in parent.region.page_addresses()]
        # Every earlier parent page is private, some of them read-only.
        assert {entry.state for entry in parent_pages[:-1]} == {PageState.PRIVATE}
        assert {entry.writable for entry in parent_pages[:-1]} == {True, False}

        def state():
            entries = {va: (e.frame_id, e.state, e.writable) for va, e in space.entries().items()}
            page_sets = {fid: set(frame.pages) for fid, frame in frames.items()}
            logs = [(set(log.frames), list(log.regions)) for log in system.frames.logs]
            return entries, page_sets, logs, set(space.by_page)

        before = state()
        assert len(before[2]) == 2
        with pytest.raises(DoubleMap if fault == "double map" else SimInternalError):
            space.share_region(parent.region, child, skip, PageState.SHARED_COA)
        assert state() == before


def shared_child(space, pages=3):
    """A parent of ``pages`` private pages and a child region sharing them."""
    parent = space.reserve_region(pages * PAGE_SIZE, 1)
    frames = []
    for va in parent.page_addresses():
        frame = space._frames.allocate(origin=parent)
        space.map(va, PageTableEntry(frame.frame_id, PageState.PRIVATE, True))
        frames.append(frame)
    child = space.reserve_region(parent.size, 2)
    assert space.share_region(parent, child, set(), PageState.SHARED_COPA) == 2 * pages
    return parent, child, frames


def rows(space):
    return {va: (e.frame_id, e.state, e.writable) for va, e in space.entries().items()}


class TestSpans:
    def test_a_share_records_slots_that_the_expanded_view_shows(self, space):
        parent, child, frames = shared_child(space)
        assert not any(child.contains(va) for va in space.by_page)
        for va, frame in zip(child.page_addresses(), frames):
            assert frame.pages == {va - child.base + parent.base, va}
            shared = PageTableEntry(frame.frame_id, PageState.SHARED_COPA, False)
            assert space.entries()[va] == shared
            assert space.slot_view(va) == shared
            assert space.slot_view(va - child.base + parent.base) is None
        space.verify_refcounts({1, 2})
        assert space.owned_refcounts(child) == {2: 3}

    @pytest.mark.parametrize("lookup", ["entry_at", "check_and_access"])
    def test_a_slot_becomes_its_read_only_entry_on_first_lookup(self, space, lookup):
        parent, child, frames = shared_child(space)
        before = rows(space)
        va = child.base + PAGE_SIZE
        if lookup == "entry_at":
            entry = space.entry_at(va + 8)
        else:
            space.check_and_access(2, data_cap(child, PAGE_SIZE), AccessKind.READ_INT)
            entry = space.by_page[va]
        assert entry == PageTableEntry(frames[1].frame_id, PageState.SHARED_COPA, False)
        # Installed once: later lookups return the same entry.
        assert space.by_page[va] is entry and space.entry_at(va) is entry
        assert rows(space) == before
        space.verify_refcounts({1, 2})

    def test_map_and_unmap_of_a_slot_act_on_its_entry(self, space):
        parent, child, frames = shared_child(space)
        stray = space._frames.allocate()
        with pytest.raises(DoubleMap):
            space.map(child.base, PageTableEntry(stray.frame_id, PageState.PRIVATE, True))
        assert space.by_page[child.base].frame_id == frames[0].frame_id
        assert space.unmap(child.end - PAGE_SIZE) == 1
        assert child.end - PAGE_SIZE not in space.entries()
        assert frames[2].pages == {parent.end - PAGE_SIZE}

    def test_a_grandchild_share_copies_live_slots_in_place(self, space):
        parent, child, frames = shared_child(space)
        space.entry_at(child.base)  # one slot becomes an entry
        grandchild = space.reserve_region(child.size, 3)
        assert space.share_region(child, grandchild, set(), PageState.SHARED_COA) == 3
        assert set(space.by_page) == {*parent.page_addresses(), child.base}
        view = space.entries()
        for index, frame in enumerate(frames):
            va = grandchild.base + index * PAGE_SIZE
            assert view[va] == PageTableEntry(frame.frame_id, PageState.SHARED_COA, False)
            assert len(frame.pages) == 3
        space.verify_refcounts({1, 2, 3})

    def test_a_share_outside_one_fresh_reservation_is_internal(self, space):
        parent, child, _ = shared_child(space)
        before = rows(space)
        with pytest.raises(SimInternalError, match="free of spans"):
            space.share_region(parent, child, set(), PageState.SHARED_COA)
        with pytest.raises(SimInternalError, match="free of spans"):
            inner = Region(child.base + PAGE_SIZE, PAGE_SIZE)
            space.share_region(parent, inner, set(), PageState.SHARED_COA)
        small = space.reserve_region(PAGE_SIZE, 3)
        with pytest.raises(SimInternalError, match="free of spans"):
            # A child that runs past its reservation.
            past = Region(small.base, parent.size)
            space.share_region(parent, past, set(), PageState.SHARED_COA)
        assert rows(space) == before

    def test_a_teardown_drops_entries_and_slots_together(self, space):
        parent, child, frames = shared_child(space)
        space.entry_at(child.base + PAGE_SIZE)
        assert space.unmap_owned(child) == frames
        assert rows(space).keys() == set(parent.page_addresses())
        assert not space._spans
        space.verify_refcounts({1})

    def test_a_teardown_over_a_slot_its_frame_does_not_list_changes_nothing(self, space):
        parent, child, frames = shared_child(space)
        space.entry_at(child.base)
        frames[2].pages.discard(child.end - PAGE_SIZE)

        def state():
            return rows(space), [set(frame.pages) for frame in frames], set(space.by_page)

        before = state()
        with pytest.raises(SimInternalError, match=f"{child.end - PAGE_SIZE:#x}"):
            space.unmap_owned(child)
        assert state() == before

    def test_the_full_pass_catches_a_page_that_is_an_entry_and_a_slot(self, space):
        parent, child, frames = shared_child(space)
        entry = PageTableEntry(frames[0].frame_id, PageState.SHARED_COPA, False)
        space.by_page[child.base] = entry
        with pytest.raises(SimInternalError, match="both an entry and a live slot"):
            space.verify_refcounts({1, 2})

    def test_the_full_pass_counts_slots_beside_entries(self, space):
        parent, child, frames = shared_child(space)
        frames[0].pages.add(child.end)
        with pytest.raises(SimInternalError, match="frames list 7 pages, the page table maps 6"):
            space.verify_refcounts({1, 2})

    def test_only_the_last_unused_reservation_is_taken_back(self, space):
        parent, child, _ = shared_child(space)
        with pytest.raises(SimInternalError, match="not the last reservation"):
            space.unreserve(parent)
        with pytest.raises(SimInternalError, match="still holds a span"):
            space.unreserve(child)
        fresh = space.reserve_region(PAGE_SIZE, 3)
        space.unreserve(fresh)
        assert space.owner_of(fresh.base) is None
        assert space.reserve_region(PAGE_SIZE, 3) == fresh


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


class TestPageStates:
    def test_coa_page_faults_on_any_access(self, space):
        region, _ = mapped_page(space, state=PageState.SHARED_COA, writable=False)
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
            space, state=PageState.SHARED_COPA, writable=False
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
            space, state=PageState.SHARED_COPA, writable=False
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
            space, state=PageState.SHARED_COW, writable=False
        )
        stored = data_cap(region)
        space._frames.store_capability(frame, 0, stored)
        loaded = space.check_and_access(1, data_cap(region), AccessKind.CAP_LOAD)
        assert loaded == stored

    def test_unmapped_page_is_an_access_fault(self, space):
        region = space.reserve_region(2 * PAGE_SIZE, 1)
        cap = data_cap(region, offset=PAGE_SIZE)  # second page never mapped
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
        region = space.reserve_region(2 * PAGE_SIZE, 1)
        frames = []
        for page_va in region.page_addresses():
            frame = space._frames.allocate(origin=region)
            space.map(page_va, PageTableEntry(frame.frame_id, PageState.PRIVATE, True))
            frame.store_bytes(0, b"\x5a" * PAGE_SIZE)
            frames.append(frame)
        # A tagged granule on each side of the boundary.
        for offset in (PAGE_SIZE - GRANULE, PAGE_SIZE):
            where = data_cap(region, offset=offset)
            space.check_and_access(1, where, AccessKind.CAP_STORE, data_cap(region))
        before = [(bytes(f.data), dict(f.caps)) for f in frames]
        crossing = data_cap(region, offset=PAGE_SIZE - 4)
        with pytest.raises(SimInternalError, match="crosses a page"):
            space.check_and_access(1, crossing, AccessKind.WRITE, b"\x11" * 8)
        with pytest.raises(SimInternalError, match="crosses a page"):
            space.check_and_access(1, crossing, AccessKind.READ_INT)
        assert [(bytes(f.data), dict(f.caps)) for f in frames] == before

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
