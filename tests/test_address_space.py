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
from sasfork.capability import DATA_PERMS, GRANULE, PAGE_SIZE, Capability, Perm
from sasfork.errors import AddressSpaceExhausted, DoubleMap, SimInternalError, UnmappedPage
from sasfork.process import LayoutSpec
from sasfork.system import System
from sasfork.tagged_memory import ChangeLog, FrameTable


@pytest.fixture
def space():
    return AddressSpace(FrameTable())


def mapped_page(space, *, state=PageState.PRIVATE, writable=True, pid=1):
    region = space.reserve_region(PAGE_SIZE)
    frame = space._frames.allocate(origin=region)
    space.map(
        region.base,
        PageTableEntry(
            frame_id=frame.frame_id,
            state=state,
            writable=writable,
            owner_pid=pid,
        ),
    )
    return region, frame


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

    def test_exhaustion(self):
        space = AddressSpace(FrameTable(), space_limit=16 * PAGE_SIZE)
        space.reserve_region(8 * PAGE_SIZE)
        with pytest.raises(AddressSpaceExhausted):
            space.reserve_region(16 * PAGE_SIZE)


class TestMappings:
    def test_map_then_unmap_restores_refcount(self, space):
        region, frame = mapped_page(space)
        assert space._frames.refcount(frame.frame_id) == 1
        assert space.unmap(region.base) == 0

    def test_aliasing_one_frame_counts_two(self, space):
        region, frame = mapped_page(space)
        other = space.reserve_region(PAGE_SIZE)
        space.map(
            other.base,
            PageTableEntry(frame.frame_id, PageState.SHARED_COPA, False, 2),
        )
        assert space._frames.refcount(frame.frame_id) == 2
        assert frame.pages == {region.base, other.base}
        space.verify_refcounts()
        assert space.unmap(region.base) == 1
        assert frame.pages == {other.base}

    def test_double_map_and_unmapped_unmap(self, space):
        region, frame = mapped_page(space)
        with pytest.raises(DoubleMap):
            space.map(region.base, PageTableEntry(frame.frame_id, PageState.PRIVATE, True, 1))
        with pytest.raises(UnmappedPage):
            space.unmap(region.base + PAGE_SIZE)

    def test_verify_catches_two_pages_that_swapped_frames(self, space):
        a, frame_a = mapped_page(space)
        b, frame_b = mapped_page(space)
        space.verify_refcounts()
        entries = space.entries()
        entries[a.base].frame_id, entries[b.base].frame_id = frame_b.frame_id, frame_a.frame_id
        # Each frame still has one mapping, so only the page sets can tell.
        assert space._frames.refcount(frame_a.frame_id) == 1
        with pytest.raises(SimInternalError):
            space.verify_refcounts()

    def test_verify_catches_a_frame_listing_an_unmapped_page(self, space):
        region, frame = mapped_page(space)
        frame.pages.add(region.base + PAGE_SIZE)
        with pytest.raises(SimInternalError, match="frames list"):
            space.verify_refcounts()

    def test_unmapping_a_page_its_frame_does_not_list_is_internal_and_changes_nothing(
        self, space
    ):
        region, frame = mapped_page(space)
        other = space.reserve_region(PAGE_SIZE).base
        space.map(other, PageTableEntry(frame.frame_id, PageState.SHARED_COPA, False, 2))
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
            space.unmap_owned(region, 1)
        assert space.entry_at(region.base) is not None

    def test_region_passes_over_an_unknown_frame_are_internal(self, space):
        parent, frame = mapped_page(space)
        child = space.reserve_region(PAGE_SIZE)
        del space._frames.by_id[frame.frame_id]
        with pytest.raises(SimInternalError):
            space.share_region(parent, child, set(), PageState.SHARED_COPA, 2)
        assert space.entry_at(child.base) is None
        with pytest.raises(SimInternalError):
            space.owned_refcounts(parent, 1)
        with pytest.raises(SimInternalError):
            space.unmap_owned(parent, 1)

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
            space.unmap_owned(proc.region, proc.pid)
        assert state() == before
        assert not log.frames and not log.regions


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
        region = space.reserve_region(2 * PAGE_SIZE)
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
        region = space.reserve_region(2 * PAGE_SIZE)
        frames = []
        for page_va in region.page_addresses():
            frame = space._frames.allocate(origin=region)
            space.map(page_va, PageTableEntry(frame.frame_id, PageState.PRIVATE, True, 1))
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
