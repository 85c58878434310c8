"""Fork strategies, lazy-copy resolution, and exit/wait semantics."""

import gc
import tracemalloc

import pytest

import sasfork.address_space
import sasfork.system
from sasfork import tagged_memory
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
    DATA_PERMS,
    GRANULE,
    GRANULES_PER_PAGE,
    PAGE_SIZE,
    Capability,
    rebase_for_child,
)
from sasfork.cli import main
from sasfork.errors import (
    AddressSpaceExhausted,
    NoChildren,
    ProcessNotRunning,
    SimInternalError,
    UnresolvableFault,
)
from sasfork.fork_engine import CopyCause, CopyEvent, ForkEngine
from sasfork.process import KERNEL_PID, LayoutSpec
from sasfork.system import System
from sasfork.tagged_memory import ChangeLog, FrameTable
from sasfork.workload import run
from sasfork.workload.interpreter import _Interpreter
from state_digest import pages_by_frame, state_digest
from test_golden import GEN_SLICE, GOLDEN


def make_system(strategy):
    return System(strategy, "fault", debug=True)


def heap_cap(proc, offset=0):
    heap = proc.layout.heap
    return Capability(
        base=heap.base, length=heap.size, cursor=heap.base + offset, perms=DATA_PERMS
    )


def sweep(system, pid):
    """Oracle: page-table sweep classifying the mappings in a process's region."""
    region = system.process(pid).region
    private, shared = [], []
    for va, entry in system.address_space.entries().items():
        if not region.contains(va):
            continue
        if entry.state is PageState.PRIVATE:
            private.append(va)
        else:
            shared.append((va, system.frames.by_id[entry.frame_id].mapcount))
    return sorted(private), sorted(shared)


class TestForkMapping:
    def test_copa_fork_copies_two_pages_and_aliases_the_rest(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child_pid = system.fork_engine.fork(parent.pid)
        private, shared = sweep(system, child_pid)
        assert len(private) == 2  # GOT + allocator metadata
        assert len(shared) == 8
        assert all(count == 2 for _, count in shared)
        eager = [e for e in system.fork_engine.events if e.eager]
        assert sorted(e.cause.value for e in eager) == ["EagerAllocMeta", "EagerGot"]

    def test_full_copy_shares_nothing(self):
        system = make_system("full")
        parent = system.create_initial_process()
        child_pid = system.fork_engine.fork(parent.pid)
        private, shared = sweep(system, child_pid)
        assert len(private) == 10 and not shared
        assert sum(1 for e in system.fork_engine.events if e.eager) == 10
        # The parent's own mappings stay untouched and private.
        parent_private, parent_shared = sweep(system, parent.pid)
        assert len(parent_private) == 10 and not parent_shared

    def test_parent_side_of_lazy_fork_is_write_protected_cow(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        system.fork_engine.fork(parent.pid)
        entry = system.address_space.entry_at(parent.layout.heap.base)
        assert entry.state is PageState.SHARED_COW
        assert not entry.writable and entry.state.cap_load

    def test_pcc_offset_is_preserved(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        parent.registers["pcc"] = parent.registers["pcc"].with_cursor(
            parent.layout.code_ro.base + 0x40
        )
        child = system.process(system.fork_engine.fork(parent.pid))
        pcc = child.registers["pcc"]
        assert child.region.contains_range(pcc.base, pcc.top)
        assert pcc.cursor - child.region.base == 0x40 + (
            parent.layout.code_ro.base - parent.region.base
        )

    def test_allocator_cursor_capability_is_relocated(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        entry = system.address_space.entry_at(child.layout.alloc_meta.base)
        cursor = system.frames.load_capability(system.frames.get(entry.frame_id), 0)
        assert cursor.tag
        assert child.layout.heap.contains(cursor.cursor)

    def test_fork_of_exited_process_fails(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        system.fork_engine.exit(parent.pid, 0)
        with pytest.raises(ProcessNotRunning):
            system.fork_engine.fork(parent.pid)


def seeded_parent(system):
    """Parent with two tagged refs in heap page 0 and data in page 1."""
    parent = system.create_initial_process()
    target = heap_cap(parent, PAGE_SIZE + 0x20)
    system.access(parent.pid, heap_cap(parent, 0), AccessKind.CAP_STORE, target)
    system.access(
        parent.pid, heap_cap(parent, GRANULE), AccessKind.CAP_STORE, target
    )
    system.access(
        parent.pid,
        heap_cap(parent, PAGE_SIZE + 0x20),
        AccessKind.WRITE,
        (4242).to_bytes(8, "little"),
    )
    return parent


class TestFaultResolution:

    def test_child_cap_load_copies_and_relocates_two_caps(self):
        system = make_system("copa")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        loaded = system.access(child.pid, heap_cap(child, 0), AccessKind.CAP_LOAD)
        events = [e for e in system.fork_engine.events if not e.eager]
        assert len(events) == 1
        assert events[0].cause is CopyCause.CAP_LOAD_FAULT
        assert events[0].relocations == 2
        assert child.region.contains(loaded.cursor)
        # Dereference through the relocated capability reads child memory.
        value = system.access(
            child.pid, loaded.with_cursor(loaded.cursor), AccessKind.READ_INT
        )
        assert value == 4242

    def test_parent_write_copies_without_relocation(self):
        system = make_system("copa")
        parent = seeded_parent(system)
        system.fork_engine.fork(parent.pid)
        system.access(
            parent.pid,
            heap_cap(parent, PAGE_SIZE + 0x100),
            AccessKind.WRITE,
            b"\x01" * 8,
        )
        events = [e for e in system.fork_engine.events if not e.eager]
        assert [e.cause for e in events] == [CopyCause.WRITE_FAULT]
        assert events[0].relocations == 0
        assert events[0].pid == parent.pid

    def test_child_plain_read_on_copa_page_is_free(self):
        system = make_system("copa")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        value = system.access(
            child.pid, heap_cap(child, PAGE_SIZE + 0x20), AccessKind.READ_INT
        )
        assert value == 4242
        assert [e for e in system.fork_engine.events if not e.eager] == []

    def test_coa_child_read_faults_and_copies(self):
        system = make_system("coa")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        value = system.access(
            child.pid, heap_cap(child, PAGE_SIZE + 0x20), AccessKind.READ_INT
        )
        assert value == 4242
        events = [e for e in system.fork_engine.events if not e.eager]
        assert [e.cause for e in events] == [CopyCause.ACCESS_FAULT]

    def test_unresolvable_under_full_copy(self):
        system = make_system("full")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        # Nothing is shared, so no page-level fault can be resolved.
        from sasfork.address_space import Fault

        fake = Fault(FaultKind.CAP_LOAD, child.pid, child.layout.heap.base, AccessKind.CAP_LOAD)
        with pytest.raises(UnresolvableFault):
            system.fork_engine.resolve_fault(fake)

    def test_promotion_relocates_for_a_surviving_child(self):
        # Parent writes first; the child becomes sole owner of the stale
        # frame and must see relocated capabilities after promotion.
        system = make_system("copa")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(parent.pid, heap_cap(parent, 8), AccessKind.WRITE, b"\x02" * 8)
        entry = system.address_space.entry_at(child.layout.heap.base)
        assert entry.state is PageState.PRIVATE  # promoted, not copied
        loaded = system.access(child.pid, heap_cap(child, 0), AccessKind.CAP_LOAD)
        assert loaded.tag and child.region.contains(loaded.cursor)
        # The promotion produced no copy event for the child.
        child_events = [e for e in system.fork_engine.events if e.pid == child.pid and not e.eager]
        assert child_events == []


class TestCopyEventValues:
    #: Each cause and whether fork made the copy: a new cause must be
    #: added here, which forces the decision.
    EAGER = {
        CopyCause.EAGER_GOT: True,
        CopyCause.EAGER_ALLOC_META: True,
        CopyCause.EAGER_FULL: True,
        CopyCause.WRITE_FAULT: False,
        CopyCause.ACCESS_FAULT: False,
        CopyCause.CAP_LOAD_FAULT: False,
    }

    def test_only_fork_copies_are_eager(self):
        assert {cause: cause.eager for cause in CopyCause} == self.EAGER
        for cause, eager in self.EAGER.items():
            assert CopyEvent(1, PAGE_SIZE, cause, 0, 0).eager is eager

    def test_copy_events_compare_and_hash_by_their_fields(self):
        event = CopyEvent(2, PAGE_SIZE, CopyCause.WRITE_FAULT, GRANULES_PER_PAGE, 1)
        same = CopyEvent(2, PAGE_SIZE, CopyCause.WRITE_FAULT, GRANULES_PER_PAGE, 1)
        assert event == same and hash(event) == hash(same)
        assert len({event, same}) == 1
        for other in (
            event._replace(pid=3),
            event._replace(page_va=2 * PAGE_SIZE),
            event._replace(cause=CopyCause.ACCESS_FAULT),
            event._replace(scanned=0),
            event._replace(relocations=0),
        ):
            assert other != event

    def test_a_lazy_copy_records_its_event_fields(self):
        system = make_system("copa")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(child.pid, heap_cap(child), AccessKind.CAP_LOAD)
        assert system.fork_engine.events[-1] == CopyEvent(
            child.pid, child.layout.heap.base, CopyCause.CAP_LOAD_FAULT, GRANULES_PER_PAGE, 2
        )


def resolve_counting_bisects(system, pid, cap, kind, payload, monkeypatch):
    """Take the fault of one access, then resolve it; returns the bisects
    of the reservations that the resolution made."""
    with pytest.raises(FaultError) as err:
        system.address_space.check_and_access(pid, cap, kind, payload)
    calls = []
    real = sasfork.address_space.bisect_right

    def bisect_right(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(sasfork.address_space, "bisect_right", bisect_right)
        system.fork_engine.resolve_fault(err.value.fault)
    return len(calls)


class TestOneLookupPerFault:
    """A lazy copy finds its page once, from the faulting pid's own
    reservation, and the one write (``remap``) finds it once more; only a
    promotion finds its survivor's reservation."""

    @pytest.mark.parametrize("children", [1, 2])
    @pytest.mark.parametrize(
        "strategy, kind, offset",
        [
            ("copa", AccessKind.WRITE, PAGE_SIZE + 8),
            ("coa", AccessKind.READ_INT, PAGE_SIZE + 0x20),
            ("copa", AccessKind.CAP_LOAD, 0),
        ],
    )
    def test_a_child_fault_on_its_own_heap(self, strategy, kind, offset, children, monkeypatch):
        system = make_system(strategy)
        parent = seeded_parent(system)
        child, *siblings = [
            system.process(system.fork_engine.fork(parent.pid)) for _ in range(children)
        ]
        payload = b"\x05" * 8 if kind is AccessKind.WRITE else None
        bisects = resolve_counting_bisects(
            system, child.pid, heap_cap(child, offset), kind, payload, monkeypatch
        )
        # With no sibling the copy leaves the parent's page alone on its
        # frame, and the parent's page is promoted.
        promoted = not siblings
        parent_page = parent.layout.heap.base + offset - offset % PAGE_SIZE
        state = system.address_space.entry_at(parent_page).state
        assert state is (PageState.PRIVATE if promoted else PageState.SHARED_COW)
        assert bisects <= 1 + promoted
        system.verify_invariants(full=True)

    def test_a_parent_write_after_two_forks(self, monkeypatch):
        system = make_system("copa")
        parent = seeded_parent(system)
        for _ in range(2):
            system.fork_engine.fork(parent.pid)
        cap = heap_cap(parent, PAGE_SIZE + 8)
        bisects = resolve_counting_bisects(
            system, parent.pid, cap, AccessKind.WRITE, b"\x05" * 8, monkeypatch
        )
        assert bisects <= 1
        system.verify_invariants(full=True)


class TestPromotionGuard:
    """A lazy copy promotes only when it leaves the old frame with one
    mapping."""

    def scenario(self):
        system = make_system("copa")
        parent = seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        return system, parent, child

    def test_a_copy_that_leaves_one_mapping_promotes_it(self, monkeypatch):
        system, parent, child = self.scenario()
        system.access(child.pid, heap_cap(child, PAGE_SIZE + 8), AccessKind.WRITE, b"\x05" * 8)
        entry = system.address_space.entry_at(parent.layout.heap.base + PAGE_SIZE)
        assert entry.state is PageState.PRIVATE and entry.writable
        # The unguarded path: the copy, then a promotion pass over the old
        # frame whatever mappings it has left.
        oracle, oracle_parent, oracle_child = self.scenario()
        space, real_promote = oracle.address_space, ForkEngine._promote
        old = oracle.frames.get(
            space.entry_at(oracle_parent.layout.heap.base + PAGE_SIZE).frame_id
        )
        with monkeypatch.context() as patch:
            patch.setattr(ForkEngine, "_promote", lambda engine, frames: None)
            oracle.access(
                oracle_child.pid,
                heap_cap(oracle_child, PAGE_SIZE + 8),
                AccessKind.WRITE,
                b"\x05" * 8,
            )
        real_promote(oracle.fork_engine, (old,))
        assert state_digest(system) == state_digest(oracle)
        system.verify_invariants(full=True)

    def test_a_copy_that_leaves_two_mappings_changes_nothing_else(self):
        system, parent, child = self.scenario()
        sibling = system.process(system.fork_engine.fork(parent.pid))
        space = system.address_space
        page = child.layout.heap.base + PAGE_SIZE
        old = space.entry_at(page).frame_id
        before = space.entries()
        log = ChangeLog()
        system.frames.logs.append(log)
        system.access(child.pid, heap_cap(child, PAGE_SIZE + 8), AccessKind.WRITE, b"\x05" * 8)
        after = space.entries()
        fresh = after.pop(page).frame_id
        del before[page]
        assert after == before
        assert log.frames == {old, fresh} and log.pids == []
        assert pages_by_frame(space)[old] == [
            parent.layout.heap.base + PAGE_SIZE,
            sibling.layout.heap.base + PAGE_SIZE,
        ]
        assert system.frames.get(old).mapcount == 2
        system.verify_invariants(full=True)


def store_to_code(system, pid, page_va):
    """A store of 8 bytes at code page ``page_va``, through a data capability
    over the page, raises the unresolved write fault and changes nothing."""
    cap = Capability(base=page_va, length=PAGE_SIZE, cursor=page_va, perms=DATA_PERMS)
    before = state_digest(system)
    with pytest.raises(FaultError) as err:
        system.access(pid, cap, AccessKind.WRITE, bytes(range(1, 9)))
    assert err.value.fault.kind is FaultKind.PAGE_WRITE
    assert state_digest(system) == before


class TestCodePagesRefuseStores:
    """Code pages are read-only in every state: no copy makes one writable."""

    def test_the_kernels_code_page(self):
        system = make_system("copa")
        store_to_code(system, KERNEL_PID, system.kernel_region.base)

    def test_a_root_process(self):
        system = make_system("copa")
        proc = system.create_initial_process()
        for va in proc.layout.code_ro.page_addresses():
            store_to_code(system, proc.pid, va)

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    def test_a_forked_child_before_and_after_its_first_copy_of_the_page(self, strategy):
        system = make_system(strategy)
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        space, code = system.address_space, child.layout.code_ro.base
        store_to_code(system, child.pid, code)
        if strategy != "full":
            assert space.entry_at(code).state is not PageState.PRIVATE
            # The first lazy copy of the page, as a resolvable fault makes it.
            fault = Fault(FaultKind.CAP_LOAD, child.pid, code, AccessKind.CAP_LOAD)
            assert system.fork_engine.resolve_fault(fault).page_va == code
        entry = space.entry_at(code)
        assert entry.state is PageState.PRIVATE and not entry.writable
        store_to_code(system, child.pid, code)

    @pytest.mark.parametrize("strategy", ["coa", "copa", "unsafe-cow"])
    def test_a_parent_whose_last_child_was_reaped(self, strategy):
        system = make_system(strategy)
        parent = system.create_initial_process()
        child = system.fork_engine.fork(parent.pid)
        code = parent.layout.code_ro.base
        store_to_code(system, parent.pid, code)
        system.fork_engine.exit(child, 0)
        assert system.fork_engine.wait(parent.pid) == (child, 0)
        # Promotion made the page private again, and still read-only.
        entry = system.address_space.entry_at(code)
        assert entry.state is PageState.PRIVATE and not entry.writable
        store_to_code(system, parent.pid, code)


class TestReadsInPlace:
    """A read keeps nothing per page; a first touch writes one row element."""

    def test_a_copa_child_reading_every_heap_page_keeps_no_entry_per_page(self):
        system = System("copa", "fault")
        parent = system.create_initial_process(LayoutSpec(heap_pages=4096))
        child = system.process(system.fork_engine.fork(parent.pid))
        heap = child.layout.heap
        caps = [Capability(heap.base, heap.size, va, DATA_PERMS) for va in heap.page_addresses()]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for cap in caps:
                assert system.access(child.pid, cap, AccessKind.READ_INT) == 0
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < 16 * len(caps)

    def test_a_coa_first_touch_remaps_once_and_unmaps_nothing(self, monkeypatch):
        system = make_system("coa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        remapped, unmapped = [], []
        real_remap = AddressSpace.remap

        def remap(space, page_va, frame_id, *args):
            remapped.append((page_va, frame_id))
            real_remap(space, page_va, frame_id, *args)

        monkeypatch.setattr(AddressSpace, "remap", remap)
        monkeypatch.setattr(AddressSpace, "unmap", lambda space, va: unmapped.append(va))
        assert system.access(child.pid, heap_cap(child), AccessKind.READ_INT) == 0
        assert unmapped == []
        ((page_va, copy),) = remapped
        entry = system.address_space.entry_at(page_va)
        assert page_va == child.layout.heap.base
        assert entry == PageTableEntry(copy, PageState.PRIVATE, True)


def retained(action):
    """The bytes still traced after ``action()`` and a collection, and what
    it returned."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = action()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


class TestMemoryPerPage:
    """A page costs its row elements and its frame, whatever the number of
    pages that map the frame."""

    def test_each_of_four_forks_retains_what_the_first_retains_per_page(self):
        system = make_system("copa")
        parent = system.create_initial_process(LayoutSpec(heap_pages=4096))
        pages = parent.region.page_count
        per_page = [
            retained(lambda: system.fork_engine.fork(parent.pid))[0] / pages for _ in range(4)
        ]
        # The fourth fork gives each frame its fifth mapper.
        assert per_page[0] > 0 and max(per_page) <= 1.1 * per_page[0], per_page

    def test_a_fresh_process_retains_under_450_bytes_per_page(self):
        system = make_system("copa")
        kept, proc = retained(
            lambda: system.create_initial_process(LayoutSpec(heap_pages=4096))
        )
        assert kept / proc.region.page_count < 450


class TestGotRelocation:
    @pytest.mark.parametrize("strategy", ["coa", "copa", "unsafe-cow"])
    def test_eager_got_copies_of_an_unchanged_parent_rebase_no_capability_one_by_one(
        self, strategy, monkeypatch
    ):
        system = make_system(strategy)
        engine = system.fork_engine
        # The event index each one-by-one rebase of a copy scan belongs to:
        # a copy's scan runs before its event is appended.
        rebased_for = []

        def counted(cap, parent, child):
            rebased_for.append(len(engine.events))
            return rebase_for_child(cap, parent, child)

        monkeypatch.setattr(tagged_memory, "rebase_for_child", counted)
        parent = system.create_initial_process()
        got_copies = []
        for _ in range(50):
            first = len(engine.events)
            child = engine.fork(parent.pid)
            (index,) = [
                i
                for i in range(first, len(engine.events))
                if engine.events[i].cause is CopyCause.EAGER_GOT
            ]
            got_copies.append((engine.events[index], rebased_for.count(index)))
            engine.exit(child, 0)
            engine.reap(system.process(child))
        # Every GOT capability lies in the parent, so each copy, the first
        # included, moves all 256 of them with its origin.
        for event, rebased in got_copies:
            assert rebased == 0
            assert (event.scanned, event.relocations) == (256, 256)
        system.verify_invariants()

    def test_the_copy_check_reports_the_lowest_granule_still_outside(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        frame = system.frames.allocate(origin=parent.region)
        stray = Capability(0x70_0000, GRANULE, 0x70_0000, DATA_PERMS)
        for granule in (9, 4, 7):
            system.frames.store_capability(frame, granule, stray)
        with pytest.raises(SimInternalError, match="granule 4 still targets"):
            system.fork_engine._verify_copy_clean(frame, parent.region)


#: A child that loads a parent reference and dereferences it.
LOAD_IN_CHILD = """
alloc a 4096
alloc b 4096
store_int b+0 7
store_ref a+0 b+0
fork {
  load_ref a+0
  deref
  exit 0
}
"""


def keep_old_origin(monkeypatch):
    """A broken scan: it relocates, then puts the frame's old origin back,
    so every relative capability reads as the parent's again."""
    scan = FrameTable.scan_and_relocate

    def broken(table, frame, parent, child):
        count = scan(table, frame, parent, child)
        frame.origin = parent
        return count

    monkeypatch.setattr(FrameTable, "scan_and_relocate", broken)


def escaping_copies(system):
    """Criterion 4's sweep of the copied frames, against the region of the
    pid that owns each copied page rather than the frame's origin: the
    tagged capabilities, read through ``load_capability``, that escape it."""
    found = []
    for event in system.fork_engine.events:
        entry = system.address_space.entry_at(event.page_va)
        if entry is None:
            continue
        frame = system.frames.get(entry.frame_id)
        region = system.process(system.address_space.owner_of(event.page_va)).region
        for granule in frame.tagged_granules():
            cap = system.frames.load_capability(frame, granule)
            if not region.contains_range(cap.base, cap.top):
                if not system.gateway.is_entry_capability(cap):
                    found.append((event.page_va, granule))
    return found


class TestCopyLeftAtItsOldOrigin:
    """The copy check reads only absolute entries, since a relative one lies
    in the copy's origin, which the scan makes the destination.  A copy that
    keeps its old origin breaks that premise; the ``--debug`` check and a
    sweep of the copies catch it."""

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa"])
    def test_the_debug_check_catches_it(self, strategy, monkeypatch):
        assert run(LOAD_IN_CHILD, strategy, "fault", debug=True).ok
        keep_old_origin(monkeypatch)
        with pytest.raises(SimInternalError, match="not for its row's region"):
            run(LOAD_IN_CHILD, strategy, "fault", debug=True)

    @pytest.mark.parametrize("full", [True, False], ids=["full-pass", "per-step"])
    def test_the_debug_checks_catch_a_relative_entry_outside_its_origin(self, full):
        system = make_system("copa")
        parent = system.create_initial_process()
        system.verify_invariants()
        frame = system.frames.get(system.address_space.entry_at(parent.layout.got.base).frame_id)
        # Stored again, so the per-step check's log holds the frame.
        system.frames.store_capability(frame, 0, system.frames.load_capability(frame, 0))
        cap = frame.relative[0]
        frame.relative[0] = cap._replace(cursor=frame.rel_base + parent.region.size)
        with pytest.raises(SimInternalError, match="keeps a relative capability"):
            system.verify_invariants(full=full)

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa"])
    def test_a_sweep_of_the_copies_catches_it(self, strategy, monkeypatch):
        def fork_and_load(system):
            parent = seeded_parent(system)
            child = system.process(system.fork_engine.fork(parent.pid))
            system.access(child.pid, heap_cap(child), AccessKind.CAP_LOAD)
            return escaping_copies(system)

        assert not fork_and_load(make_system(strategy))
        keep_old_origin(monkeypatch)
        escaped = fork_and_load(make_system(strategy))
        # The GOT copy, and the heap page the child loaded from.
        assert len({page_va for page_va, _ in escaped}) >= 2


class TestRetryGuard:
    def test_second_resolvable_fault_on_one_access_is_a_hard_error(self, monkeypatch):
        # A handler that resolves nothing leaves the retry faulting
        # again; the pipeline allows exactly one retry per access.
        system = make_system("copa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        monkeypatch.setattr(system.fork_engine, "resolve_fault", lambda fault: None)
        with pytest.raises(SimInternalError, match="second resolvable fault"):
            system.access(child.pid, heap_cap(child, 0), AccessKind.WRITE, b"\x01" * 8)

    def test_page_chunked_writes_resolve_one_page_at_a_time(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        straddling = heap_cap(child, PAGE_SIZE - 4)
        assert system.write_user_bytes(child.pid, straddling, b"\x01" * 8) == 8
        events = [e for e in system.fork_engine.events if not e.eager]
        assert len(events) == 2  # one copy per touched page


#: A child forks a grandchild and exits, and its parent reaps it while the
#: grandchild still runs; only then does the grandchild load a reference,
#: dereference it and store to a page it shares.
ORPHAN = """
alloc a 8192
alloc b 4096
store_int b+8 9
store_ref a+16 b+0
store_int a+4096 3
fork c nowait {
  fork g nowait {
    yield
    yield
    yield
    load_ref a+16
    deref 8
    expect 9
    store_int a+4096 5
    load_int a+4096
    expect 5
    exit 0
  }
  exit 0
}
wait
load_int a+4096
expect 3
"""


#: Four ``nowait`` workers of a 4096-page heap, each writing a page of its
#: own and one page that all of them write, and sharing the rest; the
#: parent writes a page they read, and reaps them in turn while the others
#: still run.
WIDE_WORKERS = "layout heap=4096\nalloc a 16384\nstore_int a+0 1\n" + "".join(
    f"fork nowait {{\n  store_int a+{w * 4096} {w}\n  store_int a+12288 {w}\n"
    f"  load_int a+8192\n  exit 0\n}}\n"
    for w in range(4)
) + "store_int a+8192 9\n" + "wait\n" * 4


class TestDerivedCounts:
    """A frame that every row of its family maps reads the row count as its
    ``mapcount``; the full debug pass, which counts every mapping, agrees
    after every step."""

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    def test_the_full_pass_holds_after_every_step(self, strategy, monkeypatch):
        from test_kernel import bench_workloads

        real_verify = System.verify_invariants
        steps = []

        def verify_invariants(system, **kwargs):
            real_verify(system, full=True)
            steps.append(len(system.address_space._rows))

        monkeypatch.setattr(System, "verify_invariants", verify_invariants)
        churn = bench_workloads().WORKLOADS["churn"].tiny_script(1)
        nested = GOLDEN["nested"][0]
        for text in (churn, ORPHAN, nested, WIDE_WORKERS):
            steps.clear()
            result = run(text, strategy, "fault", debug=True)
            assert result.ok and len(steps) > 10
            # Some step ran with a family of several rows.
            assert max(steps) >= 4


class TestNestedFork:
    def test_a_grandchild_outlives_its_reaped_parent(self):
        traces = set()
        for strategy in ("full", "coa", "copa"):
            result = run(ORPHAN, strategy, "fault", debug=True, audit=True)
            assert result.ok and result.audit.clean
            events = result.trace.events
            reap = next(seq for seq, e in enumerate(events) if e.stmt == "wait")
            load = next(seq for seq, e in enumerate(events) if e.stmt == "load_ref a+16")
            assert reap < load and events[load].pid == 3
            traces.add(result.trace.to_text())
        assert len(traces) == 1

    def test_grandchild_relocation_uses_frame_origin(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        target = heap_cap(parent, PAGE_SIZE + 0x40)
        system.access(parent.pid, heap_cap(parent, 0), AccessKind.CAP_STORE, target)
        system.access(
            parent.pid,
            heap_cap(parent, PAGE_SIZE + 0x40),
            AccessKind.WRITE,
            (777).to_bytes(8, "little"),
        )
        child = system.process(system.fork_engine.fork(parent.pid))
        # The child never touches the ref page, then forks again.
        grandchild = system.process(system.fork_engine.fork(child.pid))
        loaded = system.access(
            grandchild.pid, heap_cap(grandchild, 0), AccessKind.CAP_LOAD
        )
        assert loaded.tag
        assert grandchild.region.contains(loaded.cursor)
        value = system.access(grandchild.pid, loaded, AccessKind.READ_INT)
        assert value == 777


#: Four ``nowait`` workers of a 4096-page parent: every frame they share
#: has five mappers until the parent waits.
FIVE_MAPPERS = (
    "layout heap=4096\nalloc a 20480\nstore_int a+0 7\nstore_ref a+16 a+0\n"
    + "".join(
        "fork nowait {\n  load_ref a+16\n  deref\n  expect 7\n"
        f"  store_int a+{page * PAGE_SIZE} {page}\n  exit 0\n}}\n"
        for page in range(1, 5)
    )
    + "wait\n" * 4
    + "load_int a+4096\nexpect 0\n"
)


class TestFiveMappers:
    def test_the_checks_hold_and_every_strategy_agrees(self, tmp_path, capsys, monkeypatch):
        script = tmp_path / "five.sas"
        script.write_text(FIVE_MAPPERS)
        real_after_step = _Interpreter._after_step
        most = []

        def after_step(interp):
            real_after_step(interp)
            most.append(max(f.mapcount for f in interp.system.frames.by_id.values()))

        monkeypatch.setattr(_Interpreter, "_after_step", after_step)
        for strategy in ("coa", "copa"):
            most.clear()
            args = ["run", str(script), "--strategy", strategy, "--debug", "--audit", "--no-trace"]
            assert main(args) == 0
            assert max(most) == 5 and most[-1] == 1
        assert main(["compare", str(script)]) == 0
        capsys.readouterr()
        assert main(["run", str(script), "--strategy", "unsafe-cow", "--debug", "--audit"]) == 0
        assert "violation(s)" in capsys.readouterr().out


class TestExitWait:
    def test_fork_exit_wait_round_trip(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child_pid = system.fork_engine.fork(parent.pid)
        system.fork_engine.exit(child_pid, 7)
        assert system.fork_engine.wait(parent.pid) == (child_pid, 7)
        assert child_pid not in system.unreaped_pids

    def test_wait_with_no_children(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        with pytest.raises(NoChildren):
            system.fork_engine.wait(parent.pid)

    def test_wait_blocks_until_a_child_exits(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child_pid = system.fork_engine.fork(parent.pid)
        assert system.fork_engine.wait(parent.pid) is None
        system.fork_engine.exit(child_pid, 1)
        assert system.fork_engine.wait(parent.pid) == (child_pid, 1)

    def test_reap_frees_child_frames_without_leaks(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        frames_before = len(system.frames.by_id)
        child_pid = system.fork_engine.fork(parent.pid)
        child = system.process(child_pid)
        system.access(child.pid, heap_cap(child, 0), AccessKind.WRITE, b"\x09" * 8)
        system.fork_engine.exit(child_pid, 0)
        # Zombie mappings persist until the reap.
        assert system.metrics.prs_bytes(child_pid) > 0
        system.fork_engine.wait(parent.pid)
        assert system.metrics.prs_bytes(child_pid) == 0
        assert len(system.frames.by_id) == frames_before
        # Parent pages all promoted back to private.
        private, shared = sweep(system, parent.pid)
        assert len(private) == 10 and not shared
        system.verify_invariants()

    def test_reap_of_a_running_or_reaped_process_changes_nothing(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        running = system.process(system.fork_engine.fork(parent.pid))
        reaped = system.process(system.fork_engine.fork(parent.pid))
        system.fork_engine.exit(reaped.pid, 0)
        assert system.fork_engine.wait(parent.pid) == (reaped.pid, 0)

        def kernel_tables():
            pid_table = {pid: system.stored_pid(pid) for pid in system.unreaped_pids}
            pages = {
                va: (entry.frame_id, entry.state, entry.writable)
                for va, entry in system.address_space.entries().items()
            }
            return pid_table, system.peek_bytes(system._kernel_data_va, PAGE_SIZE), pages

        before = kernel_tables()
        for proc in (parent, running, reaped):
            with pytest.raises(ProcessNotRunning):
                system.fork_engine.reap(proc)
            assert kernel_tables() == before
        system.verify_invariants()

    def test_earliest_exited_child_is_reaped_first(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        first = system.fork_engine.fork(parent.pid)
        second = system.fork_engine.fork(parent.pid)
        system.fork_engine.exit(second, 2)
        system.fork_engine.exit(first, 1)
        assert system.fork_engine.wait(parent.pid) == (second, 2)
        assert system.fork_engine.wait(parent.pid) == (first, 1)


class TestDominance:
    def test_copy_count_ordering_on_a_fixed_workload(self):
        totals = {}
        for strategy in ("copa", "coa", "full"):
            system = make_system(strategy)
            parent = system.create_initial_process()
            target = heap_cap(parent, 2 * PAGE_SIZE)
            system.access(parent.pid, heap_cap(parent, 0), AccessKind.CAP_STORE, target)
            child = system.process(system.fork_engine.fork(parent.pid))
            system.access(child.pid, heap_cap(child, 0), AccessKind.CAP_LOAD)
            system.access(
                child.pid, heap_cap(child, PAGE_SIZE), AccessKind.READ_INT
            )
            system.access(
                child.pid, heap_cap(child, 3 * PAGE_SIZE), AccessKind.WRITE, b"\x01" * 8
            )
            totals[strategy] = len(system.fork_engine.events)
        assert totals["copa"] <= totals["coa"] <= totals["full"]
        assert totals["copa"] < totals["full"]


def fork_cost_of(system, pid):
    return system.metrics.snapshot().row(pid).fork_cost


def eager_of(system, pid):
    return system.metrics.snapshot().row(pid).eager_pages_copied


class TestBatchedPaths:
    # (fork_cost, PTE writes) of a first fork, a second fork of the same
    # parent and a grandchild fork on the default ten-page layout.  PTE
    # writes are the cost left after 512 + 256 per eager page.
    @pytest.mark.parametrize(
        "strategy, frozen",
        [
            ("full", [(7690, 10), (7690, 10), (7690, 10)]),
            ("coa", [(1554, 18), (1546, 10), (1546, 10)]),
            ("copa", [(1554, 18), (1546, 10), (1546, 10)]),
            ("unsafe-cow", [(1554, 18), (1546, 10), (1546, 10)]),
        ],
    )
    def test_fork_cost_and_pte_writes_are_frozen(self, strategy, frozen):
        system = make_system(strategy)
        parent = system.create_initial_process()

        def fork_from(pid):
            before = fork_cost_of(system, pid)
            child = system.fork_engine.fork(pid)
            cost = fork_cost_of(system, pid) - before
            return child, (cost, cost - 768 * eager_of(system, child))

        first, first_cost = fork_from(parent.pid)
        _, second_cost = fork_from(parent.pid)
        _, grandchild_cost = fork_from(first)
        assert [first_cost, second_cost, grandchild_cost] == frozen
        system.verify_invariants()

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    @pytest.mark.parametrize("sub", ["got", "heap"])
    def test_fork_of_a_parent_with_an_unmapped_page_is_an_internal_error(
        self, strategy, sub
    ):
        system = make_system(strategy)
        parent = system.create_initial_process()
        system.address_space.unmap(getattr(parent.layout, sub).base)
        with pytest.raises(SimInternalError, match="unmapped at fork"):
            system.fork_engine.fork(parent.pid)

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    def test_a_fork_that_raises_changes_nothing(self, strategy, monkeypatch):
        system = make_system(strategy)
        parent = system.create_initial_process(LayoutSpec(heap_pages=2))
        space, engine, frames = system.address_space, system.fork_engine, system.frames
        # The GOT and allocator page come first, so a lazy fork copies them
        # before its share pass reaches the unmapped page; a full fork
        # copies the five pages before it.
        space.unmap(parent.layout.heap.end - PAGE_SIZE)
        # Regions are bump-allocated, so the child's region would start here.
        child_base = parent.region.end
        cloned = []
        real_clone = FrameTable.clone

        def clone(table, frame_id):
            fresh = real_clone(table, frame_id)
            cloned.append(fresh.frame_id)
            return fresh

        monkeypatch.setattr(FrameTable, "clone", clone)

        before = state_digest(system)
        with pytest.raises(SimInternalError, match="unmapped at fork"):
            engine.fork(parent.pid)
        assert len(cloned) == (5 if strategy == "full" else 2)
        assert state_digest(system) == before
        assert space.owner_of(child_base) is None
        assert space.reserve_region(PAGE_SIZE).base == child_base
        assert system.allocate_pid() == parent.pid + 1
        # Frame ids are never reused.
        assert frames.allocate().frame_id > max(cloned)

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    def test_a_refused_reservation_hands_the_pid_back(self, strategy, monkeypatch):
        system = make_system(strategy)
        parent = system.create_initial_process()
        # Room for the kernel and the parent, and not for a child.
        limit = parent.region.end + parent.region.size - PAGE_SIZE
        monkeypatch.setattr(sasfork.address_space, "VIRTUAL_SPACE_LIMIT", limit)
        before, next_pid = state_digest(system), system._next_pid
        with pytest.raises(AddressSpaceExhausted):
            system.fork_engine.fork(parent.pid)
        with pytest.raises(AddressSpaceExhausted):
            system.create_initial_process()
        assert system._next_pid == next_pid
        assert state_digest(system) == before
        system.verify_invariants(full=True)

    @pytest.mark.parametrize(
        "strategy, lazy",
        [("full", False), ("coa", False), ("copa", False), ("coa", True), ("copa", True)],
    )
    def test_a_relocation_scan_that_raises_frees_the_copy(self, strategy, lazy, monkeypatch):
        system = make_system(strategy)
        parent = seeded_parent(system)
        if lazy:
            child = system.process(system.fork_engine.fork(parent.pid))
        system.verify_invariants(full=True)

        def scan_and_relocate(table, frame, parent_region, child_region):
            raise SimInternalError("scan raised")

        monkeypatch.setattr(FrameTable, "scan_and_relocate", scan_and_relocate)
        frames, before = sorted(system.frames.by_id), state_digest(system)
        with pytest.raises(SimInternalError, match="scan raised"):
            if lazy:
                system.access(child.pid, heap_cap(child), AccessKind.CAP_LOAD)
            else:
                system.fork_engine.fork(parent.pid)
        assert sorted(system.frames.by_id) == frames
        assert state_digest(system) == before
        system.verify_invariants(full=True)

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    def test_reap_drops_every_page_of_the_region_from_the_frame_index(self, strategy):
        system = make_system(strategy)
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(child.pid, heap_cap(child, 0), AccessKind.WRITE, b"\x05" * 8)
        grandchild = system.fork_engine.fork(child.pid)
        system.fork_engine.exit(child.pid, 0)
        system.fork_engine.reap(child)
        space = system.address_space
        indexed = [va for _, va in space.mappers(system.frames.by_id)]
        assert not any(child.region.contains(va) for va in indexed)
        assert sorted(indexed) == list(space.entries())
        assert sum(frame.mapcount for frame in system.frames.by_id.values()) == len(indexed)
        system.verify_invariants(full=True)
        assert system.metrics.prs_bytes(child.pid) == 0
        assert system.metrics.prs_bytes(grandchild) > 0
        system.verify_invariants()

    @pytest.mark.parametrize("strategy", ["coa", "copa", "unsafe-cow"])
    def test_reaping_the_last_of_four_children_restores_the_parent(self, strategy):
        system = make_system(strategy)
        parent = system.create_initial_process()
        children = [system.fork_engine.fork(parent.pid) for _ in range(4)]
        for pid in children:
            system.fork_engine.exit(pid, 0)
        for pid in children[:3]:
            system.fork_engine.reap(system.process(pid))
            assert sweep(system, parent.pid)[1]  # still shared with the last
        system.fork_engine.reap(system.process(children[3]))
        for va in parent.region.page_addresses():
            entry = system.address_space.entry_at(va)
            assert entry.state is PageState.PRIVATE
            assert entry.writable is not parent.layout.code_ro.contains(va)
            assert entry.state.cap_load
            assert system.frames.by_id[entry.frame_id].mapcount == 1
        assert not system.address_space.entry_at(parent.layout.code_ro.base).writable
        system.verify_invariants()


def promote_one_frame(engine, frame):
    """Oracle: promotion of one frame, one lookup at a time.

    A frame left with one mapping goes back to private access, after an
    in-place relocation when the survivor's region is not the frame's
    origin.
    """
    if frame.mapcount != 1:
        return
    system = engine._sys
    space = system.address_space
    (page_va,) = pages_by_frame(space)[frame.frame_id]
    if space.entry_at(page_va).state is PageState.PRIVATE:
        return
    owner = next(p for p in system.processes.values() if p.region.contains(page_va))
    if frame.origin != owner.region:
        relocations = system.frames.scan_and_relocate(frame, frame.origin, owner.region)
        system.metrics.record_scan(owner.pid, GRANULES_PER_PAGE, relocations)
        frame.origin = owner.region
    row = space._row_at(page_va)
    row.states[(page_va - row.base) // PAGE_SIZE] = PageState.PRIVATE


def promotion_state(system):
    """What promotion may change: entries, frames and the scan rows."""
    entries = {
        va: (entry.state, entry.writable)
        for va, entry in system.address_space.entries().items()
    }
    frames = {
        frame_id: (frame.origin, frame.entries(), bytes(frame.data))
        for frame_id, frame in system.frames.by_id.items()
    }
    rows = [
        (row.pid, row.granules_scanned, row.caps_relocated)
        for row in system.metrics.snapshot().rows
    ]
    return entries, frames, rows


class TestBatchedPromotion:
    """``ForkEngine._promote`` leaves what one-frame promotion leaves."""

    def both(self, monkeypatch, scenario):
        """The scenario's end state under the batched pass, then the oracle."""
        batched = scenario()
        with monkeypatch.context() as patched:
            patched.setattr(
                ForkEngine,
                "_promote",
                lambda engine, frames: [promote_one_frame(engine, f) for f in frames],
            )
            oracle = scenario()
        return batched, oracle

    def test_reaping_the_last_of_four_nowait_workers(self, monkeypatch):
        def scenario():
            # Four workers forked before any is waited for, as a run of
            # `fork nowait` blocks does; each dereferences the parent's
            # reference and writes a page of its own.
            system = make_system("copa")
            parent = seeded_parent(system)
            engine = system.fork_engine
            workers = [system.process(engine.fork(parent.pid)) for _ in range(4)]
            for worker in workers:
                ref = system.access(worker.pid, heap_cap(worker), AccessKind.CAP_LOAD)
                assert system.access(worker.pid, ref, AccessKind.READ_INT) == 4242
                system.access(
                    worker.pid, heap_cap(worker, 2 * PAGE_SIZE), AccessKind.WRITE, b"\x01"
                )
                engine.exit(worker.pid, 0)
            for _ in workers:
                engine.wait(parent.pid)
            system.verify_invariants()
            return system, parent

        (batched, parent), (oracle, _) = self.both(monkeypatch, scenario)
        assert promotion_state(batched) == promotion_state(oracle)
        for va in parent.region.page_addresses():
            entry = batched.address_space.entry_at(va)
            assert entry.state is PageState.PRIVATE
            assert entry.writable is not parent.layout.code_ro.contains(va)

    def test_a_survivor_in_a_child_region_is_relocated_in_place(self, monkeypatch):
        def scenario():
            system = make_system("copa")
            parent = seeded_parent(system)
            child = system.process(system.fork_engine.fork(parent.pid))
            grandchild = system.process(system.fork_engine.fork(child.pid))
            # The parent copies its heap page away; the frame it leaves,
            # laid out for the parent's region, is shared by the child
            # and the grandchild until the grandchild is reaped.
            system.access(parent.pid, heap_cap(parent, 8), AccessKind.WRITE, b"\x02" * 8)
            system.fork_engine.exit(grandchild.pid, 0)
            system.fork_engine.reap(grandchild)
            system.verify_invariants()
            return system, child

        (batched, child), (oracle, _) = self.both(monkeypatch, scenario)
        assert promotion_state(batched) == promotion_state(oracle)
        entry = batched.address_space.entry_at(child.layout.heap.base)
        frame = batched.frames.get(entry.frame_id)
        assert entry.state is PageState.PRIVATE and entry.writable
        assert frame.origin == child.region
        cursors = [cap.cursor for _, cap in frame.tagged_caps()]
        assert len(cursors) == 2 and all(child.region.contains(c) for c in cursors)

    def test_a_frame_cannot_map_two_pages_of_one_region(self):
        # Every page of a frame lies at one page index of one fork family's
        # reservations, so no teardown meets a frame twice, and a frame it
        # lists as a survivor still has its one mapping at promotion.
        system = make_system("copa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        stack = child.layout.stack
        space = system.address_space
        for va in stack.page_addresses():
            # The child's write copies the page, so unmapping it frees the
            # copy and leaves the parent's frame private.
            cap = Capability(stack.base, stack.size, va, DATA_PERMS)
            system.access(child.pid, cap, AccessKind.WRITE, b"\x03" * 8)
            space.unmap(va)
        frame = system.frames.allocate(origin=parent.region)
        system.frames.store_capability(frame, 0, heap_cap(parent))
        space.map(stack.base, frame.frame_id, PageState.SHARED_COPA)
        before = state_digest(system)
        with pytest.raises(SimInternalError, match="another index or in another fork family"):
            space.map(stack.base + PAGE_SIZE, frame.frame_id, PageState.SHARED_COPA)
        assert state_digest(system) == before
        assert frame.mapcount == 1 and space.entry_at(stack.base + PAGE_SIZE) is None


# -- laziness against the per-page share pass as the oracle ----------------------

LAZY_STRATEGIES = ("coa", "copa", "unsafe-cow")
ORACLE_SCRIPTS = {name: text for name, (text, _) in GOLDEN.items()} | GEN_SLICE
CHILD_STATE = {
    "coa": PageState.SHARED_COA,
    "copa": PageState.SHARED_COPA,
    "unsafe-cow": PageState.SHARED_COW,
}


def rows(space):
    """The expanded entries, as plain values."""
    return {va: (e.frame_id, e.state, e.writable) for va, e in space.entries().items()}


def per_page_pass(before, after, parent, child, strategy):
    """The entries a per-page share pass installs, computed from the rows
    taken just before the fork; an eager copy's fresh frame id is read
    from ``after`` and must be new."""
    expected = dict(before)
    delta = child.region.base - parent.region.base
    eager = {*parent.layout.got.page_addresses(), *parent.layout.alloc_meta.page_addresses()}
    old_frames = {frame_id for frame_id, _, _ in before.values()}
    for va in parent.region.page_addresses():
        frame_id, state, _ = before[va]
        child_va = va + delta
        if va in eager:
            fresh = after[child_va][0]
            assert fresh not in old_frames
            writable = not child.layout.code_ro.contains(child_va)
            expected[child_va] = (fresh, PageState.PRIVATE, writable)
        else:
            expected[child_va] = (frame_id, CHILD_STATE[strategy], False)
            if state is PageState.PRIVATE:
                expected[va] = (frame_id, PageState.SHARED_COW, False)
    return expected


def run_oracle_scripts(strategy, monkeypatch):
    for name, text in ORACLE_SCRIPTS.items():
        with monkeypatch.context() as patch:
            if name == "eagain":
                patch.setattr(sasfork.system, "PID_SLOTS", 4)
            run(text, strategy, "fault")


@pytest.mark.parametrize("strategy", LAZY_STRATEGIES)
def test_entries_after_each_fork_are_those_of_the_per_page_pass(strategy, monkeypatch):
    real_fork = ForkEngine.fork
    checked = []

    def fork(engine, parent_pid):
        system = engine._sys
        space, parent = system.address_space, system.process(parent_pid)
        before = rows(space)
        child_pid = real_fork(engine, parent_pid)
        after = rows(space)
        child = system.process(child_pid)
        assert after == per_page_pass(before, after, parent, child, strategy)
        checked.append(child_pid)
        return child_pid

    monkeypatch.setattr(ForkEngine, "fork", fork)
    run_oracle_scripts(strategy, monkeypatch)
    assert len(checked) > 10


@pytest.mark.parametrize("name", sorted(ORACLE_SCRIPTS))
def test_state_digests_agree_at_every_step(name, monkeypatch):
    """Two runs of a script in one process reach the same state after every
    step, with byte-identical trace, report and audit."""
    text = ORACLE_SCRIPTS[name]
    if name == "eagain":
        monkeypatch.setattr(sasfork.system, "PID_SLOTS", 4)
    real_after_step = _Interpreter._after_step
    steps = []

    def after_step(interp):
        real_after_step(interp)
        steps[-1].append(state_digest(interp.system))

    monkeypatch.setattr(_Interpreter, "_after_step", after_step)
    for strategy in LAZY_STRATEGIES:
        outputs = []
        for _ in range(2):
            steps.append([])
            result = run(text, strategy, "fault", debug=True, audit=True)
            outputs.append(
                (result.trace.to_text(), result.report.to_text(), result.audit.to_text())
            )
        assert len(steps[-1]) > 1
        assert steps[-2] == steps[-1], strategy
        assert outputs[0] == outputs[1], strategy
