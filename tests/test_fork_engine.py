"""Fork strategies, lazy-copy resolution, and exit/wait semantics."""

import pytest

from sasfork.address_space import AccessKind, FaultKind, PageState, PageTableEntry
from sasfork.capability import DATA_PERMS, GRANULE, PAGE_SIZE, Capability
from sasfork.errors import (
    DoubleMap,
    NoChildren,
    ProcessNotRunning,
    SimInternalError,
    UnresolvableFault,
)
from sasfork.fork_engine import CopyCause
from sasfork.process import Status
from sasfork.system import System


def make_system(strategy):
    return System(strategy, "fault", debug=True)


def heap_cap(proc, offset=0):
    heap = proc.layout.heap
    return Capability(
        base=heap.base, length=heap.size, cursor=heap.base + offset, perms=DATA_PERMS
    )


def sweep(system, pid):
    """Oracle: page-table sweep classifying a process's mappings."""
    private, shared = [], []
    for va, entry in system.address_space.entries().items():
        if entry.owner_pid != pid:
            continue
        if entry.state is PageState.PRIVATE:
            private.append(va)
        else:
            shared.append((va, system.frames.refcount(entry.frame_id)))
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


class TestFaultResolution:
    def seeded_parent(self, system):
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

    def test_child_cap_load_copies_and_relocates_two_caps(self):
        system = make_system("copa")
        parent = self.seeded_parent(system)
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
        parent = self.seeded_parent(system)
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
        parent = self.seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        value = system.access(
            child.pid, heap_cap(child, PAGE_SIZE + 0x20), AccessKind.READ_INT
        )
        assert value == 4242
        assert [e for e in system.fork_engine.events if not e.eager] == []

    def test_coa_child_read_faults_and_copies(self):
        system = make_system("coa")
        parent = self.seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        value = system.access(
            child.pid, heap_cap(child, PAGE_SIZE + 0x20), AccessKind.READ_INT
        )
        assert value == 4242
        events = [e for e in system.fork_engine.events if not e.eager]
        assert [e.cause for e in events] == [CopyCause.ACCESS_FAULT]

    def test_unresolvable_under_full_copy(self):
        system = make_system("full")
        parent = self.seeded_parent(system)
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
        parent = self.seeded_parent(system)
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(parent.pid, heap_cap(parent, 8), AccessKind.WRITE, b"\x02" * 8)
        entry = system.address_space.entry_at(child.layout.heap.base)
        assert entry.state is PageState.PRIVATE  # promoted, not copied
        loaded = system.access(child.pid, heap_cap(child, 0), AccessKind.CAP_LOAD)
        assert loaded.tag and child.region.contains(loaded.cursor)
        # The promotion produced no copy event for the child.
        child_events = [e for e in system.fork_engine.events if e.pid == child.pid and not e.eager]
        assert child_events == []


class TestRetryGuard:
    def test_second_resolvable_fault_on_one_access_is_a_hard_error(self):
        # A raw write spanning two shared pages needs two resolutions;
        # the pipeline allows exactly one retry per access.
        from sasfork.errors import SimInternalError

        system = make_system("copa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        straddling = heap_cap(child, PAGE_SIZE - 4)
        with pytest.raises(SimInternalError):
            system.access(child.pid, straddling, AccessKind.WRITE, b"\x01" * 8)

    def test_page_chunked_writes_resolve_one_page_at_a_time(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        straddling = heap_cap(child, PAGE_SIZE - 4)
        assert system.write_user_bytes(child.pid, straddling, b"\x01" * 8) == 8
        events = [e for e in system.fork_engine.events if not e.eager]
        assert len(events) == 2  # one copy per touched page


class TestNestedFork:
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


class TestExitWait:
    def test_fork_exit_wait_round_trip(self):
        system = make_system("copa")
        parent = system.create_initial_process()
        child_pid = system.fork_engine.fork(parent.pid)
        system.fork_engine.exit(child_pid, 7)
        assert system.fork_engine.wait(parent.pid) == (child_pid, 7)
        assert system.process(child_pid).status is Status.REAPED

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
        frames_before = len(system.frames.live_frames)
        child_pid = system.fork_engine.fork(parent.pid)
        child = system.process(child_pid)
        system.access(child.pid, heap_cap(child, 0), AccessKind.WRITE, b"\x09" * 8)
        system.fork_engine.exit(child_pid, 0)
        # Zombie mappings persist until the reap.
        assert system.metrics.prs_bytes(child_pid) > 0
        system.fork_engine.wait(parent.pid)
        assert system.metrics.prs_bytes(child_pid) == 0
        assert len(system.frames.live_frames) == frames_before
        # Parent pages all promoted back to private.
        private, shared = sweep(system, parent.pid)
        assert len(private) == 10 and not shared
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
    return system.metrics.snapshot(pid).rows[0].fork_cost


def eager_of(system, pid):
    return system.metrics.snapshot(pid).rows[0].eager_pages_copied


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

    @pytest.mark.parametrize("strategy", ["coa", "copa", "unsafe-cow"])
    def test_shared_install_onto_a_mapped_child_page_is_a_double_map(self, strategy):
        system = make_system(strategy)
        parent = system.create_initial_process()
        # Regions are bump-allocated, so the child's region starts here.
        squatter = parent.region.end + (parent.layout.heap.base - parent.region.base)
        frame = system.frames.allocate()
        system.address_space.map(
            squatter,
            PageTableEntry(frame.frame_id, PageState.PRIVATE, True, 0),
        )
        with pytest.raises(DoubleMap):
            system.fork_engine.fork(parent.pid)

    @pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
    def test_reap_drops_every_page_of_the_region_from_the_frame_index(self, strategy):
        system = make_system(strategy)
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(child.pid, heap_cap(child, 0), AccessKind.WRITE, b"\x05" * 8)
        grandchild = system.fork_engine.fork(child.pid)
        system.fork_engine.exit(child.pid, 0)
        system.fork_engine.reap(child)
        indexed = {
            va for frame in system.frames.live_frames.values() for va in frame.pages
        }
        assert not any(child.region.contains(va) for va in indexed)
        assert indexed == set(system.address_space.entries())
        system.address_space.verify_refcounts()
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
            assert entry.writable == parent.layout.page_writable(va)
            assert entry.state.cap_load
            assert system.frames.refcount(entry.frame_id) == 1
        assert not parent.layout.page_writable(parent.layout.code_ro.base)
        system.verify_invariants()
