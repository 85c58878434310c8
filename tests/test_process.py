"""Process creation postconditions and POSIX descriptor semantics."""

import pytest

from sasfork.capability import GRANULES_PER_PAGE, PAGE_SIZE, Perm
from sasfork.errors import BadFd
from sasfork.process import FileKind, LayoutSpec
from sasfork.system import PID_SLOTS, System
from sasfork.workload import run


@pytest.fixture
def system():
    return System("copa", "fault", debug=True)


class TestCreation:
    def test_default_layout_maps_ten_private_pages(self, system):
        proc = system.create_initial_process()
        # Oracle: sweep the page table for entries owned by this pid.
        owned = [
            va
            for va, entry in system.address_space.entries().items()
            if entry.owner_pid == proc.pid
        ]
        assert len(owned) == 10
        assert sorted(owned) == list(proc.region.page_addresses())

    def test_got_granules_all_tagged_and_inside_region(self, system):
        proc = system.create_initial_process()
        for page_va in proc.layout.got.page_addresses():
            entry = system.address_space.entry_at(page_va)
            frame = system.frames.get(entry.frame_id)
            assert all(frame.tags), "every GOT granule carries a capability"
            for granule in range(GRANULES_PER_PAGE):
                cap = system.frames.load_capability(frame, granule)
                assert cap.tag
                assert proc.region.contains_range(cap.base, cap.top)

    def test_pcc_lacks_system_permission(self, system):
        proc = system.create_initial_process()
        pcc = proc.registers["pcc"]
        assert pcc.perms & Perm.EXEC
        assert not (pcc.perms & Perm.SYSTEM)

    def test_registers_bounded_to_region(self, system):
        proc = system.create_initial_process()
        for location, cap in proc.register_caps():
            if location.startswith("entry:"):
                continue  # sealed kernel entries legitimately point elsewhere
            assert proc.region.contains_range(cap.base, cap.top), location

    def test_custom_layout_size(self, system):
        spec = LayoutSpec(heap_pages=16)
        proc = system.create_initial_process(spec)
        assert proc.region.page_count == spec.total_pages
        assert proc.layout.heap.size == 16 * PAGE_SIZE

    def test_pids_are_unique_and_never_reused(self, system):
        pids = [system.create_initial_process().pid for _ in range(5)]
        assert len(set(pids)) == 5
        assert pids == sorted(pids)

    def test_pid_is_kernel_side_state(self, system):
        proc = system.create_initial_process()
        assert system.stored_pid(proc.pid) == proc.pid
        entry = system.gateway.entries["getpid"]
        assert system.gateway.syscall(proc.pid, entry, "getpid", {}) == proc.pid

    def test_pid_table_slots_are_reused_after_reap(self):
        system = System("copa", "fault")
        small = LayoutSpec(code_pages=1, heap_pages=1, stack_pages=1)
        root = system.create_initial_process(small)
        engine, getpid = system.fork_engine, system.gateway.entries["getpid"]
        for _ in range(600):
            child = engine.fork(root.pid)
            assert system.gateway.syscall(child, getpid, "getpid", {}) == child
            engine.exit(child, 0)
            assert engine.wait(root.pid) == (child, 0)
        assert child == 601
        assert system.gateway.syscall(root.pid, getpid, "getpid", {}) == 1
        assert system.stored_pid(root.pid) == 1

    def test_fork_with_every_pid_slot_held_is_eagain(self):
        held = PID_SLOTS - 1  # the root holds one slot
        text = "layout code=1 heap=1 stack=1\n" + "fork nowait {\nexit 0\n}\n" * (held + 1)
        text += "fork {\nexit 0\n}\n" + "wait\n" * held + "fork {\nexit 0\n}\n"
        events = run(text, "copa").trace.events
        forks = [e.result for e in events if e.pid == 1 and e.stmt.startswith("fork")]
        assert forks[:held] == [str(pid) for pid in range(2, held + 2)]
        assert forks[held : held + 2] == ["EAGAIN", "EAGAIN"]
        # Once the children are reaped their slots take new processes.
        assert forks[held + 2 :] == [str(held + 2)]
        # A refused fork writes one event, the parent's, and no child's.
        refused = [e.seq for e in events if e.result == "EAGAIN"]
        assert [(events[i].pid, events[i].stmt) for i in refused] == [
            (1, "fork nowait"),
            (1, "fork"),
        ]
        assert refused[1] == refused[0] + 1
        child_forks = [e for e in events if e.pid != 1 and e.stmt.startswith("fork")]
        assert [e.pid for e in child_forks] == list(range(2, held + 3))
        # The refused plain fork inserted no implicit wait: the explicit
        # waits plus the one after the last fork, then the root's exit.
        waits = [e.result for e in events if e.pid == 1 and e.stmt == "wait"]
        assert len(waits) == held + 1 and "NoChildren" not in waits
        assert events[-1].pid == 1 and events[-1].stmt == "exit 0"

    def test_instruction_fetch_through_pcc(self, system):
        from sasfork.address_space import AccessKind

        proc = system.create_initial_process()
        word = system.access(proc.pid, proc.registers["pcc"], AccessKind.EXEC)
        assert isinstance(word, int)


class TestFileDescriptors:
    def test_dup_table_shares_objects(self, system):
        parent = system.create_initial_process()
        fd = system.files.open(parent, "shared")
        assert fd == 3
        table = system.files.dup_fd_table(parent)
        assert table == {3: parent.fd_table[3]}
        assert system.files.refcount(parent.fd_table[3]) == 2

    def test_close_in_one_does_not_affect_the_other(self, system):
        parent = system.create_initial_process()
        child = system.create_initial_process()
        fd = system.files.open(parent, "log")
        child.fd_table = system.files.dup_fd_table(parent)
        obj = system.files.object_for_fd(parent, fd)
        obj.write(b"hello")
        system.files.close_fd(child, fd)
        assert system.files.object_for_fd(parent, fd).read(5) == b"hello"

    def test_double_close_is_bad_fd(self, system):
        proc = system.create_initial_process()
        fd = system.files.open(proc, "x")
        system.files.close_fd(proc, fd)
        with pytest.raises(BadFd):
            system.files.close_fd(proc, fd)

    def test_pipe_is_fifo(self, system):
        proc = system.create_initial_process()
        read_fd, write_fd = system.files.create_pipe(proc)
        pipe = system.files.object_for_fd(proc, write_fd)
        assert pipe.kind is FileKind.PIPE
        pipe.write(b"abcdef")
        assert system.files.object_for_fd(proc, read_fd).read(3) == b"abc"
        assert system.files.object_for_fd(proc, read_fd).read(10) == b"def"
