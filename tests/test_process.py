"""Process creation postconditions and POSIX descriptor semantics."""

import gc
import hashlib
import tracemalloc

import pytest

from sasfork.address_space import AddressSpace, PageState, _Family, _Row
from sasfork.capability import GRANULES_PER_PAGE, PAGE_SIZE, Capability, Perm, Region
from sasfork.errors import BadFd, SimInternalError
from sasfork.process import KERNEL_PID, LayoutSpec, MicroProcess, ReapedProcess
from sasfork.system import PID_SLOTS, System
from sasfork.tagged_memory import ChangeLog, FrameTable
from sasfork.workload import run
from state_digest import pages_by_frame


@pytest.fixture
def system():
    return System("copa", "fault", debug=True)


class TestCreation:
    def test_default_layout_maps_ten_private_pages(self, system):
        proc = system.create_initial_process()
        # Oracle: sweep the page table for the pages this pid owns.
        owned = [
            va
            for va in system.address_space.entries()
            if system.address_space.owner_of(va) == proc.pid
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
        caps = [value for value in proc.registers.values() if isinstance(value, Capability)]
        caps += proc.symbols.values()
        assert caps and proc.loaded_ref is None
        for cap in caps:
            assert proc.region.contains_range(cap.base, cap.top), cap

    def test_custom_layout_size(self, system):
        spec = LayoutSpec(heap_pages=16)
        proc = system.create_initial_process(spec)
        assert proc.region.page_count == spec.total_pages
        assert proc.layout.heap.size == 16 * PAGE_SIZE

    @pytest.mark.parametrize(
        "spec",
        [
            LayoutSpec(code_pages=3, got_pages=2, alloc_meta_pages=2, heap_pages=5, tls_pages=0),
            LayoutSpec(code_pages=1, heap_pages=1, stack_pages=3, tls_pages=2),
        ],
    )
    def test_a_rebased_layout_is_the_layout_carved_there(self, spec):
        layout = spec.carve(Region(16 * PAGE_SIZE, spec.total_bytes))
        elsewhere = Region(1024 * PAGE_SIZE, spec.total_bytes)
        assert layout.rebased(elsewhere) == spec.carve(elsewhere)

    @pytest.mark.parametrize(
        "spec, total, starts",
        [
            # The default, an `audited`-sized heap, every count changed, and
            # a `snapshot`-sized heap; starts are the sub-regions' first pages.
            (LayoutSpec(), 10, (0, 2, 3, 4, 8, 10)),
            (LayoutSpec(heap_pages=60), 66, (0, 2, 3, 4, 64, 66)),
            (LayoutSpec(3, 2, 2, 5, 1, 4), 17, (0, 3, 5, 7, 12, 13)),
            (LayoutSpec(heap_pages=4356), 4362, (0, 2, 3, 4, 4360, 4362)),
        ],
    )
    def test_layout_arithmetic_reads_the_six_counts_in_order(self, spec, total, starts):
        assert spec.total_pages == total and spec.total_bytes == total * PAGE_SIZE
        ends = starts[1:] + (total,)
        for base_page in (16, 1024):
            region = Region(base_page * PAGE_SIZE, spec.total_bytes)
            layout = spec.carve(region)
            subs = layout.subregions()
            assert list(subs) == ["code_ro", "got", "alloc_meta", "heap", "stack", "tls"]
            assert [
                ((sub.base - region.base) // PAGE_SIZE, sub.size // PAGE_SIZE)
                for sub in subs.values()
            ] == [(start, end - start) for start, end in zip(starts, ends)]
            moved = Region(region.base + 64 * PAGE_SIZE, region.size)
            assert layout.rebased(moved) == spec.carve(moved)
            assert layout.rebased(moved).heap.base == layout.heap.base + 64 * PAGE_SIZE
        with pytest.raises(ValueError, match=f"region holds {total + 1} pages, layout needs {total}$"):
            spec.carve(Region(0, spec.total_bytes + PAGE_SIZE))

    @pytest.mark.parametrize(
        "counts, message",
        [
            (dict(heap_pages=-1), "page counts must be non-negative"),
            (dict(tls_pages=-2), "page counts must be non-negative"),
            (dict(code_pages=-1, got_pages=0), "page counts must be non-negative"),
            (dict(got_pages=0), "code, got and alloc_meta need at least one page"),
            (dict(alloc_meta_pages=0), "code, got and alloc_meta need at least one page"),
            (dict(heap_pages=0), "heap and stack need at least one page"),
            (dict(stack_pages=0), "heap and stack need at least one page"),
        ],
    )
    def test_refused_layout_counts_keep_their_messages(self, counts, message):
        with pytest.raises(ValueError) as err:
            LayoutSpec(**counts)
        assert str(err.value) == message

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

    def test_a_reaped_pid_keeps_only_its_exit_record(self, system):
        parent = system.create_initial_process()
        engine = system.fork_engine
        child = engine.fork(parent.pid)
        region = system.process(child).region
        engine.exit(child, 7)
        assert engine.wait(parent.pid) == (child, 7)
        reaped = system.process(child)
        assert type(reaped) is ReapedProcess and not reaped.running
        assert (reaped.pid, reaped.region, reaped.parent_pid) == (child, region, parent.pid)
        assert (reaped.exit_code, reaped.exit_seq) == (7, 0)
        for name in ("registers", "symbols", "layout", "loaded_ref", "fd_table"):
            with pytest.raises(AttributeError):
                getattr(reaped, name)
        assert type(system.process(parent.pid)) is MicroProcess

    def test_a_reaped_worker_leaves_little_in_the_system(self):
        # What the System retains per reaped `fork nowait { exit 0 }`
        # worker, measured by dropping it under tracemalloc (Python 3.11):
        # ~0.63 kB, against ~2.9 kB when a reaped pid kept its whole
        # MicroProcess (with the rest of the run's result, trace included:
        # ~1.5 kB, against ~4.0 kB).  Most of what is left is the worker's
        # copy events, the Fraction of its resident set at exit and its
        # report counters, which bounded per-run state and the event
        # stream (ROADMAP items 8 and 12) are to fold.
        def retained(workers):
            text = "layout code=1 heap=1 stack=1\n" + "fork nowait {\nexit 0\n}\nwait\n" * workers
            gc.collect()
            tracemalloc.start()
            try:
                result = run(text, "copa")
                gc.collect()
                held = tracemalloc.get_traced_memory()[0]
                result.system = None
                gc.collect()
                return held - tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        per_worker = (retained(1600) - retained(200)) / 1400
        assert per_worker < 2000, f"{per_worker:.0f} B per reaped worker"

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
        refused = [seq for seq, e in enumerate(events) if e.result == "EAGAIN"]
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


def image_digest(*specs):
    """sha256 over every frame after boot and one creation per spec.

    Each frame contributes its id, the sorted pages that map it, its
    origin, its capabilities in granule order and its bytes, kernel frames
    included.
    Permissions enter as their integer value, so the digest does not
    depend on how a Python version prints a flag.
    """
    sim = System()
    for spec in specs:
        sim.create_initial_process(spec)
    pages = pages_by_frame(sim.address_space)
    digest = hashlib.sha256()
    for frame_id, frame in sorted(sim.frames.by_id.items()):
        origin = None if frame.origin is None else (frame.origin.base, frame.origin.size)
        caps = sorted(
            (g, c.base, c.length, c.cursor, c.perms.value, c.otype, c.tag)
            for g, c in frame.entries().items()
        )
        digest.update(repr((frame_id, pages[frame_id], origin, caps)).encode())
        digest.update(bytes(frame.data))
    return digest.hexdigest()


SPECS = (
    LayoutSpec(),
    LayoutSpec(code_pages=3, got_pages=2, heap_pages=8),
    LayoutSpec(code_pages=1, got_pages=3, alloc_meta_pages=2, heap_pages=2, stack_pages=1, tls_pages=1),
    # Code page 7 is the first whose start, 7 * 37 % 251, wraps.
    LayoutSpec(code_pages=8, heap_pages=1, stack_pages=1),
)


class TestImage:
    """A fresh process image is pinned byte for byte: the code bytes, the
    GOT capabilities, the allocator cursor and the kernel pages.  How
    creation builds the image must not move them."""

    @pytest.mark.parametrize(
        "specs, expected",
        [
            ((SPECS[0],), "e6527cdee22beab0e80786749dd00145934d10382eaa9a996956e67a3400bd1a"),
            ((SPECS[1],), "08c027232f30dc5675ff608e112013e871b8562105ec5e78d0db6e42ff0bd6b9"),
            ((SPECS[2],), "cef3091dce547ea232d42e07566405a52030cba80c551903328f5b7e8ce5c7e2"),
            ((SPECS[3],), "f4a4da38c4f737e6d0481369d012644b61c59551ac3cc0317ebe62a1cf9a3aca"),
            (SPECS[:2], "0d9ee41facac111496c1162d3bb77fef30e601acb0f8cd4d7d219942b22e699f"),
        ],
    )
    def test_fresh_image_digest(self, specs, expected):
        assert image_digest(*specs) == expected


def per_page_map(space, region, pid, ro_pages):
    """The oracle of a fresh-region pass: a row that maps nothing, then
    allocate and :meth:`map` per page."""
    unmapped = [None] * region.page_count
    ro_end = region.base + ro_pages * PAGE_SIZE
    space._add_row(
        _Row(region.base, region.end, pid, ro_end, unmapped, unmapped.copy(), _Family())
    )
    for page_va in region.page_addresses():
        space.map(page_va, space._frames.allocate(origin=region).frame_id)


def mapped_state(space):
    frames = space._frames
    return (
        space.entries(),
        {fid: (f.mapcount, f.index, f.origin) for fid, f in frames.by_id.items()},
        [(set(log.frames), list(log.pids)) for log in frames.logs],
    )


class TestFreshRegion:
    """:meth:`AddressSpace.map_fresh_region` against the per-page oracle."""

    @pytest.mark.parametrize("logs", [False, True])
    @pytest.mark.parametrize("spec", SPECS)
    def test_matches_per_page_map(self, spec, logs):
        states = []
        for fresh in (True, False):
            frames = FrameTable()
            if logs:
                frames.logs += [ChangeLog(), ChangeLog()]
            space = AddressSpace(frames)
            jobs = []
            for size, pid, ro_pages in (
                (4 * PAGE_SIZE, KERNEL_PID, 1),
                (spec.total_bytes, 7, spec.code_pages),
            ):
                jobs.append(space.reserve_region(size))
                if fresh:
                    space.map_fresh_region(jobs[-1], pid, ro_pages)
                else:
                    per_page_map(space, jobs[-1], pid, ro_pages)
            kernel, region = jobs
            states.append(mapped_state(space))
        assert states[0] == states[1]
        entries = states[0][0]
        assert len(entries) == 4 + spec.total_pages
        # Frame ids are allocated in page order.
        assert [e.frame_id for _, e in sorted(entries.items())] == list(range(1, len(entries) + 1))
        # Private, and writable past the kernel's code page and the layout's.
        read_only = {kernel.base, *spec.carve(region).code_ro.page_addresses()}
        for va, entry in entries.items():
            assert entry.state is PageState.PRIVATE and entry.writable is (va not in read_only)
        if logs:
            assert states[0][2] == [(set(range(1, len(entries) + 1)), [])] * 2

    @pytest.mark.parametrize("case", ["backed", "not the last reservation"])
    def test_a_region_it_cannot_back_is_refused_and_changes_nothing(self, case):
        frames = FrameTable()
        frames.logs += [ChangeLog(), ChangeLog()]
        space = AddressSpace(frames)
        region = space.reserve_region(4 * PAGE_SIZE)
        if case == "backed":
            space.map_fresh_region(region, 3, 1)
            match = "still has a row"
        else:
            space.reserve_region(PAGE_SIZE)
            match = "is not the last reservation"
        before = mapped_state(space)
        with pytest.raises(SimInternalError, match=match):
            space.map_fresh_region(region, 3, 1)
        assert mapped_state(space) == before
        # No frame id was taken.
        assert frames.allocate().frame_id == len(before[1]) + 1


class TestFileDescriptors:
    def test_dup_table_shares_objects(self, system):
        parent = system.create_initial_process()
        fd = system.files.open(parent, "shared")
        assert fd == 3
        table = system.files.dup_fd_table(parent)
        assert table == {3: parent.fd_table[3]}

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
