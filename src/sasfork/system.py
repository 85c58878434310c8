"""The simulator core: one address space, one kernel, many processes.

A :class:`System` owns every piece of mutable state (frame table, page
table, process registry, file table, metrics) and funnels all mutation
through one execution context, so runs are deterministic and snapshots
are safe deep copies.  Booting reserves the kernel region, seeds kernel
capabilities, and registers the sealed syscall entries; processes are
created afterwards with :meth:`System.create_initial_process`.  Both back
their fresh region with new frames in one
:meth:`~sasfork.address_space.AddressSpace.map_fresh_region` pass, and
creation then writes only what the image holds: code pages copied as
slices of one constant byte cycle, and the GOT's capabilities built
positionally.

Memory accesses go through :meth:`System.access`, which adds the
fault-resolution protocol on top of the raw one-page pipeline: a
resolvable page fault is handed to the fork engine and the access retried
exactly once.  A second resolvable fault at the same access is an
internal error, which guards against handler bugs.  Capability-level
faults terminate the access immediately.  Byte ranges are split at page
boundaries only by ``_page_chunks``, so a range gets one access, and at
most one fault resolution, per page it touches.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator, KeysView

from .address_space import AccessKind, AddressSpace, FaultError
from .capability import (
    CODE_PERMS,
    DATA_PERMS,
    GRANULE,
    GRANULES_PER_PAGE,
    PAGE_SIZE,
    RO_CAP_PERMS,
    Capability,
    Perm,
)
from .errors import SimInternalError, SyscallError, UnknownPid, UnresolvableFault
from .fork_engine import ForkEngine, ForkStrategy
from .kernel import IsolationLevel, KernelGateway
from .metrics import Metrics
from .process import KERNEL_PID, FileTable, Layout, LayoutSpec, MicroProcess
from .tagged_memory import ChangeLog, FrameTable, TaggedFrame

_READ_INT, _WRITE = AccessKind.READ_INT, AccessKind.WRITE
_KERNEL_PAGES = 4  # code, data (PID table), two buffer pages for copy-in
#: The PID table holds one 8-byte word per unreaped process.
PID_SLOTS = PAGE_SIZE // 8
#: Each sub-region a new process holds a capability to, with its
#: permissions, in the order the GOT's slots cycle through them.
_SUBREGION_PERMS = {
    "code_ro": CODE_PERMS,
    "heap": DATA_PERMS,
    "stack": DATA_PERMS,
    "alloc_meta": DATA_PERMS,
    "got": RO_CAP_PERMS,
}
#: Byte ``j`` is ``j % 251``; every code page is one page-long slice of it.
_CODE_CYCLE = bytes(range(251)) * (PAGE_SIZE // 251 + 2)
_tuple_new = tuple.__new__


class System:
    """Composition root and the only owner of mutable simulator state."""

    def __init__(
        self,
        strategy: ForkStrategy | str = ForkStrategy.COPA,
        isolation: IsolationLevel | str = IsolationLevel.FAULT,
        *,
        debug: bool = False,
    ):
        if isinstance(strategy, str):
            strategy = ForkStrategy(strategy)
        if isinstance(isolation, str):
            isolation = IsolationLevel(isolation)
        self.strategy = strategy
        self.isolation = isolation
        self.debug = debug

        self.frames = FrameTable()
        self.address_space = AddressSpace(self.frames)
        self.files = FileTable()
        self.metrics = Metrics(self)
        self.processes: dict[int, MicroProcess] = {}
        self._next_pid = 1
        self._pid_slots: dict[int, int] = {}  # PID-table slot of each unreaped pid
        self._free_pid_slots: list[int] = []  # heap of slots freed at reap
        self._kernel_buffer_offset = 0
        # The debug check's change log, set by its first run.
        self._debug_changes: ChangeLog | None = None

        self._boot_kernel()
        self.gateway = KernelGateway(self)
        self.fork_engine = ForkEngine(self)

    # -- boot -------------------------------------------------------------

    def _boot_kernel(self) -> None:
        """Reserve the kernel region and back it in one fresh-region pass.

        Its four pages are private to the kernel, and only the code page
        is read-only.
        """
        self.kernel_region = self.address_space.reserve_region(_KERNEL_PAGES * PAGE_SIZE)
        base = self.kernel_region.base
        self.address_space.map_fresh_region(self.kernel_region, KERNEL_PID, 1)
        self.kernel_code_cap = Capability(
            base=base,
            length=PAGE_SIZE,
            cursor=base,
            perms=CODE_PERMS | Perm.SYSTEM,
        )
        self._kernel_data_va = base + PAGE_SIZE
        self._kernel_buffer_va = base + 2 * PAGE_SIZE
        self._kernel_buffer_size = 2 * PAGE_SIZE

    # -- processes -----------------------------------------------------------

    def allocate_pid(self) -> int:
        """The pid the next process gets; ``EAGAIN`` while every PID-table
        slot is held.  :meth:`add_process` takes it, so a creation or a fork
        that raises before it leaves the next pid as it was."""
        if len(self._pid_slots) == PID_SLOTS:
            raise SyscallError("EAGAIN", f"all {PID_SLOTS} PID-table slots are held")
        return self._next_pid

    def add_process(self, proc: MicroProcess) -> None:
        self.processes[proc.pid] = proc
        self._next_pid = proc.pid + 1
        # With no freed slot, slots 0..n-1 are exactly the n held ones.
        free = self._free_pid_slots
        slot = heapq.heappop(free) if free else len(self._pid_slots)
        self._pid_slots[proc.pid] = slot
        self._pid_table().store_bytes(slot * 8, proc.pid.to_bytes(8, "little"))

    def release_pid(self, pid: int) -> None:
        """Free a reaped pid's PID-table slot for the next process."""
        slot = self._pid_slots.pop(pid)
        self._pid_table().store_bytes(slot * 8, bytes(8))
        heapq.heappush(self._free_pid_slots, slot)

    @property
    def unreaped_pids(self) -> KeysView[int]:
        """Pids holding a PID-table slot (running or not yet reaped), in pid order."""
        return self._pid_slots.keys()

    def process(self, pid: int) -> MicroProcess:
        try:
            return self.processes[pid]
        except KeyError:
            raise UnknownPid(f"pid {pid} unknown") from None

    def _pid_table(self) -> TaggedFrame:
        # PIDs live in a kernel page no process capability can reach.
        entry = self.address_space.entry_at(self._kernel_data_va)
        return self.frames.get(entry.frame_id)

    def stored_pid(self, pid: int) -> int:
        slot = self._pid_slots.get(pid)
        if slot is None:
            raise UnknownPid(f"pid {pid} holds no PID-table slot")
        return self._pid_table().load_value(slot * 8, 8)

    def create_initial_process(self, spec: LayoutSpec | None = None) -> MicroProcess:
        """Reserve, map and initialize a fresh top-level process.

        One :meth:`~sasfork.address_space.AddressSpace.map_fresh_region`
        pass builds the reservation's row, read-only in its code pages, and
        backs every layout page with a new private frame; the code pages
        get their pattern (:meth:`_fill_code`).  Each sub-region of
        :data:`_SUBREGION_PERMS` gets one capability, with its cursor at
        its base, built once: the GOT cycles through them; granule 0 of
        the allocator metadata page holds the heap's as the bump cursor,
        so heap bookkeeping relocates with the process; and the registers
        ``pcc``, ``sp`` (its cursor at the stack's end), ``got``, ``amc``
        and ``hp`` hold them.
        """
        spec = spec or LayoutSpec()
        pid = self.allocate_pid()
        region = self.address_space.reserve_region(spec.total_bytes)
        layout = spec.carve(region)
        self.address_space.map_fresh_region(region, pid, spec.code_pages)
        self._fill_code(layout)
        subs = layout.subregions()
        caps = {
            name: Capability(subs[name].base, subs[name].size, subs[name].base, perms)
            for name, perms in _SUBREGION_PERMS.items()
        }
        self._populate_got(layout, tuple(caps.values()))
        allocator = self.address_space.entry_at(layout.alloc_meta.base)
        self.frames.store_capability(self.frames.get(allocator.frame_id), 0, caps["heap"])
        registers: dict[str, object] = {
            "pcc": caps["code_ro"],
            "sp": caps["stack"]._replace(cursor=layout.stack.end),
            "got": caps["got"],
            "amc": caps["alloc_meta"],
            "hp": caps["heap"],
            "r0": 0,
            "r1": 0,
            "r2": 0,
            "r3": 0,
        }
        proc = MicroProcess(
            pid=pid,
            region=region,
            layout=layout,
            registers=registers,
            entry_caps=self.gateway.entries,
        )
        self.add_process(proc)
        return proc

    def _fill_code(self, layout: Layout) -> None:
        """Deterministic pseudo-instruction bytes so copies are observable.

        Byte ``i`` of code page ``k`` is ``(37 * k + i) % 251``, so each
        page is a copy of the slice of :data:`_CODE_CYCLE` that starts at
        ``37 * k % 251``.
        """
        for index, page_va in enumerate(layout.code_ro.page_addresses()):
            entry = self.address_space.entry_at(page_va)
            start = index * 37 % 251
            self.frames.get(entry.frame_id).store_bytes(
                0, _CODE_CYCLE[start : start + PAGE_SIZE]
            )

    def _populate_got(self, layout: Layout, symbols: tuple[Capability, ...]) -> None:
        """GOT slot ``j`` holds the bounds and permissions of
        ``symbols[j % len(symbols)]``, its cursor ``j * GRANULE`` past the
        base, modulo the length."""
        store = self.frames.store_capability
        for page_index, page_va in enumerate(layout.got.page_addresses()):
            entry = self.address_space.entry_at(page_va)
            frame = self.frames.get(entry.frame_id)
            first = page_index * GRANULES_PER_PAGE
            for granule in range(GRANULES_PER_PAGE):
                slot = first + granule
                base, size, _, perms, _, _ = symbols[slot % len(symbols)]
                # Built positionally, as Capability.with_cursor builds one.
                cap = _tuple_new(
                    Capability, (base, size, base + slot * GRANULE % size, perms, None, True)
                )
                store(frame, granule, cap)

    # -- checked access with fault resolution ------------------------------------

    def access(
        self,
        pid: int,
        cap: Capability,
        kind: AccessKind,
        payload: bytes | Capability | None = None,
        *,
        width: int = 8,
    ):
        """One checked access on one page, with at most one resolve-and-retry.

        The access must not cross a page; the bulk helpers below split
        ranges with :func:`_page_chunks`, one access per page.
        """
        try:
            result = self.address_space.check_and_access(
                pid, cap, kind, payload, width=width
            )
        except FaultError as err:
            self.metrics.record_fault(pid, err.fault.kind)
            if not err.fault.resolvable:
                raise
            try:
                self.fork_engine.resolve_fault(err.fault)
            except UnresolvableFault:
                raise err from None
            try:
                result = self.address_space.check_and_access(
                    pid, cap, kind, payload, width=width
                )
            except FaultError as again:
                self.metrics.record_fault(pid, again.fault.kind)
                if again.fault.resolvable:
                    raise SimInternalError(
                        f"second resolvable fault after resolution: {again.fault}"
                    ) from again
                raise
        if self.debug:
            self._debug_access_invariant(pid, cap)
        return result

    def _debug_access_invariant(self, pid: int, cap: Capability) -> None:
        # Every successful non-kernel access: bounds inside the region
        # holding the touched page.
        if pid == KERNEL_PID:
            return
        owner = self.address_space.owner_of(cap.cursor)
        if owner is None:
            raise SimInternalError(f"access by pid {pid} at {cap.cursor:#x}, in no reservation")
        proc = self.processes.get(owner)  # None for the kernel
        if proc is not None and not proc.region.contains_range(cap.base, cap.top):
            raise SimInternalError(
                f"access by pid {pid} used {cap} outside owner region {proc.region}"
            )

    # -- bulk user-memory helpers (page-chunked, fault-resolving) ------------------

    def read_user_bytes(self, pid: int, cap: Capability, count: int) -> bytes:
        out = b""
        for va, _, size in _page_chunks(cap.cursor, count):
            value = self.access(pid, cap.with_cursor(va), _READ_INT, width=size)
            out += value.to_bytes(size, "little")
        return out

    def write_user_bytes(self, pid: int, cap: Capability, data: bytes) -> int:
        for va, offset, size in _page_chunks(cap.cursor, len(data)):
            self.access(pid, cap.with_cursor(va), _WRITE, data[offset : offset + size])
        return len(data)

    def stash_in_kernel_buffer(self, data: bytes) -> None:
        """Land a copy-in snapshot in real kernel pages (wrapping)."""
        start, ring = self._kernel_buffer_offset, self._kernel_buffer_size
        # The ring is whole pages, so no page-sized chunk crosses its end.
        for position, offset, size in _page_chunks(start, len(data)):
            self.poke_bytes(
                self._kernel_buffer_va + position % ring, data[offset : offset + size]
            )
        self._kernel_buffer_offset = (start + len(data)) % ring

    # -- raw observation hooks (tests, oracles, the TOCTTOU mutator) ---------------

    def peek_bytes(self, va: int, count: int) -> bytes:
        """Read mapped memory ignoring page states; an oracle, not an access."""
        out = bytearray()
        for addr, _, size in _page_chunks(va, count):
            page_off = addr % PAGE_SIZE
            out += self._mapped_frame(addr, "peek").read(page_off, size)
        return bytes(out)

    def poke_bytes(self, va: int, data: bytes) -> None:
        """Raw store into mapped memory, as a racing hardware thread would.

        Bypasses page protections but honors tag clearing (byte stores
        always clear overlapped granule tags).
        """
        for addr, offset, size in _page_chunks(va, len(data)):
            self._mapped_frame(addr, "poke").store_bytes(
                addr % PAGE_SIZE, data[offset : offset + size]
            )

    def _mapped_frame(self, va: int, what: str) -> TaggedFrame:
        entry = self.address_space.entry_at(va)
        if entry is None:
            raise SimInternalError(f"{what} at unmapped address {va:#x}")
        return self.frames.get(entry.frame_id)

    # -- invariants -------------------------------------------------------------------

    def verify_invariants(self, *, full: bool = False) -> None:
        """Debug check of refcounts and PRS conservation, over what changed.

        Every page-table row is its pid's one row and belongs to a
        PID-table slot holder (a pid without a slot keeps no row, so it
        owns no page) or the kernel.
        Every mapped page's frame lies at that page's index in its row's
        fork family, and each checked frame's ``mapcount`` is at least 1
        and equals the number of the family's rows that map it there.
        The first call adds the check's own
        :class:`~sasfork.tagged_memory.ChangeLog` to the frame table's logs.
        It, and any call with ``full``, runs the full pass over every entry
        and frame (:meth:`AddressSpace.verify_refcounts`) and clears that
        log; the others re-check the rows' owners, and only the frames and
        rows logged since (:meth:`AddressSpace.verify_changes`).  Neither
        touches the audit's log.  A ``--debug`` run ends with a full pass.
        """
        owners = {KERNEL_PID, *self.unreaped_pids}
        log = self._debug_changes
        if log is None:
            log = self._debug_changes = ChangeLog()
            self.frames.logs.append(log)
            full = True
        if full:
            self.address_space.verify_refcounts(owners)
            log.frames.clear()
            log.pids.clear()
        else:
            self.address_space.verify_changes(log, owners)

    def reap_zombies(self) -> None:
        """Kernel sweep at end of run: tear down exited-but-unreaped state."""
        unreaped = map(self.processes.__getitem__, self.unreaped_pids)
        zombies = [p for p in unreaped if not p.running]
        zombies.sort(key=lambda p: p.exit_seq)
        for proc in zombies:
            self.fork_engine.reap(proc)


def _page_chunks(addr: int, count: int) -> Iterable[tuple[int, int, int]]:
    """Split ``count`` bytes from ``addr`` at page boundaries.

    Gives ``(address, offset into the range, size)`` per chunk: a tuple
    for the common one-chunk range, cheaper than a generator, and a
    generator otherwise, so a fault on the first page splits no further.
    """
    if 0 < count <= PAGE_SIZE - addr % PAGE_SIZE:
        return ((addr, 0, count),)
    return _split_at_pages(addr, count)


def _split_at_pages(addr: int, count: int) -> Iterator[tuple[int, int, int]]:
    done = 0
    while done < count:
        size = min(count - done, PAGE_SIZE - addr % PAGE_SIZE)
        yield addr, done, size
        addr += size
        done += size
