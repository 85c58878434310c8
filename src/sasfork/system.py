"""The simulator core: one address space, one kernel, many processes.

A :class:`System` owns every piece of mutable state (frame table, page
table, process registry, file table, metrics) and funnels all mutation
through one execution context, so runs are deterministic and snapshots
are safe deep copies.  Booting reserves the kernel region, seeds kernel
capabilities, and registers the sealed syscall entries; processes are
created afterwards with :meth:`System.create_initial_process`.

Memory accesses go through :meth:`System.access`, which adds the
fault-resolution protocol on top of the raw pipeline: a resolvable page
fault is handed to the fork engine and the access retried exactly once.
A second resolvable fault at the same access is an internal error, which
guards against handler bugs.  Capability-level faults terminate the
access immediately.
"""

from __future__ import annotations

from fractions import Fraction

from .address_space import (
    AccessKind,
    AddressSpace,
    FaultError,
    PageState,
    PageTableEntry,
    page_of,
)
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
from .errors import SimInternalError, UnknownPid, UnresolvableFault
from .fork_engine import ForkEngine, ForkStrategy
from .kernel import AuditViolation, IsolationLevel, KernelGateway
from .metrics import Metrics
from .process import KERNEL_PID, FileTable, Layout, LayoutSpec, MicroProcess, Status
from .tagged_memory import FrameTable

_KERNEL_PAGES = 4  # code, data (PID table), two buffer pages for copy-in
_GOT_SYMBOL_CYCLE = (
    ("code_ro", CODE_PERMS),
    ("heap", DATA_PERMS),
    ("stack", DATA_PERMS),
    ("alloc_meta", DATA_PERMS),
    ("got", RO_CAP_PERMS),
)


class System:
    """Composition root and the only owner of mutable simulator state."""

    def __init__(
        self,
        strategy: ForkStrategy | str = ForkStrategy.COPA,
        isolation: IsolationLevel | str = IsolationLevel.FAULT,
        *,
        debug: bool = False,
        arm_audit: bool | None = None,
    ):
        if isinstance(strategy, str):
            strategy = ForkStrategy(strategy)
        if isinstance(isolation, str):
            isolation = IsolationLevel(isolation)
        if strategy is ForkStrategy.UNSAFE_COW:
            # The unsafe mode exists to demonstrate the stale-reference
            # hazard; it is only constructible with the auditor armed.
            if arm_audit is False:
                raise ValueError("unsafe-cow requires the audit to be armed")
            arm_audit = True
        self.strategy = strategy
        self.isolation = isolation
        self.debug = debug
        self.audit_armed = bool(arm_audit)

        self.frames = FrameTable()
        self.address_space = AddressSpace(self.frames)
        self.files = FileTable()
        self.metrics = Metrics()
        self.metrics.attach(self)
        self.processes: dict[int, MicroProcess] = {}
        self.audit_log: list[AuditViolation] = []
        self._next_pid = 1
        self._kernel_buffer_offset = 0

        self._boot_kernel()
        self.gateway = KernelGateway(self, isolation)
        self.gateway.register_default_entries()
        self.gateway.finish_boot()
        self.fork_engine = ForkEngine(self)

    # -- boot -------------------------------------------------------------

    def _boot_kernel(self) -> None:
        self.kernel_region = self.address_space.reserve_region(
            _KERNEL_PAGES * PAGE_SIZE
        )
        for index, page_va in enumerate(self.kernel_region.page_addresses()):
            frame = self.frames.allocate(origin=self.kernel_region)
            self.address_space.map(
                page_va,
                PageTableEntry(
                    frame_id=frame.frame_id,
                    state=PageState.PRIVATE,
                    writable=index != 0,
                    cap_load_allowed=True,
                    owner_pid=KERNEL_PID,
                ),
            )
        base = self.kernel_region.base
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
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def add_process(self, proc: MicroProcess) -> None:
        self.processes[proc.pid] = proc
        self._record_pid(proc.pid)

    def process(self, pid: int) -> MicroProcess:
        try:
            return self.processes[pid]
        except KeyError:
            raise UnknownPid(f"pid {pid} unknown") from None

    def _record_pid(self, pid: int) -> None:
        # PIDs live in a kernel page no process capability can reach.
        entry = self.address_space.entry_at(self._kernel_data_va)
        frame = self.frames.get(entry.frame_id)
        slot = (pid % (PAGE_SIZE // 8)) * 8
        frame.store_bytes(slot, pid.to_bytes(8, "little"))

    def stored_pid(self, pid: int) -> int:
        entry = self.address_space.entry_at(self._kernel_data_va)
        frame = self.frames.get(entry.frame_id)
        slot = (pid % (PAGE_SIZE // 8)) * 8
        return frame.load_value(slot, 8)

    def create_initial_process(self, spec: LayoutSpec | None = None) -> MicroProcess:
        """Reserve, map and initialize a fresh top-level process.

        All layout pages are mapped private; the GOT is filled with
        tagged capabilities to symbols inside the region; the allocator
        metadata page holds the heap cursor as a capability so that heap
        bookkeeping relocates with the process; registers get a PCC and
        SP bounded to the region.
        """
        spec = spec or LayoutSpec()
        region = self.address_space.reserve_region(spec.total_bytes)
        pid = self.allocate_pid()
        layout = spec.carve(region)
        for page_va in region.page_addresses():
            frame = self.frames.allocate(origin=region)
            self.address_space.map(
                page_va,
                PageTableEntry(
                    frame_id=frame.frame_id,
                    state=PageState.PRIVATE,
                    writable=layout.page_writable(page_va),
                    cap_load_allowed=True,
                    owner_pid=pid,
                ),
            )
        self._fill_code(layout)
        self._populate_got(layout)
        self._init_allocator(layout)
        registers: dict[str, object] = {
            "pcc": Capability(
                base=layout.code_ro.base,
                length=layout.code_ro.size,
                cursor=layout.code_ro.base,
                perms=CODE_PERMS,
            ),
            "sp": Capability(
                base=layout.stack.base,
                length=layout.stack.size,
                cursor=layout.stack.end,
                perms=DATA_PERMS,
            ),
            "got": Capability(
                base=layout.got.base,
                length=layout.got.size,
                cursor=layout.got.base,
                perms=RO_CAP_PERMS,
            ),
            "amc": Capability(
                base=layout.alloc_meta.base,
                length=layout.alloc_meta.size,
                cursor=layout.alloc_meta.base,
                perms=DATA_PERMS,
            ),
            "hp": Capability(
                base=layout.heap.base,
                length=layout.heap.size,
                cursor=layout.heap.base,
                perms=DATA_PERMS,
            ),
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
            entry_caps=dict(self.gateway.entries),
        )
        self.add_process(proc)
        return proc

    def _fill_code(self, layout: Layout) -> None:
        """Deterministic pseudo-instruction bytes so copies are observable."""
        for index, page_va in enumerate(layout.code_ro.page_addresses()):
            entry = self.address_space.entry_at(page_va)
            frame = self.frames.get(entry.frame_id)
            pattern = bytes((index * 37 + i) % 251 for i in range(PAGE_SIZE))
            frame.store_bytes(0, pattern)

    def _populate_got(self, layout: Layout) -> None:
        subs = layout.subregions()
        for page_index, page_va in enumerate(layout.got.page_addresses()):
            entry = self.address_space.entry_at(page_va)
            frame = self.frames.get(entry.frame_id)
            for granule in range(GRANULES_PER_PAGE):
                slot = page_index * GRANULES_PER_PAGE + granule
                name, perms = _GOT_SYMBOL_CYCLE[slot % len(_GOT_SYMBOL_CYCLE)]
                sub = subs[name]
                offset = (slot * GRANULE) % sub.size
                cap = Capability(
                    base=sub.base,
                    length=sub.size,
                    cursor=sub.base + offset,
                    perms=perms,
                )
                self.frames.store_capability(frame, granule, cap)

    def _init_allocator(self, layout: Layout) -> None:
        # Granule 0 of the allocator page holds the bump cursor *as a
        # capability*: relocation of this page at fork is what keeps the
        # child's allocator coherent.
        entry = self.address_space.entry_at(layout.alloc_meta.base)
        frame = self.frames.get(entry.frame_id)
        cursor_cap = Capability(
            base=layout.heap.base,
            length=layout.heap.size,
            cursor=layout.heap.base,
            perms=DATA_PERMS,
        )
        self.frames.store_capability(frame, 0, cursor_cap)

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
        """One checked access with at most one resolve-and-retry."""
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
        # owning the touched page.
        if pid == KERNEL_PID:
            return
        entry = self.address_space.entry_at(cap.cursor)
        if entry is None or entry.owner_pid == KERNEL_PID:
            return
        owner = self.processes.get(entry.owner_pid)
        if owner is not None and not owner.region.contains_range(cap.base, cap.top):
            raise SimInternalError(
                f"access by pid {pid} used {cap} outside owner region {owner.region}"
            )

    # -- bulk user-memory helpers (page-chunked, fault-resolving) ------------------

    def read_user_bytes(self, pid: int, cap: Capability, count: int) -> bytes:
        out = bytearray()
        addr = cap.cursor
        remaining = count
        while remaining > 0:
            chunk = min(remaining, page_of(addr) + PAGE_SIZE - addr)
            value = self.access(
                pid, cap.with_cursor(addr), AccessKind.READ_INT, width=chunk
            )
            out += int(value).to_bytes(chunk, "little")
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def write_user_bytes(self, pid: int, cap: Capability, data: bytes) -> int:
        addr = cap.cursor
        offset = 0
        while offset < len(data):
            chunk = min(len(data) - offset, page_of(addr) + PAGE_SIZE - addr)
            self.access(
                pid,
                cap.with_cursor(addr),
                AccessKind.WRITE,
                data[offset : offset + chunk],
            )
            addr += chunk
            offset += chunk
        return len(data)

    def stash_in_kernel_buffer(self, data: bytes) -> None:
        """Land a copy-in snapshot in real kernel pages (wrapping)."""
        offset = 0
        while offset < len(data):
            if self._kernel_buffer_offset >= self._kernel_buffer_size:
                self._kernel_buffer_offset = 0
            va = self._kernel_buffer_va + self._kernel_buffer_offset
            page_room = PAGE_SIZE - (va % PAGE_SIZE)
            room = min(page_room, self._kernel_buffer_size - self._kernel_buffer_offset)
            chunk = min(len(data) - offset, room)
            entry = self.address_space.entry_at(va)
            frame = self.frames.get(entry.frame_id)
            frame.store_bytes(va % PAGE_SIZE, data[offset : offset + chunk])
            self._kernel_buffer_offset += chunk
            offset += chunk

    # -- raw observation hooks (tests, oracles, the TOCTTOU mutator) ---------------

    def peek_bytes(self, va: int, count: int) -> bytes:
        """Read mapped memory ignoring page states; an oracle, not an access."""
        out = bytearray()
        addr = va
        remaining = count
        while remaining > 0:
            entry = self.address_space.entry_at(addr)
            if entry is None:
                raise SimInternalError(f"peek at unmapped address {addr:#x}")
            frame = self.frames.get(entry.frame_id)
            page_off = addr - page_of(addr)
            chunk = min(remaining, PAGE_SIZE - page_off)
            out += frame.data[page_off : page_off + chunk]
            addr += chunk
            remaining -= chunk
        return bytes(out)

    def poke_bytes(self, va: int, data: bytes) -> None:
        """Raw store into mapped memory, as a racing hardware thread would.

        Bypasses page protections but honors tag clearing (byte stores
        always clear overlapped granule tags).
        """
        addr = va
        offset = 0
        while offset < len(data):
            entry = self.address_space.entry_at(addr)
            if entry is None:
                raise SimInternalError(f"poke at unmapped address {addr:#x}")
            frame = self.frames.get(entry.frame_id)
            page_off = addr - page_of(addr)
            chunk = min(len(data) - offset, PAGE_SIZE - page_off)
            frame.store_bytes(page_off, data[offset : offset + chunk])
            addr += chunk
            offset += chunk

    # -- bookkeeping hooks ----------------------------------------------------------

    def log_invalidation(
        self, pid: int, location: str, cap: Capability, reason: str
    ) -> None:
        self.audit_log.append(
            AuditViolation(pid=pid, location=location, cap=cap, reason=reason)
        )

    # -- invariants -------------------------------------------------------------------

    def verify_invariants(self) -> None:
        """Debug sweep: refcount accuracy and resident-set conservation."""
        self.address_space.verify_refcounts()
        total = Fraction(0)
        pids = set(self.processes) | {KERNEL_PID}
        for pid in pids:
            total += self.metrics.prs_bytes(pid)
        if total != self.frames.total_bytes():
            raise SimInternalError(
                f"prs conservation broken: {float(total)} vs {self.frames.total_bytes()}"
            )

    def reap_zombies(self) -> None:
        """Kernel sweep at end of run: tear down exited-but-unreaped state."""
        zombies = [
            p for p in self.processes.values() if p.status is Status.EXITED
        ]
        zombies.sort(key=lambda p: p.exit_seq if p.exit_seq is not None else 0)
        for proc in zombies:
            self.fork_engine.reap(proc)
