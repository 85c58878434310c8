"""Sealed-entry syscall gateway, parameterized isolation, and the auditor.

System calls are the only way into the kernel: at boot each syscall gets
a sealed capability pointing at kernel code, and those sealed values are
handed to every process.  A sealed capability cannot be dereferenced or
modified, only invoked through the gateway, which unseals it internally
and dispatches to the registered handler.  Forged or unsealed
capabilities never reach a handler.

Three isolation levels trade checking cost for safety:

* ``FULL``: the buffer capability is validated as under ``FAULT``, then
  by-reference syscall arguments are copied into kernel memory before
  the handler runs and results copied back at completion, closing the
  check-to-use (TOCTTOU) window.
* ``FAULT``: arguments are validated in place (tag set, bounds inside
  the caller's region, sufficient permissions) but not copied.
* ``NONE``: the gateway dispatches without checks.  Hardware capability
  checks still apply when the kernel dereferences, since those are
  physics, not policy.

The check-to-use window is an explicit, deterministic hook point rather
than simulated preemption: :meth:`KernelGateway.toctou_probe` fires a
caller-supplied mutation exactly there and classifies the outcome.

The auditor sweeps everything a process could obtain without faulting:
its register state plus every tagged granule of pages whose state
permits a capability load.  Shared frames that still hold parent
references are not violations while the owner cannot load from them.
Registers are re-checked on every sweep.  A page's granules are
re-checked only when the page maps another frame, or its frame's
capabilities changed (a capability store, or a byte store over a
capability), since the sweep last found that page clean; a page with
findings is re-checked every time.  Ownership and the capability-load
permission are tested on every sweep, so a page that promotion makes
cap-loadable is checked at once unless it was found clean with the same
contents before.  A process's memo is dropped once it stops running.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .address_space import AccessKind, Fault, FaultError, FaultKind, page_of
from .capability import GRANULE, Capability, Perm
from .errors import (
    DuplicateEntry,
    InvalidInvoke,
    SimulatorError,
    SyscallError,
)
from .process import KERNEL_PID, MicroProcess, Status

if TYPE_CHECKING:
    from .system import System


class IsolationLevel(enum.Enum):
    NONE = "none"
    FAULT = "fault"
    FULL = "full"


class ProbeOutcome(enum.Enum):
    PROTECTED = "Protected"
    VULNERABLE = "Vulnerable"


SYSCALL_NAMES = (
    "fork",
    "exit",
    "wait",
    "getpid",
    "open",
    "close",
    "read",
    "write",
    "brk",
    "yield",
)

#: Object-type namespace for sealed syscall entries.
_ENTRY_OTYPE_BASE = 16


@dataclass(frozen=True)
class AuditViolation:
    pid: int
    location: str
    cap: Capability
    reason: str

    def __str__(self) -> str:
        return f"pid={self.pid} at {self.location}: {self.reason} ({self.cap})"


@dataclass(frozen=True)
class AuditReport:
    violations: tuple[AuditViolation, ...]

    @property
    def clean(self) -> bool:
        return not self.violations

    def to_text(self) -> str:
        if self.clean:
            return "audit: clean"
        lines = [f"audit: {len(self.violations)} violation(s)"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


class KernelGateway:
    """Boot-time entry registration plus runtime dispatch and checks."""

    def __init__(self, system: "System", isolation: IsolationLevel):
        self._sys = system
        self.isolation = isolation
        self._handlers: dict[str, Callable] = {}
        self._entries: dict[str, Capability] = {}
        # Sealed entry -> the unsealed target it invokes.
        self._targets: dict[Capability, Capability] = {}
        self._boot_complete = False
        # Running pid -> per page of its region, the (frame id, frame
        # version) the audit last found that page clean with, or None.
        self._clean_pages: dict[int, list[tuple[int, int] | None]] = {}

    @property
    def entries(self) -> dict[str, Capability]:
        return dict(self._entries)

    def register_default_entries(self) -> None:
        handlers = {
            "fork": self._sys_fork,
            "exit": self._sys_exit,
            "wait": self._sys_wait,
            "getpid": self._sys_getpid,
            "open": self._sys_open,
            "close": self._sys_close,
            "read": self._sys_read,
            "write": self._sys_write,
            "brk": self._sys_brk,
            "yield": self._sys_yield,
        }
        for name in SYSCALL_NAMES:
            self.register_entry(name, handlers[name])

    def finish_boot(self) -> None:
        self._boot_complete = True

    def register_entry(self, name: str, handler: Callable) -> Capability:
        """Create the sealed entry capability for one syscall (boot only)."""
        if self._boot_complete:
            raise SimulatorError("syscall entries are fixed once boot completes")
        if name in self._entries:
            raise DuplicateEntry(f"entry {name!r} already registered")
        index = len(self._entries)
        code = self._sys.kernel_code_cap
        target = code.derive(code.base + index * GRANULE, GRANULE)
        sealed = target.seal(_ENTRY_OTYPE_BASE + index)
        self._entries[name] = sealed
        self._targets[sealed] = target
        self._handlers[name] = handler
        return sealed

    def is_entry_capability(self, cap: Capability) -> bool:
        return cap.tag and cap in self._targets

    def unseal_invoke(self, cap: Capability, *, context_pid: int) -> Capability:
        """Recover the unsealed entry target; dispatcher context only."""
        if context_pid != KERNEL_PID:
            raise InvalidInvoke("unseal is reserved to the kernel-gateway dispatcher")
        target = self._targets.get(cap)
        if target is None:
            raise InvalidInvoke("not a registered sealed entry")
        return target

    # -- dispatch ---------------------------------------------------------

    def syscall(
        self,
        pid: int,
        entry: Capability,
        name: str,
        args: dict | None = None,
        *,
        toctou_hook: Callable[[], None] | None = None,
    ):
        """Validate the entry capability and dispatch to its handler.

        ``toctou_hook`` is the explicit check-to-use window: it runs
        after argument checking (and, under FULL isolation, after the
        copy-in), immediately before the handler consumes the buffer.
        """
        args = dict(args or {})
        if not isinstance(entry, Capability) or not entry.tag:
            raise FaultError(
                Fault(FaultKind.CAP_TAG, pid, page_of(getattr(entry, "cursor", 0)), AccessKind.EXEC)
            )
        if not entry.sealed:
            # Unsealed jump targets can only be the caller's own code; a
            # capability aimed at kernel memory is a forgery and faults
            # on bounds before any dispatch happens.
            caller = self._sys.process(pid)
            if not caller.region.contains_range(entry.base, entry.top):
                raise FaultError(
                    Fault(FaultKind.CAP_BOUNDS, pid, page_of(entry.cursor), AccessKind.EXEC)
                )
            raise InvalidInvoke("entry capability is not sealed")
        registered = self._entries.get(name)
        if registered is None:
            raise SyscallError("ENOSYS", f"unknown syscall {name!r}")
        if entry != registered:
            raise InvalidInvoke(f"sealed capability does not match entry {name!r}")

        if self.isolation is IsolationLevel.NONE:
            if toctou_hook is not None:
                toctou_hook()
            return self._handlers[name](pid, args)

        # The buffer capability is a register value the caller cannot
        # change, so it is checked before anything is read through it.
        self._validate_args(pid, name, args)
        if self.isolation is IsolationLevel.FULL:
            # Buffers land in kernel memory before the handler reads
            # them, so later stores by the caller cannot reach it.
            self._copy_in(pid, name, args)
        if toctou_hook is not None:
            toctou_hook()
        return self._handlers[name](pid, args)

    # -- argument validation and TOCTTOU copies ------------------------------

    def _buffer_spec(self, name: str, args: dict) -> tuple[Capability, int, Perm] | None:
        """The by-reference argument of a syscall, if it has one."""
        if name == "write":
            return args["buf"], args["count"], Perm.LOAD
        if name == "read":
            return args["buf"], args["count"], Perm.STORE
        return None

    def _validate_args(self, pid: int, name: str, args: dict) -> None:
        spec = self._buffer_spec(name, args)
        if spec is None:
            return
        cap, count, needed = spec
        if count < 0:
            raise SyscallError("EFAULT", "negative count")
        caller = self._sys.process(pid)
        ok = (
            isinstance(cap, Capability)
            and cap.tag
            and not cap.sealed
            and cap.in_bounds(cap.cursor, count)
            and caller.region.contains_range(cap.base, cap.top)
            and (cap.perms & needed) == needed
        )
        if not ok:
            raise SyscallError("EFAULT", f"bad buffer capability for {name}")

    def _copy_in(self, pid: int, name: str, args: dict) -> None:
        """Snapshot user buffers into kernel memory before use."""
        spec = self._buffer_spec(name, args)
        if spec is None:
            return
        cap, count, needed = spec
        if needed & Perm.LOAD:
            snapshot = self._sys.read_user_bytes(pid, cap, count)
            self._sys.stash_in_kernel_buffer(snapshot)
            args["_snapshot"] = snapshot

    # -- syscall handlers --------------------------------------------------------

    def _sys_fork(self, pid: int, args: dict) -> int:
        return self._sys.fork_engine.fork(pid)

    def _sys_exit(self, pid: int, args: dict) -> int:
        self._sys.fork_engine.exit(pid, int(args.get("code", 0)))
        return 0

    def _sys_wait(self, pid: int, args: dict):
        return self._sys.fork_engine.wait(pid)

    def _sys_getpid(self, pid: int, args: dict) -> int:
        # PIDs live in kernel memory; processes can only ask, not poke.
        return self._sys.stored_pid(pid)

    def _sys_open(self, pid: int, args: dict) -> int:
        return self._sys.files.open(self._sys.process(pid), str(args["name"]))

    def _sys_close(self, pid: int, args: dict) -> int:
        self._sys.files.close_fd(self._sys.process(pid), int(args["fd"]))
        return 0

    def _sys_read(self, pid: int, args: dict) -> int:
        proc = self._sys.process(pid)
        obj = self._sys.files.object_for_fd(proc, int(args["fd"]))
        data = obj.read(int(args["count"]))
        if self.isolation is IsolationLevel.FULL:
            # Results land in kernel memory first, then copy out.
            self._sys.stash_in_kernel_buffer(data)
        self._sys.write_user_bytes(pid, args["buf"], data)
        return len(data)

    def _sys_write(self, pid: int, args: dict) -> int:
        proc = self._sys.process(pid)
        obj = self._sys.files.object_for_fd(proc, int(args["fd"]))
        snapshot = args.pop("_snapshot", None)
        if snapshot is not None:
            data = snapshot
        else:
            data = self._sys.read_user_bytes(pid, args["buf"], int(args["count"]))
        return obj.write(data)

    def _sys_brk(self, pid: int, args: dict) -> int:
        """Accept a break inside the fixed heap; no allocator reads it."""
        proc = self._sys.process(pid)
        new_break = int(args["break"])
        heap_size = proc.layout.heap.size
        if new_break < 0 or new_break > heap_size:
            raise SyscallError(
                "ENOMEM", f"break {new_break:#x} outside the fixed heap of {heap_size:#x}"
            )
        return new_break

    def _sys_yield(self, pid: int, args: dict) -> int:
        return 0

    # -- TOCTTOU probe --------------------------------------------------------

    def toctou_probe(
        self, pid: int, buf_cap: Capability, mutate: Callable[[], None], *, count: int = GRANULE
    ) -> ProbeOutcome:
        """Race a buffer mutation against a write syscall.

        The mutation fires in the declared check-to-use window.  If the
        bytes the kernel consumed match the pre-mutation snapshot the
        isolation level protected the call; otherwise the mutated bytes
        leaked through the window.
        """
        snapshot = self._sys.peek_bytes(buf_cap.cursor, count)
        proc = self._sys.process(pid)
        fd = self._sys.files.open(proc, f".toctou-{pid}-{len(proc.fd_table)}")
        obj = self._sys.files.object_for_fd(proc, fd)
        start = len(obj.data)
        self.syscall(
            pid,
            self._entries["write"],
            "write",
            {"fd": fd, "buf": buf_cap, "count": count},
            toctou_hook=mutate,
        )
        consumed = bytes(obj.data[start : start + count])
        self._sys.files.close_fd(proc, fd)
        if consumed == snapshot:
            return ProbeOutcome.PROTECTED
        return ProbeOutcome.VULNERABLE

    # -- privileged instructions ------------------------------------------------

    def attempt_privileged(self, pid: int) -> str:
        """Execute the simulated privileged operation.

        Only a program-counter capability carrying the SYSTEM permission
        may do this; process PCCs never have it, so every process-level
        attempt raises a privilege fault.  Kernel context succeeds.
        """
        if pid == KERNEL_PID:
            return "ok"
        proc = self._sys.process(pid)
        pcc = proc.registers.get("pcc")
        if isinstance(pcc, Capability) and pcc.tag and (pcc.perms & Perm.SYSTEM):
            return "ok"
        fault = Fault(
            FaultKind.PRIVILEGE,
            pid,
            page_of(pcc.cursor if isinstance(pcc, Capability) else 0),
            AccessKind.EXEC,
        )
        self._sys.metrics.record_fault(pid, fault.kind)
        raise FaultError(fault)

    # -- audit ----------------------------------------------------------------

    def audit(self) -> AuditReport:
        """Sweep what every live process could load without faulting.

        Covers register state (including the DSL symbol spill area) and
        every tagged granule of frames mapped with capability loads
        allowed.  A capability is fine if its bounds sit inside the
        owner's region or it is a registered sealed entry; anything else
        is reported.  A page whose frame and frame version match the
        ones it was last found clean with is skipped: the check depends
        only on those capabilities and the owner's region, which never
        changes.
        """
        violations: list[AuditViolation] = []
        system = self._sys
        entry_at = system.address_space.entry_at
        for proc in system.processes.values():
            if proc.status is not Status.RUNNING:
                self._clean_pages.pop(proc.pid, None)
                continue
            clean = self._clean_pages.get(proc.pid)
            if clean is None:
                clean = self._clean_pages[proc.pid] = [None] * proc.region.page_count
            for location, cap in proc.register_caps():
                self._check_containment(proc, location, cap, violations)
            for index, page_va in enumerate(proc.region.page_addresses()):
                entry = entry_at(page_va)
                if entry is None or entry.owner_pid != proc.pid:
                    continue
                if not entry.state.cap_load:
                    continue
                frame = system.frames.get(entry.frame_id)
                stamp = (frame.frame_id, frame.version)
                if clean[index] == stamp:
                    continue
                found = len(violations)
                for granule, cap in frame.tagged_caps():
                    self._check_containment(
                        proc, f"page:{page_va:#x}:granule={granule}", cap, violations
                    )
                if len(violations) == found:
                    clean[index] = stamp
        return AuditReport(violations=tuple(violations))

    def _check_containment(
        self,
        proc: MicroProcess,
        location: str,
        cap: Capability,
        violations: list[AuditViolation],
    ) -> None:
        if not cap.tag:
            return
        if proc.region.contains_range(cap.base, cap.top):
            return
        if self.is_entry_capability(cap):
            return
        violations.append(
            AuditViolation(
                pid=proc.pid,
                location=location,
                cap=cap,
                reason="capability bounds escape the owning region",
            )
        )
