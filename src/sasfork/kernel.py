"""Sealed-entry syscall gateway, parameterized isolation, and the auditor.

System calls are the only way into the kernel: at boot each syscall gets
a sealed capability pointing at kernel code, and those sealed values are
handed to every process.  A sealed capability cannot be dereferenced or
modified, only invoked through the gateway, which, like CHERI's
``CInvoke``, dispatches on the sealed capability itself: its object type
indexes the one syscall table, and only a capability equal to that row's
entry reaches the row's handler.  Forged, unsealed or lookalike sealed
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

The auditor reports everything a process could obtain without faulting:
its register state plus every tagged granule of pages whose state
permits a capability load.  Shared frames that still hold parent
references are not violations while the owner cannot load from them.
The sealed entries are not checked, since every process holds the
gateway's one read-only entry map.

Each sweep re-checks only what changed since the last one, so its cost
follows the step, not the region.  The first sweep adds the audit's own
:class:`~sasfork.tagged_memory.ChangeLog` to the frame table's logs, and
the first sweep that sees a process walks its whole region.  After that,
the pages it checks again are those of the logged frames, plus every page
that held findings, so violations are reported again in place, in page
order.  The one logging rule of :mod:`sasfork.tagged_memory` logs a frame
wherever a tagged capability can appear in it or one of its pages can
become cap-loadable: a capability store, a relocation scan, a page that
starts mapping it, and a promotion.  A byte store logs nothing, since it
only untags or drops capabilities.  The sweep clears the logged pids
without reading them: a logged pid is a new child, whose region gets a
whole walk.
Clearing its log leaves the
``--debug`` check's log as it was.

The change log is the audit's one record of which pages changed: a
page it does not name, and that held no findings, is not checked again.
Registers, symbols and ``loaded_ref`` are checked again only when they
differ from the copy the last clean check kept.  Each sweep visits the
PID-table slot holders and keeps only the running ones' memo, so no
reaped pid is left in it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, NoReturn

from .address_space import AccessKind, Fault, FaultError, FaultKind, page_of
from .capability import GRANULE, PAGE_SIZE, Capability, Perm, Region
from .errors import InvalidInvoke, ProcessNotRunning, SimInternalError, SyscallError
from .process import KERNEL_PID, MicroProcess
from .tagged_memory import ChangeLog

if TYPE_CHECKING:
    from .system import System


class IsolationLevel(enum.Enum):
    NONE = "none"
    FAULT = "fault"
    FULL = "full"


class ProbeOutcome(enum.Enum):
    PROTECTED = "Protected"
    VULNERABLE = "Vulnerable"


#: Object-type namespace for sealed syscall entries.
_ENTRY_OTYPE_BASE = 16


class _Syscall(NamedTuple):
    """One row of the gateway's syscall table."""

    name: str
    entry: Capability
    handler: Callable[[int, dict], object]
    #: What the ``buf`` argument must allow, or None without a buffer.
    buffer_perm: Perm | None


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
    """The syscall table, dispatch through it, its checks, and the audit."""

    #: Per running pid, the copy of the registers, symbols and
    #: ``loaded_ref`` the audit last found clean, or None while they hold
    #: findings; its keys are the pids the last sweep audited.  Set, like
    #: ``_findings``, by the first audit, which also starts ``_changes``, so
    #: a gateway that never audits keeps no memo and logs nothing.
    _clean_registers: dict[int, tuple | None]
    #: Per running pid, the indices of the region pages that held findings
    #: at the last sweep; set by the first audit.
    _findings: dict[int, list[int]]

    def __init__(self, system: "System"):
        self._sys = system
        # The audit's change log (see the module docstring).
        self._changes: ChangeLog | None = None
        # Row i is sealed with object type _ENTRY_OTYPE_BASE + i over the
        # i-th granule of kernel code, so the order fixes both.
        table = (
            ("fork", self._sys_fork, None),
            ("exit", self._sys_exit, None),
            ("wait", self._sys_wait, None),
            ("getpid", self._sys_getpid, None),
            ("open", self._sys_open, None),
            ("close", self._sys_close, None),
            ("read", self._sys_read, Perm.STORE),
            ("write", self._sys_write, Perm.LOAD),
            ("brk", self._sys_brk, None),
            ("yield", self._sys_yield, None),
        )
        code = system.kernel_code_cap
        self._rows = tuple(
            _Syscall(
                name,
                code.derive(code.base + i * GRANULE, GRANULE).seal(_ENTRY_OTYPE_BASE + i),
                handler,
                buffer_perm,
            )
            for i, (name, handler, buffer_perm) in enumerate(table)
        )
        # The one read-only name -> sealed entry map, which every process
        # holds as its ``entry_caps``.
        self.entries: Mapping[str, Capability] = MappingProxyType(
            {row.name: row.entry for row in self._rows}
        )

    def _row(self, cap: Capability) -> _Syscall | None:
        """The row whose sealed entry ``cap`` is, or None.

        The object type selects the row, and only a capability equal to
        its entry, tag and bounds included, is that entry.
        """
        if cap.otype is None:
            return None
        index = cap.otype - _ENTRY_OTYPE_BASE
        if not 0 <= index < len(self._rows):
            return None
        row = self._rows[index]
        return row if cap == row.entry else None

    def is_entry_capability(self, cap: Capability) -> bool:
        return self._row(cap) is not None

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

        A pid that does not run, zombie or reaped, raises
        :class:`ProcessNotRunning` before anything is checked.
        ``toctou_hook`` is the explicit check-to-use window: it runs
        after argument checking (and, under FULL isolation, after the
        copy-in), immediately before the handler consumes the buffer.
        """
        caller = self._running(pid)
        args = dict(args or {})
        if not isinstance(entry, Capability) or not entry.tag:
            self._fault(FaultKind.CAP_TAG, pid, getattr(entry, "cursor", 0))
        if not entry.sealed:
            # Unsealed jump targets can only be the caller's own code; a
            # capability aimed at kernel memory is a forgery and faults
            # on bounds before any dispatch happens.
            if not caller.region.contains_range(entry.base, entry.top):
                self._fault(FaultKind.CAP_BOUNDS, pid, entry.cursor)
            raise InvalidInvoke("entry capability is not sealed")
        if name not in self.entries:
            raise SyscallError("ENOSYS", f"unknown syscall {name!r}")
        row = self._row(entry)
        if row is None or row.name != name:
            raise InvalidInvoke(f"sealed capability does not match entry {name!r}")

        needed = row.buffer_perm
        if needed is not None and self._sys.isolation is not IsolationLevel.NONE:
            # The buffer capability is a register value the caller cannot
            # change, so it is checked before anything is read through it.
            buf, count = _arg(args, "buf"), _arg(args, "count", int)
            self._validate_buffer(pid, name, buf, count, needed)
            if self._sys.isolation is IsolationLevel.FULL and needed & Perm.LOAD:
                # Buffers land in kernel memory before the handler reads
                # them, so later stores by the caller cannot reach it.
                snapshot = self._sys.read_user_bytes(pid, buf, count)
                self._sys.stash_in_kernel_buffer(snapshot)
                args["_snapshot"] = snapshot
        if toctou_hook is not None:
            toctou_hook()
        return row.handler(pid, args)

    def _running(self, pid: int) -> MicroProcess:
        """The process ``pid``, which must run: :class:`UnknownPid` for a
        pid never created, :class:`ProcessNotRunning` for a zombie or a
        reaped pid."""
        proc = self._sys.process(pid)
        if not proc.running:
            raise ProcessNotRunning(f"pid {pid} is not running")
        return proc

    def _fault(self, kind: FaultKind, pid: int, addr: int) -> NoReturn:
        """Record and raise the fault of an execute at ``addr``: the
        gateway records every fault it raises, as :meth:`System.access`
        does."""
        self._sys.metrics.record_fault(pid, kind)
        raise FaultError(Fault(kind, pid, page_of(addr), AccessKind.EXEC))

    def _validate_buffer(
        self, pid: int, name: str, cap: Capability, count: int, needed: Perm
    ) -> None:
        """Check a by-reference argument in place, before any use."""
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
        return self._sys.files.open(self._sys.process(pid), _arg(args, "name", str))

    def _sys_close(self, pid: int, args: dict) -> int:
        self._sys.files.close_fd(self._sys.process(pid), _arg(args, "fd", int))
        return 0

    def _sys_read(self, pid: int, args: dict) -> int:
        proc = self._sys.process(pid)
        obj = self._sys.files.object_for_fd(proc, _arg(args, "fd", int))
        count, buf = _arg(args, "count", int), _arg(args, "buf")
        data = obj.read(count)
        if self._sys.isolation is IsolationLevel.FULL:
            # Results land in kernel memory first, then copy out.
            self._sys.stash_in_kernel_buffer(data)
        self._sys.write_user_bytes(pid, buf, data)
        return len(data)

    def _sys_write(self, pid: int, args: dict) -> int:
        proc = self._sys.process(pid)
        obj = self._sys.files.object_for_fd(proc, _arg(args, "fd", int))
        snapshot = args.pop("_snapshot", None)
        if snapshot is not None:
            data = snapshot
        else:
            data = self._sys.read_user_bytes(pid, _arg(args, "buf"), _arg(args, "count", int))
        return obj.write(data)

    def _sys_brk(self, pid: int, args: dict) -> int:
        """Accept a break inside the fixed heap; no allocator reads it."""
        proc = self._sys.process(pid)
        new_break = _arg(args, "break", int)
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
            self.entries["write"],
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
        attempt raises a privilege fault.  Kernel context succeeds.  A
        pid that does not run raises :class:`ProcessNotRunning`.
        """
        if pid == KERNEL_PID:
            return "ok"
        proc = self._running(pid)
        pcc = proc.registers.get("pcc")
        if isinstance(pcc, Capability) and pcc.tag and (pcc.perms & Perm.SYSTEM):
            return "ok"
        self._fault(FaultKind.PRIVILEGE, pid, pcc.cursor if isinstance(pcc, Capability) else 0)

    # -- audit ----------------------------------------------------------------

    def audit(self) -> AuditReport:
        """Sweep what every live process could load without faulting.

        Covers register state (including the DSL symbol spill area) and
        every tagged granule of frames mapped with capability loads
        allowed (:meth:`AddressSpace.loadable_frames`).  A capability is
        fine if its bounds sit inside the owner's region or it is a
        registered sealed entry; anything else is reported.  A process the
        last sweep did not audit gets a walk of its whole region; for the
        others only the pages of frames in the change log, and the pages
        and registers that held findings, are checked again (see the
        module docstring).  A logged frame's pages are found from its
        fork family's rows (:meth:`AddressSpace.mappers`), since a frame
        keeps only a count of them.
        """
        violations: list[AuditViolation] = []
        system = self._sys
        space, frames = system.address_space, system.frames.by_id
        is_entry = self.is_entry_capability
        # Pages, by owner, of the logged frames still alive; an owner the
        # last sweep did not audit gets a whole walk instead.
        touched: dict[int, list[int]] = {}
        log = self._changes
        if log is None:
            # The first audit starts the change log and the memo.
            log = self._changes = ChangeLog()
            system.frames.logs.append(log)
            self._clean_registers = self._findings = {}
        old_registers, old_findings = self._clean_registers, self._findings
        for owner, page_va in space.mappers(log.frames):
            if owner in old_registers:
                touched.setdefault(owner, []).append(page_va)
        log.frames.clear()
        log.pids.clear()
        clean_registers: dict[int, tuple | None] = {}
        findings: dict[int, list[int]] = {}
        for proc in map(system.processes.__getitem__, system.unreaped_pids):
            if not proc.running:
                continue
            pid, region = proc.pid, proc.region
            base, end = region.base, region.end
            registers = old_registers.get(pid)
            if registers != (proc.registers, proc.symbols, proc.loaded_ref):
                registers = self._check_registers(proc, registers, violations)
            clean_registers[pid] = registers
            if pid not in old_registers:
                indices = range(region.page_count)
            else:
                indices = old_findings.get(pid, ())
                if pid in touched:
                    indices = sorted(
                        {(page_va - base) // PAGE_SIZE for page_va in touched[pid]}.union(indices)
                    )
            held = []
            for index, frame_id in space.loadable_frames(pid, indices) if indices else ():
                page_va = base + index * PAGE_SIZE
                frame = frames.get(frame_id)
                if frame is None:
                    raise SimInternalError(
                        f"page {page_va:#x} maps frame {frame_id}, which does not exist"
                    )
                found = len(violations)
                for granule, cap in frame.tagged_caps():
                    # _escapes, for a tagged capability, unrolled: the audit
                    # reads every tagged entry of each page it checks.
                    lo, length = cap[0], cap[1]
                    if not base <= lo <= lo + length <= end and not is_entry(cap):
                        violations.append(
                            _violation(pid, f"page:{page_va:#x}:granule={granule}", cap)
                        )
                if len(violations) > found:
                    held.append(index)
            if held:
                findings[pid] = held
        # Only running pids are kept, so a pid that stopped leaves the memo.
        self._clean_registers, self._findings = clean_registers, findings
        return AuditReport(violations=tuple(violations))

    def _check_registers(
        self,
        proc: MicroProcess,
        memo: tuple | None,
        violations: list[AuditViolation],
    ) -> tuple | None:
        """Report the escaping capabilities of the process's register state.

        ``memo`` is the copy of the registers, symbols and ``loaded_ref``
        last found clean, or ``None``.  A part equal to its copy is still
        clean and is skipped; the others are checked in that order: the
        capability registers, the symbols, then ``loaded_ref``.  The
        sealed entries are the kernel's and are not checked.  Returns the
        updated copy, or ``None`` when a capability escapes.
        """
        registers, symbols, loaded_ref = memo or (None, None, None)
        pid, region = proc.pid, proc.region
        found = len(violations)
        if registers != proc.registers:
            registers = dict(proc.registers)
            for name, value in registers.items():
                if isinstance(value, Capability) and self._escapes(value, region):
                    violations.append(_violation(pid, f"register:{name}", value))
        if symbols != proc.symbols:
            symbols = dict(proc.symbols)
            for name, cap in symbols.items():
                if self._escapes(cap, region):
                    violations.append(_violation(pid, f"symbol:{name}", cap))
        if loaded_ref != proc.loaded_ref:
            loaded_ref = proc.loaded_ref
            if loaded_ref is not None and self._escapes(loaded_ref, region):
                violations.append(_violation(pid, "register:loaded_ref", loaded_ref))
        return None if len(violations) > found else (registers, symbols, loaded_ref)

    def _escapes(self, cap: Capability, region: Region) -> bool:
        """A tagged capability outside ``region`` that is no sealed entry."""
        return (
            cap.tag
            and not region.contains_range(cap.base, cap.top)
            and not self.is_entry_capability(cap)
        )


def _arg(args: dict, name: str, convert: Callable[[object], object] | None = None):
    """Syscall argument ``name`` of ``args``, passed through ``convert`` if
    given: ``SyscallError("EINVAL")`` where it is missing or ``convert``
    refuses it."""
    try:
        value = args[name]
        return value if convert is None else convert(value)
    except (KeyError, TypeError, ValueError):
        raise SyscallError("EINVAL", f"missing or ill-typed argument {name!r}") from None


def _violation(pid: int, location: str, cap: Capability) -> AuditViolation:
    return AuditViolation(
        pid=pid,
        location=location,
        cap=cap,
        reason="capability bounds escape the owning region",
    )
