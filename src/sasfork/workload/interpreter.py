"""Deterministic cooperative execution of workload scripts.

The interpreter owns the run loop: a round-robin queue of processes,
each executing its statement stream until it yields, blocks in ``wait``,
exits, or hits a fatal fault.  Scheduling depends only on the script
(fork and yield points), never on the copy strategy, which is what makes
result traces comparable across strategies.

Faults behave like signals: a resolvable page fault is handled inside
the access path and never surfaces here; a capability-level fault or
privilege fault is recorded in the trace and kills the faulting process
(exit code 139), leaving every other process running.  POSIX-style
errors (``BadFd``, ``EFAULT``...) are recorded as the statement result
and execution continues.

Every trace event is ``(pid, statement, result)``; the sha256 over that
sequence is the run's value hash.  Each statement returns its result,
and one place writes the event and keeps the rendered result as the
task's previous result, which ``expect`` compares against.  Copy events
and fault counters live in the metrics report, not the trace, so cost
never leaks into the equivalence check.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field

from ..address_space import AccessKind, FaultError
from ..capability import GRANULE, Capability
from ..errors import (
    NoChildren,
    SimInternalError,
    SimulatorError,
    SyscallError,
)
from ..kernel import AuditReport, IsolationLevel
from ..fork_engine import ForkStrategy
from ..metrics import MetricsReport
from ..process import MicroProcess
from ..system import System
from .script import (
    Alloc,
    Close,
    Deref,
    Exit,
    Expect,
    Fork,
    LoadInt,
    LoadRef,
    Open,
    Priv,
    Read,
    Script,
    StoreInt,
    StoreRef,
    Wait,
    Write,
    Yield,
    format_statement,
    parse,
)

#: Exit status assigned to a process killed by a fatal fault.
FAULT_EXIT_CODE = 139


@dataclass(frozen=True)
class TraceEvent:
    seq: int
    pid: int
    stmt: str
    result: str

    def __str__(self) -> str:
        return f"[{self.seq}] pid={self.pid} {self.stmt} -> {self.result}"


@dataclass
class Trace:
    events: list[TraceEvent] = field(default_factory=list)

    def value_hash(self) -> str:
        digest = hashlib.sha256()
        for event in self.events:
            digest.update(f"{event.pid}|{event.stmt}|{event.result}\n".encode())
        return digest.hexdigest()

    def to_text(self) -> str:
        return "\n".join(str(e) for e in self.events)


@dataclass
class RunResult:
    strategy: ForkStrategy
    isolation: IsolationLevel
    trace: Trace
    report: MetricsReport
    audit: AuditReport | None
    expect_failures: tuple[int, ...]
    system: System

    @property
    def ok(self) -> bool:
        return not self.expect_failures


class _Task:
    __slots__ = ("proc", "stream", "ip", "last_result", "files")

    def __init__(self, proc: MicroProcess, stream: list):
        # The task is live while its process is running; the scheduler
        # drops it once the process exits.
        self.proc = proc
        self.stream = stream
        self.ip = 0
        # The previous statement's result as the trace rendered it; a
        # forked child starts with the fork's return value, 0.
        self.last_result = "0"
        self.files: dict[str, int] = {}


_YIELDED = object()
_BLOCKED = object()
_DEAD = object()


def run(
    script: Script | str,
    strategy: ForkStrategy | str,
    isolation: IsolationLevel | str = IsolationLevel.FAULT,
    *,
    debug: bool = False,
    audit: bool = False,
) -> RunResult:
    """Execute a script and return its trace, metrics and audit results.

    Runs are fully determined by (script, strategy, isolation).
    ``audit=True`` sweeps the isolation auditor after every statement
    and unions the findings (forced on for the unsafe CoW strategy);
    ``debug=True`` additionally verifies refcount accuracy and
    resident-set conservation at each step.
    """
    if isinstance(script, str):
        script = parse(script)
    interp = _Interpreter(script, strategy, isolation, debug=debug, audit=audit)
    return interp.run()


class _Interpreter:
    def __init__(
        self,
        script: Script,
        strategy: ForkStrategy | str,
        isolation: IsolationLevel | str,
        *,
        debug: bool,
        audit: bool,
    ):
        self.script = script
        self.system = System(strategy, isolation, debug=debug)
        # The unsafe strategy exists to show its stale references, so
        # its runs always audit.
        self.audit_every_step = audit or self.system.strategy is ForkStrategy.UNSAFE_COW
        self.trace = Trace()
        self._seq = 0
        self._violations: dict = {}
        self._expect_failures: list[int] = []
        self._tasks: dict[int, _Task] = {}
        self._queue: deque[int] = deque()

    # -- event plumbing -----------------------------------------------------

    def _emit(self, pid: int, stmt: str, result) -> TraceEvent:
        event = TraceEvent(self._seq, pid, stmt, _render(result))
        self._seq += 1
        self.trace.events.append(event)
        return event

    def _after_step(self) -> None:
        if self.system.debug:
            self.system.verify_invariants()
        if self.audit_every_step:
            for violation in self.system.gateway.audit().violations:
                self._violations.setdefault(violation, None)

    # -- the run loop ----------------------------------------------------------

    def run(self) -> RunResult:
        root = self.system.create_initial_process(self.script.layout_spec())
        task = _Task(root, list(self.script.body))
        self._tasks[root.pid] = task
        self._queue.append(root.pid)

        stale_rotations = 0
        while self._queue:
            pid = self._queue.popleft()
            task = self._tasks[pid]
            progressed = self._run_task(task)
            if not task.proc.running:
                del self._tasks[pid]
            if progressed:
                stale_rotations = 0
            else:
                stale_rotations += 1
                if stale_rotations > len(self._queue) + 1:
                    raise SimInternalError("scheduler livelock: nothing can run")

        if self.audit_every_step:
            for violation in self.system.gateway.audit().violations:
                self._violations.setdefault(violation, None)
        audit_report = (
            AuditReport(violations=tuple(self._violations))
            if self.audit_every_step
            else None
        )
        self.system.reap_zombies()
        if self.system.debug:
            self.system.verify_invariants()
        report = self.system.metrics.snapshot()
        return RunResult(
            strategy=self.system.strategy,
            isolation=self.system.isolation,
            trace=self.trace,
            report=report,
            audit=audit_report,
            expect_failures=tuple(self._expect_failures),
            system=self.system,
        )

    def _run_task(self, task: _Task) -> bool:
        """Run one task until it yields, blocks, or dies; True if it progressed."""
        progressed = False
        while task.proc.running:
            if task.ip >= len(task.stream):
                task.stream.append(Exit(0))
            stmt = task.stream[task.ip]
            outcome = self._execute(task, stmt)
            if outcome is _BLOCKED:
                self._queue.append(task.proc.pid)
                return progressed
            progressed = True
            self._after_step()
            if outcome is _DEAD:
                return True
            task.ip += 1
            if outcome is _YIELDED:
                self._queue.append(task.proc.pid)
                return True
        return progressed

    # -- statement execution -------------------------------------------------------

    def _execute(self, task: _Task, stmt):
        """Run one statement and write its trace event and the task's result.

        A fork that returned a child pid also writes the child's event,
        right after the parent's.
        """
        text = format_statement(stmt)
        succeeded = False
        try:
            result = self._dispatch(task, stmt)
            succeeded = True
        except FaultError as err:
            # Fatal fault: the statement dies, and so does the process.
            result = err.fault.kind.value
            self._kill(task)
        except SyscallError as err:
            result = err.code
        except SimInternalError:
            raise
        except SimulatorError as err:
            result = type(err).__name__
        if result is _BLOCKED:
            return _BLOCKED
        event = self._emit(task.proc.pid, text, result)
        if isinstance(stmt, Expect):
            if event.result != "ok":
                self._expect_failures.append(event.seq)
        else:
            task.last_result = event.result
        if succeeded and isinstance(stmt, Fork):
            self._emit(result, text, 0)
        if not task.proc.running:
            return _DEAD
        if succeeded and isinstance(stmt, Yield):
            return _YIELDED
        return None

    def _kill(self, task: _Task) -> None:
        if task.proc.running:
            self.system.fork_engine.exit(task.proc.pid, FAULT_EXIT_CODE)

    def _dispatch(self, task: _Task, stmt):
        """Perform one statement and return its result, or ``_BLOCKED``."""
        system = self.system
        proc = task.proc
        pid = proc.pid

        if isinstance(stmt, Alloc):
            amc = proc.registers["amc"]
            meta = proc.layout.alloc_meta.base
            cursor_cap = system.access(pid, amc.with_cursor(meta), AccessKind.CAP_LOAD)
            size = (stmt.size + GRANULE - 1) // GRANULE * GRANULE
            handle = cursor_cap.derive(cursor_cap.cursor, size)
            advanced = cursor_cap.with_cursor(cursor_cap.cursor + size)
            system.access(pid, amc.with_cursor(meta), AccessKind.CAP_STORE, advanced)
            proc.symbols[stmt.name] = handle
            return handle.base - proc.layout.heap.base

        if isinstance(stmt, StoreInt):
            cap = self._symbol(proc, stmt.name, stmt.offset)
            payload = (stmt.value % (1 << 64)).to_bytes(8, "little")
            # The pipeline checks one page per access, so a store that
            # straddles two pages goes through the page-chunked helper:
            # one access, and one fault resolution, per page.
            return system.write_user_bytes(pid, cap, payload)

        if isinstance(stmt, StoreRef):
            dest = self._symbol(proc, stmt.name, stmt.offset)
            target = self._symbol(proc, stmt.target, stmt.target_offset)
            system.access(pid, dest, AccessKind.CAP_STORE, target)
            return GRANULE

        if isinstance(stmt, LoadInt):
            cap = self._symbol(proc, stmt.name, stmt.offset)
            return int.from_bytes(system.read_user_bytes(pid, cap, 8), "little")

        if isinstance(stmt, LoadRef):
            cap = self._symbol(proc, stmt.name, stmt.offset)
            proc.loaded_ref = system.access(pid, cap, AccessKind.CAP_LOAD)
            return proc.loaded_ref

        if isinstance(stmt, Deref):
            loaded = proc.loaded_ref
            if loaded is None:
                raise SyscallError("ENOREF", "no loaded reference")
            cap = loaded.with_cursor(loaded.cursor + stmt.offset) if stmt.offset else loaded
            return int.from_bytes(system.read_user_bytes(pid, cap, 8), "little")

        if isinstance(stmt, Fork):
            child_pid = self._syscall(proc, "fork", {})
            child_task = _Task(system.process(child_pid), list(stmt.body))
            child_task.files = dict(task.files)
            self._tasks[child_pid] = child_task
            self._queue.append(child_pid)
            if not stmt.nowait:
                task.stream.insert(task.ip + 1, Wait())
            return child_pid

        if isinstance(stmt, Exit):
            self._syscall(proc, "exit", {"code": stmt.code})
            return stmt.code

        if isinstance(stmt, Wait):
            try:
                reaped = self._syscall(proc, "wait", {})
            except NoChildren:
                return "NoChildren"
            if reaped is None:
                return _BLOCKED
            _, code = reaped
            return code

        if isinstance(stmt, Open):
            fd = self._syscall(proc, "open", {"name": stmt.name})
            task.files[stmt.name] = fd
            return fd

        if isinstance(stmt, Close):
            fd = self._file_fd(task, stmt.name)
            return self._syscall(proc, "close", {"fd": fd})

        if isinstance(stmt, (Read, Write)):
            fd = self._file_fd(task, stmt.file)
            buf = self._symbol(proc, stmt.buffer, stmt.offset)
            name = "read" if isinstance(stmt, Read) else "write"
            return self._syscall(proc, name, {"fd": fd, "buf": buf, "count": stmt.count})

        if isinstance(stmt, Yield):
            return self._syscall(proc, "yield", {})

        if isinstance(stmt, Priv):
            return self.system.gateway.attempt_privileged(pid)

        if isinstance(stmt, Expect):
            # Results are compared as the trace renders them.
            if task.last_result == str(stmt.value):
                return "ok"
            return f"FAILED(actual={task.last_result})"

        raise SimInternalError(f"unhandled statement {stmt!r}")

    # -- helpers ----------------------------------------------------------------

    def _symbol(self, proc, name: str, offset: int) -> Capability:
        try:
            cap = proc.symbols[name]
        except KeyError:
            raise SyscallError("ENOSYM", f"symbol {name!r} not bound") from None
        return cap.with_cursor(cap.base + offset)

    def _file_fd(self, task: _Task, name: str) -> int:
        try:
            return task.files[name]
        except KeyError:
            raise SyscallError("EBADFILE", f"file {name!r} not opened") from None

    def _syscall(self, proc, name: str, args: dict):
        return self.system.gateway.syscall(
            proc.pid, proc.entry_caps[name], name, args
        )


def _render(value) -> str:
    if isinstance(value, Capability):
        tag = "" if value.tag else ":untagged"
        return f"cap:{value.cursor:#x}+{value.length:#x}{tag}"
    if isinstance(value, bool):
        return str(int(value))
    return str(value)
