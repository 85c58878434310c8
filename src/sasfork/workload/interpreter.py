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
sequence is the run's value hash.  Copy events and fault counters live
in the metrics report, not the trace, so cost never leaks into the
equivalence check.
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
    __slots__ = ("pid", "stream", "ip", "last_result", "files", "dead")

    def __init__(self, pid: int, stream: list):
        self.pid = pid
        self.stream = stream
        self.ip = 0
        self.last_result: int | str = 0
        self.files: dict[str, int] = {}
        self.dead = False


_YIELDED = object()
_BLOCKED = object()
_DEAD = object()


def run(
    script: Script | str,
    strategy: ForkStrategy | str,
    isolation: IsolationLevel | str = IsolationLevel.FAULT,
    *,
    debug: bool = False,
    audit: bool | None = None,
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
        audit: bool | None,
    ):
        self.script = script
        self.system = System(strategy, isolation, debug=debug)
        self.audit_every_step = (
            audit if audit is not None else self.system.audit_armed
        )
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
        task = _Task(root.pid, list(self.script.body))
        self._tasks[root.pid] = task
        self._queue.append(root.pid)

        stale_rotations = 0
        while self._queue:
            pid = self._queue.popleft()
            task = self._tasks[pid]
            if task.dead:
                continue
            progressed = self._run_task(task)
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
        while not task.dead:
            if task.ip >= len(task.stream):
                task.stream.append(Exit(0))
            stmt = task.stream[task.ip]
            outcome = self._execute(task, stmt)
            if outcome is _BLOCKED:
                self._queue.append(task.pid)
                return progressed
            progressed = True
            self._after_step()
            if outcome is _DEAD:
                return True
            task.ip += 1
            if outcome is _YIELDED:
                self._queue.append(task.pid)
                return True
        return progressed

    # -- statement execution -------------------------------------------------------

    def _execute(self, task: _Task, stmt):
        pid = task.pid
        text = format_statement(stmt)
        try:
            return self._dispatch(task, stmt, text)
        except FaultError as err:
            # Fatal fault: the statement dies, and so does the process.
            self._emit(pid, text, err.fault.kind.value)
            task.last_result = err.fault.kind.value
            self._kill(task)
            return _DEAD
        except SyscallError as err:
            self._emit(pid, text, err.code)
            task.last_result = err.code
            return None
        except SimInternalError:
            raise
        except SimulatorError as err:
            name = type(err).__name__
            self._emit(pid, text, name)
            task.last_result = name
            return None

    def _kill(self, task: _Task) -> None:
        task.dead = True
        proc = self.system.process(task.pid)
        if proc.running:
            self.system.fork_engine.exit(task.pid, FAULT_EXIT_CODE)

    def _dispatch(self, task: _Task, stmt, text: str):
        system = self.system
        pid = task.pid
        proc = system.process(pid)

        if isinstance(stmt, Alloc):
            amc = proc.registers["amc"]
            meta = proc.layout.alloc_meta.base
            cursor_cap = system.access(pid, amc.with_cursor(meta), AccessKind.CAP_LOAD)
            size = (stmt.size + GRANULE - 1) // GRANULE * GRANULE
            handle = cursor_cap.derive(cursor_cap.cursor, size)
            advanced = cursor_cap.with_cursor(cursor_cap.cursor + size)
            system.access(pid, amc.with_cursor(meta), AccessKind.CAP_STORE, advanced)
            proc.symbols[stmt.name] = handle
            result = handle.base - proc.layout.heap.base
            task.last_result = result
            self._emit(pid, text, result)
            return None

        if isinstance(stmt, StoreInt):
            cap = self._symbol(proc, stmt.name, stmt.offset)
            payload = (stmt.value % (1 << 64)).to_bytes(8, "little")
            # Page-chunked so a store straddling two shared pages gets
            # one fault resolution per page.
            system.write_user_bytes(pid, cap, payload)
            task.last_result = 8
            self._emit(pid, text, 8)
            return None

        if isinstance(stmt, StoreRef):
            dest = self._symbol(proc, stmt.name, stmt.offset)
            target = self._symbol(proc, stmt.target, stmt.target_offset)
            system.access(pid, dest, AccessKind.CAP_STORE, target)
            task.last_result = GRANULE
            self._emit(pid, text, GRANULE)
            return None

        if isinstance(stmt, LoadInt):
            cap = self._symbol(proc, stmt.name, stmt.offset)
            value = int.from_bytes(system.read_user_bytes(pid, cap, 8), "little")
            task.last_result = value
            self._emit(pid, text, value)
            return None

        if isinstance(stmt, LoadRef):
            cap = self._symbol(proc, stmt.name, stmt.offset)
            loaded = system.access(pid, cap, AccessKind.CAP_LOAD)
            proc.loaded_ref = loaded
            task.last_result = _render(loaded)
            self._emit(pid, text, loaded)
            return None

        if isinstance(stmt, Deref):
            loaded = proc.loaded_ref
            if loaded is None:
                raise SyscallError("ENOREF", "no loaded reference")
            cap = loaded.with_cursor(loaded.cursor + stmt.offset) if stmt.offset else loaded
            value = int.from_bytes(system.read_user_bytes(pid, cap, 8), "little")
            task.last_result = value
            self._emit(pid, text, value)
            return None

        if isinstance(stmt, Fork):
            child_pid = self._syscall(proc, "fork", {})
            child_task = _Task(child_pid, list(stmt.body))
            child_task.files = dict(task.files)
            child_task.last_result = 0
            self._tasks[child_pid] = child_task
            self._queue.append(child_pid)
            task.last_result = child_pid
            self._emit(pid, text, child_pid)
            self._emit(child_pid, text, 0)
            if not stmt.nowait:
                task.stream.insert(task.ip + 1, Wait())
            return None

        if isinstance(stmt, Exit):
            self._syscall(proc, "exit", {"code": stmt.code})
            task.last_result = stmt.code
            self._emit(pid, text, stmt.code)
            task.dead = True
            return _DEAD

        if isinstance(stmt, Wait):
            try:
                reaped = self._syscall(proc, "wait", {})
            except NoChildren:
                task.last_result = "NoChildren"
                self._emit(pid, text, "NoChildren")
                return None
            if reaped is None:
                return _BLOCKED
            child_pid, code = reaped
            task.last_result = code
            self._emit(pid, text, code)
            return None

        if isinstance(stmt, Open):
            fd = self._syscall(proc, "open", {"name": stmt.name})
            task.files[stmt.name] = fd
            task.last_result = fd
            self._emit(pid, text, fd)
            return None

        if isinstance(stmt, Close):
            fd = self._file_fd(task, stmt.name)
            self._syscall(proc, "close", {"fd": fd})
            task.last_result = 0
            self._emit(pid, text, 0)
            return None

        if isinstance(stmt, Read):
            fd = self._file_fd(task, stmt.file)
            buf = self._symbol(proc, stmt.buffer, stmt.offset)
            n = self._syscall(proc, "read", {"fd": fd, "buf": buf, "count": stmt.count})
            task.last_result = n
            self._emit(pid, text, n)
            return None

        if isinstance(stmt, Write):
            fd = self._file_fd(task, stmt.file)
            buf = self._symbol(proc, stmt.buffer, stmt.offset)
            n = self._syscall(proc, "write", {"fd": fd, "buf": buf, "count": stmt.count})
            task.last_result = n
            self._emit(pid, text, n)
            return None

        if isinstance(stmt, Yield):
            self._syscall(proc, "yield", {})
            task.last_result = 0
            self._emit(pid, text, 0)
            return _YIELDED

        if isinstance(stmt, Priv):
            outcome = self.system.gateway.attempt_privileged(pid)
            task.last_result = outcome
            self._emit(pid, text, outcome)
            return None

        if isinstance(stmt, Expect):
            actual = task.last_result
            wanted = stmt.value
            matches = (
                actual == wanted
                if isinstance(wanted, int)
                else str(actual) == str(wanted)
            )
            if matches:
                self._emit(pid, text, "ok")
            else:
                event = self._emit(pid, text, f"FAILED(actual={actual})")
                self._expect_failures.append(event.seq)
            return None

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
