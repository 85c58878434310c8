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

A table maps each statement type to its handler, which performs the
statement and writes the trace event of a success (``_execute`` writes
a failure's).  An event formats its statement once and keeps the
rendered result as the task's previous result, which ``expect`` compares
against; a blocked ``wait`` writes none.  The sha256 over the events'
``(pid, statement, result)`` is the run's value hash.  Copy events and
fault counters live in the metrics report, not the trace, so cost never
leaks into the equivalence check.

A run leaves its :class:`Script` as it was: tasks read its tuples, a
forked child shares its fork's ``body``, the ``wait`` behind a fork
without ``nowait`` is a flag on the parent's task, and a stream that
ends runs an implicit ``exit 0``.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from ..address_space import AccessKind, FaultError
from ..capability import GRANULE, Capability
from ..errors import NoChildren, SimInternalError, SimulatorError, SyscallError
from ..kernel import AuditReport, IsolationLevel
from ..fork_engine import ForkStrategy
from ..metrics import MetricsReport
from ..process import MicroProcess
from ..system import System
from .script import (
    Alloc, Close, Deref, Exit, Expect, Fork, LoadInt, LoadRef, Open, Priv, Read, Script,
    StoreInt, StoreRef, Wait, Write, Yield, format_statement, parse,
)

#: Exit status assigned to a process killed by a fatal fault.
FAULT_EXIT_CODE = 139

_tuple_new = tuple.__new__


class TraceEvent(NamedTuple):
    """One trace line; it compares equal to a plain tuple of its fields."""

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
    __slots__ = ("proc", "stream", "ip", "wait_pending", "last_result", "files")

    def __init__(self, proc: MicroProcess, stream: tuple, files: dict[str, int]):
        # The task is live while its process is running; the scheduler
        # drops it once the process exits.
        self.proc = proc
        self.stream = stream
        self.ip = 0
        # Set by a fork without ``nowait``: wait before the next statement.
        self.wait_pending = False
        # The previous statement's result as the trace rendered it; a
        # forked child starts with the fork's return value, 0.
        self.last_result = "0"
        self.files = files


_YIELDED = object()
_BLOCKED = object()
#: What a task runs for a pending implicit wait, and at the end of its stream.
_IMPLICIT_WAIT = Wait()
_IMPLICIT_EXIT = Exit(0)


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
    resident-set conservation at each step, over what the step changed,
    and over the whole page table once the run ends.
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
        self._violations: dict = {}
        self._expect_failures: list[int] = []
        self._tasks: dict[int, _Task] = {}
        self._queue: deque[int] = deque()

    # -- event plumbing -----------------------------------------------------

    def _emit(self, task: _Task, stmt, result) -> None:
        """Write a statement's event; its result becomes the task's previous one."""
        rendered = task.last_result = _render(result)
        events = self.trace.events
        text = format_statement(stmt)
        events.append(_tuple_new(TraceEvent, (len(events), task.proc.pid, text, rendered)))

    def _after_step(self) -> None:
        if self.system.debug:
            self.system.verify_invariants()
        if self.audit_every_step:
            for violation in self.system.gateway.audit().violations:
                self._violations.setdefault(violation, None)

    # -- the run loop ----------------------------------------------------------

    def run(self) -> RunResult:
        root = self.system.create_initial_process(self.script.layout_spec())
        self._tasks[root.pid] = _Task(root, self.script.body, {})
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

        audit_report = None
        if self.audit_every_step:
            for violation in self.system.gateway.audit().violations:
                self._violations.setdefault(violation, None)
            audit_report = AuditReport(violations=tuple(self._violations))
        self.system.reap_zombies()
        if self.system.debug:
            self.system.verify_invariants(full=True)
        return RunResult(
            strategy=self.system.strategy,
            isolation=self.system.isolation,
            trace=self.trace,
            report=self.system.metrics.snapshot(),
            audit=audit_report,
            expect_failures=tuple(self._expect_failures),
            system=self.system,
        )

    def _run_task(self, task: _Task) -> bool:
        """Run one task until it yields, blocks, or dies; True if it progressed."""
        progressed = False
        proc, stream = task.proc, task.stream
        while proc.running:
            if task.wait_pending:
                stmt = _IMPLICIT_WAIT
            elif task.ip < len(stream):
                stmt = stream[task.ip]
            else:
                stmt = _IMPLICIT_EXIT
            outcome = self._execute(task, stmt)
            if outcome is _BLOCKED:
                self._queue.append(proc.pid)
                return progressed
            progressed = True
            self._after_step()
            if not proc.running:
                return True
            if stmt is _IMPLICIT_WAIT:
                task.wait_pending = False
            else:
                task.ip += 1
            if outcome is _YIELDED:
                self._queue.append(proc.pid)
                return True
        return progressed

    # -- statement execution -------------------------------------------------------

    def _execute(self, task: _Task, stmt):
        """Run one statement; return ``_BLOCKED``, ``_YIELDED`` or None.

        The handler writes the event of a success.  A failure's event is
        written here, after a fatal fault has also killed the process.
        """
        handler = _HANDLERS.get(type(stmt))
        if handler is None:
            raise SimInternalError(f"unhandled statement {stmt!r}")
        try:
            return handler(self, task, stmt)
        except FaultError as err:
            # Fatal fault: the statement dies, and so does the process.
            result = err.fault.kind.value
            if task.proc.running:
                self.system.fork_engine.exit(task.proc.pid, FAULT_EXIT_CODE)
        except SyscallError as err:
            result = err.code
        except SimInternalError:
            raise
        except SimulatorError as err:
            result = type(err).__name__
        self._emit(task, stmt, result)
        return None

    def _alloc(self, task: _Task, stmt: Alloc) -> None:
        system, proc = self.system, task.proc
        meta = proc.registers["amc"].with_cursor(proc.layout.alloc_meta.base)
        cursor_cap = system.access(proc.pid, meta, AccessKind.CAP_LOAD)
        size = (stmt.size + GRANULE - 1) // GRANULE * GRANULE
        handle = cursor_cap.derive(cursor_cap.cursor, size)
        advanced = cursor_cap.with_cursor(cursor_cap.cursor + size)
        system.access(proc.pid, meta, AccessKind.CAP_STORE, advanced)
        proc.symbols[stmt.name] = handle
        self._emit(task, stmt, handle.base - proc.layout.heap.base)

    def _store_int(self, task: _Task, stmt: StoreInt) -> None:
        proc = task.proc
        cap = self._symbol(proc, stmt.name, stmt.offset)
        payload = (stmt.value % (1 << 64)).to_bytes(8, "little")
        # The page-chunked helper gives a store that straddles two pages
        # one access, and one fault resolution, per page.
        self._emit(task, stmt, self.system.write_user_bytes(proc.pid, cap, payload))

    def _store_ref(self, task: _Task, stmt: StoreRef) -> None:
        proc = task.proc
        dest = self._symbol(proc, stmt.name, stmt.offset)
        target = self._symbol(proc, stmt.target, stmt.target_offset)
        self.system.access(proc.pid, dest, AccessKind.CAP_STORE, target)
        self._emit(task, stmt, GRANULE)

    def _load_int(self, task: _Task, stmt: LoadInt) -> None:
        proc = task.proc
        cap = self._symbol(proc, stmt.name, stmt.offset)
        data = self.system.read_user_bytes(proc.pid, cap, 8)
        self._emit(task, stmt, int.from_bytes(data, "little"))

    def _load_ref(self, task: _Task, stmt: LoadRef) -> None:
        proc = task.proc
        cap = self._symbol(proc, stmt.name, stmt.offset)
        proc.loaded_ref = self.system.access(proc.pid, cap, AccessKind.CAP_LOAD)
        self._emit(task, stmt, proc.loaded_ref)

    def _deref(self, task: _Task, stmt: Deref) -> None:
        loaded = task.proc.loaded_ref
        if loaded is None:
            raise SyscallError("ENOREF", "no loaded reference")
        cap = loaded.with_cursor(loaded.cursor + stmt.offset) if stmt.offset else loaded
        data = self.system.read_user_bytes(task.proc.pid, cap, 8)
        self._emit(task, stmt, int.from_bytes(data, "little"))

    def _fork(self, task: _Task, stmt: Fork) -> None:
        child_pid = self._syscall(task.proc, "fork", {})
        child = _Task(self.system.process(child_pid), stmt.body, dict(task.files))
        self._tasks[child_pid] = child
        self._queue.append(child_pid)
        task.wait_pending = not stmt.nowait
        self._emit(task, stmt, child_pid)
        # The child's event comes right after the parent's: fork returned 0.
        self._emit(child, stmt, 0)

    def _exit(self, task: _Task, stmt: Exit) -> None:
        self._syscall(task.proc, "exit", {"code": stmt.code})
        self._emit(task, stmt, stmt.code)

    def _wait(self, task: _Task, stmt: Wait):
        try:
            reaped = self._syscall(task.proc, "wait", {})
        except NoChildren:
            return self._emit(task, stmt, "NoChildren")
        if reaped is None:
            return _BLOCKED
        return self._emit(task, stmt, reaped[1])

    def _open(self, task: _Task, stmt: Open) -> None:
        task.files[stmt.name] = fd = self._syscall(task.proc, "open", {"name": stmt.name})
        self._emit(task, stmt, fd)

    def _close(self, task: _Task, stmt: Close) -> None:
        fd = self._file_fd(task, stmt.name)
        self._emit(task, stmt, self._syscall(task.proc, "close", {"fd": fd}))

    def _transfer(self, task: _Task, stmt: Read | Write, name: str) -> None:
        fd = self._file_fd(task, stmt.file)
        buf = self._symbol(task.proc, stmt.buffer, stmt.offset)
        args = {"fd": fd, "buf": buf, "count": stmt.count}
        self._emit(task, stmt, self._syscall(task.proc, name, args))

    def _yield(self, task: _Task, stmt: Yield):
        self._emit(task, stmt, self._syscall(task.proc, "yield", {}))
        return _YIELDED

    def _priv(self, task: _Task, stmt: Priv) -> None:
        self._emit(task, stmt, self.system.gateway.attempt_privileged(task.proc.pid))

    def _expect(self, task: _Task, stmt: Expect) -> None:
        # Results are compared as the trace renders them, and an expect
        # leaves the task's previous result as it was.
        actual = task.last_result
        result = "ok" if actual == str(stmt.value) else f"FAILED(actual={actual})"
        if result != "ok":
            self._expect_failures.append(len(self.trace.events))
        self._emit(task, stmt, result)
        task.last_result = actual

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
        return self.system.gateway.syscall(proc.pid, proc.entry_caps[name], name, args)


#: The handler of each statement type; see :meth:`_Interpreter._execute`.
_HANDLERS = {
    Alloc: _Interpreter._alloc,
    StoreInt: _Interpreter._store_int,
    StoreRef: _Interpreter._store_ref,
    LoadInt: _Interpreter._load_int,
    LoadRef: _Interpreter._load_ref,
    Deref: _Interpreter._deref,
    Fork: _Interpreter._fork,
    Exit: _Interpreter._exit,
    Wait: _Interpreter._wait,
    Open: _Interpreter._open,
    Close: _Interpreter._close,
    Read: partial(_Interpreter._transfer, name="read"),
    Write: partial(_Interpreter._transfer, name="write"),
    Yield: _Interpreter._yield,
    Priv: _Interpreter._priv,
    Expect: _Interpreter._expect,
}


def _render(value) -> str:
    cls = type(value)
    if cls is Capability:
        tag = "" if value.tag else ":untagged"
        return f"cap:{value.cursor:#x}+{value.length:#x}{tag}"
    if cls is bool:
        return str(int(value))
    return str(value)
