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
statement and writes the trace event of a success (the run loop writes
a failure's); a blocked ``wait`` writes none.  An event keeps what
happened, not its text: the pid, the script's own statement tuple and
the raw result, all immutable and mostly alive anyway.  The trace keeps
them as three parallel columns, so writing an event builds no object;
its text is rendered only when the trace is read, as :mod:`logging`
defers formatting until a record is emitted.  The raw result is also
the task's previous result, which ``expect`` renders and compares
against.  The sha256 over the events' rendered ``(pid, statement,
result)`` is the run's value hash.  Copy events and fault counters live
in the metrics report, not the trace, so cost never leaks into the
equivalence check.

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
    Statement, StoreInt, StoreRef, Wait, Write, Yield, format_statement, parse,
)

#: Exit status assigned to a process killed by a fatal fault.
FAULT_EXIT_CODE = 139

_tuple_new = tuple.__new__


class TraceEvent(NamedTuple):
    """One statement a process ran: its pid, the statement and the raw result.

    The readers' view of one row of a :class:`Trace`, built when
    :attr:`Trace.events` is read.  ``statement`` is the script's own
    statement tuple, or the implicit ``wait`` or ``exit 0``; ``value`` is
    an int, bool, str, None or :class:`Capability`.  ``stmt`` and
    ``result`` render them as the trace prints them.  An event compares
    equal to the plain tuple ``(pid, statement, value)``, so two events
    with the same text but, say, the results ``1`` and ``"1"`` are not
    equal.
    """

    pid: int
    statement: Statement
    value: object

    @property
    def stmt(self) -> str:
        return format_statement(self.statement)

    @property
    def result(self) -> str:
        return _render(self.value)


@dataclass
class Trace:
    """A run's events in the order they happened, as three parallel columns.

    Event ``i`` is ``(pids[i], statements[i], values[i])``, and ``i`` is
    its sequence number.  The run appends to the columns and builds no
    event; the readers render each event's text when they run.
    """

    pids: list[int] = field(default_factory=list)
    statements: list[Statement] = field(default_factory=list)
    values: list[object] = field(default_factory=list)

    @property
    def events(self) -> list[TraceEvent]:
        """The events as :class:`TraceEvent` tuples, built at each read."""
        return [_tuple_new(TraceEvent, row) for row in self._rows()]

    def value_hash(self) -> str:
        digest = hashlib.sha256()
        for pid, statement, value in self._rows():
            digest.update(f"{pid}|{format_statement(statement)}|{_render(value)}\n".encode())
        return digest.hexdigest()

    def to_text(self) -> str:
        return "\n".join(
            f"[{seq}] pid={pid} {format_statement(statement)} -> {_render(value)}"
            for seq, (pid, statement, value) in enumerate(self._rows())
        )

    def _rows(self):
        return zip(self.pids, self.statements, self.values)


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
        # The previous statement's raw result; a forked child starts with
        # the fork's return value, 0.
        self.last_result = 0
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
        task.last_result = result
        trace = self.trace
        trace.pids.append(task.proc.pid)
        trace.statements.append(stmt)
        trace.values.append(result)

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
        """Run one task until it yields, blocks, or dies; True if it progressed.

        Each statement's handler writes the event of a success.  A
        failure's event is written here, after a fatal fault has also
        killed the process; ``_emit`` returns None, so a failed statement
        neither blocks nor yields.
        """
        proc, stream = task.proc, task.stream
        if not proc.running:
            return False
        progressed = False
        while True:
            if task.wait_pending:
                stmt = _IMPLICIT_WAIT
            elif task.ip < len(stream):
                stmt = stream[task.ip]
            else:
                stmt = _IMPLICIT_EXIT
            handler = _HANDLERS.get(type(stmt))
            if handler is None:
                raise SimInternalError(f"unhandled statement {stmt!r}")
            try:
                outcome = handler(self, task, stmt)
            except FaultError as err:
                # Fatal fault: the statement dies, and so does the process.
                if proc.running:
                    self.system.fork_engine.exit(proc.pid, FAULT_EXIT_CODE)
                outcome = self._emit(task, stmt, err.fault.kind.value)
            except SyscallError as err:
                outcome = self._emit(task, stmt, err.code)
            except SimInternalError:
                raise
            except SimulatorError as err:
                outcome = self._emit(task, stmt, type(err).__name__)
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

    # -- statement execution -------------------------------------------------------

    def _alloc(self, task: _Task, stmt: Alloc) -> None:
        system, proc = self.system, task.proc
        meta, at = proc.registers["amc"], proc.layout.alloc_meta.base
        cursor_cap = system.access(proc.pid, meta, AccessKind.CAP_LOAD, at=at)
        size = (stmt.size + GRANULE - 1) // GRANULE * GRANULE
        handle = cursor_cap.derive(cursor_cap.cursor, size)
        advanced = cursor_cap.with_cursor(cursor_cap.cursor + size)
        system.access(proc.pid, meta, AccessKind.CAP_STORE, advanced, at=at)
        proc.symbols[stmt.name] = handle
        self._emit(task, stmt, handle.base - proc.layout.heap.base)

    def _store_int(self, task: _Task, stmt: StoreInt) -> None:
        proc = task.proc
        cap = self._bound(proc, stmt.name)
        payload = (stmt.value % (1 << 64)).to_bytes(8, "little")
        # The page-chunked helper gives a store that straddles two pages
        # one access, and one fault resolution, per page.
        written = self.system.write_user_bytes(proc.pid, cap, payload, cap.base + stmt.offset)
        self._emit(task, stmt, written)

    def _store_ref(self, task: _Task, stmt: StoreRef) -> None:
        proc = task.proc
        dest = self._bound(proc, stmt.name)
        # The target is a value the store writes, so its cursor moves.
        target = self._symbol(proc, stmt.target, stmt.target_offset)
        at = dest.base + stmt.offset
        self.system.access(proc.pid, dest, AccessKind.CAP_STORE, target, at=at)
        self._emit(task, stmt, GRANULE)

    def _load_int(self, task: _Task, stmt: LoadInt) -> None:
        proc = task.proc
        cap = self._bound(proc, stmt.name)
        self._emit(task, stmt, self.system.read_user_int(proc.pid, cap, 8, cap.base + stmt.offset))

    def _load_ref(self, task: _Task, stmt: LoadRef) -> None:
        proc = task.proc
        cap = self._bound(proc, stmt.name)
        at = cap.base + stmt.offset
        proc.loaded_ref = self.system.access(proc.pid, cap, AccessKind.CAP_LOAD, at=at)
        self._emit(task, stmt, proc.loaded_ref)

    def _deref(self, task: _Task, stmt: Deref) -> None:
        loaded = task.proc.loaded_ref
        if loaded is None:
            raise SyscallError("ENOREF", "no loaded reference")
        at = loaded.cursor + stmt.offset
        self._emit(task, stmt, self.system.read_user_int(task.proc.pid, loaded, 8, at))

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
        previous = task.last_result
        actual = _render(previous)
        result = "ok" if actual == str(stmt.value) else f"FAILED(actual={actual})"
        if result != "ok":
            self._expect_failures.append(len(self.trace.pids))
        self._emit(task, stmt, result)
        task.last_result = previous

    # -- helpers ----------------------------------------------------------------

    def _bound(self, proc, name: str) -> Capability:
        """The capability bound to ``name``.

        An access through a symbol passes it with the address it lands on,
        ``base + offset``.  A symbol is never sealed, so its accesses need
        not refuse a cursor move: ``alloc`` binds only what
        :meth:`Capability.derive` returns, which refuses a sealed source
        and so is unsealed, and a fork's relocation keeps it unsealed.
        """
        try:
            return proc.symbols[name]
        except KeyError:
            raise SyscallError("ENOSYM", f"symbol {name!r} not bound") from None

    def _symbol(self, proc, name: str, offset: int) -> Capability:
        """``name``'s capability with its cursor ``offset`` past its base:
        a capability as a value, which a store writes or a syscall takes."""
        cap = self._bound(proc, name)
        return cap.with_cursor(cap.base + offset)

    def _file_fd(self, task: _Task, name: str) -> int:
        try:
            return task.files[name]
        except KeyError:
            raise SyscallError("EBADFILE", f"file {name!r} not opened") from None

    def _syscall(self, proc, name: str, args: dict):
        return self.system.gateway.syscall(proc.pid, proc.entry_caps[name], name, args)


#: The handler of each statement type; see :meth:`_Interpreter._run_task`.
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
