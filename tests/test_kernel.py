"""Gateway: sealed entries, isolation levels, TOCTTOU, privilege, audit."""

import gc
import sys
from bisect import bisect_left
import tracemalloc
from pathlib import Path

import pytest

import sasfork.system
from sasfork.address_space import (
    AccessKind,
    AddressSpace,
    FaultError,
    FaultKind,
    PageState,
)
from sasfork.capability import DATA_PERMS, GRANULE, PAGE_SIZE, Capability, Perm
from sasfork.errors import (
    InvalidInvoke,
    ProcessNotRunning,
    SimInternalError,
    SyscallError,
    UnknownPid,
)
from sasfork.kernel import (
    _ENTRY_OTYPE_BASE,
    AuditReport,
    AuditViolation,
    IsolationLevel,
    KernelGateway,
    ProbeOutcome,
)
from sasfork.process import KERNEL_PID, LayoutSpec
from sasfork.system import System
from sasfork.workload import run
from test_acceptance import STALE_DEMO, corpus
from test_golden import GEN_SLICE, GOLDEN

BENCH = Path(__file__).resolve().parent.parent / "bench"


def make_system(isolation="fault", strategy="copa"):
    return System(strategy, isolation, debug=True)


def buffer_cap(proc, offset=0, length=None, perms=DATA_PERMS):
    heap = proc.layout.heap
    length = heap.size if length is None else length
    return Capability(
        base=heap.base + offset,
        length=length,
        cursor=heap.base + offset,
        perms=perms,
    )


class TestSealedEntries:
    def test_invoke_dispatches_to_the_handler(self):
        system = make_system()
        proc = system.create_initial_process()
        entry = proc.entry_caps["getpid"]
        assert system.gateway.syscall(proc.pid, entry, "getpid", {}) == proc.pid

    def test_direct_load_through_a_sealed_entry_faults(self):
        system = make_system()
        proc = system.create_initial_process()
        entry = proc.entry_caps["getpid"]
        with pytest.raises(FaultError) as err:
            system.access(proc.pid, entry, AccessKind.CAP_LOAD)
        assert err.value.fault.kind is FaultKind.CAP_SEALED

    def test_exec_through_a_sealed_entry_faults(self):
        system = make_system()
        proc = system.create_initial_process()
        with pytest.raises(FaultError) as err:
            system.access(proc.pid, proc.entry_caps["fork"], AccessKind.EXEC)
        assert err.value.fault.kind is FaultKind.CAP_SEALED

    def test_forged_unsealed_kernel_cap_bounds_faults_before_dispatch(self):
        system = make_system()
        proc = system.create_initial_process()
        forged = Capability(
            base=system.kernel_region.base,
            length=GRANULE,
            cursor=system.kernel_region.base,
            perms=Perm.EXEC | Perm.LOAD,
        )
        with pytest.raises(FaultError) as err:
            system.gateway.syscall(proc.pid, forged, "getpid", {})
        assert err.value.fault.kind is FaultKind.CAP_BOUNDS

    @pytest.mark.parametrize(
        "kind", [FaultKind.CAP_TAG, FaultKind.CAP_BOUNDS], ids=["untagged", "forged"]
    )
    def test_an_entry_fault_is_counted_in_the_callers_report_row(self, kind):
        system = make_system()
        proc = system.create_initial_process()
        if kind is FaultKind.CAP_TAG:
            entry = proc.entry_caps["getpid"].untagged()
        else:
            entry = system.kernel_code_cap.derive(system.kernel_region.base, GRANULE)
        with pytest.raises(FaultError) as err:
            system.gateway.syscall(proc.pid, entry, "getpid", {})
        assert err.value.fault.kind is kind
        assert system.metrics.snapshot().row(proc.pid).faults == {kind: 1}

    def test_every_process_shares_one_read_only_entry_map(self):
        system = make_system()
        root = system.create_initial_process()
        child = system.process(system.fork_engine.fork(root.pid))
        assert root.entry_caps is child.entry_caps is system.gateway.entries
        with pytest.raises(TypeError):
            root.entry_caps["getpid"] = child.entry_caps["fork"]
        with pytest.raises(TypeError):
            system.gateway.entries["late"] = root.entry_caps["fork"]

    def test_default_entries_cover_the_syscall_surface(self):
        system = make_system()
        entries = system.gateway.entries
        assert list(entries) == [
            "fork", "exit", "wait", "getpid", "open", "close", "read", "write", "brk", "yield"
        ]
        # The table's order fixes each entry's object type.
        assert [e.otype for e in entries.values()] == list(range(16, 26))

    def test_unknown_syscall_is_enosys(self):
        system = make_system()
        proc = system.create_initial_process()
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(proc.pid, proc.entry_caps["fork"], "mmap", {})
        assert err.value.code == "ENOSYS"

    def test_entry_name_mismatch_is_invalid_invoke(self):
        system = make_system()
        proc = system.create_initial_process()
        with pytest.raises(InvalidInvoke):
            system.gateway.syscall(proc.pid, proc.entry_caps["fork"], "getpid", {})

    @pytest.mark.parametrize(
        "make_lookalike",
        [
            # fork's object type over other bounds
            lambda code, fork, n: code.derive(code.base + GRANULE, 2 * GRANULE).seal(fork.otype),
            # one object type past the table
            lambda code, fork, n: code.derive(fork.base, GRANULE).seal(fork.otype + n),
            # one object type below the table
            lambda code, fork, n: code.derive(fork.base, GRANULE).seal(_ENTRY_OTYPE_BASE - 1),
        ],
        ids=["other-bounds", "past-the-table", "below-the-table"],
    )
    def test_lookalike_sealed_capabilities_are_not_entries(self, make_lookalike):
        system = make_system()
        proc = system.create_initial_process()
        gateway = system.gateway
        cap = make_lookalike(system.kernel_code_cap, gateway.entries["fork"], len(gateway.entries))
        assert cap.sealed
        with pytest.raises(InvalidInvoke):
            gateway.syscall(proc.pid, cap, "fork", {})
        assert not gateway.is_entry_capability(cap)
        proc.registers["r0"] = cap
        report = gateway.audit()
        assert [(v.location, v.cap) for v in report.violations] == [("register:r0", cap)]


class TestArgumentValidation:
    def write_with_escaping_buffer(self, isolation):
        system = make_system(isolation)
        proc = system.create_initial_process()
        other = system.create_initial_process()
        # A capability reaching into another process's region: only
        # forgeable from test scaffolding, which is the point.
        stray = Capability(
            base=other.layout.heap.base,
            length=256,
            cursor=other.layout.heap.base,
            perms=DATA_PERMS,
        )
        system.access(
            other.pid,
            stray.with_cursor(other.layout.heap.base),
            AccessKind.WRITE,
            b"leak!!!!",
        )
        fd = system.gateway.syscall(
            proc.pid, proc.entry_caps["open"], "open", {"name": "out"}
        )
        return system, proc, fd, stray

    def test_fault_isolation_rejects_out_of_region_buffers(self):
        system, proc, fd, stray = self.write_with_escaping_buffer("fault")
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(
                proc.pid,
                proc.entry_caps["write"],
                "write",
                {"fd": fd, "buf": stray, "count": 8},
            )
        assert err.value.code == "EFAULT"

    def test_full_isolation_rejects_out_of_region_buffers(self):
        system, proc, fd, stray = self.write_with_escaping_buffer("full")
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(
                proc.pid,
                proc.entry_caps["write"],
                "write",
                {"fd": fd, "buf": stray, "count": 8},
            )
        assert err.value.code == "EFAULT"

    def test_no_isolation_executes_the_leak(self):
        system, proc, fd, stray = self.write_with_escaping_buffer("none")
        n = system.gateway.syscall(
            proc.pid,
            proc.entry_caps["write"],
            "write",
            {"fd": fd, "buf": stray, "count": 8},
        )
        assert n == 8
        obj = system.files.object_for_fd(proc, fd)
        assert bytes(obj.data) == b"leak!!!!"

    def test_an_oversized_count_faults_without_splitting_the_rest(self):
        """Without isolation a gigabyte count on a 64-byte buffer reaches the
        copy, which faults on its first page before splitting the others."""
        text = "alloc a 64\nopen f\nwrite f a+0 1000000000\n"
        tracemalloc.start()
        try:
            result = run(text, "copa", "none")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.trace.events[-1].result == "CapBoundsFault"
        assert peak < 2 * 1024 * 1024

    @pytest.mark.parametrize("isolation", ["fault", "full"])
    def test_buffer_past_its_bounds_is_efault_before_any_copy(self, isolation):
        system = make_system(isolation)
        proc = system.create_initial_process()
        fd = system.gateway.syscall(proc.pid, proc.entry_caps["open"], "open", {"name": "f"})
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(
                proc.pid,
                proc.entry_caps["write"],
                "write",
                {"fd": fd, "buf": buffer_cap(proc, length=64), "count": 128},
            )
        assert err.value.code == "EFAULT"
        assert not system.files.object_for_fd(proc, fd).data

    def test_untagged_buffer_is_efault_under_fault_isolation(self):
        system = make_system("fault")
        proc = system.create_initial_process()
        fd = system.gateway.syscall(proc.pid, proc.entry_caps["open"], "open", {"name": "f"})
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(
                proc.pid,
                proc.entry_caps["write"],
                "write",
                {"fd": fd, "buf": buffer_cap(proc).untagged(), "count": 8},
            )
        assert err.value.code == "EFAULT"


class TestSyscallSurface:
    def test_write_records_bytes_in_the_file(self):
        system = make_system()
        proc = system.create_initial_process()
        buf = buffer_cap(proc)
        system.access(proc.pid, buf, AccessKind.WRITE, b"payload!")
        fd = system.gateway.syscall(proc.pid, proc.entry_caps["open"], "open", {"name": "db"})
        n = system.gateway.syscall(
            proc.pid, proc.entry_caps["write"], "write", {"fd": fd, "buf": buf, "count": 8}
        )
        assert n == 8
        assert bytes(system.files.object_for_fd(proc, fd).data) == b"payload!"

    def test_read_copies_back_into_the_caller(self):
        system = make_system("full")
        proc = system.create_initial_process()
        fd = system.gateway.syscall(proc.pid, proc.entry_caps["open"], "open", {"name": "db"})
        system.files.object_for_fd(proc, fd).write(b"fromfile")
        buf = buffer_cap(proc, offset=64)
        n = system.gateway.syscall(
            proc.pid, proc.entry_caps["read"], "read", {"fd": fd, "buf": buf, "count": 8}
        )
        assert n == 8
        assert system.access(proc.pid, buf, AccessKind.READ_INT) == int.from_bytes(
            b"fromfile", "little"
        )

    def test_brk_grows_only_within_the_fixed_heap(self):
        system = make_system()
        proc = system.create_initial_process()
        heap_size = proc.layout.heap.size
        entry = proc.entry_caps["brk"]
        assert (
            system.gateway.syscall(proc.pid, entry, "brk", {"break": heap_size // 2})
            == heap_size // 2
        )
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(proc.pid, entry, "brk", {"break": heap_size + 1})
        assert err.value.code == "ENOMEM"


class TestToctou:
    def probe(self, isolation):
        system = make_system(isolation)
        proc = system.create_initial_process()
        buf = buffer_cap(proc, offset=0, length=GRANULE)
        system.access(proc.pid, buf, AccessKind.WRITE, b"A" * GRANULE)
        mutate = lambda: system.poke_bytes(buf.cursor, b"B" * GRANULE)  # noqa: E731
        return system.gateway.toctou_probe(proc.pid, buf, mutate)

    def test_full_isolation_is_protected(self):
        assert self.probe("full") is ProbeOutcome.PROTECTED

    def test_fault_isolation_is_vulnerable(self):
        assert self.probe("fault") is ProbeOutcome.VULNERABLE

    def test_no_isolation_is_vulnerable(self):
        assert self.probe("none") is ProbeOutcome.VULNERABLE

    def test_no_mutation_is_protected_everywhere(self):
        for isolation in ("full", "fault", "none"):
            system = make_system(isolation)
            proc = system.create_initial_process()
            buf = buffer_cap(proc, length=GRANULE)
            system.access(proc.pid, buf, AccessKind.WRITE, b"C" * GRANULE)
            outcome = system.gateway.toctou_probe(proc.pid, buf, lambda: None)
            assert outcome is ProbeOutcome.PROTECTED


class TestPrivilege:
    def test_process_attempt_faults(self):
        system = make_system()
        proc = system.create_initial_process()
        with pytest.raises(FaultError) as err:
            system.gateway.attempt_privileged(proc.pid)
        assert err.value.fault.kind is FaultKind.PRIVILEGE

    def test_kernel_context_succeeds(self):
        system = make_system()
        assert system.gateway.attempt_privileged(KERNEL_PID) == "ok"

    def test_deriving_system_onto_pcc_is_a_widening_error(self):
        from sasfork.errors import BoundsWiden

        system = make_system()
        proc = system.create_initial_process()
        pcc = proc.registers["pcc"]
        with pytest.raises(BoundsWiden):
            pcc.derive(pcc.base, pcc.length, perms=pcc.perms | Perm.SYSTEM)


def exited_child(reaped):
    """A system, its parent process and a child that exited: a zombie, or
    reaped if ``reaped``."""
    system = make_system()
    parent = system.create_initial_process()
    child = system.process(system.fork_engine.fork(parent.pid))
    system.fork_engine.exit(child.pid, 0)
    if reaped:
        system.fork_engine.reap(child)
    return system, parent, child


#: One call of each syscall that needs nothing but a live caller, with
#: arguments that would pass; the buffer is the parent's heap.
def liveness_calls(parent):
    buf = buffer_cap(parent, length=GRANULE)
    return {
        "open": {"name": "f"},
        "close": {"fd": 3},
        "read": {"fd": 3, "buf": buf, "count": 8},
        "write": {"fd": 3, "buf": buf, "count": 8},
        "brk": {"break": 0},
    }


class TestGatewayLiveness:
    """The gateway acts only for a running process: a zombie or a reaped
    pid raises ProcessNotRunning, as fork and exit do."""

    @pytest.mark.parametrize("reaped", [False, True], ids=["zombie", "reaped"])
    @pytest.mark.parametrize("name", ["open", "close", "read", "write", "brk"])
    def test_a_syscall_for_a_pid_that_does_not_run_raises(self, name, reaped):
        system, parent, child = exited_child(reaped)
        args = liveness_calls(parent)[name]
        faults = system.metrics.snapshot().to_text()
        with pytest.raises(ProcessNotRunning, match=f"pid {child.pid} is not running"):
            system.gateway.syscall(child.pid, parent.entry_caps[name], name, args)
        assert system.metrics.snapshot().to_text() == faults
        system.verify_invariants(full=True)

    @pytest.mark.parametrize("reaped", [False, True], ids=["zombie", "reaped"])
    def test_priv_for_a_pid_that_does_not_run_raises(self, reaped):
        system, _, child = exited_child(reaped)
        with pytest.raises(ProcessNotRunning, match=f"pid {child.pid} is not running"):
            system.gateway.attempt_privileged(child.pid)

    def test_a_pid_never_created_is_unknown(self):
        system = make_system()
        parent = system.create_initial_process()
        with pytest.raises(UnknownPid):
            system.gateway.syscall(999, parent.entry_caps["getpid"], "getpid", {})
        with pytest.raises(UnknownPid):
            system.gateway.attempt_privileged(999)

    def test_a_wait_for_a_pid_never_created_is_unknown(self):
        system = make_system()
        system.create_initial_process()
        engine = system.fork_engine
        for call in (lambda: engine.fork(999), lambda: engine.exit(999, 0), lambda: engine.wait(999)):
            with pytest.raises(UnknownPid):
                call()

    @pytest.mark.parametrize("reaped", [False, True], ids=["running", "reaped"])
    def test_a_reap_refusal_says_whether_the_pid_runs_or_was_reaped(self, reaped):
        system, parent, child = exited_child(True)
        proc, match = (child, "was already reaped") if reaped else (parent, "still runs")
        with pytest.raises(ProcessNotRunning, match=f"pid {proc.pid} {match}"):
            system.fork_engine.reap(proc)


#: Each argument of each syscall that takes arguments, missing, and each
#: numeric one ill-typed.
BAD_ARGUMENTS = {
    f"{name} {how} {arg}": (name, arg, how)
    for name, arg in [
        ("open", "name"),
        ("close", "fd"),
        ("read", "fd"),
        ("read", "buf"),
        ("read", "count"),
        ("write", "fd"),
        ("write", "buf"),
        ("write", "count"),
        ("brk", "break"),
    ]
    for how in ("missing", "ill-typed")
    if not (arg in ("name", "buf") and how == "ill-typed")
}


class TestSyscallArguments:
    """A missing or ill-typed syscall argument is EINVAL, under every
    isolation level, before the handler changes anything."""

    @pytest.mark.parametrize("isolation", ["none", "fault", "full"])
    @pytest.mark.parametrize("case", sorted(BAD_ARGUMENTS))
    def test_a_bad_argument_is_einval(self, case, isolation):
        name, arg, how = BAD_ARGUMENTS[case]
        system = make_system(isolation)
        parent = system.create_initial_process()
        fd = system.gateway.syscall(parent.pid, parent.entry_caps["open"], "open", {"name": "f"})
        args = liveness_calls(parent)[name]
        if "fd" in args:
            args["fd"] = fd
        if how == "missing":
            del args[arg]
        else:
            args[arg] = "not a number"
        with pytest.raises(SyscallError) as err:
            system.gateway.syscall(parent.pid, parent.entry_caps[name], name, args)
        assert err.value.code == "EINVAL" and repr(arg) in str(err.value)
        system.verify_invariants(full=True)


class TestAudit:
    def test_fresh_system_is_clean(self):
        system = make_system()
        system.create_initial_process()
        assert system.gateway.audit().clean

    def test_post_fork_copa_system_is_clean(self):
        system = make_system()
        parent = system.create_initial_process()
        target = buffer_cap(parent, offset=GRANULE)
        system.access(parent.pid, buffer_cap(parent), AccessKind.CAP_STORE, target)
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(child.pid, buffer_cap(child), AccessKind.CAP_LOAD)
        report = system.gateway.audit()
        assert report.clean, report.to_text()

    def test_shared_copa_frame_with_parent_caps_is_not_a_violation(self):
        system = make_system()
        parent = system.create_initial_process()
        target = buffer_cap(parent, offset=GRANULE)
        system.access(parent.pid, buffer_cap(parent), AccessKind.CAP_STORE, target)
        system.fork_engine.fork(parent.pid)
        # The child maps the parent-cap-bearing frame, but cannot load
        # from it without triggering relocation, so: clean.
        assert system.gateway.audit().clean

    def test_unsafe_cow_stale_load_is_flagged(self):
        system = System("unsafe-cow", "fault", debug=True)
        parent = system.create_initial_process()
        target = buffer_cap(parent, offset=GRANULE)
        system.access(parent.pid, buffer_cap(parent), AccessKind.CAP_STORE, target)
        child = system.process(system.fork_engine.fork(parent.pid))
        loaded = system.access(child.pid, buffer_cap(child), AccessKind.CAP_LOAD)
        child.loaded_ref = loaded
        assert parent.region.contains(loaded.cursor)  # the stale reference
        report = system.gateway.audit()
        assert not report.clean
        assert any(
            parent.region.contains_range(v.cap.base, v.cap.top)
            for v in report.violations
        )

    def test_unsafe_cow_runs_audit_even_when_asked_not_to(self):
        result = run(STALE_DEMO, "unsafe-cow", "fault", audit=False)
        assert result.audit is not None and not result.audit.clean
        assert run(STALE_DEMO, "copa", "fault", audit=False).audit is None


# -- the audit memo against the full sweep ------------------------------------


def full_sweep(system):
    """The audit as a full sweep of every page with a linear entry lookup.

    This is the reference the change-log audit must reproduce exactly:
    same violations, same order, same location strings.
    """
    entries = list(system.gateway.entries.values())
    violations = []
    for proc in system.processes.values():
        if not proc.running:
            continue
        # Every capability the register state holds, with its location;
        # the sealed entries are the kernel's and are not listed.
        reachable = [
            (f"register:{name}", value)
            for name, value in proc.registers.items()
            if isinstance(value, Capability)
        ]
        reachable += ((f"symbol:{name}", cap) for name, cap in proc.symbols.items())
        if proc.loaded_ref is not None:
            reachable.append(("register:loaded_ref", proc.loaded_ref))
        for page_va in proc.region.page_addresses():
            entry = system.address_space.entry_at(page_va)
            if entry is None:
                continue
            if not entry.state.cap_load:
                continue
            frame = system.frames.get(entry.frame_id)
            # Locations are formatted only for the violations found.
            reachable += (((page_va, g), cap) for g, cap in frame.tagged_caps())
        base, end = proc.region.base, proc.region.end
        for where, cap in reachable:
            # Region.contains_range(cap.base, cap.top), inlined for speed.
            if not cap.tag or base <= cap.base <= cap.base + cap.length <= end:
                continue
            if any(cap == entry for entry in entries):
                continue
            if not isinstance(where, str):
                where = f"page:{where[0]:#x}:granule={where[1]}"
            violations.append(
                AuditViolation(
                    pid=proc.pid,
                    location=where,
                    cap=cap,
                    reason="capability bounds escape the owning region",
                )
            )
    return AuditReport(violations=tuple(violations))


@pytest.fixture
def oracle_audits(monkeypatch):
    """Make every ``audit()`` assert equality with the full sweep.

    Returns the list of violation counts, one per audit run.
    """
    real = KernelGateway.audit
    counts = []

    def checked(gateway):
        report = real(gateway)
        assert report == full_sweep(gateway._sys), len(counts)
        counts.append(len(report.violations))
        return report

    monkeypatch.setattr(KernelGateway, "audit", checked)
    return counts


def bench_workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def bench_tiny_scripts():
    return [w.tiny_script(1) for w in bench_workloads().WORKLOADS.values()]


NESTED = """
layout heap=6
alloc a 8192
alloc b 4096
store_int b+0 7
store_ref a+0 b+0
open log
fork outer {
  load_ref a+0
  deref
  store_ref a+4096 a+16
  fork inner nowait {
    load_ref a+4096
    store_int b+8 9
    write log b+0 8
    yield
    exit 3
  }
  yield
  wait
  exit 2
}
fork nowait {
  store_ref b+16 a+0
  load_ref b+16
  exit 0
}
yield
store_int a+16 5
store_ref a+32 b+0
wait
"""

STRATEGIES = ["full", "coa", "copa", "unsafe-cow"]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_audit_equals_the_full_sweep_at_every_step(strategy, oracle_audits):
    scripts = [*corpus(), *bench_tiny_scripts(), NESTED, STALE_DEMO]
    for text in scripts:
        run(text, strategy, "fault", audit=True)
    assert len(oracle_audits) > 5000
    # unsafe-cow shows violations; the memo must re-report them in place.
    assert (sum(oracle_audits) > 0) is (strategy == "unsafe-cow")


def audited_system(strategy):
    system = System(strategy, "fault", debug=True)
    parent = system.create_initial_process()
    target = buffer_cap(parent, offset=GRANULE)
    system.access(parent.pid, buffer_cap(parent), AccessKind.CAP_STORE, target)
    return system, parent


def page_violations(report, page_va):
    return [v for v in report.violations if v.location.startswith(f"page:{page_va:#x}:")]


class TestAuditMemo:
    def test_untagging_a_violating_capability_clears_the_violation(self, oracle_audits):
        system, parent = audited_system("unsafe-cow")
        child = system.process(system.fork_engine.fork(parent.pid))
        stale_va = child.layout.heap.base
        assert page_violations(system.gateway.audit(), stale_va)
        assert page_violations(system.gateway.audit(), stale_va)  # re-reported
        system.poke_bytes(stale_va + 4, b"\xff")
        assert not page_violations(system.gateway.audit(), stale_va)
        assert system.gateway.audit().clean

    def test_storing_an_escaping_capability_into_a_clean_page_is_reported(
        self, oracle_audits
    ):
        system, parent = audited_system("unsafe-cow")
        child = system.process(system.fork_engine.fork(parent.pid))
        stack = Capability(
            base=child.layout.stack.base,
            length=child.layout.stack.size,
            cursor=child.layout.stack.base,
            perms=DATA_PERMS,
        )
        system.access(child.pid, stack, AccessKind.WRITE, b"\x01" * 8)
        assert not page_violations(system.gateway.audit(), stack.base)
        stale = system.access(child.pid, buffer_cap(child), AccessKind.CAP_LOAD)
        assert parent.region.contains(stale.cursor)
        slot = stack.with_cursor(stack.base + GRANULE)
        system.access(child.pid, slot, AccessKind.CAP_STORE, stale)
        found = page_violations(system.gateway.audit(), stack.base)
        assert [v.location for v in found] == [f"page:{stack.base:#x}:granule=1"]

    @pytest.mark.parametrize("strategy", ["coa", "copa"])
    def test_a_promoted_page_is_audited_once_cap_loadable(self, strategy, oracle_audits):
        system, parent = audited_system(strategy)
        child = system.process(system.fork_engine.fork(parent.pid))
        page = child.layout.heap.base
        assert not system.address_space.entry_at(page).state.cap_load
        assert system.gateway.audit().clean
        assert not system.gateway._changes.frames
        # The parent's write copies its page; the child is the sole
        # mapper left, so its page is relocated and promoted.
        system.access(parent.pid, buffer_cap(parent, offset=64), AccessKind.WRITE, b"\x02")
        entry = system.address_space.entry_at(page)
        assert entry.state.cap_load
        assert entry.frame_id in system.gateway._changes.frames
        assert system.gateway.audit().clean
        assert not system.gateway._changes.frames

    def test_memo_stays_bounded_across_reaped_workers(self, monkeypatch):
        real = KernelGateway.audit
        sizes = []

        def measured(gateway):
            report = real(gateway)
            sizes.append(len(gateway._clean_registers) + len(gateway._findings))
            return report

        monkeypatch.setattr(KernelGateway, "audit", measured)

        def peak_memo(workers):
            sizes.clear()
            batch = "fork nowait {\nstore_int a+0 1\nexit 0\n}\n" * 8 + "wait\n" * 8
            text = "layout code=1 heap=1 stack=1\nalloc a 64\n" + batch * (workers // 8)
            result = run(text, "copa", "fault", audit=True)
            children = [p for p in result.system.processes.values() if p.parent_pid == 1]
            assert len(children) == workers
            assert not any(p.pid in result.system.unreaped_pids for p in children)
            return max(sizes)

        few = peak_memo(8)
        assert few > 0
        assert peak_memo(800) <= few

    def test_a_pid_reaped_between_two_audits_leaves_the_memo(self):
        system, parent = audited_system("copa")
        child = system.process(system.fork_engine.fork(parent.pid))
        assert system.gateway.audit().clean
        assert set(system.gateway._clean_registers) == {parent.pid, child.pid}
        system.fork_engine.exit(child.pid, 0)
        assert system.fork_engine.wait(parent.pid) == (child.pid, 0)
        assert system.gateway.audit().clean
        assert set(system.gateway._clean_registers) == {parent.pid}

    def test_the_memo_of_one_audit_does_not_grow_with_the_region(self):
        """What one sweep of a fresh process keeps is the same at 16 and
        at 4096 heap pages: the memo holds nothing per page."""

        def retained(heap_pages):
            system = System("copa", "fault")
            system.create_initial_process(LayoutSpec(heap_pages=heap_pages))
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert system.gateway.audit().clean
                gc.collect()
                return tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()

        assert retained(4096) == retained(16)


class _CountingRegistry(dict):
    """A ``System.processes`` that counts the process records read from it."""

    reads = 0

    def __getitem__(self, pid):
        self.reads += 1
        return super().__getitem__(pid)

    def values(self):
        for proc in super().values():
            self.reads += 1
            yield proc


class _CountingRow(list):
    """A column of a page-table row that counts the elements read from it,
    into one count shared by every column."""

    reads = 0

    def __getitem__(self, index):
        found = super().__getitem__(index)
        _CountingRow.reads += len(found) if isinstance(index, slice) else 1
        return found

    def __iter__(self):
        for element in super().__iter__():
            _CountingRow.reads += 1
            yield element


def _count_rows(space):
    """Make both columns of every row count their reads; returns the pages
    the rows hold.

    A pass that builds or drops a row replaces its lists, so each check
    wraps the rows again before it runs."""
    held = 0
    for row in space._rows:
        if row.frames is not None:
            if type(row.frames) is list:
                row.frames = _CountingRow(row.frames)
            if type(row.states) is list:
                row.states = _CountingRow(row.states)
            held += len(row.frames)
    return held


def test_per_step_checks_do_not_grow_with_reaped_workers(monkeypatch):
    """The processes one audit visits, and the process records and
    page-table entries one per-step invariant check reads, are the same at
    200 and at 1600 reaped workers; the full pass that starts and ends a
    run reads each entry exactly once."""
    real_init, real_audit = System.__init__, KernelGateway.audit
    real_verify = System.verify_invariants
    visits, checks, full_passes = [], [], []

    def init(system, *args, **kwargs):
        real_init(system, *args, **kwargs)
        system.processes = _CountingRegistry()

    def audit(gateway):
        registry = gateway._sys.processes
        start = registry.reads
        report = real_audit(gateway)
        visits.append(registry.reads - start)
        return report

    def verify_invariants(system, **kwargs):
        registry, held = system.processes, _count_rows(system.address_space)
        full = kwargs.get("full") or system._debug_changes is None
        records, entries = registry.reads, _CountingRow.reads
        real_verify(system, **kwargs)
        entries = _CountingRow.reads - entries
        if full:
            # Each element once: no region sweep reads one a second time.
            assert entries == held
            full_passes.append(entries)
        else:
            checks.append((registry.reads - records, entries))

    monkeypatch.setattr(System, "__init__", init)
    monkeypatch.setattr(KernelGateway, "audit", audit)
    monkeypatch.setattr(System, "verify_invariants", verify_invariants)

    def per_step_counts(workers):
        visits.clear()
        checks.clear()
        full_passes.clear()
        batch = "fork nowait {\nexit 0\n}\n" * 8 + "wait\n" * 8
        text = "layout code=1 heap=1 stack=1\n" + batch * (workers // 8)
        result = run(text, "copa", "fault", audit=True, debug=True)
        assert len(result.system.processes) == workers + 1
        assert list(result.system.unreaped_pids) == []
        # The first check and the end of the run.
        assert len(full_passes) == 2
        return sorted(set(visits)), sorted(set(checks))

    few = per_step_counts(200)
    # At most the parent and one batch of 8 workers hold a slot, each with
    # a 5-page region, beside the kernel's 4 pages.
    assert max(few[0]) == 9
    assert max(records for records, _ in few[1]) <= 9
    assert max(entries for _, entries in few[1]) <= 4 + 9 * 5
    assert per_step_counts(1600) == few


@pytest.mark.parametrize("workers", [200, 1600])
def test_a_reap_drops_the_reaped_pids_row(workers, monkeypatch):
    """After every step the page table holds a row for the kernel and one
    for each PID-table slot holder, and no other, however many workers
    were reaped."""
    real_verify = System.verify_invariants
    steps = []

    def verify_invariants(system, **kwargs):
        real_verify(system, **kwargs)
        space, holders = system.address_space, [KERNEL_PID, *system.unreaped_pids]
        assert [row.pid for row in space._rows] == holders
        assert sorted(space._pid_rows) == holders
        steps.append(len(holders))

    monkeypatch.setattr(System, "verify_invariants", verify_invariants)
    batch = "fork nowait {\nexit 0\n}\n" * 8 + "wait\n" * 8
    text = "layout code=1 heap=1 stack=1\n" + batch * (workers // 8)
    result = run(text, "copa", "fault", debug=True)
    assert len(result.system.processes) == workers + 1
    # A batch of 8 workers and the parent held slots at some step.
    assert max(steps) == 10 and steps[-1] == 1


# -- the change log: one script per way a page's findings can change ----------

#: File reads land on pages that hold capabilities: byte stores only
#: untag, so they log nothing.
READ_OVER_CAPS = """
alloc a 4096
alloc b 64
store_ref a+0 b+0
store_ref a+16 b+16
store_ref a+32 b+0
open f
write f b+0 32
read f a+0 8
fork nowait {
  load_ref a+16
  read f a+16 8
  exit 0
}
load_ref a+32
read f a+32 8
wait
"""

#: The parent writes every page it shares after the fork, so the child is
#: left the sole mapper of each and its frames are relocated in place and
#: promoted.
PROMOTE_SURVIVORS = """
layout heap=3
alloc a 4096
alloc b 4096
alloc c 4096
store_ref a+0 b+0
store_ref b+0 c+0
store_ref c+0 a+0
fork nowait {
  yield
  load_ref a+0
  deref
  load_ref c+0
  exit 0
}
store_int a+8 1
store_int b+8 2
store_int c+8 3
yield
wait
"""

#: The child's first statement stores a reference into a page it never
#: touched.
FIRST_STATEMENT_STORE = """
alloc a 4096
alloc b 4096
fork {
  store_ref b+16 a+0
  exit 0
}
load_ref b+16
"""

#: Under unsafe-cow the child holds stale references for several sweeps,
#: then stores over them.
HELD_THEN_UNTAGGED = """
alloc a 4096
alloc b 4096
store_ref a+0 b+0
store_ref a+32 b+0
fork {
  yield
  load_int b+0
  yield
  store_int a+0 5
  store_int a+32 6
  exit 0
}
"""

CHANGE_LOG_SCRIPTS = {
    "read_over_caps": READ_OVER_CAPS,
    "promote_survivors": PROMOTE_SURVIVORS,
    "first_statement_store": FIRST_STATEMENT_STORE,
    "held_then_untagged": HELD_THEN_UNTAGGED,
}


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(CHANGE_LOG_SCRIPTS))
def test_each_change_log_entry_point_matches_the_full_sweep(name, strategy, oracle_audits):
    result = run(CHANGE_LOG_SCRIPTS[name], strategy, "fault", audit=True)
    assert result.ok and len(oracle_audits) > 5
    if strategy != "unsafe-cow":
        assert not any(oracle_audits)
    elif name == "held_then_untagged":
        # Findings held across several sweeps, then gone once stored over.
        held = [count > 0 for count in oracle_audits]
        assert held.count(True) >= 3 and not held[-1]


class TestChangeLogEntryPoints:
    """Each entry point logs its frame on its own; the scripts above reach
    them only together, where one entry can stand in for another."""

    def test_a_relocation_scan_is_logged(self, oracle_audits):
        system, parent = audited_system("copa")
        page = parent.layout.heap.base
        assert system.gateway.audit().clean
        frame = system.frames.get(system.address_space.entry_at(page).frame_id)
        elsewhere = system.address_space.reserve_region(parent.region.size)
        assert system.frames.scan_and_relocate(frame, parent.region, elsewhere) == 1
        found = page_violations(system.gateway.audit(), page)
        assert [v.location for v in found] == [f"page:{page:#x}:granule=0"]

    def test_mapping_a_frame_that_holds_capabilities_is_logged(self, oracle_audits):
        system, parent = audited_system("copa")
        frame = system.frames.allocate(origin=parent.region)
        # Stored before the first audit starts the log, so only the map
        # below can log this frame.
        system.frames.store_capability(frame, 3, system.kernel_code_cap)
        assert system.gateway.audit().clean
        page = parent.layout.heap.base + PAGE_SIZE
        system.address_space.unmap(page)
        system.address_space.map(page, frame.frame_id)
        found = page_violations(system.gateway.audit(), page)
        assert [v.location for v in found] == [f"page:{page:#x}:granule=3"]

    def test_a_promotion_without_relocation_is_logged(self, oracle_audits):
        system, parent = audited_system("coa")
        child = system.process(system.fork_engine.fork(parent.pid))
        page = child.layout.heap.base
        assert system.gateway.audit().clean
        frame = system.frames.get(system.address_space.entry_at(page).frame_id)
        # A frame laid out for the child needs no relocation scan, so only
        # the promotion itself can log it.  Its parent capability, stored
        # again once the origin is the child's, is kept absolute and still
        # escapes.
        stale = system.frames.load_capability(frame, 0)
        frame.origin = child.region
        system.frames.store_capability(frame, 0, stale)
        system.address_space.unmap(parent.layout.heap.base)
        # The unmap logs the frame too; a sweep before the promotion, while
        # the child's page still cannot load capabilities, clears it.
        assert system.gateway.audit().clean
        system.fork_engine._promote([frame])
        assert system.address_space.entry_at(page).state.cap_load
        found = page_violations(system.gateway.audit(), page)
        assert [v.location for v in found] == [f"page:{page:#x}:granule=0"]

    def test_an_unmap_is_logged_in_both_logs(self):
        system, parent = audited_system("copa")
        assert system.gateway.audit().clean
        system.verify_invariants()
        page = parent.layout.heap.base + PAGE_SIZE
        frame_id = system.address_space.entry_at(page).frame_id
        system.address_space.unmap(page)
        assert system.frames.logs == [system.gateway._changes, system._debug_changes]
        assert all(log.frames == {frame_id} for log in system.frames.logs)

    # Each site of the one logging rule on its own, into both logs.

    def both_logs_cleared(self, system):
        assert system.gateway.audit().clean
        system.verify_invariants()
        logs = system.frames.logs
        assert logs == [system.gateway._changes, system._debug_changes]
        assert not any(log.frames or log.pids for log in logs)
        return logs

    def assert_logged(self, logs, frames=(), pids=()):
        assert all(log.frames == set(frames) for log in logs)
        assert all(log.pids == list(pids) for log in logs)

    def test_an_allocation_is_logged_in_both_logs(self):
        system, _ = audited_system("copa")
        logs = self.both_logs_cleared(system)
        frame = system.frames.allocate()
        self.assert_logged(logs, frames={frame.frame_id})

    def test_a_capability_store_is_logged_in_both_logs(self):
        system, parent = audited_system("copa")
        page = parent.layout.heap.base
        frame = system.frames.get(system.address_space.entry_at(page).frame_id)
        logs = self.both_logs_cleared(system)
        system.frames.store_capability(frame, 5, system.kernel_code_cap)
        self.assert_logged(logs, frames={frame.frame_id})

    def test_a_teardown_is_logged_in_both_logs(self):
        system, parent = audited_system("coa")
        child = system.process(system.fork_engine.fork(parent.pid))
        space = system.address_space
        owned = {space.entry_at(va).frame_id for va in child.region.page_addresses()}
        logs = self.both_logs_cleared(system)
        space.unmap_owned(child.pid)
        self.assert_logged(logs, frames=owned)

    def test_a_remap_is_logged_in_both_logs(self):
        system, parent = audited_system("coa")
        child = system.process(system.fork_engine.fork(parent.pid))
        space, page = system.address_space, child.layout.heap.base
        old = space.entry_at(page).frame_id
        logs = self.both_logs_cleared(system)
        fresh = system.frames.allocate(origin=child.region)
        for log in logs:  # the allocation logged the fresh frame
            log.frames.clear()
        space.remap(page, fresh.frame_id)
        self.assert_logged(logs, frames={old, fresh.frame_id})

    @pytest.mark.parametrize("strategy", ["coa", "full"])
    def test_a_shared_child_region_is_logged_in_both_logs(self, strategy):
        system, parent = audited_system(strategy)
        space = system.address_space
        logs = self.both_logs_cleared(system)
        child = space.reserve_region(parent.region.size)
        copies = {}
        if strategy == "full":
            # Every page is a copy, as a full fork makes them.
            delta = child.base - parent.region.base
            for va in parent.region.page_addresses():
                copies[va + delta] = system.frames.clone(space.entry_at(va).frame_id).frame_id
            for log in logs:  # the allocations logged the copies
                log.frames.clear()
        space.share_region(parent.pid, child, parent.pid + 1, PageState.SHARED_COA, copies)
        self.assert_logged(logs, pids=[parent.pid + 1])


AUDIT_WORK_BODY = (
    "alloc a 8192\nalloc b 4096\nstore_int a+8 7\nstore_ref a+16 b+0\n"
    "load_ref a+16\nderef\nstore_ref a+4096 a+16\nopen f\nwrite f a+8 8\n"
    "read f b+32 8\nstore_ref b+48 a+0\nload_int a+4096\nyield\n"
)


def test_audit_work_does_not_grow_with_the_region(monkeypatch):
    """After the first sweep, the page-table reads of each sweep depend on
    the statement, not on the region size."""
    real_audit = KernelGateway.audit
    reads = []

    def audit(gateway):
        _count_rows(gateway._sys.address_space)
        start = _CountingRow.reads
        report = real_audit(gateway)
        reads.append(_CountingRow.reads - start)
        return report

    monkeypatch.setattr(KernelGateway, "audit", audit)

    def sweeps(heap):
        reads.clear()
        text = f"layout heap={heap}\n" + AUDIT_WORK_BODY
        assert run(text, "copa", "fault", audit=True).ok
        return list(reads)

    small, large = sweeps(16), sweeps(1024)
    assert len(small) > 10
    # The first sweep walks the whole region; the later ones do not.
    assert small[0] < large[0]
    assert small[1:] == large[1:]


def test_debug_work_does_not_grow_with_the_region(monkeypatch):
    """After the first check, the page-table reads of each invariant check
    depend on the statement, not on the region size."""
    real_verify = System.verify_invariants
    reads = []

    def verify_invariants(system, **kwargs):
        _count_rows(system.address_space)
        start = _CountingRow.reads
        real_verify(system, **kwargs)
        reads.append(_CountingRow.reads - start)

    monkeypatch.setattr(System, "verify_invariants", verify_invariants)

    def checks(heap):
        reads.clear()
        text = f"layout heap={heap}\n" + AUDIT_WORK_BODY
        assert run(text, "copa", "fault", debug=True).ok
        return list(reads)

    small, large = checks(16), checks(1024)
    assert len(small) > 10
    # The first check walks the whole page table; the later ones do not.
    # The run ends with a full pass too, after the reap has unmapped the
    # region.
    assert small[0] < large[0]
    assert small[1:] == large[1:]


# -- the debug change log: the full pass as the per-step check's oracle --------


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_per_step_check_and_the_full_pass_hold_at_every_step(strategy, monkeypatch):
    real_verify = System.verify_invariants
    logged = []

    def verify_invariants(system, **kwargs):
        log = system._debug_changes
        logged.append(log is not None and bool(log.frames or log.pids))
        real_verify(system, **kwargs)
        real_verify(system, full=True)

    monkeypatch.setattr(System, "verify_invariants", verify_invariants)
    scripts = {name: text for name, (text, _) in GOLDEN.items()} | GEN_SLICE
    for name, text in scripts.items():
        with monkeypatch.context() as patch:
            if name == "eagain":
                patch.setattr(sasfork.system, "PID_SLOTS", 4)
            run(text, strategy, "fault", debug=True)
    assert len(logged) > 200
    # The per-step check had logged changes to read at many steps.
    assert logged.count(True) > 40


def _holds_changes(log):
    return log is not None and bool(log.frames or log.pids)


def _contents(log):
    return None if log is None else (set(log.frames), list(log.pids))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_both_checks_hold_at_every_step_on_their_own_logs(
    strategy, oracle_audits, monkeypatch
):
    """With the audit and the debug check on at once, each clears only its
    own log: at every step the audit equals the full sweep, the per-step
    debug check and the full pass both hold, and neither check changes the
    other's log."""
    real_verify, real_audit = System.verify_invariants, KernelGateway.audit
    audit_saw_changes, debug_saw_changes, deferred = [], [], []

    def check_debug(system, kwargs):
        audit_log = system.gateway._changes
        debug_saw_changes.append(_holds_changes(audit_log))
        before = _contents(audit_log)
        real_verify(system, **kwargs)
        real_verify(system, full=True)
        assert _contents(audit_log) == before

    def verify_invariants(system, **kwargs):
        # Every other per-step check waits until the step's audit has run, so
        # each check runs at many steps while the other's log holds changes.
        if len(debug_saw_changes) % 2 and not kwargs:
            deferred.append(system)
        else:
            check_debug(system, kwargs)

    def audit(gateway):
        debug_log = gateway._sys._debug_changes
        audit_saw_changes.append(_holds_changes(debug_log))
        before = _contents(debug_log)
        report = real_audit(gateway)
        assert _contents(debug_log) == before
        if deferred:
            check_debug(deferred.pop(), {})
        return report

    monkeypatch.setattr(System, "verify_invariants", verify_invariants)
    monkeypatch.setattr(KernelGateway, "audit", audit)
    scripts = {name: text for name, (text, _) in GOLDEN.items()} | GEN_SLICE
    scripts |= {"nested": NESTED, "stale_demo": STALE_DEMO}
    for name, text in scripts.items():
        with monkeypatch.context() as patch:
            if name == "eagain":
                patch.setattr(sasfork.system, "PID_SLOTS", 4)
            system = run(text, strategy, "fault", audit=True, debug=True).system
        assert not deferred
        # Each check's first run registered its own log, and only that.
        logs = system.frames.logs
        assert len(logs) == 2 and system._debug_changes in logs and system.gateway._changes in logs
    assert len(oracle_audits) > 200 and len(debug_saw_changes) > 200
    assert audit_saw_changes.count(True) > 30
    assert debug_saw_changes.count(True) > 30
    if strategy != "unsafe-cow":
        # Under unsafe-cow every run audits.
        assert run(NESTED, strategy, "fault").system.frames.logs == []


def _remap_keeps_the_old_page(monkeypatch):
    real = AddressSpace.remap

    def remap(self, page_va, frame_id, *args):
        frames = self._frames.by_id
        frame = frames[self.entry_at(page_va).frame_id]
        real(self, page_va, frame_id, *args)
        frame.mapcount += 1
        frames[frame.frame_id] = frame

    monkeypatch.setattr(AddressSpace, "remap", remap)


def _remap_leaves_its_index_uniform(monkeypatch):
    real = AddressSpace.remap

    def remap(self, page_va, frame_id, *args):
        real(self, page_va, frame_id, *args)
        # Every frame at the index now reads the family's row count.
        row = self._row_at(page_va)
        row.family.divergent.discard((page_va - row.base) // PAGE_SIZE)

    monkeypatch.setattr(AddressSpace, "remap", remap)


def _share_region_drops_a_child_page(monkeypatch):
    real = AddressSpace.share_region

    def share_region(self, parent_pid, child, *args):
        written = real(self, parent_pid, child, *args)
        frames, entries = self._frames.by_id, self.entries()
        page_va = next(
            va
            for va in range(child.base, child.end, PAGE_SIZE)
            if va in entries and frames[entries[va].frame_id].mapcount > 1
        )
        frames[entries[page_va].frame_id].mapcount -= 1
        return written

    monkeypatch.setattr(AddressSpace, "share_region", share_region)


def _share_region_drops_its_last_frame_id(monkeypatch):
    real = AddressSpace.share_region

    def share_region(self, parent_pid, child, *args):
        written = real(self, parent_pid, child, *args)
        frames = self._row_at(child.base).frames
        index = max(i for i, frame_id in enumerate(frames) if frame_id is not None)
        self._frames.by_id[frames[index]].mapcount -= 1
        return written

    monkeypatch.setattr(AddressSpace, "share_region", share_region)


def _unmap_owned_leaves_the_last_page(monkeypatch):
    real = AddressSpace.unmap_owned

    def unmap_owned(self, pid):
        row = self._pid_rows[pid]
        frame, state = self._frames.by_id[row.frames[-1]], row.states[-1]
        survivors = [survivor for survivor in real(self, pid) if survivor is not frame]
        # The row stays, its last page still mapped and counted in its frame.
        index = bisect_left(self._bases, row.base)
        self._bases.insert(index, row.base)
        self._rows.insert(index, row)
        self._pid_rows[pid] = row
        row.family.append(row)
        row.frames[:-1] = row.states[:-1] = [None] * (len(row.frames) - 1)
        row.frames[-1], row.states[-1] = frame.frame_id, state
        frame.mapcount += 1
        self._frames.by_id[frame.frame_id] = frame
        return survivors

    monkeypatch.setattr(AddressSpace, "unmap_owned", unmap_owned)


def _unmap_owned_keeps_a_page_in_its_frame(monkeypatch):
    real = AddressSpace.unmap_owned

    def unmap_owned(self, pid):
        frames, owned = self._frames.by_id, list(self._pid_rows[pid].frames)
        survivors = real(self, pid)
        # The first page whose frame outlives the teardown stays in its
        # count; the released region maps nothing there.
        for frame_id in owned:
            if frame_id in frames:
                frames[frame_id].mapcount += 1
                break
        return survivors

    monkeypatch.setattr(AddressSpace, "unmap_owned", unmap_owned)


def _teardown_keeps_the_reaped_pids_row(monkeypatch):
    real = AddressSpace.unmap_owned

    def unmap_owned(self, pid):
        row = self._pid_rows[pid]
        survivors = real(self, pid)
        # The row stays, mapping nothing, as if the reservation were kept.
        index = bisect_left(self._bases, row.base)
        self._bases.insert(index, row.base)
        self._rows.insert(index, row)
        row.frames[:] = row.states[:] = [None] * len(row.frames)
        return survivors

    monkeypatch.setattr(AddressSpace, "unmap_owned", unmap_owned)


DEBUG_MUTATIONS = {
    "remap_keeps_the_old_page": _remap_keeps_the_old_page,
    "remap_leaves_its_index_uniform": _remap_leaves_its_index_uniform,
    "share_region_drops_a_child_page": _share_region_drops_a_child_page,
    "share_region_drops_its_last_frame_id": _share_region_drops_its_last_frame_id,
    "unmap_owned_leaves_the_last_page": _unmap_owned_leaves_the_last_page,
    "unmap_owned_keeps_a_page_in_its_frame": _unmap_owned_keeps_a_page_in_its_frame,
    "teardown_keeps_the_reaped_pids_row": _teardown_keeps_the_reaped_pids_row,
}


class _Caught(Exception):
    """Ends a run at the first step where either check raised."""


@pytest.mark.parametrize("strategy", ["coa", "copa"])
@pytest.mark.parametrize("mutation", sorted(DEBUG_MUTATIONS))
def test_a_mutation_is_caught_by_the_per_step_check_at_the_full_passs_step(
    mutation, strategy, monkeypatch
):
    workloads = bench_workloads()
    scripts = [workloads.churn_script(3, 80, 16, 8), workloads.snapshot_script(3, 16)]
    real_verify = System.verify_invariants
    outcomes = []

    def verify_invariants(system, **kwargs):
        raised = []
        for full in (kwargs.get("full", False), True):
            try:
                real_verify(system, full=full)
            except SimInternalError:
                raised.append(full)
        outcomes.append(raised)
        if raised:
            raise _Caught

    monkeypatch.setattr(System, "verify_invariants", verify_invariants)
    DEBUG_MUTATIONS[mutation](monkeypatch)
    for text in scripts:
        outcomes.clear()
        with pytest.raises(_Caught):
            run(text, strategy, "fault", debug=True)
        # The first check is a full pass; the mutation breaks a later step,
        # where the per-step check and the full pass both raise.
        assert len(outcomes) > 1 and not any(outcomes[:-1])
        assert outcomes[-1] == [False, True]
