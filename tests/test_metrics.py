"""Resident-set accounting, determinism, and strategy comparison."""

from fractions import Fraction

import pytest

import sasfork.system
from sasfork.address_space import AccessKind
from sasfork.capability import DATA_PERMS, PAGE_SIZE, Capability
from sasfork.errors import MismatchedScripts, SimInternalError, UnknownPid
from sasfork.process import KERNEL_PID
from sasfork.system import System
from sasfork.metrics import compare
from sasfork.workload import generate, print_script, run
from test_golden import GEN_SLICE, GOLDEN


def heap_cap(proc, offset=0):
    heap = proc.layout.heap
    return Capability(
        base=heap.base, length=heap.size, cursor=heap.base + offset, perms=DATA_PERMS
    )


class TestProportionalResidentSet:
    def test_ten_private_pages(self):
        system = System("copa", "fault")
        proc = system.create_initial_process()
        assert system.metrics.prs_bytes(proc.pid) == 10 * PAGE_SIZE == 40960

    def test_refcount_two_halves_shared_pages(self):
        system = System("copa", "fault")
        parent = system.create_initial_process()
        child_pid = system.fork_engine.fork(parent.pid)
        # Each side: 2 private pages (GOT + allocator metadata for the
        # child; the parent's own copies stay private) plus 8 shared.
        expected = 2 * PAGE_SIZE + 8 * Fraction(PAGE_SIZE, 2)
        assert system.metrics.prs_bytes(child_pid) == expected == 24576
        assert system.metrics.prs_bytes(parent.pid) == expected

    def test_after_child_copies_three_shared_pages(self):
        system = System("copa", "fault")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        for page in range(3):
            system.access(
                child.pid,
                heap_cap(child, page * PAGE_SIZE),
                AccessKind.WRITE,
                b"\x01" * 8,
            )
        # Sweep oracle: 5 private (2 eager + 3 copied) + 5 shared halves.
        expected = 5 * PAGE_SIZE + 5 * Fraction(PAGE_SIZE, 2)
        assert system.metrics.prs_bytes(child.pid) == expected

    def test_conservation_across_all_pids(self):
        system = System("copa", "fault", debug=True)
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        system.access(child.pid, heap_cap(child, 0), AccessKind.WRITE, b"\x01" * 8)
        total = sum(
            (system.metrics.prs_bytes(pid) for pid in list(system.processes) + [0]),
            Fraction(0),
        )
        assert total == system.frames.total_bytes()
        system.verify_invariants()

    def test_snapshot_rejects_unknown_pid(self):
        system = System("copa", "fault")
        with pytest.raises(UnknownPid):
            system.metrics.snapshot().row(42)


SCRIPT = """
alloc a 8192
store_int a+0 1
store_ref a+16 a+4096
fork {
  load_ref a+16
  deref
  store_int a+4096 9
  exit 0
}
load_int a+4096
"""


class TestReports:
    def test_identical_runs_give_identical_reports(self):
        first = run(SCRIPT, "copa", "fault")
        second = run(SCRIPT, "copa", "fault")
        assert first.report == second.report
        assert first.report.to_text() == second.report.to_text()
        assert first.report.to_csv() == second.report.to_csv()
        assert first.trace.value_hash() == second.trace.value_hash()

    def test_text_and_csv_formats_carry_the_documented_fields(self):
        result = run(SCRIPT, "copa", "fault")
        text = result.report.to_text()
        assert "strategy=copa" in text and "prs=" in text and "fork_cost=" in text
        header = result.report.to_csv().splitlines()[0]
        assert header.startswith("strategy,isolation,pid,eager_pages_copied")


class TestCompare:
    def test_redis_analog_ordering(self):
        script = print_script(generate(pages=24, ref_density=0.125, child_read_frac=1.0, seed=3))
        runs = [run(script, s, "fault") for s in ("full", "coa", "copa")]
        comparison = compare(runs)
        assert comparison.dominance_ok
        by_name = {s.strategy.value: s for s in comparison.summaries}
        assert (
            by_name["copa"].total_copies
            < by_name["coa"].total_copies
            < by_name["full"].total_copies
        )
        assert (
            by_name["copa"].final_prs_total
            < by_name["coa"].final_prs_total
            < by_name["full"].final_prs_total
        )

    def test_mismatched_scripts_are_detected(self):
        a = run(SCRIPT, "copa", "fault")
        other = SCRIPT.replace("store_int a+0 1", "store_int a+0 2")
        b = run(other, "coa", "fault")
        with pytest.raises(MismatchedScripts):
            compare([a, b])

    def test_dominance_violation_is_flagged_not_hidden(self):
        # Same strategy twice: trivially equal, every verdict holds.
        runs = [run(SCRIPT, "copa", "fault"), run(SCRIPT, "copa", "fault")]
        comparison = compare(runs)
        assert comparison.dominance_ok


def prs_oracle(system, pid):
    """The original definition: sweep the whole page table for the pages
    in the pid's region."""
    region = system.kernel_region if pid == KERNEL_PID else system.process(pid).region
    total = Fraction(0)
    for page_va, entry in system.address_space.entries().items():
        if region.contains(page_va):
            total += Fraction(PAGE_SIZE, system.frames.by_id[entry.frame_id].mapcount)
    return total


@pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
def test_prs_matches_the_page_table_sweep_at_every_step(strategy):
    system = System(strategy, "fault", debug=True)
    parent = system.create_initial_process()
    engine = system.fork_engine
    checked = []
    reaped_read = set()

    def check(step):
        for pid in [0, *system.processes]:
            assert system.metrics.prs_bytes(pid) == prs_oracle(system, pid), (step, pid)
            if pid and pid not in system.unreaped_pids:
                reaped_read.add(pid)
        system.verify_invariants()
        checked.append(step)

    target = heap_cap(parent, 2 * PAGE_SIZE)
    system.access(parent.pid, heap_cap(parent, 0), AccessKind.CAP_STORE, target)
    check("boot")
    child = system.process(engine.fork(parent.pid))
    check("fork")
    system.access(child.pid, heap_cap(child, PAGE_SIZE), AccessKind.WRITE, b"\x01" * 8)
    check("child write")
    loaded = system.access(child.pid, heap_cap(child, 0), AccessKind.CAP_LOAD)
    # Only unsafe-cow lets the child load the parent's stale reference.
    assert child.region.contains(loaded.cursor) is (strategy != "unsafe-cow")
    check("child cap load")
    grandchild = system.process(engine.fork(child.pid))
    check("grandchild fork")
    system.access(
        grandchild.pid, heap_cap(grandchild, 3 * PAGE_SIZE), AccessKind.WRITE, b"\x02" * 8
    )
    check("grandchild write")
    engine.exit(grandchild.pid, 0)
    check("grandchild exit")
    engine.wait(child.pid)
    check("grandchild reap")
    engine.exit(child.pid, 0)
    check("child exit")
    engine.wait(parent.pid)
    check("child reap")
    batch = [system.process(engine.fork(parent.pid)) for _ in range(4)]
    check("batch fork")
    for page, worker in enumerate(batch):
        system.access(
            worker.pid, heap_cap(worker, page * PAGE_SIZE), AccessKind.WRITE, b"\x03" * 8
        )
        check("batch write")
    for worker in batch:
        engine.exit(worker.pid, 0)
        check("batch exit")
    system.reap_zombies()
    check("batch reap")
    assert all(system.metrics.prs_bytes(w.pid) == 0 for w in batch)
    assert system.metrics.prs_bytes(parent.pid) == 10 * PAGE_SIZE
    assert len(checked) == 20
    assert reaped_read == {grandchild.pid, child.pid, *(w.pid for w in batch)}


@pytest.mark.parametrize("strategy", ["full", "coa", "copa", "unsafe-cow"])
def test_the_debug_check_holds_and_the_resident_sets_sum_to_every_frame(
    strategy, monkeypatch
):
    """After every statement, the debug check passes and the resident sets
    of the slot holders and the kernel sum to every frame exactly once."""
    real_verify = System.verify_invariants
    owners_per_step = []

    def verify_invariants(system, **kwargs):
        real_verify(system, **kwargs)
        pids = [KERNEL_PID, *system.unreaped_pids]
        total = sum((system.metrics.prs_bytes(pid) for pid in pids), Fraction(0))
        assert total == system.frames.total_bytes(), len(owners_per_step)
        owners_per_step.append(len(pids))

    monkeypatch.setattr(System, "verify_invariants", verify_invariants)
    scripts = {name: text for name, (text, _) in GOLDEN.items()} | GEN_SLICE
    for name, text in scripts.items():
        with monkeypatch.context() as patch:
            if name == "eagain":
                patch.setattr(sasfork.system, "PID_SLOTS", 4)
            run(text, strategy, "fault", debug=True)
    assert len(owners_per_step) > 200
    # Forks were live at some steps: more than the root and the kernel.
    assert max(owners_per_step) > 2


def test_a_frame_that_no_page_maps_breaks_conservation():
    system = System("copa", "fault", debug=True)
    system.create_initial_process()
    system.verify_invariants()
    stray = system.frames.allocate()
    with pytest.raises(SimInternalError, match=f"prs conservation.*frame {stray.frame_id}"):
        system.verify_invariants()


@pytest.mark.parametrize("place", ["unreserved", "page of a reaped pid"])
def test_a_mapping_outside_its_owners_region_breaks_conservation(place):
    system = System("copa", "fault", debug=True)
    parent = system.create_initial_process()
    if place == "unreserved":
        va = parent.region.end
    else:
        child = system.process(system.fork_engine.fork(parent.pid))
        system.fork_engine.exit(child.pid, 0)
        system.fork_engine.wait(parent.pid)
        system.verify_invariants()
        va = child.layout.heap.base
    stray = system.frames.allocate()
    # The page table holds rows for live reservations only: a reap drops
    # the reaped pid's row.
    with pytest.raises(SimInternalError, match="lies in no reservation"):
        system.address_space.map(va, stray.frame_id)
    assert stray.mapcount == 0


def test_prs_of_an_unknown_pid_is_rejected():
    system = System("copa", "fault")
    with pytest.raises(UnknownPid):
        system.metrics.prs_bytes(42)
