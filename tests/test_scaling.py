"""How the whole-row passes of fork, exit and reap grow with the region.

A parent forks two workers.  One of them stores to 4 heap pages, exits and
is reaped while its sibling still runs.  ``sys.settrace`` counts the line
events of ``AddressSpace.share_region``, ``owned_refcounts`` and
``unmap_owned`` over that worker's fork, exit and reap, at a heap of 256
pages and at one of 4096.  A fork family counts the pages that all its
rows map once, so those passes visit only the pages where the rows
differ, and the count may grow at most 1.25 times while the region grows
about 16 times.  Counts differ between Python versions; their ratio does
not.

Two passes are left out.  The sibling's fork shares a lone row, whose
pages may all be private, so its share pass still visits every state.
And ``promote``: when a family shrinks to one row, it still walks every
page, because every frame of that row is left with one mapping.

The same count must not grow with the number of workers either.  Each
worker's teardown frees its copies, and where the parent and the sibling
map one frame again the index turns uniform, so a worker that copies the
same number of pages as the first costs what the first did.
"""

import sys

from sasfork.address_space import AccessKind, AddressSpace
from sasfork.capability import DATA_PERMS, PAGE_SIZE, Capability
from sasfork.process import LayoutSpec
from sasfork.system import System

PASSES = frozenset(
    getattr(AddressSpace, name).__code__
    for name in ("share_region", "owned_refcounts", "unmap_owned")
)

#: Pages the worker stores to.
TOUCHED = 4


def worker_lines(system: System, parent: int, first_page: int) -> int:
    """The line events of the three passes over one worker's fork, exit and
    reap: the worker stores to ``TOUCHED`` heap pages from ``first_page``."""
    engine = system.fork_engine
    lines = [0]

    def count(frame, event, arg):
        if event == "line":
            lines[0] += 1
        return count

    def calls(frame, event, arg):
        return count if frame.f_code in PASSES else None

    sys.settrace(calls)
    try:
        worker = system.process(engine.fork(parent))
        heap = worker.layout.heap
        for page in range(first_page, first_page + TOUCHED):
            cap = Capability(
                base=heap.base,
                length=heap.size,
                cursor=heap.base + page * PAGE_SIZE,
                perms=DATA_PERMS,
            )
            system.access(worker.pid, cap, AccessKind.WRITE, b"\x01")
        engine.exit(worker.pid, 0)
        assert engine.wait(parent) == (worker.pid, 0)
    finally:
        sys.settrace(None)
    system.verify_invariants(full=True)
    return lines[0]


def family_with_a_sibling(heap_pages: int) -> tuple[System, int, int]:
    """A system, its parent's pid and the pid of a worker the parent forked,
    which keeps running.  The check run here starts the change log that
    every later pass writes to, so each worker's passes write to it alike."""
    system = System("copa", "fault")
    parent = system.create_initial_process(LayoutSpec(heap_pages=heap_pages)).pid
    sibling = system.fork_engine.fork(parent)
    system.verify_invariants(full=True)
    return system, parent, sibling


def counted_lines(heap_pages: int) -> int:
    """The line events of one worker's passes, in a family whose other
    worker still runs."""
    system, parent, sibling = family_with_a_sibling(heap_pages)
    lines = worker_lines(system, parent, 0)
    assert system.process(sibling).running
    return lines


def test_fork_exit_and_reap_visit_only_the_pages_where_the_rows_differ():
    small, large = counted_lines(256), counted_lines(4096)
    assert small > 0
    assert large <= 1.25 * small, (small, large)


def test_a_worker_costs_what_the_first_did_however_many_came_before():
    workers = 4
    system, parent, sibling = family_with_a_sibling(workers * TOUCHED)
    family = system.address_space._pid_rows[parent].family
    costs, divergent = [], []
    for worker in range(workers):
        # Each worker copies pages that no worker before it touched.
        costs.append(worker_lines(system, parent, worker * TOUCHED))
        divergent.append(len(family.divergent))
    assert system.process(sibling).running
    assert divergent == [divergent[0]] * workers
    assert costs == [costs[0]] * workers
