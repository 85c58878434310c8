"""Fork under four copy strategies, plus lazy-copy fault resolution.

The strategies differ only in *when* pages move, never in what a program
observes:

* ``FULL_COPY``: every page of the parent is copied and relocated at
  fork time.
* ``COA`` (copy-on-access): child pages alias the parent frames but are
  inaccessible; the first child access of any kind copies and relocates.
* ``COPA`` (copy-on-pointer-access): child pages are readable; only
  writes (either side), child capability loads and child integer reads
  of a tagged granule trigger the copy, so plain data reads stay shared.
* ``UNSAFE_COW``: classic copy-on-write.  Child capability loads from
  shared pages do not fault, so the child can observe stale references
  into the parent's region.  It exists to demonstrate that hazard, and
  a run under it always audits.

Under every lazy strategy the GOT and allocator-metadata pages are
copied and relocated eagerly at fork, so symbol and heap bookkeeping is
coherent in the child before it runs; ``full`` copies every page.  Eager
copies walk the pages to copy in page order and are collected, mapped by
no page yet.  Then one pass of :meth:`AddressSpace.share_region`, under
every strategy, builds the child's row whole from the row of the
parent's pid: each copy private at its page, so the row is the one
record of which pages fork copied, and the parent's frame id beside the
strategy's shared state everywhere else, making the parent's private
pages there copy-on-write (see :mod:`sasfork.address_space`); under
``full`` no page is shared.  The page table derives which copies are
writable: the code pages are not.  Fork is all or nothing: if an eager
copy or the share pass raises, no row backs the child's region, so fork
frees the copies, drops their events and moves the bump base back; the
pid is taken only when the child is added, so a raise leaves it free.
A copy whose relocation scan or install raises is freed before the raise
goes on.  Reap tears the reaped pid's row down in one pass of
:meth:`AddressSpace.unmap_owned`, which removes the row, and hands the
frames it leaves with a single mapping to the one promotion pass,
:meth:`ForkEngine._promote`, which a lazy copy also calls with the frame
it copied from.

The lazy copy itself follows three steps: take a fresh frame, copy bytes
and capabilities, then relocate the copy for its region.  The copy keeps
the capabilities that lie in its origin relative to that region, so
relocating it makes the destination its origin, which moves all of them
at once; only its other, absolute entries are rebased one by one (see
:mod:`sasfork.tagged_memory`).  No relocation state is kept between
copies, and the check that no copied capability escapes reads only the
absolute entries.  A lazy copy finds the faulting page once
(:meth:`AddressSpace.find_page`, which tries the faulting pid's own
reservation before a bisect), which gives the page's frame id, its
state, whether it is read-only and its owner as plain values; then it
remaps the page to the copy in one write
(:meth:`AddressSpace.remap`, which tries the faulting pid's row first
too).  Copies made for the region that already
owns the frame's contents (the parent side) skip the scan, and a copy
that holds no absolute entry skips the check that none escapes.
When a shared frame's ``mapcount`` drops to one, the surviving mapping
is promoted back to private; if the survivor is a forked child the
frame is relocated in place before anything runs, so promotion can never
expose stale references.  A lazy copy calls the promotion pass only when
it leaves the old frame with one mapping.  The pass is the address
space's (:meth:`AddressSpace.promote`): it finds each shared survivor,
sets the page's state to ``Private`` in place, logs the frame, and
returns the survivors whose frames are laid out for another region than
their page's, each with the pid whose reservation holds it; the fork
engine relocates those.  A frame keeps no list of its pages: it finds
its survivor among the rows of the frame's fork family, which a fork's
row joins when its share pass builds it.

:attr:`ForkEngine.events` is the one record of page copies: each
:class:`CopyEvent`, a named tuple, carries its cause and what its
relocation scan charged, and the metrics report folds its copy counts
from them.  A lazy cause names the fault its copy resolves, and an eager
cause names none; both are attributes of the cause.
Exit gives a process its exit record; ``wait`` and reap look for zombies
among the PID-table slot holders only, and reap frees the slot and
leaves only the pid's :class:`~sasfork.process.ReapedProcess`.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple

from .address_space import Fault, FaultKind, PageState
from .capability import GRANULES_PER_PAGE, Capability, Region, rebase_for_child
from .errors import (
    NoChildren,
    ProcessNotRunning,
    SimInternalError,
    UnresolvableFault,
)
from .process import MicroProcess, ReapedProcess
from .tagged_memory import TaggedFrame

if TYPE_CHECKING:
    from .system import System

_tuple_new = tuple.__new__


class ForkStrategy(enum.Enum):
    FULL_COPY = "full"
    COA = "coa"
    COPA = "copa"
    UNSAFE_COW = "unsafe-cow"

    # Identity hashing, as for FaultKind: fork looks up its shared state
    # by strategy.
    __hash__ = object.__hash__


class CopyCause(enum.Enum):
    EAGER_GOT = "EagerGot", None
    EAGER_ALLOC_META = "EagerAllocMeta", None
    EAGER_FULL = "EagerFull", None
    WRITE_FAULT = "WriteFault", FaultKind.PAGE_WRITE
    ACCESS_FAULT = "AccessFault", FaultKind.PAGE_ACCESS
    CAP_LOAD_FAULT = "CapLoadFault", FaultKind.CAP_LOAD

    def __new__(cls, value: str, fault: FaultKind | None):
        member = object.__new__(cls)
        member._value_ = value
        # The fault a lazy copy resolves; fork's eager copies resolve none.
        # Plain attributes, like FaultKind.resolvable, keep the enum's hash
        # off the fold.
        member.fault = fault
        member.eager = fault is None
        return member

    # Identity hashing, as for FaultKind: the report folds copies by cause.
    __hash__ = object.__hash__


_FAULT_TO_CAUSE = {cause.fault: cause for cause in CopyCause if not cause.eager}

#: Child-side page state installed per strategy when a page is shared;
#: ``full`` shares no page.
_CHILD_SHARED_STATE = {
    ForkStrategy.COA: PageState.SHARED_COA,
    ForkStrategy.COPA: PageState.SHARED_COPA,
    ForkStrategy.UNSAFE_COW: PageState.SHARED_COW,
}

#: Synthetic fork-cost weights: page copies dominate, PTE writes and
#: granule scans are unit cost.  Absolute time is deliberately not
#: modeled.
COST_PER_PAGE_COPY = 512
COST_PER_PTE_WRITE = 1
COST_PER_GRANULE_SCANNED = 1


class CopyEvent(NamedTuple):
    """One page copy: who triggered it, for which page, why, and its scan.

    ``scanned`` is the granules the relocation scan charged (a page's
    worth, or 0 when the copy needed no scan); ``relocations`` is the
    granules it rewrote.
    """

    pid: int
    page_va: int
    cause: CopyCause
    scanned: int
    relocations: int

    @property
    def eager(self) -> bool:
        return self.cause.eager


class ForkEngine:
    """Owns fork, fault resolution, exit and wait for one system."""

    def __init__(self, system: "System"):
        self._sys = system
        self.events: list[CopyEvent] = []
        self._exit_counter = 0

    # -- fork --------------------------------------------------------------

    def fork(self, parent_pid: int) -> int:
        """Duplicate a process; returns the child PID (the child sees 0).

        Reserves an equal-sized child region, eagerly copies and
        relocates the GOT and allocator-metadata pages (every page under
        ``FULL_COPY``), builds the child's row from the copies and the
        parent's shared pages in one page-table pass, duplicates the
        descriptor table, and rebases every tagged capability in the
        parent's register state (including the PCC) into the child's
        region.  Fails with ``EAGAIN``, before anything is reserved, while
        the kernel PID table is full.  The child's pid is taken only when
        the child is added, at the end, so a refused reservation leaves it
        free.  If an eager copy or the share pass raises, no page maps the
        copies made so far: fork frees them, drops their copy events and
        moves the bump base back, so the raise leaves the page table, the
        frames, the events, the next reservation base and the next pid as
        they were.  Frame ids are still never reused.  Its eager page
        count is the number of copies it made.
        """
        sys = self._sys
        parent = sys.process(parent_pid)
        if not parent.running:
            raise ProcessNotRunning(f"pid {parent_pid} is not running")
        strategy = sys.strategy
        space = sys.address_space

        if strategy is ForkStrategy.FULL_COPY:
            eager = [(parent.region, CopyCause.EAGER_FULL)]
        else:
            eager = [
                (parent.layout.got, CopyCause.EAGER_GOT),
                (parent.layout.alloc_meta, CopyCause.EAGER_ALLOC_META),
            ]
        # The pid is taken only when the child is added, below.
        child_pid = sys.allocate_pid()
        child_region = space.reserve_region(parent.region.size)
        events = len(self.events)
        copies: dict[int, int] = {}

        def collect(page_va: int, frame_id: int, pid: int) -> None:
            copies[page_va] = frame_id

        try:
            for sub, cause in eager:
                for parent_va in sub.page_addresses():
                    entry = space.entry_at(parent_va)
                    if entry is None:
                        raise SimInternalError(f"parent page {parent_va:#x} unmapped at fork")
                    self._copy_into(
                        child_pid,
                        child_region.base + (parent_va - parent.region.base),
                        entry.frame_id,
                        child_region,
                        cause=cause,
                        install=collect,
                    )
            eager_pages = len(copies)
            state = _CHILD_SHARED_STATE.get(strategy)
            ptes_written = eager_pages + space.share_region(
                parent_pid, child_region, child_pid, state, copies
            )
        except BaseException:
            # No row backs the child's region, so no page maps the copies.
            for frame_id in copies.values():
                sys.frames.free_unmapped(sys.frames.get(frame_id))
            space.unreserve(child_region)
            del self.events[events:]
            raise

        def rebase(cap: Capability) -> Capability:
            return rebase_for_child(cap, parent.region, child_region)

        registers = {
            name: rebase(value) if isinstance(value, Capability) else value
            for name, value in parent.registers.items()
        }
        child = MicroProcess(
            pid=child_pid,
            region=child_region,
            layout=parent.layout.rebased(child_region),
            registers=registers,
            entry_caps=sys.gateway.entries,
            fd_table=sys.files.dup_fd_table(parent),
            symbols={name: rebase(cap) for name, cap in parent.symbols.items()},
            loaded_ref=rebase(parent.loaded_ref) if parent.loaded_ref is not None else None,
            parent_pid=parent_pid,
        )
        sys.add_process(child)
        sys.metrics.record_register_relocations(
            child_pid,
            sum(registers[name] != value for name, value in parent.registers.items()),
        )
        sys.metrics.record_fork_cost(
            parent_pid,
            COST_PER_PAGE_COPY * eager_pages
            + COST_PER_PTE_WRITE * ptes_written
            + COST_PER_GRANULE_SCANNED * GRANULES_PER_PAGE * eager_pages,
        )
        return child_pid

    # -- lazy copies ---------------------------------------------------------

    def resolve_fault(self, fault: Fault) -> CopyEvent:
        """Copy (and, child-side, relocate) the faulting shared page.

        Only page-level faults on shared pages resolve, and a write fault
        only on a page that is not read-only; anything else is
        :class:`UnresolvableFault`.  The page is looked up once
        (:meth:`AddressSpace.find_page`), which gives its frame id, its
        state, whether it is read-only and its owner.  The faulting page
        is remapped to
        the copy, private (:meth:`AddressSpace.remap`); the old frame's
        refcount drops, and if one mapping is left it is promoted back to
        private.
        """
        kind, pid, page_va, _ = fault
        if not kind.resolvable:
            raise UnresolvableFault(f"{kind.value} cannot be resolved by copying")
        sys = self._sys
        space = sys.address_space
        frame_id, state, read_only, owner = space.find_page(pid, page_va)
        if frame_id is None or state is PageState.PRIVATE:
            raise UnresolvableFault(f"page {page_va:#x} is not in a shared state")
        if kind is FaultKind.PAGE_WRITE and read_only:
            raise UnresolvableFault(f"page {page_va:#x} is read-only")
        old_frame = sys.frames.get(frame_id)
        if old_frame.mapcount < 2:
            # Promotion reverts sole-owner pages to private, so a shared
            # page always aliases a multiply-referenced frame.
            raise SimInternalError(f"shared page {page_va:#x} on a sole-owner frame")
        event = self._copy_into(
            pid,
            page_va,
            frame_id,
            sys.process(owner).region,
            cause=_FAULT_TO_CAUSE[kind],
            install=space.remap,
        )
        if old_frame.mapcount == 1:
            self._promote((old_frame,))
        return event

    def _copy_into(
        self,
        trigger_pid: int,
        page_va: int,
        src_frame_id: int,
        dest_region: Region,
        *,
        cause: CopyCause,
        install: Callable[[int, int, int], None],
    ) -> CopyEvent:
        """Three-step page copy: fresh frame, byte+capability copy, relocation scan.

        The scan runs only when the destination region differs from the
        frame's origin (a forked child); a copy for the origin region
        itself needs no relocation.  ``install(page_va, frame_id,
        trigger_pid)`` places the copy: fork collects an eager one for its
        share pass, and a lazy one is remapped privately, in the row of the
        faulting pid (:meth:`AddressSpace.remap`).  If the
        scan or the install raises, the copy is freed first, so the raise
        leaves the frame table as it was.
        """
        sys = self._sys
        fresh = sys.frames.clone(src_frame_id)
        scanned = relocations = 0
        origin = fresh.origin
        try:
            if origin is not dest_region and (
                origin.base != dest_region.base or origin.size != dest_region.size
            ):
                # The scan makes ``dest_region`` the copy's origin.
                relocations = sys.frames.scan_and_relocate(fresh, origin, dest_region)
                scanned = GRANULES_PER_PAGE
            install(page_va, fresh.frame_id, trigger_pid)
        except BaseException:
            # Neither step maps the copy unless it succeeds.
            sys.frames.free_unmapped(fresh)
            raise
        event = _tuple_new(CopyEvent, (trigger_pid, page_va, cause, scanned, relocations))
        self.events.append(event)
        self._verify_copy_clean(fresh, dest_region)
        return event

    def _verify_copy_clean(self, frame: TaggedFrame, dest_region: Region) -> None:
        """A just-copied frame must hold no tagged out-of-region capability.

        Only the absolute entries are checked.  A relative entry lies in
        the frame's origin by construction (the store that made it
        relative checked its bounds), and the copy's origin is
        ``dest_region``: the scan set it, or it already was.  Reports the
        lowest failing granule.  A copy that holds no absolute entry
        passes at once.
        """
        absolute = frame.absolute
        if not absolute:
            return
        lo, hi = dest_region.base, dest_region.end
        is_entry = self._sys.gateway.is_entry_capability
        # One pass finds whether any capability escapes; only a failing copy
        # pays for finding the lowest granule that holds one.
        for cap in absolute.values():
            base, length, _, _, _, tag = cap
            if tag and not lo <= base <= base + length <= hi and not is_entry(cap):
                break
        else:
            return
        granule = min(
            granule
            for granule, cap in absolute.items()
            if cap.tag and not lo <= cap.base <= cap.top <= hi and not is_entry(cap)
        )
        raise SimInternalError(
            f"copied frame {frame.frame_id} granule {granule} still targets "
            f"outside {dest_region}: {absolute[granule]}"
        )

    def _promote(self, frames: Iterable[TaggedFrame]) -> None:
        """Sole survivors of shared frames go back to private access.

        ``frames`` each have exactly one mapping: a teardown meets a frame
        at most once, since its pages lie at one index.  The address
        space's promotion pass (:meth:`AddressSpace.promote`) skips a frame
        whose mapping is already private and makes the others' pages
        private.  Each survivor it returns, laid out for another region
        than its page's (a child that never copied the page), is then
        relocated in place for its pid's region, which becomes its origin,
        so no stale capability stays loadable.  The scan raises only for
        regions of unequal size, which the rows of one family never have.
        """
        sys = self._sys
        for frame, pid in sys.address_space.promote(frames):
            region = sys.processes[pid].region
            relocations = sys.frames.scan_and_relocate(frame, frame.origin, region)
            sys.metrics.record_scan(pid, GRANULES_PER_PAGE, relocations)

    # -- exit / wait ----------------------------------------------------------

    def exit(self, pid: int, code: int) -> None:
        """Give a process its exit record; its mappings are torn down at reap."""
        proc = self._sys.process(pid)
        if not proc.running:
            raise ProcessNotRunning(f"pid {pid} is not running")
        proc.exit_code = code
        proc.exit_seq = self._exit_counter
        self._exit_counter += 1
        self._sys.metrics.record_exit_prs(pid)

    def wait(self, parent_pid: int) -> tuple[int, int] | None:
        """Reap the earliest-exited child; ``None`` means "would block".

        Raises :class:`UnknownPid` for a pid never created, and
        :class:`NoChildren` when the caller has no unreaped children at
        all.
        """
        self._sys.process(parent_pid)  # an unknown pid raises
        unreaped = map(self._sys.processes.__getitem__, self._sys.unreaped_pids)
        children = [p for p in unreaped if p.parent_pid == parent_pid]
        if not children:
            raise NoChildren(f"pid {parent_pid} has no children to wait for")
        exited = [p for p in children if not p.running]
        if not exited:
            return None
        child = min(exited, key=lambda p: p.exit_seq)
        self.reap(child)
        return child.pid, child.exit_code

    def reap(self, proc: MicroProcess | ReapedProcess) -> None:
        """Tear down a zombie: unmap its pages and drop its row, then free its slot.

        Its entry in ``System.processes`` becomes a :class:`ReapedProcess`,
        which keeps only the pid, region, parent and exit record, so its
        descriptor table goes with the rest of the process.
        Raises :class:`ProcessNotRunning`, before changing anything, for
        a process that still runs or holds no PID-table slot (reaped); the
        message says which.
        """
        sys = self._sys
        pid = proc.pid
        if proc.running:
            raise ProcessNotRunning(f"pid {pid} still runs, so it cannot be reaped")
        if pid not in sys.unreaped_pids:
            raise ProcessNotRunning(f"pid {pid} was already reaped")
        self._promote(sys.address_space.unmap_owned(pid))
        sys.release_pid(pid)
        sys.processes[pid] = ReapedProcess(
            pid, proc.region, proc.parent_pid, proc.exit_code, proc.exit_seq
        )
