"""The single global page table and the access-check pipeline.

Every process lives in one shared virtual address space; isolation comes
from capability bounds, not from separate page tables.  What the page
table adds is the *sharing strategy* per page:

========== ========== ========= ================ =========================
state      readable   writable  capability load  used for
========== ========== ========= ================ =========================
Private    yes        per page  yes              exclusively owned pages
SharedCoW  yes        no        yes              parent side of any lazy
                                                 fork, child side of the
                                                 unsafe CoW demonstration
SharedCoA  no         no        no               child side of copy-on-
                                                 access
SharedCoPA yes        no        no               child side of copy-on-
                                                 pointer-access
========== ========== ========= ================ =========================

The capability-load column is derived from the state
(``PageState.cap_load``), and a frame's refcount is the size of the page
set the frame owns.  This module is the one writer of page sets: mapping
and unmapping keep them in step with the page table, and log each change
into the frame table's change logs (see :mod:`sasfork.tagged_memory`).
Entries are slotted records changed in place: the fork pass
write-protects the parent's, and the fork engine's promotion pass makes a
sole survivor private again.

A fork installs no child entry for a page it shares.  It records one
*span* for the child region instead: the child's page state and, per
page, a *slot* that holds the frame id the child maps there, or ``None``
where the page has an entry (an eager copy, or a slot already used).
Each child page is still in its frame's page set from the fork on, so a
page set stays the refcount.  The first time :meth:`AddressSpace.entry_at`,
:meth:`~AddressSpace.map`, :meth:`~AddressSpace.unmap` or
:meth:`~AddressSpace.check_and_access` looks up a live slot, the slot
becomes the read-only entry the fork would have installed, and is
cleared: a page is an entry or a live slot, never both.
:attr:`AddressSpace.by_page` holds the explicit entries only.  The
read-only walkers (the resident-set sweep, both debug checks,
:meth:`~AddressSpace.slot_view` for the audit, :meth:`~AddressSpace.entries`
and a grandchild's share pass) read slots in place and install nothing.

:meth:`AddressSpace.check_and_access` checks and performs one access on
exactly one page, as one CHERI-checked load or store would; a range that
crosses a page is an internal error, since callers split ranges first.
It runs the fixed pipeline
``tag -> seal -> bounds -> capability perms -> page state`` so fault
kinds are deterministic.  Page-level faults (write, access, capability
load) are resolvable by the fork engine; capability-level faults and
privilege faults terminate the access.  Where capability loads are
blocked, an integer read or fetch that overlaps a tagged granule takes
the capability-load fault too: the bytes of a capability the child has
not relocated yet would show the parent's address.

Besides the per-page :meth:`AddressSpace.map` and
:meth:`~AddressSpace.unmap`, which lazy copies use, three passes change a
whole region at once: :meth:`~AddressSpace.map_fresh_region` backs every
page of a fresh region with a new frame at boot and at process creation,
with the checks that a :meth:`~AddressSpace.map` per page would make;
:meth:`~AddressSpace.share_region` records a child's span at fork; and
:meth:`~AddressSpace.unmap_owned` tears down a region's entries and slots
at reap.  The last two put back what they changed before they raise.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions; only a
fork that fails takes back the reservation it made, unused.  A page's
owner is the pid of the reservation it lies in (:meth:`~AddressSpace.owner_of`),
and a span starts at the base of its child's reservation.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import NoReturn

from .capability import GRANULE, PAGE_SIZE, VIRTUAL_SPACE_LIMIT, Capability, Perm, Region
from .errors import (
    AddressSpaceExhausted,
    DoubleMap,
    SimInternalError,
    SimulatorError,
    UnmappedPage,
)
from .tagged_memory import ChangeLog, FrameTable, TaggedFrame


class PageState(enum.Enum):
    PRIVATE = "Private", True
    SHARED_COW = "SharedCoW", True
    SHARED_COA = "SharedCoA", False
    SHARED_COPA = "SharedCoPA", False

    def __new__(cls, value: str, cap_load: bool):
        member = object.__new__(cls)
        member._value_ = value
        # Whether the state allows capability loads; a plain attribute
        # is far cheaper on the access path than comparing members.
        member.cap_load = cap_load
        return member


@dataclass(slots=True)
class PageTableEntry:
    """Per-virtual-page mapping; mutable because states transition.

    Slotted, so an entry is small and its fields are cheap to read and
    set on the fork, reap and promotion passes.
    """

    frame_id: int
    state: PageState
    writable: bool

    @property
    def shared(self) -> bool:
        return self.state is not PageState.PRIVATE


@dataclass(slots=True)
class _Span:
    """A child region's shared pages that have no entry yet.

    ``slots[i]`` is the frame id the region's ``i``-th page maps, read-only
    in ``state``, or ``None`` where the page has an entry or no mapping.
    """

    state: PageState
    slots: list[int | None]


class AccessKind(enum.Enum):
    READ_INT = "ReadInt", Perm.LOAD
    WRITE = "Write", Perm.STORE
    CAP_LOAD = "CapLoad", Perm.LOAD | Perm.LOAD_CAP
    CAP_STORE = "CapStore", Perm.STORE | Perm.STORE_CAP
    EXEC = "Exec", Perm.EXEC

    def __new__(cls, value: str, required: Perm):
        member = object.__new__(cls)
        member._value_ = value
        # The permission bits the access needs, as an int mask: a plain
        # attribute, like PageState.cap_load, keeps the enum's hash and
        # its value property off the access path.
        member.required = required._value_
        return member


class FaultKind(enum.Enum):
    CAP_TAG = "CapTagFault"
    CAP_SEALED = "CapSealedFault"
    CAP_BOUNDS = "CapBoundsFault"
    CAP_PERM = "CapPermFault"
    PAGE_WRITE = "PageWriteFault"
    PAGE_ACCESS = "PageAccessFault"
    CAP_LOAD = "CapLoadFault"
    PRIVILEGE = "PrivilegeFault"


#: Only page-level faults may be handed to the fork engine; the rest
#: terminate the access.
RESOLVABLE_FAULTS = frozenset(
    {FaultKind.PAGE_WRITE, FaultKind.PAGE_ACCESS, FaultKind.CAP_LOAD}
)


# Module aliases of the members the access pipeline tests: loading a
# global is several times cheaper than an attribute of the enum class.
_PRIVATE, _SHARED_COW = PageState.PRIVATE, PageState.SHARED_COW
_SHARED_COA = PageState.SHARED_COA
_READ_INT, _WRITE, _EXEC = AccessKind.READ_INT, AccessKind.WRITE, AccessKind.EXEC
_CAP_LOAD, _CAP_STORE = AccessKind.CAP_LOAD, AccessKind.CAP_STORE
_CAP_ACCESSES = (_CAP_LOAD, _CAP_STORE)
_STORES = (_WRITE, _CAP_STORE)
_INT_READS = (_READ_INT, _EXEC)
_CAP_TAG_FAULT, _CAP_SEALED_FAULT = FaultKind.CAP_TAG, FaultKind.CAP_SEALED
_CAP_BOUNDS_FAULT, _CAP_PERM_FAULT = FaultKind.CAP_BOUNDS, FaultKind.CAP_PERM
_PAGE_WRITE_FAULT, _PAGE_ACCESS_FAULT = FaultKind.PAGE_WRITE, FaultKind.PAGE_ACCESS
_CAP_LOAD_FAULT = FaultKind.CAP_LOAD


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    pid: int
    page_va: int
    access: AccessKind

    @property
    def resolvable(self) -> bool:
        return self.kind in RESOLVABLE_FAULTS

    def __str__(self) -> str:
        return f"{self.kind.value}(pid={self.pid}, page={self.page_va:#x}, access={self.access.value})"


class FaultError(SimulatorError):
    """Exception wrapper carrying a :class:`Fault` value."""

    def __init__(self, fault: Fault):
        super().__init__(str(fault))
        self.fault = fault


_EXEC_FETCH_WIDTH = 4


def page_of(addr: int) -> int:
    return addr - (addr % PAGE_SIZE)


def _fault(kind: FaultKind, pid: int, addr: int, access: AccessKind) -> NoReturn:
    """Raise the fault of an access at ``addr``; the access pipeline's one exit."""
    raise FaultError(Fault(kind, pid, page_of(addr), access))


class AddressSpace:
    """Region reservation, page mappings, and checked accesses."""

    def __init__(self, frames: FrameTable):
        self._frames = frames
        self._next_base = PAGE_SIZE  # address 0 is never reserved
        self._bases: list[int] = []  # each reservation's base, in address order,
        self._owners: list[int] = []  # and the pid that owns its pages
        self._pages: dict[int, PageTableEntry] = {}
        self._spans: dict[int, _Span] = {}  # by the base of the reservation they start

    # -- regions ---------------------------------------------------------

    def reserve_region(self, size: int, pid: int) -> Region:
        """Bump-allocate a fresh region owned by ``pid``; reservations are never reused."""
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"region size must be positive and page-aligned: {size}")
        base = self._next_base
        if base + size > VIRTUAL_SPACE_LIMIT:
            raise AddressSpaceExhausted(
                f"cannot reserve {size:#x} bytes, {VIRTUAL_SPACE_LIMIT - base:#x} left"
            )
        self._bases.append(base)
        self._owners.append(pid)
        self._next_base = base + size
        return Region(base, size)

    def owner_of(self, addr: int) -> int | None:
        """The pid whose reservation holds ``addr``, or None if none does."""
        if not PAGE_SIZE <= addr < self._next_base:
            return None
        return self._owners[bisect_right(self._bases, addr) - 1]

    def unreserve(self, region: Region) -> None:
        """Take back the last reservation, ``region``, which maps nothing.

        For a fork that fails: the bump base goes back to ``region.base``.
        """
        bases = self._bases
        if not bases or bases[-1] != region.base or self._next_base != region.end:
            raise SimInternalError(f"{region} is not the last reservation")
        if region.base in self._spans:
            raise SimInternalError(f"{region} still holds a span")
        bases.pop()
        self._owners.pop()
        self._next_base = region.base

    # -- spans ------------------------------------------------------------

    def _span_at(self, addr: int) -> tuple[_Span | None, int]:
        """The span of the reservation holding ``addr``, and the slot index of
        ``addr``'s page in it (which may lie past its slots); or ``(None, 0)``."""
        spans = self._spans
        if spans:
            bases = self._bases
            index = bisect_right(bases, addr) - 1
            if index >= 0:
                base = bases[index]
                span = spans.get(base)
                if span is not None:
                    return span, (addr - base) // PAGE_SIZE
        return None, 0

    def _materialize(self, page_va: int) -> PageTableEntry | None:
        """Turn a live slot at ``page_va`` into its entry, or return None."""
        span, index = self._span_at(page_va)
        if span is None or index >= len(span.slots):
            return None
        slots = span.slots
        frame_id = slots[index]
        if frame_id is None:
            return None
        slots[index] = None
        entry = self._pages[page_va] = PageTableEntry(frame_id, span.state, False)
        return entry

    def _slots_over(self, region: Region) -> list[int | None]:
        """The frame id of each live slot of ``region``, ``None`` elsewhere,
        one per page of ``region`` in page order; ``region`` lies in one
        reservation."""
        count = region.size // PAGE_SIZE
        span, first = self._span_at(region.base)
        if span is None:
            return [None] * count
        slots = span.slots[first : first + count]
        if len(slots) < count:
            slots += [None] * (count - len(slots))
        return slots

    def _live_slots(self) -> list[tuple[int, int, PageState]]:
        """Every live slot, as (page address, frame id, state)."""
        return [
            (base + index * PAGE_SIZE, frame_id, span.state)
            for base, span in self._spans.items()
            for index, frame_id in enumerate(span.slots)
            if frame_id is not None
        ]

    # -- mappings ---------------------------------------------------------

    def map(self, page_va: int, entry: PageTableEntry) -> None:
        """Map ``page_va`` and add it to its frame's page set."""
        if page_va % PAGE_SIZE:
            raise ValueError(f"page address {page_va:#x} not aligned")
        if page_va in self._pages or self._materialize(page_va) is not None:
            raise DoubleMap(f"page {page_va:#x} is already mapped")
        frame_id = entry.frame_id
        self._frames.get(frame_id).pages.add(page_va)
        self._pages[page_va] = entry
        for log in self._frames.logs:
            log.frames.add(frame_id)

    def map_fresh_region(self, region: Region, read_only: Region) -> None:
        """Back every page of ``region`` with a new frame, in one pass.

        Each page is mapped as :meth:`map` would map it, to a frame
        allocated in page order with ``region`` as its origin: private,
        and writable except in ``read_only``.  :meth:`FrameTable.allocate`
        logs each frame.  Raises :class:`DoubleMap` before anything
        changes if a page of the region is already mapped.
        """
        pages, frames = self._pages, self._frames
        base, end = region.base, region.end
        for page_va in range(base, end, PAGE_SIZE):
            if page_va in pages:
                raise DoubleMap(f"page {page_va:#x} is already mapped")
        ro_base, ro_end = read_only.base, read_only.end
        for page_va in range(base, end, PAGE_SIZE):
            frame = frames.allocate(region)
            frame.pages.add(page_va)
            pages[page_va] = PageTableEntry(frame.frame_id, _PRIVATE, not ro_base <= page_va < ro_end)

    def unmap(self, page_va: int) -> int:
        """Remove a mapping and drop the page from its frame's page set,
        freeing a frame left with none; returns the frame's remaining
        refcount.  Raises before anything but a live slot's materialisation
        changes if the page is not mapped, or its frame does not list it.
        """
        entry = self._pages.get(page_va)
        if entry is None:
            entry = self._materialize(page_va)
            if entry is None:
                raise UnmappedPage(f"page {page_va:#x} is not mapped")
        frames, frame_id = self._frames.by_id, entry.frame_id
        frame = frames.get(frame_id)
        if frame is None or page_va not in frame.pages:
            raise SimInternalError(f"page {page_va:#x} is not attached to frame {frame_id}")
        del self._pages[page_va]
        frame.pages.remove(page_va)
        if not frame.pages:
            del frames[frame_id]
        for log in self._frames.logs:
            log.frames.add(frame_id)
        return len(frame.pages)

    def share_region(self, parent: Region, child: Region, skip: set[int], state: PageState) -> int:
        """Share each parent page not in ``skip`` read-only in ``state`` at the
        same child offset, and make a private parent entry shared
        copy-on-write.  Returns the page-table entries this stands for.

        The child pages get no entries: one span records, per page, the
        frame id the child maps there (``None`` for a page in ``skip``),
        and each child page joins its frame's page set, as :meth:`map`
        would add it.  A parent page that is itself a live slot is read in
        place.  ``child`` starts, and lies in, a reservation that holds no
        span.  A raise first drops the child pages added and restores the
        parent entries changed, so it changes no entry, span, page set or
        log.
        """
        pages, frames = self._pages, self._frames.by_id
        bases = self._bases
        at = bisect_right(bases, child.base) - 1
        end = bases[at + 1] if at + 1 < len(bases) else self._next_base
        if at < 0 or bases[at] != child.base or child.base in self._spans or child.end > end:
            raise SimInternalError(f"{child} does not start a reservation free of spans")
        parent_span, first = self._span_at(parent.base)
        delta = child.base - parent.base
        slots: list[int | None] = []
        add_slot = slots.append
        # What a raise puts back: the entries made copy-on-write, and their old writable.
        cowed: list[PageTableEntry] = []
        was_writable: list[bool] = []
        try:
            for parent_va in range(parent.base, parent.end, PAGE_SIZE):
                if parent_va in skip:
                    add_slot(None)
                    continue
                entry = pages.get(parent_va)
                if entry is None:
                    frame_id = None
                    if parent_span is not None and first + len(slots) < len(parent_span.slots):
                        frame_id = parent_span.slots[first + len(slots)]
                    if frame_id is None:
                        raise SimInternalError(f"parent page {parent_va:#x} unmapped at fork")
                else:
                    frame_id = entry.frame_id
                child_va = parent_va + delta
                if child_va in pages:
                    raise DoubleMap(f"page {child_va:#x} is already mapped")
                frame = frames.get(frame_id)
                if frame is None:
                    raise SimInternalError(f"frame {frame_id} does not exist")
                frame.pages.add(child_va)
                add_slot(frame_id)
                if entry is not None and entry.state is _PRIVATE:
                    cowed.append(entry)
                    was_writable.append(entry.writable)
                    entry.state = _SHARED_COW
                    entry.writable = False
        except (DoubleMap, SimInternalError):
            for child_va, frame_id in zip(range(child.base, child.end, PAGE_SIZE), slots):
                if frame_id is not None:
                    frames[frame_id].pages.remove(child_va)
            for entry, writable in zip(cowed, was_writable):
                entry.state = _PRIVATE
                entry.writable = writable
            raise
        self._spans[child.base] = _Span(state, slots)
        for log in self._frames.logs:
            log.regions.append(child)
        return len(slots) - slots.count(None) + len(cowed)

    def unmap_owned(self, region: Region) -> list[TaggedFrame]:
        """Unmap every entry and live slot of ``region``, in one pass in page
        order, all or nothing, and drop the slots.

        Returns, in page order, the frames left with one mapping.  A page
        its frame does not list raises ``SimInternalError`` once the pages
        already unmapped and the frames already freed are put back, so a
        raise changes no entry, slot, page set, live frame or log.
        """
        pages, frames = self._pages, self._frames.by_id
        live = self._slots_over(region)
        survivors = []
        # What the raise path puts back: for each page walked, in order, the
        # entry unmapped there or None (a slot's frame id is in ``live``),
        # and the frames freed.
        unmapped: list[PageTableEntry | None] = []
        freed: list[TaggedFrame] = []
        for page_va, frame_id in zip(range(region.base, region.end, PAGE_SIZE), live):
            entry = None
            if frame_id is None:
                entry = pages.get(page_va)
                if entry is None:
                    unmapped.append(None)
                    continue
                frame_id = entry.frame_id
            try:
                frame = frames[frame_id]
                frame.pages.remove(page_va)
            except KeyError:
                for lost in freed:
                    frames[lost.frame_id] = lost
                walked = zip(range(region.base, page_va, PAGE_SIZE), live, unmapped)
                for done_va, done_id, done in walked:
                    if done is not None:
                        pages[done_va] = done
                        done_id = done.frame_id
                    if done_id is not None:
                        frames[done_id].pages.add(done_va)
                raise SimInternalError(
                    f"page {page_va:#x} is not attached to frame {frame_id}"
                ) from None
            if entry is not None:
                del pages[page_va]
            unmapped.append(entry)
            mappers = len(frame.pages)
            if not mappers:
                del frames[frame_id]
                freed.append(frame)
            elif mappers == 1:
                survivors.append(frame)
        span, first = self._span_at(region.base)
        if span is not None:
            slots = span.slots
            stop = min(first + len(live), len(slots))
            if first == 0 and stop == len(slots):
                del self._spans[region.base]
            elif first < stop:
                slots[first:stop] = [None] * (stop - first)
        logs = self._frames.logs
        if logs:
            changed = {entry.frame_id for entry in unmapped if entry is not None}
            changed.update(live)
            changed.discard(None)
            for log in logs:
                log.frames |= changed
        return survivors

    def owned_refcounts(self, region: Region) -> dict[int, int]:
        """The mapped pages of ``region``, entries and live slots, counted per
        frame refcount.

        The one sweep behind :meth:`Metrics.prs_bytes`.
        """
        pages, frames = self._pages, self._frames.by_id
        counts: dict[int, int] = {}
        for page_va, frame_id in zip(
            range(region.base, region.end, PAGE_SIZE), self._slots_over(region)
        ):
            if frame_id is None:
                entry = pages.get(page_va)
                if entry is None:
                    continue
                frame_id = entry.frame_id
            frame = frames.get(frame_id)
            if frame is None:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {frame_id}, which does not exist"
                )
            refs = len(frame.pages)
            counts[refs] = counts.get(refs, 0) + 1
        return counts

    def entry_at(self, addr: int) -> PageTableEntry | None:
        """The entry of ``addr``'s page; a live slot there becomes its entry."""
        page_va = page_of(addr)
        entry = self._pages.get(page_va)
        if entry is None:
            return self._materialize(page_va)
        return entry

    def slot_view(self, page_va: int) -> PageTableEntry | None:
        """For a live slot at ``page_va``, a detached copy of the entry it
        would become; None where there is none.  Reads the slot in place
        and installs nothing; an explicit entry is in :attr:`by_page`."""
        span, index = self._span_at(page_va)
        if span is not None and index < len(span.slots):
            frame_id = span.slots[index]
            if frame_id is not None:
                return PageTableEntry(frame_id, span.state, False)
        return None

    def entries(self) -> dict[int, PageTableEntry]:
        """Every mapping by page address: the entries, and a detached entry
        for each live slot; installs nothing."""
        view = dict(self._pages)
        for page_va, frame_id, state in self._live_slots():
            view[page_va] = PageTableEntry(frame_id, state, False)
        return view

    @property
    def by_page(self) -> dict[int, PageTableEntry]:
        """The explicit entries by page address, not a copy; live slots are
        not in it.

        The auditor and the tests read it; only :meth:`map`, :meth:`unmap`,
        a slot's materialisation and the region passes add or remove
        entries.
        """
        return self._pages

    def verify_refcounts(self, owners: set[int]) -> None:
        """Full debug pass: each frame's page set is exactly the entries and
        live slots mapping it.

        Once every entry's and live slot's page is in its frame's set, no
        page is both, and the totals are equal, the sets list nothing else.
        It also checks what resident-set conservation rests on, given
        ``owners``, a set of pids: each mapped page lies in the region of a
        pid in ``owners``, so one :meth:`owned_refcounts` sweep counts it,
        and every frame has a page.  It walks every entry, slot and frame;
        it is the oracle of the per-step :meth:`verify_changes`, and shares
        only the owner check.
        """
        frames = self._frames.by_id
        for page_va, entry in self._pages.items():
            frame = frames.get(entry.frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {entry.frame_id}, which does not list it"
                )
            self._verify_owner(page_va, owners)
        slots = self._live_slots()
        for page_va, frame_id, _ in slots:
            frame = frames.get(frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {frame_id}, which does not list it"
                )
            self._verify_owner(page_va, owners)
        both = self._pages.keys() & {page_va for page_va, _, _ in slots}
        if both:
            raise SimInternalError(f"page {min(both):#x} is both an entry and a live slot")
        listed = 0
        for frame_id, frame in frames.items():
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            listed += len(frame.pages)
        mapped = len(self._pages) + len(slots)
        if listed != mapped:
            raise SimInternalError(
                f"frames list {listed} pages, the page table maps {mapped}"
            )

    def verify_changes(self, log: ChangeLog, owners: set[int]) -> None:
        """Per-step debug check: the facts of :meth:`verify_refcounts`, read
        only where ``log`` says they may have changed; then clears the log.

        A logged frame that still exists has a page, and every page in its
        set maps it through an entry or a live slot, so the set lists
        nothing else.  Each of those pages, and each entry and live slot in
        a logged region, maps a frame that lists it and lies in the
        reservation of a pid in ``owners``.  If the facts held when the log
        was last cleared and every change since was logged, this check
        passes exactly when the full pass does.  It reads slots in place.
        """
        pages, frames = self._pages, self._frames.by_id
        for frame_id in log.frames:
            frame = frames.get(frame_id)
            if frame is None:
                continue
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            for page_va in frame.pages:
                entry = pages.get(page_va)
                if entry is None:
                    entry = self.slot_view(page_va)
                if entry is None or entry.frame_id != frame_id:
                    raise SimInternalError(
                        f"frame {frame_id} lists page {page_va:#x}, which does not map it"
                    )
                self._verify_owner(page_va, owners)
        for region in log.regions:
            for page_va, frame_id in zip(
                range(region.base, region.end, PAGE_SIZE), self._slots_over(region)
            ):
                if frame_id is None:
                    entry = pages.get(page_va)
                    if entry is None:
                        continue
                    frame_id = entry.frame_id
                frame = frames.get(frame_id)
                if frame is None or page_va not in frame.pages:
                    raise SimInternalError(
                        f"page {page_va:#x} maps frame {frame_id}, which does not list it"
                    )
                self._verify_owner(page_va, owners)
        log.frames.clear()
        log.regions.clear()

    def _verify_owner(self, page_va: int, owners: set[int]) -> None:
        """The page lies in the reservation of a pid in ``owners``."""
        owner = self.owner_of(page_va)
        if owner not in owners:
            raise SimInternalError(
                f"prs conservation broken: page {page_va:#x} lies in no owner's region"
                f" (reserved for pid {owner})"
            )

    # -- checked accesses --------------------------------------------------

    def check_and_access(
        self,
        pid: int,
        cap: Capability,
        kind: AccessKind,
        payload: bytes | Capability | None = None,
        *,
        width: int = 8,
    ):
        """Run the access pipeline and perform the access if it passes.

        The access lies on exactly one page.  Pipeline order is fixed:
        tag, seal, bounds (including granule alignment for capability
        accesses), capability permissions, then the state of that page.
        An in-bounds access that crosses a page raises
        :class:`SimInternalError` before anything changes; callers split
        ranges with ``System._page_chunks``.  Raises :class:`FaultError`;
        resolvable faults may be retried by the caller after resolution.

        Returns: the integer read (``READ_INT``/``EXEC``), the loaded
        :class:`Capability` (``CAP_LOAD``), or the byte count written.
        """
        if kind is _WRITE:
            if not isinstance(payload, (bytes, bytearray)):
                raise ValueError("WRITE requires a bytes payload")
            width = len(payload)
        elif kind is _CAP_STORE:
            if not isinstance(payload, Capability):
                raise ValueError("CAP_STORE requires a Capability payload")
            width = GRANULE
        elif kind is _CAP_LOAD:
            width = GRANULE
        elif kind is _EXEC:
            width = _EXEC_FETCH_WIDTH

        base, length, cursor, perms, otype, tag = cap
        if not tag:
            _fault(_CAP_TAG_FAULT, pid, cursor, kind)
        if otype is not None:
            _fault(_CAP_SEALED_FAULT, pid, cursor, kind)
        if kind in _CAP_ACCESSES and cursor % GRANULE:
            _fault(_CAP_BOUNDS_FAULT, pid, cursor, kind)
        if not (base <= cursor and cursor + width <= base + length):
            _fault(_CAP_BOUNDS_FAULT, pid, cursor, kind)
        required = kind.required
        if perms._value_ & required != required:
            _fault(_CAP_PERM_FAULT, pid, cursor, kind)

        offset = cursor % PAGE_SIZE
        page_va = cursor - offset
        if offset + width > PAGE_SIZE:
            raise SimInternalError(
                f"{kind.value} of {width} bytes at {cursor:#x} crosses a page; callers split it"
            )
        entry = self._pages.get(page_va)
        if entry is None:
            entry = self._materialize(page_va)
            if entry is None:
                _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
        if entry.state is _SHARED_COA:
            _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
        if kind in _STORES and not entry.writable:
            _fault(_PAGE_WRITE_FAULT, pid, page_va, kind)
        frame = self._frames.get(entry.frame_id)
        if not entry.state.cap_load:
            if kind is _CAP_LOAD:
                _fault(_CAP_LOAD_FAULT, pid, page_va, kind)
            if kind in _INT_READS and frame.tagged_in(offset, offset + width):
                # The bytes of a capability the child has not relocated
                # yet: copy and relocate first.
                _fault(_CAP_LOAD_FAULT, pid, page_va, kind)

        if kind is _CAP_LOAD:
            return self._frames.load_capability(frame, offset // GRANULE)
        if kind is _CAP_STORE:
            self._frames.store_capability(frame, offset // GRANULE, payload)
            return GRANULE
        if kind is _WRITE:
            frame.store_bytes(offset, bytes(payload))
            return width
        # READ_INT and EXEC
        return int.from_bytes(frame.read(offset, width), "little")
