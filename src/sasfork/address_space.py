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

The page table is one *row* per reservation, a list with one element per
page: ``None`` for an unmapped page, an ``int`` frame id for a page
shared read-only in the row's state, or a :class:`PageTableEntry`.  A
fork's share pass builds the child's row with a frame id per shared page
and adds each child page to its frame's page set, so a page set stays
the refcount.  Entries are slotted records changed in place: the share
pass write-protects the parent's, and the promotion pass makes a sole
survivor private again.  Readers take a frame id as it is and build no
entry for it; a lazy copy replaces it with the copy's entry
(:meth:`AddressSpace.remap`), and only :meth:`~AddressSpace.entry_at`
and the promotion pass, whose callers change the entry, turn one into
its entry.

:meth:`AddressSpace.check_and_access` checks and performs one access on
exactly one page, as one CHERI-checked load or store would; a range that
crosses a page is an internal error, since callers split ranges first.
It runs the fixed pipeline
``tag -> seal -> bounds -> capability perms -> page state`` so fault
kinds are deterministic.  It reads the row of the accessing pid's
reservation, and bisects for a row only for a page outside it.
Page-level faults (write, access, capability load) are resolvable by the
fork engine; capability-level faults and privilege faults terminate the
access.  Where capability loads are
blocked, an integer read or fetch that overlaps a tagged granule takes
the capability-load fault too: the bytes of a capability the child has
not relocated yet would show the parent's address.

Three passes change a whole region at once: at boot and at process
creation :meth:`~AddressSpace.map_fresh_region` backs each page with a new
frame; at fork :meth:`~AddressSpace.share_region` builds the child's row;
at reap :meth:`~AddressSpace.unmap_owned` walks the row once and drops
it.  The last two put back what they changed before they raise.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions; only a
fork that fails takes back the reservation it made, unused.  Rows never
move.  A page's owner is the pid of the reservation it lies in
(:meth:`~AddressSpace.owner_of`).
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, NoReturn

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
    """Per-virtual-page mapping; mutable because states transition, and
    slotted, so it is small and its fields are cheap to read and set."""

    frame_id: int
    state: PageState
    writable: bool

    @property
    def shared(self) -> bool:
        return self.state is not PageState.PRIVATE


@dataclass(slots=True)
class _Row:
    """One reservation's page table, from ``base`` to ``end``, owned by ``pid``:
    an element per page in ``pages``, ``None`` while the reservation maps
    nothing; ``state`` is the state of its frame-id elements."""

    base: int
    end: int
    pid: int
    state: PageState | None = None
    pages: list[int | PageTableEntry | None] | None = None


#: The row, owned by no pid, of the addresses outside every reservation.
_UNRESERVED = _Row(0, 0, None)


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


def _verify_owner(row: _Row, page_va: int, owners: set[int]) -> None:
    """The page, in ``row``, lies in the reservation of a pid in ``owners``."""
    if row.pid not in owners:
        raise SimInternalError(
            f"prs conservation broken: page {page_va:#x} lies in no owner's region"
            f" (reserved for pid {row.pid})"
        )


def _fault(kind: FaultKind, pid: int, addr: int, access: AccessKind) -> NoReturn:
    """Raise the fault of an access at ``addr``; the access pipeline's one exit."""
    raise FaultError(Fault(kind, pid, page_of(addr), access))


class AddressSpace:
    """Region reservation, page mappings, and checked accesses."""

    def __init__(self, frames: FrameTable):
        self._frames = frames
        self._next_base = PAGE_SIZE  # address 0 is never reserved
        self._bases: list[int] = []  # each reservation's base, in address order,
        self._rows: list[_Row] = []  # and its row
        self._pid_rows: dict[int, _Row] = {}  # the row of each pid's last reservation

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
        row = _Row(base, base + size, pid)
        self._bases.append(base)
        self._rows.append(row)
        self._pid_rows[pid] = row
        self._next_base = base + size
        return Region(base, size)

    def _row_at(self, addr: int) -> _Row:
        """The row of the reservation holding ``addr``, or ``_UNRESERVED``."""
        if not PAGE_SIZE <= addr < self._next_base:
            return _UNRESERVED
        return self._rows[bisect_right(self._bases, addr) - 1]

    def owner_of(self, addr: int) -> int | None:
        """The pid whose reservation holds ``addr``, or None if none does."""
        if not PAGE_SIZE <= addr < self._next_base:
            return None
        return self._rows[bisect_right(self._bases, addr) - 1].pid

    def unreserve(self, region: Region) -> None:
        """Take back the last reservation, ``region``, which maps nothing.

        For a fork that fails: the bump base goes back to ``region.base``.
        """
        rows = self._rows
        if not rows or rows[-1].base != region.base or self._next_base != region.end:
            raise SimInternalError(f"{region} is not the last reservation")
        row = rows[-1]
        if row.pages is not None and any(element is not None for element in row.pages):
            raise SimInternalError(f"{region} still maps a page")
        rows.pop()
        self._bases.pop()
        if self._pid_rows.get(row.pid) is row:
            del self._pid_rows[row.pid]
        self._next_base = region.base

    def _lookup(self, page_va: int) -> tuple[_Row, int, int | PageTableEntry | None]:
        """The row holding page ``page_va``, the index of its element and the
        element, which is None where nothing maps the page."""
        if not PAGE_SIZE <= page_va < self._next_base or page_va % PAGE_SIZE:
            return _UNRESERVED, 0, None
        row = self._rows[bisect_right(self._bases, page_va) - 1]
        if row.pages is None:
            return row, 0, None
        index = (page_va - row.base) // PAGE_SIZE
        return row, index, row.pages[index]

    def _locate(self, region: Region) -> tuple[_Row, int, int]:
        """The row ``region`` lies in, the index of its first page and its
        page count."""
        base, size = region.base, region.size
        row = self._row_at(base)
        if base + size > row.end:
            raise SimInternalError(f"{region} does not lie in one reservation")
        return row, (base - row.base) // PAGE_SIZE, size // PAGE_SIZE

    # -- mappings ---------------------------------------------------------

    def map(self, page_va: int, entry: PageTableEntry) -> None:
        """Map ``page_va`` and add it to its frame's page set."""
        if page_va % PAGE_SIZE:
            raise ValueError(f"page address {page_va:#x} not aligned")
        row = self._row_at(page_va)
        if row is _UNRESERVED:
            raise SimInternalError(f"page {page_va:#x} lies in no reservation")
        index = (page_va - row.base) // PAGE_SIZE
        pages = row.pages or [None] * ((row.end - row.base) // PAGE_SIZE)
        if pages[index] is not None:
            raise DoubleMap(f"page {page_va:#x} is already mapped")
        self._frames.get(entry.frame_id).pages.add(page_va)
        pages[index], row.pages = entry, pages
        for log in self._frames.logs:
            log.frames.add(entry.frame_id)

    def map_fresh_region(self, region: Region, read_only: Region) -> None:
        """Back every page of ``region`` with a new frame, in one pass.

        Each page is mapped as :meth:`map` would map it, to a frame
        allocated in page order with ``region`` as its origin: private,
        and writable except in ``read_only``.  :meth:`FrameTable.allocate`
        logs each frame.  Raises :class:`DoubleMap` before anything
        changes if a page of the region is already mapped.
        """
        row, first, count = self._locate(region)
        pages = row.pages or [None] * ((row.end - row.base) // PAGE_SIZE)
        for index in range(first, first + count) if row.pages else ():
            if pages[index] is not None:
                raise DoubleMap(f"page {row.base + index * PAGE_SIZE:#x} is already mapped")
        frames, fresh = self._frames, []
        ro_base, ro_end = read_only.base, read_only.end
        for page_va in range(region.base, region.end, PAGE_SIZE):
            frame = frames.allocate(region)
            frame.pages.add(page_va)
            fresh.append(PageTableEntry(frame.frame_id, _PRIVATE, not ro_base <= page_va < ro_end))
        pages[first : first + count], row.pages = fresh, pages

    def _detach(self, page_va: int) -> tuple[list, int, TaggedFrame]:
        """Drop mapped ``page_va`` from its frame's page set, freeing a frame
        left with none, and log the frame; returns the row's elements, the
        page's index and the frame.  Raises before anything changes if the
        page is not mapped, or its frame does not list it."""
        row, index, element = self._lookup(page_va)
        if element is None:
            raise UnmappedPage(f"page {page_va:#x} is not mapped")
        frame_id = element if type(element) is int else element.frame_id
        frames = self._frames.by_id
        frame = frames.get(frame_id)
        if frame is None or page_va not in frame.pages:
            raise SimInternalError(f"page {page_va:#x} is not attached to frame {frame_id}")
        frame.pages.remove(page_va)
        if not frame.pages:
            del frames[frame_id]
        for log in self._frames.logs:
            log.frames.add(frame_id)
        return row.pages, index, frame

    def unmap(self, page_va: int) -> int:
        """Remove a mapping and drop the page from its frame's page set,
        freeing a frame left with none; returns the frame's remaining
        refcount.  Raises before anything changes if the page is not
        mapped, or its frame does not list it.
        """
        pages, index, frame = self._detach(page_va)
        pages[index] = None
        return len(frame.pages)

    def remap(self, page_va: int, entry: PageTableEntry) -> None:
        """Map ``page_va`` to ``entry`` in place of its mapping, as an
        :meth:`unmap` and a :meth:`map` would, logging the old frame and
        the new one: the lazy copy's one write.  Raises before anything
        changes if the page is not mapped, or its frame does not list it.
        """
        fresh = self._frames.get(entry.frame_id)
        pages, index, _ = self._detach(page_va)
        fresh.pages.add(page_va)
        pages[index] = entry
        for log in self._frames.logs:
            log.frames.add(entry.frame_id)

    def share_region(self, parent: Region, child: Region, skip: set[int], state: PageState) -> int:
        """Share each parent page not in ``skip`` read-only in ``state`` at the
        same child offset, and make a private parent entry shared
        copy-on-write.  Returns the page-table entries this stands for.

        One walk of the parent's row builds the child's: the frame id of
        each shared page, read in place where the parent's element is one
        itself (a grandchild fork), beside the child's own elements for
        the pages in ``skip``.  Each child page joins its frame's page set,
        as :meth:`map` would add it.  ``child`` is a whole reservation that
        shares nothing yet.  A raise first drops the child pages added and
        restores the parent entries changed, so it changes no element,
        page set or log.
        """
        row = self._row_at(child.base)
        if (row.base, row.end, row.state) != (child.base, child.end, None) or (
            child.size != parent.size
        ):
            raise SimInternalError(f"{child} is not a reservation that shares nothing")
        parent_row, first, count = self._locate(parent)
        inherited = (parent_row.pages or [None] * (first + count))[first : first + count]
        built = list(row.pages or [None] * count)
        skipped = {(va - parent.base) // PAGE_SIZE for va in skip if parent.contains(va)}
        frames = self._frames.by_id
        # What a raise puts back: the entries made copy-on-write, and their old writable.
        cowed: list[PageTableEntry] = []
        was_writable: list[bool] = []
        try:
            for index, child_va, element in zip(
                range(count), range(child.base, child.end, PAGE_SIZE), inherited
            ):
                if index in skipped:
                    continue
                if type(element) is int:
                    frame_id = element
                elif element is None:
                    raise SimInternalError(
                        f"parent page {parent.base + index * PAGE_SIZE:#x} unmapped at fork"
                    )
                else:
                    frame_id = element.frame_id
                    if element.state is _PRIVATE:
                        cowed.append(element)
                        was_writable.append(element.writable)
                        element.state = _SHARED_COW
                        element.writable = False
                if built[index] is not None:
                    raise DoubleMap(f"page {child_va:#x} is already mapped")
                frames[frame_id].pages.add(child_va)
                built[index] = frame_id
        except (DoubleMap, SimInternalError, KeyError) as err:
            for child_va, element in zip(range(child.base, child.end, PAGE_SIZE), built):
                if type(element) is int:
                    frames[element].pages.remove(child_va)
            for entry, writable in zip(cowed, was_writable):
                entry.state = _PRIVATE
                entry.writable = writable
            if isinstance(err, KeyError):
                raise SimInternalError(f"frame {err.args[0]} does not exist") from None
            raise
        row.pages, row.state = built, state
        for log in self._frames.logs:
            log.regions.append(child)
        return count - len(skipped) + len(cowed)

    def unmap_owned(self, region: Region) -> list[TaggedFrame]:
        """Unmap every page of ``region`` in one walk of its row, in page
        order, all or nothing, then drop the row (or clear the elements of
        a region that is part of one).

        Returns, in page order, the frames left with one mapping.  A page
        its frame does not list raises ``SimInternalError`` once the pages
        already unmapped and the frames already freed are put back, so a
        raise changes no element, page set, live frame or log.
        """
        row, first, count = self._locate(region)
        owned = row.pages[first : first + count] if row.pages else []
        frames = self._frames.by_id
        survivors = []
        freed: list[TaggedFrame] = []
        for page_va, element in zip(range(region.base, region.end, PAGE_SIZE), owned):
            if element is None:
                continue
            frame_id = element if type(element) is int else element.frame_id
            try:
                frame = frames[frame_id]
                frame.pages.remove(page_va)
            except KeyError:
                for lost in freed:
                    frames[lost.frame_id] = lost
                for done_va, done in zip(range(region.base, page_va, PAGE_SIZE), owned):
                    if done is not None:
                        frames[done if type(done) is int else done.frame_id].pages.add(done_va)
                raise SimInternalError(
                    f"page {page_va:#x} is not attached to frame {frame_id}"
                ) from None
            mappers = len(frame.pages)
            if not mappers:
                del frames[frame_id]
                freed.append(frame)
            elif mappers == 1:
                survivors.append(frame)
        if count == len(row.pages or ()):
            row.pages = row.state = None
        elif owned:
            row.pages[first : first + count] = [None] * count
        logs = self._frames.logs
        if logs:
            changed = {e if type(e) is int else e.frame_id for e in owned if e is not None}
            for log in logs:
                log.frames |= changed
        return survivors

    def owned_refcounts(self, region: Region) -> dict[int, int]:
        """The mapped pages of ``region``, counted per frame refcount.

        The one sweep behind :meth:`Metrics.prs_bytes`.
        """
        row, first, count = self._locate(region)
        frames = self._frames.by_id
        counts: dict[int, int] = {}
        try:
            for element in row.pages[first : first + count] if row.pages else ():
                if element is not None:
                    refs = len(frames[element if type(element) is int else element.frame_id].pages)
                    counts[refs] = counts.get(refs, 0) + 1
        except KeyError as err:
            raise SimInternalError(
                f"{region} maps frame {err.args[0]}, which does not exist"
            ) from None
        return counts

    def entry_at(self, addr: int) -> PageTableEntry | None:
        """The entry of ``addr``'s page, for a caller that may change it; a
        frame-id element there becomes its read-only entry."""
        row, index, element = self._lookup(page_of(addr))
        if type(element) is int:
            element = row.pages[index] = PageTableEntry(element, row.state, False)
        return element

    def sole_mappings(
        self, frames: Iterable[TaggedFrame]
    ) -> Iterator[tuple[TaggedFrame, int, PageTableEntry]]:
        """Each of ``frames`` that has exactly one mapping, in order, with its
        page and that page's entry, for the promotion pass to change; a
        frame-id element there becomes its read-only entry."""
        row, base, end = None, 0, 0
        for frame in frames:
            if len(frame.pages) != 1:
                continue
            (page_va,) = frame.pages
            if not base <= page_va < end:
                row = self._row_at(page_va)
                base, end = row.base, row.end
            pages, index = row.pages, (page_va - base) // PAGE_SIZE
            entry = pages[index]
            if type(entry) is int:
                entry = pages[index] = PageTableEntry(entry, row.state, False)
            yield frame, page_va, entry

    def mapping_at(self, addr: int) -> tuple[int, PageState, bool] | None:
        """The frame id, state and writable of ``addr``'s page, read in
        place; None where the page is not mapped."""
        row, _, element = self._lookup(page_of(addr))
        if element is None:
            return None
        if type(element) is int:
            return element, row.state, False
        return element.frame_id, element.state, element.writable

    def loadable_frames(self, pid: int, indices: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The index and frame id of each page of ``pid``'s reservation, among
        the page indices ``indices``, whose state allows capability loads;
        reads frame-id elements in place."""
        row = self._pid_rows[pid]
        pages = row.pages or ()
        shared = row.state is not None and row.state.cap_load
        for index in indices if pages else ():
            element = pages[index]
            if type(element) is int:
                if shared:
                    yield index, element
            elif element is not None and element.state.cap_load:
                yield index, element.frame_id

    def entries(self) -> dict[int, PageTableEntry]:
        """Every mapping by page address, in address order: each entry, and
        a detached read-only entry for each frame-id element."""
        view = {}
        for row in self._rows:
            for page_va, element in zip(range(row.base, row.end, PAGE_SIZE), row.pages or ()):
                if type(element) is int:
                    view[page_va] = PageTableEntry(element, row.state, False)
                elif element is not None:
                    view[page_va] = element
        return view

    def verify_refcounts(self, owners: set[int]) -> None:
        """Full debug pass: each frame's page set is exactly the pages that
        map it, since every mapped page is in its frame's set and the sets
        hold as many pages as the rows map.  It also checks what
        resident-set conservation rests on, given ``owners``, a set of
        pids: each mapped page lies in the region of a pid in ``owners``,
        so one :meth:`owned_refcounts` sweep counts it, and every frame has
        a page.  It reads every row element and frame once; it is the
        oracle of the per-step :meth:`verify_changes`.
        """
        mapped = 0
        for row in self._rows:
            mapped += self._verify_pages(row, 0, (row.end - row.base) // PAGE_SIZE, owners)
        listed = 0
        for frame_id, frame in self._frames.by_id.items():
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            listed += len(frame.pages)
        if listed != mapped:
            raise SimInternalError(
                f"frames list {listed} pages, the page table maps {mapped}"
            )

    def verify_changes(self, log: ChangeLog, owners: set[int]) -> None:
        """Per-step debug check: the facts of :meth:`verify_refcounts`, read
        only where ``log`` says they may have changed; then clears the log.

        A logged frame that still exists has a page, and every page in its
        set maps it, so the set lists nothing else.  Each of those pages,
        and each mapped page of a logged region, maps a frame that lists it
        and lies in the reservation of a pid in ``owners``.  If the facts
        held when the log was last cleared and every change since was
        logged, this check passes exactly when the full pass does.
        """
        frames = self._frames.by_id
        for frame_id in log.frames:
            frame = frames.get(frame_id)
            if frame is None:
                continue
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            for page_va in frame.pages:
                row, _, element = self._lookup(page_va)
                if element is None or frame_id != (
                    element if type(element) is int else element.frame_id
                ):
                    raise SimInternalError(
                        f"frame {frame_id} lists page {page_va:#x}, which does not map it"
                    )
                _verify_owner(row, page_va, owners)
        for region in log.regions:
            self._verify_pages(*self._locate(region), owners)
        log.frames.clear()
        log.regions.clear()

    def _verify_pages(self, row: _Row, first: int, count: int, owners: set[int]) -> int:
        """Each mapped page among ``count`` of ``row`` from index ``first`` on
        maps a frame that lists it and lies in the reservation of a pid in
        ``owners``; returns how many are mapped."""
        frames, mapped = self._frames.by_id, 0
        base = row.base + first * PAGE_SIZE
        elements = row.pages[first : first + count] if row.pages else ()
        for page_va, element in zip(range(base, row.end, PAGE_SIZE), elements):
            if element is None:
                continue
            frame_id = element if type(element) is int else element.frame_id
            frame = frames.get(frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {frame_id}, which does not list it"
                )
            _verify_owner(row, page_va, owners)
            mapped += 1
        return mapped

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
        row = self._pid_rows.get(pid)
        if row is None or not row.base <= page_va < row.end:
            row = self._row_at(page_va)
        element = row.pages[(page_va - row.base) // PAGE_SIZE] if row.pages else None
        if type(element) is int:
            # Shared read-only in the row's state, served in place.
            state, frame_id, writable = row.state, element, False
        elif element is None:
            _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
        else:
            state, frame_id, writable = element.state, element.frame_id, element.writable
        if state is _SHARED_COA:
            _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
        if kind in _STORES and not writable:
            _fault(_PAGE_WRITE_FAULT, pid, page_va, kind)
        frame = self._frames.get(frame_id)
        if not state.cap_load:
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
