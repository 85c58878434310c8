"""The single global page table and the access-check pipeline.

Every process lives in one shared virtual address space; isolation comes
from capability bounds, not from separate page tables.  What the page
table adds is the *sharing strategy* per page:

========== ========== ========= ================ =========================
state      readable   writable  capability load  used for
========== ========== ========= ================ =========================
Private    yes        except    yes              exclusively owned pages
                      code
SharedCoW  yes        no        yes              parent side of any lazy
                                                 fork, child side of the
                                                 unsafe CoW demonstration
SharedCoA  no         no        no               child side of copy-on-
                                                 access
SharedCoPA yes        no        no               child side of copy-on-
                                                 pointer-access
========== ========== ========= ================ =========================

The capability-load column is derived from the state
(``PageState.cap_load``), and so is the writable column: a page is
writable exactly when it is ``Private`` and lies past its reservation's
leading read-only (code) pages, which :meth:`AddressSpace.reserve_region`
fixes once.  A frame's refcount is the size of the page set the frame
owns.  This module is the one writer of page sets: mapping and unmapping
keep them in step with the page table, and log each change into the
frame table's change logs (see :mod:`sasfork.tagged_memory`).

The page table is one *row* per live reservation with two columns, a
list each with one element per page, built whole when the region is
reserved: ``frames``, the frame id that backs the page or ``None`` where
nothing maps it, and ``states``, the page's :class:`PageState` (``None``
where unmapped).  Rows are private to this module: other modules read
plain values (frame ids, states, owner pids) or the
:class:`PageTableEntry` view, and never a row.  A fork's share pass copies
the parent's frame ids into the child's row wherever the row maps
nothing, writes the strategy's shared state beside them, makes the
parent's private states there copy-on-write and adds each child page to
its frame's page set, so a page set stays the refcount.  The pages the
child's row maps already are the fork's eager copies: the row itself
says which pages were copied, and they keep their frames.  A lazy copy
writes the copy's frame id and ``Private`` (:meth:`AddressSpace.remap`),
and the promotion pass (:meth:`AddressSpace.promote`) makes a sole
survivor ``Private`` again in place, once the fork engine's callback has
relocated its frame.  The fault path finds its page once, with
:meth:`~AddressSpace.find_page`: like the access pipeline, it tries the
faulting pid's own reservation before a bisect, and it returns the
page's frame id and state, whether it is read-only, and its owner.  A
:class:`PageTableEntry` is only a read-only view of one page, built by
:meth:`~AddressSpace.entry_at` and :meth:`~AddressSpace.entries`.

:meth:`AddressSpace.check_and_access` checks and performs one access on
exactly one page, as one CHERI-checked load or store would; a range that
crosses a page is an internal error, since callers split ranges first.
It runs the fixed pipeline
``tag -> seal -> bounds -> capability perms -> page state`` so fault
kinds are deterministic; a store to a read-only page is a write fault
in any state, since no copy would make the page writable.  It reads the
row of the accessing pid's reservation, and bisects for a row only for
a page outside it.  A :class:`Fault` is a named tuple; page-level faults
(write, access, capability load) are resolvable by the fork engine
(``FaultKind.resolvable``); capability-level faults and privilege faults
terminate the access.  Where capability loads are
blocked, an integer read or fetch that overlaps a tagged granule takes
the capability-load fault too: the bytes of a capability the child has
not relocated yet would show the parent's address.

Three passes change a whole region at once: at boot and at process
creation :meth:`~AddressSpace.map_fresh_region` backs each page with a new
frame; at fork :meth:`~AddressSpace.share_region` builds the child's row;
at reap, and to roll back a fork that raises,
:meth:`~AddressSpace.unmap_owned` walks the row once and then removes
it, so the region's addresses lie in no reservation.  The last two put
back what they changed before they raise.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions; only a
fork that fails moves the bump base back over the reservation it made,
once its row is gone.  A row lives from its reservation to the teardown
of its whole region, so the rows are those of the kernel and the live
pids.  A page's owner is the pid of the reservation it lies in
(:meth:`~AddressSpace.owner_of`), and the owner fact the debug checks
rest on is a fact about rows: each belongs to a pid that may own pages.
"""

from __future__ import annotations

import enum
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn

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


class PageTableEntry(NamedTuple):
    """A read-only view of one page's mapping; ``writable`` is derived
    from the state and the page's place (see the module docstring)."""

    frame_id: int
    state: PageState
    writable: bool

    @property
    def shared(self) -> bool:
        return self.state is not PageState.PRIVATE


@dataclass(slots=True)
class _Row:
    """One reservation's page table, from ``base`` to ``end``, owned by
    ``pid``, read-only below ``ro_end``: a frame id and a state per page
    in ``frames`` and ``states``, each ``None`` where nothing maps the
    page."""

    base: int
    end: int
    pid: int | None
    ro_end: int
    frames: list[int | None]
    states: list[PageState | None]


#: The row, owned by no pid and with no pages, of the addresses outside
#: every reservation.
_UNRESERVED = _Row(0, 0, None, 0, [], [])


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
    CAP_TAG = "CapTagFault", False
    CAP_SEALED = "CapSealedFault", False
    CAP_BOUNDS = "CapBoundsFault", False
    CAP_PERM = "CapPermFault", False
    PAGE_WRITE = "PageWriteFault", True
    PAGE_ACCESS = "PageAccessFault", True
    CAP_LOAD = "CapLoadFault", True
    PRIVILEGE = "PrivilegeFault", False

    def __new__(cls, value: str, resolvable: bool):
        member = object.__new__(cls)
        member._value_ = value
        # Only page-level faults may be handed to the fork engine; the
        # rest terminate the access.  A plain attribute, like
        # PageState.cap_load, keeps the enum's hash off the fault path.
        member.resolvable = resolvable
        return member


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


class Fault(NamedTuple):
    """One hardware trap: its kind, the faulting pid and page, and the
    access that took it."""

    kind: FaultKind
    pid: int
    page_va: int
    access: AccessKind

    @property
    def resolvable(self) -> bool:
        return self.kind.resolvable

    def __str__(self) -> str:
        return f"{self.kind.value}(pid={self.pid}, page={self.page_va:#x}, access={self.access.value})"


class FaultError(SimulatorError):
    """Exception wrapper carrying a :class:`Fault` value; its message is
    the fault's text, formatted only when read."""

    def __init__(self, fault: Fault):
        super().__init__(fault)
        self.fault = fault

    def __str__(self) -> str:
        return str(self.fault)


_EXEC_FETCH_WIDTH = 4
_tuple_new = tuple.__new__


def page_of(addr: int) -> int:
    return addr - (addr % PAGE_SIZE)


def _fault(kind: FaultKind, pid: int, addr: int, access: AccessKind) -> NoReturn:
    """Raise the fault of an access at ``addr``; the access pipeline's one exit."""
    raise FaultError(_tuple_new(Fault, (kind, pid, addr - addr % PAGE_SIZE, access)))


class AddressSpace:
    """Region reservation, page mappings, and checked accesses."""

    def __init__(self, frames: FrameTable):
        self._frames = frames
        self._next_base = PAGE_SIZE  # address 0 is never reserved
        self._bases: list[int] = []  # each reservation's base, in address order,
        self._rows: list[_Row] = []  # and its row
        self._pid_rows: dict[int, _Row] = {}  # the row of each pid's last live reservation

    # -- regions ---------------------------------------------------------

    def reserve_region(self, size: int, pid: int, ro_pages: int) -> Region:
        """Bump-allocate a fresh region owned by ``pid``, whose first
        ``ro_pages`` pages are read-only; reservations are never reused."""
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"region size must be positive and page-aligned: {size}")
        base = self._next_base
        if base + size > VIRTUAL_SPACE_LIMIT:
            raise AddressSpaceExhausted(
                f"cannot reserve {size:#x} bytes, {VIRTUAL_SPACE_LIMIT - base:#x} left"
            )
        unmapped = [None] * (size // PAGE_SIZE)
        row = _Row(base, base + size, pid, base + ro_pages * PAGE_SIZE, unmapped, unmapped.copy())
        self._bases.append(base)
        self._rows.append(row)
        self._pid_rows[pid] = row
        self._next_base = base + size
        return Region(base, size)

    def _row_at(self, addr: int) -> _Row:
        """The row of the live reservation holding ``addr``, or ``_UNRESERVED``."""
        index = bisect_right(self._bases, addr) - 1
        row = self._rows[index] if index >= 0 else _UNRESERVED
        return row if addr < row.end else _UNRESERVED

    def owner_of(self, addr: int) -> int | None:
        """The pid whose reservation holds ``addr``, or None if none does."""
        return self._row_at(addr).pid

    def unreserve(self, region: Region) -> None:
        """Move the bump base back to ``region.base``: for a fork that fails,
        once :meth:`unmap_owned` has dropped the row of ``region``, the last
        reservation."""
        if self._next_base != region.end:
            raise SimInternalError(f"{region} is not the last reservation")
        if self._rows and self._rows[-1].end > region.base:
            raise SimInternalError(f"{region} still has a row")
        self._next_base = region.base

    def _lookup(self, page_va: int, row: _Row | None = None) -> tuple[_Row, int, int | None]:
        """The row holding page ``page_va``, the page's index in it and its
        frame id, which is None where nothing maps the page.  ``row``, if
        given, is tried before a bisect of the reservations."""
        if row is None or not row.base <= page_va < row.end:
            row = self._row_at(page_va)
        if row is _UNRESERVED or page_va % PAGE_SIZE:
            return row, 0, None
        index = (page_va - row.base) // PAGE_SIZE
        return row, index, row.frames[index]

    def find_page(
        self, pid: int, page_va: int
    ) -> tuple[int | None, PageState | None, bool, int | None]:
        """The frame id and state of page ``page_va`` (both None where
        nothing maps it), whether it lies below its reservation's read-only
        bound, and the pid whose reservation holds it: the fault path's one
        lookup of its page, which tries ``pid``'s own reservation first, as
        the access pipeline does."""
        row, index, frame_id = self._lookup(page_va, self._pid_rows.get(pid))
        if frame_id is None:
            return None, None, False, row.pid
        return frame_id, row.states[index], page_va < row.ro_end, row.pid

    def _locate(self, region: Region) -> tuple[_Row, int, int]:
        """The row ``region`` lies in, the index of its first page and its
        page count."""
        base, size = region.base, region.size
        row = self._row_at(base)
        if base + size > row.end:
            raise SimInternalError(f"{region} does not lie in one reservation")
        return row, (base - row.base) // PAGE_SIZE, size // PAGE_SIZE

    # -- mappings ---------------------------------------------------------

    def map(self, page_va: int, frame_id: int, state: PageState = _PRIVATE) -> None:
        """Map ``page_va`` to frame ``frame_id`` in ``state`` and add it to
        the frame's page set."""
        if page_va % PAGE_SIZE:
            raise ValueError(f"page address {page_va:#x} not aligned")
        row = self._row_at(page_va)
        if row is _UNRESERVED:
            raise SimInternalError(f"page {page_va:#x} lies in no reservation")
        frame = self._frames.get(frame_id)
        frames, states = row.frames, row.states
        index = (page_va - row.base) // PAGE_SIZE
        if frames[index] is not None:
            raise DoubleMap(f"page {page_va:#x} is already mapped")
        frame.pages.add(page_va)
        frames[index], states[index] = frame_id, state
        for log in self._frames.logs:
            log.frames.add(frame_id)

    def map_fresh_region(self, region: Region) -> None:
        """Back every page of ``region`` with a new frame, in one pass.

        Each page is mapped private, as :meth:`map` would map it, to a
        frame allocated in page order with ``region`` as its origin.
        :meth:`FrameTable.allocate` logs each frame.  Raises
        :class:`DoubleMap` before anything changes if a page of the
        region is already mapped.
        """
        row, first, count = self._locate(region)
        frames, states = row.frames, row.states
        for index in range(first, first + count):
            if frames[index] is not None:
                raise DoubleMap(f"page {row.base + index * PAGE_SIZE:#x} is already mapped")
        allocate, fresh = self._frames.allocate, []
        for page_va in range(region.base, region.end, PAGE_SIZE):
            frame = allocate(region)
            frame.pages.add(page_va)
            fresh.append(frame.frame_id)
        frames[first : first + count] = fresh
        states[first : first + count] = [_PRIVATE] * count

    def _detach(self, page_va: int) -> tuple[_Row, int, TaggedFrame]:
        """Drop mapped ``page_va`` from its frame's page set, freeing a frame
        left with none, and log the frame; returns the page's row, its
        index and the frame.  Raises before anything changes if the page
        is not mapped, or its frame does not list it."""
        row, index, frame_id = self._lookup(page_va)
        if frame_id is None:
            raise UnmappedPage(f"page {page_va:#x} is not mapped")
        frames = self._frames.by_id
        frame = frames.get(frame_id)
        if frame is None or page_va not in frame.pages:
            raise SimInternalError(f"page {page_va:#x} is not attached to frame {frame_id}")
        frame.pages.remove(page_va)
        if not frame.pages:
            del frames[frame_id]
        for log in self._frames.logs:
            log.frames.add(frame_id)
        return row, index, frame

    def unmap(self, page_va: int) -> int:
        """Remove a mapping and drop the page from its frame's page set,
        freeing a frame left with none; returns the frame's remaining
        refcount.  Raises before anything changes if the page is not
        mapped, or its frame does not list it.
        """
        row, index, frame = self._detach(page_va)
        row.frames[index] = row.states[index] = None
        return len(frame.pages)

    def remap(self, page_va: int, frame_id: int) -> None:
        """Map ``page_va`` privately to frame ``frame_id`` in place of its
        mapping, as an :meth:`unmap` and a :meth:`map` would, logging the
        old frame and the new one: the lazy copy's one write.  Raises
        before anything changes if the page is not mapped, or its frame
        does not list it.
        """
        fresh = self._frames.get(frame_id)
        row, index, _ = self._detach(page_va)
        fresh.pages.add(page_va)
        row.frames[index], row.states[index] = frame_id, _PRIVATE
        for log in self._frames.logs:
            log.frames.add(frame_id)

    def share_region(self, parent: Region, child: Region, state: PageState) -> int:
        """Share each parent page read-only in ``state`` at the same child
        offset, where the child's row maps nothing, and make a private
        parent page it shares copy-on-write.  Returns the page-table
        entries this stands for: the child pages shared and the parent
        pages made copy-on-write.

        ``child`` is a whole reservation that shares nothing yet.  The
        pages its row maps already (a fork's eager copies) keep their
        frames and states, and so do the parent pages at their offsets.
        The other child pages get the parent's frame ids, each joining its
        frame's page set, as :meth:`map` would add it.  A raise first
        drops the child pages added, so it changes no mapping, page set or
        log.
        """
        row = self._row_at(child.base)
        if (
            (row.base, row.end) != (child.base, child.end)
            or child.size != parent.size
            or not {_PRIVATE, None}.issuperset(row.states)
        ):
            raise SimInternalError(f"{child} is not a reservation that shares nothing")
        parent_row, first, count = self._locate(parent)
        parent_states = parent_row.states
        inherited = parent_row.frames[first : first + count]
        own_frames, own_states = row.frames, row.states
        built, states, kept = own_frames.copy(), [state] * count, []
        frames = self._frames.by_id
        try:
            for index, child_va, frame_id in zip(
                range(count), range(child.base, child.end, PAGE_SIZE), inherited
            ):
                if built[index] is not None:
                    kept.append(index)
                    continue
                if frame_id is None:
                    raise SimInternalError(
                        f"parent page {parent.base + index * PAGE_SIZE:#x} unmapped at fork"
                    )
                frames[frame_id].pages.add(child_va)
                built[index] = frame_id
        except (SimInternalError, KeyError) as err:
            # Every page before the failing one that the row did not map was added.
            for child_va, own, frame_id in zip(
                range(child.base, child.base + index * PAGE_SIZE, PAGE_SIZE), own_frames, built
            ):
                if own is None:
                    frames[frame_id].pages.remove(child_va)
            if isinstance(err, KeyError):
                raise SimInternalError(f"frame {err.args[0]} does not exist") from None
            raise
        saved = parent_states[first : first + count]
        shared = [_SHARED_COW if old is _PRIVATE else old for old in saved]
        for index in kept:
            shared[index], states[index] = saved[index], own_states[index]
        parent_states[first : first + count] = shared
        row.frames, row.states = built, states
        for log in self._frames.logs:
            log.regions.append(child)
        return count - len(kept) + shared.count(_SHARED_COW) - saved.count(_SHARED_COW)

    def unmap_owned(self, region: Region) -> list[TaggedFrame]:
        """Unmap every page of ``region`` in one walk of its row, in page
        order, all or nothing, then drop the row, so its addresses lie in
        no reservation (or clear the pages of a region that is part of
        one).

        Returns, in page order, the frames left with one mapping.  A page
        its frame does not list raises ``SimInternalError`` once the pages
        already unmapped and the frames already freed are put back, so a
        raise changes no mapping, page set, live frame or log.
        """
        row, first, count = self._locate(region)
        owned = row.frames[first : first + count]
        frames = self._frames.by_id
        survivors = []
        freed: list[TaggedFrame] = []
        for page_va, frame_id in zip(range(region.base, region.end, PAGE_SIZE), owned):
            if frame_id is None:
                continue
            try:
                frame = frames[frame_id]
                frame.pages.remove(page_va)
            except KeyError:
                for lost in freed:
                    frames[lost.frame_id] = lost
                for done_va, done in zip(range(region.base, page_va, PAGE_SIZE), owned):
                    if done is not None:
                        frames[done].pages.add(done_va)
                raise SimInternalError(
                    f"page {page_va:#x} is not attached to frame {frame_id}"
                ) from None
            mappers = len(frame.pages)
            if not mappers:
                del frames[frame_id]
                freed.append(frame)
            elif mappers == 1:
                survivors.append(frame)
        if count == len(row.frames):
            index = bisect_left(self._bases, row.base)
            del self._bases[index], self._rows[index]
            if self._pid_rows.get(row.pid) is row:
                del self._pid_rows[row.pid]
        else:
            row.frames[first : first + count] = row.states[first : first + count] = [None] * count
        logs = self._frames.logs
        if logs:
            changed = set(owned)
            changed.discard(None)
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
            for frame_id in row.frames[first : first + count]:
                if frame_id is not None:
                    refs = len(frames[frame_id].pages)
                    counts[refs] = counts.get(refs, 0) + 1
        except KeyError as err:
            raise SimInternalError(
                f"{region} maps frame {err.args[0]}, which does not exist"
            ) from None
        return counts

    def entry_at(self, addr: int) -> PageTableEntry | None:
        """The mapping of ``addr``'s page, or None where nothing maps it."""
        page_va = page_of(addr)
        row, index, frame_id = self._lookup(page_va)
        if frame_id is None:
            return None
        state = row.states[index]
        return PageTableEntry(frame_id, state, state is _PRIVATE and page_va >= row.ro_end)

    def promote(
        self, frames: Iterable[TaggedFrame], relocate: Callable[[TaggedFrame, int], None]
    ) -> None:
        """The promotion pass: make the one mapping of each of ``frames``
        that has exactly one, in a shared state, ``Private`` again, in
        order, and log the frame.  ``relocate(frame, pid)`` runs first, with
        the pid whose reservation holds the page, so the frame holds that
        pid's capabilities before the page may load them.  Pages in the
        last row found need no bisect."""
        row, base, end = _UNRESERVED, 0, 0
        logs = self._frames.logs
        for frame in frames:
            if len(frame.pages) != 1:
                continue
            (page_va,) = frame.pages
            if not base <= page_va < end:
                row = self._row_at(page_va)
                base, end = row.base, row.end
            index = (page_va - base) // PAGE_SIZE
            states = row.states
            if states[index] is not _PRIVATE:
                relocate(frame, row.pid)
                states[index] = _PRIVATE
                for log in logs:
                    log.frames.add(frame.frame_id)

    def loadable_frames(self, pid: int, indices: Iterable[int]) -> Iterator[tuple[int, int]]:
        """The index and frame id of each page of ``pid``'s reservation, among
        the page indices ``indices``, whose state allows capability loads."""
        row = self._pid_rows[pid]
        frames, states = row.frames, row.states
        for index in indices:
            frame_id = frames[index]
            if frame_id is not None and states[index].cap_load:
                yield index, frame_id

    def entries(self) -> dict[int, PageTableEntry]:
        """Every mapping by page address, in address order."""
        view = {}
        for row in self._rows:
            pages = range(row.base, row.end, PAGE_SIZE)
            for page_va, frame_id, state in zip(pages, row.frames, row.states):
                if frame_id is not None:
                    writable = state is _PRIVATE and page_va >= row.ro_end
                    view[page_va] = PageTableEntry(frame_id, state, writable)
        return view

    def verify_refcounts(self, owners: set[int]) -> None:
        """Full debug pass: each frame's page set is exactly the pages that
        map it, since every mapped page is in its frame's set and the sets
        hold as many pages as the rows map.  It also checks what
        resident-set conservation rests on, given ``owners``, a set of
        pids: every row belongs to a pid in ``owners`` (:meth:`_verify_rows`),
        so one :meth:`owned_refcounts` sweep counts each mapped page, and
        every frame has a page.  It reads every row element and frame once;
        it is the oracle of the per-step :meth:`verify_changes`.
        """
        self._verify_rows(owners)
        mapped = 0
        for row in self._rows:
            mapped += self._verify_pages(row, 0, len(row.frames))
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

        Every row belongs to a pid in ``owners``, a walk of the rows alone.
        A logged frame that still exists has a page, and every page in its
        set maps it, so the set lists nothing else.  Each mapped page of a
        logged region maps a frame that lists it; a region torn down since
        maps nothing.  If the facts held when the log was last cleared and
        every change since was logged, this check passes exactly when the
        full pass does.
        """
        self._verify_rows(owners)
        frames = self._frames.by_id
        for frame_id in log.frames:
            frame = frames.get(frame_id)
            if frame is None:
                continue
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            for page_va in frame.pages:
                if self._lookup(page_va)[2] != frame_id:
                    raise SimInternalError(
                        f"frame {frame_id} lists page {page_va:#x}, which does not map it"
                    )
        for region in log.regions:
            row = self._row_at(region.base)
            self._verify_pages(row, (region.base - row.base) // PAGE_SIZE, region.page_count)
        log.frames.clear()
        log.regions.clear()

    def _verify_rows(self, owners: set[int]) -> None:
        """Every row belongs to a pid in ``owners``: a pid that owns nothing
        keeps no reservation, so no page can lie in one."""
        for row in self._rows:
            if row.pid not in owners:
                raise SimInternalError(
                    f"prs conservation broken: pid {row.pid}, which owns nothing,"
                    f" keeps the row at {row.base:#x}"
                )

    def _verify_pages(self, row: _Row, first: int, count: int) -> int:
        """Each mapped page among ``count`` of ``row`` from index ``first`` on
        maps a frame that lists it; returns how many are mapped."""
        frames, mapped = self._frames.by_id, 0
        base = row.base + first * PAGE_SIZE
        owned = row.frames[first : first + count]
        for page_va, frame_id in zip(range(base, row.end, PAGE_SIZE), owned):
            if frame_id is None:
                continue
            frame = frames.get(frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {frame_id}, which does not list it"
                )
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
            if row is _UNRESERVED:
                _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
        index = (page_va - row.base) // PAGE_SIZE
        frame_id = row.frames[index]
        if frame_id is None:
            _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
        state = row.states[index]
        if kind in _STORES:
            if page_va < row.ro_end:
                # A read-only page, which no copy makes writable.
                _fault(_PAGE_WRITE_FAULT, pid, page_va, kind)
            if state is not _PRIVATE:
                fault = _PAGE_ACCESS_FAULT if state is _SHARED_COA else _PAGE_WRITE_FAULT
                _fault(fault, pid, page_va, kind)
        elif state is _SHARED_COA:
            _fault(_PAGE_ACCESS_FAULT, pid, page_va, kind)
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
