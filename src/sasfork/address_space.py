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
write-protects the parent's, and the fork engine's promotion pass, which
reads them through :attr:`AddressSpace.by_page`, makes a sole survivor
private again.

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
:meth:`~AddressSpace.share_region` maps a parent's pages into a child at
fork; and :meth:`~AddressSpace.unmap_owned` tears down a region at reap.
The last two put back what they changed before they raise.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions.  A page's
owner is the pid of the reservation it lies in (:meth:`~AddressSpace.owner_of`).
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

    # -- mappings ---------------------------------------------------------

    def map(self, page_va: int, entry: PageTableEntry) -> None:
        """Map ``page_va`` and add it to its frame's page set."""
        if page_va % PAGE_SIZE:
            raise ValueError(f"page address {page_va:#x} not aligned")
        if page_va in self._pages:
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
        refcount.  Raises before anything changes if the page is not
        mapped, or its frame does not list it.
        """
        entry = self._pages.get(page_va)
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
        """Map, as :meth:`map` would, each parent page not in ``skip`` read-only
        at the same child offset, and make a private parent entry shared
        copy-on-write.  Returns the page-table entries written.  A raise
        first removes the child entries installed and restores the parent
        entries changed, so it changes no entry, page set or log.
        """
        pages, frames = self._pages, self._frames.by_id
        delta = child.base - parent.base
        mapped = len(pages)
        # What a raise puts back: the entries made copy-on-write, and their old writable.
        cowed: list[PageTableEntry] = []
        was_writable: list[bool] = []
        try:
            for parent_va in range(parent.base, parent.end, PAGE_SIZE):
                if parent_va in skip:
                    continue
                entry = pages.get(parent_va)
                if entry is None:
                    raise SimInternalError(f"parent page {parent_va:#x} unmapped at fork")
                child_va = parent_va + delta
                if child_va in pages:
                    raise DoubleMap(f"page {child_va:#x} is already mapped")
                frame_id = entry.frame_id
                frame = frames.get(frame_id)
                if frame is None:
                    raise SimInternalError(f"frame {frame_id} does not exist")
                pages[child_va] = PageTableEntry(frame_id, state, False)
                frame.pages.add(child_va)
                if entry.state is _PRIVATE:
                    cowed.append(entry)
                    was_writable.append(entry.writable)
                    entry.state = _SHARED_COW
                    entry.writable = False
        except (DoubleMap, SimInternalError):
            for child_va in range(child.base, parent_va + delta, PAGE_SIZE):
                if child_va - delta not in skip:
                    frames[pages.pop(child_va).frame_id].pages.remove(child_va)
            for entry, writable in zip(cowed, was_writable):
                entry.state = _PRIVATE
                entry.writable = writable
            raise
        for log in self._frames.logs:
            log.regions.append(child)
        return len(pages) - mapped + len(cowed)

    def unmap_owned(self, region: Region) -> list[TaggedFrame]:
        """Unmap every page of ``region``, all or nothing.

        Returns, in page order, the frames left with one mapping.  A page
        its frame does not list raises ``SimInternalError`` once the pages
        already unmapped and the frames already freed are put back, so a
        raise changes no entry, page set, live frame or log.
        """
        pages, frames = self._pages, self._frames.by_id
        survivors = []
        # What the raise path puts back: for each page walked, in order, the
        # entry unmapped there or None, and the frames freed.
        unmapped: list[PageTableEntry | None] = []
        freed: list[TaggedFrame] = []
        for page_va in range(region.base, region.end, PAGE_SIZE):
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
                for done_va, done in zip(range(region.base, page_va, PAGE_SIZE), unmapped):
                    if done is not None:
                        pages[done_va] = done
                        frames[done.frame_id].pages.add(done_va)
                raise SimInternalError(
                    f"page {page_va:#x} is not attached to frame {frame_id}"
                ) from None
            del pages[page_va]
            unmapped.append(entry)
            mappers = len(frame.pages)
            if not mappers:
                del frames[frame_id]
                freed.append(frame)
            elif mappers == 1:
                survivors.append(frame)
        logs = self._frames.logs
        if logs:
            changed = {entry.frame_id for entry in unmapped if entry is not None}
            for log in logs:
                log.frames |= changed
        return survivors

    def owned_refcounts(self, region: Region) -> dict[int, int]:
        """The mapped pages of ``region``, counted per frame refcount.

        The one sweep behind :meth:`Metrics.prs_bytes`.
        """
        pages, frames = self._pages, self._frames.by_id
        counts: dict[int, int] = {}
        for page_va in range(region.base, region.end, PAGE_SIZE):
            entry = pages.get(page_va)
            if entry is not None:
                frame = frames.get(entry.frame_id)
                if frame is None:
                    raise SimInternalError(
                        f"page {page_va:#x} maps frame {entry.frame_id}, which does not exist"
                    )
                refs = len(frame.pages)
                counts[refs] = counts.get(refs, 0) + 1
        return counts

    def entry_at(self, addr: int) -> PageTableEntry | None:
        return self._pages.get(page_of(addr))

    def entries(self) -> dict[int, PageTableEntry]:
        return dict(self._pages)

    @property
    def by_page(self) -> dict[int, PageTableEntry]:
        """The live entries by page address, not a copy.

        The fork engine's promotion pass reads and updates entries
        through it, and the auditor reads them; only :meth:`map`,
        :meth:`unmap` and the region passes add or remove entries.
        """
        return self._pages

    def verify_refcounts(self, owners: set[int]) -> None:
        """Full debug pass: each frame's page set is exactly the PTEs mapping it.

        Once every entry's page is in its frame's set, equal totals mean
        the sets list nothing else.  It also checks what resident-set
        conservation rests on, given ``owners``, a set of pids: each mapped
        page lies in the region of a pid in ``owners``, so one
        :meth:`owned_refcounts` sweep counts it, and every frame has a page.
        It walks every entry and every frame; it is the oracle of the
        per-step :meth:`verify_changes`, and shares only the owner check.
        """
        frames = self._frames.by_id
        for page_va, entry in self._pages.items():
            frame = frames.get(entry.frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {entry.frame_id}, which does not list it"
                )
            self._verify_owner(page_va, owners)
        listed = 0
        for frame_id, frame in frames.items():
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            listed += len(frame.pages)
        if listed != len(self._pages):
            raise SimInternalError(
                f"frames list {listed} pages, the page table maps {len(self._pages)}"
            )

    def verify_changes(self, log: ChangeLog, owners: set[int]) -> None:
        """Per-step debug check: the facts of :meth:`verify_refcounts`, read
        only where ``log`` says they may have changed; then clears the log.

        A logged frame that still exists has a page, and every page in its
        set maps it, so the set lists nothing else.  Each of those entries,
        and each entry in a logged region, maps a frame that lists it and
        lies in the reservation of a pid in ``owners``.  If the facts held
        when the log was last cleared and every change since was logged,
        this check passes exactly when the full pass does.
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
                if entry is None or entry.frame_id != frame_id:
                    raise SimInternalError(
                        f"frame {frame_id} lists page {page_va:#x}, which does not map it"
                    )
                self._verify_owner(page_va, owners)
        for region in log.regions:
            for page_va in range(region.base, region.end, PAGE_SIZE):
                entry = pages.get(page_va)
                if entry is None:
                    continue
                frame = frames.get(entry.frame_id)
                if frame is None or page_va not in frame.pages:
                    raise SimInternalError(
                        f"page {page_va:#x} maps frame {entry.frame_id}, which does not list it"
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
        if entry is None or entry.state is _SHARED_COA:
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
