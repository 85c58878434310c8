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
set the frame owns, which mapping and unmapping keep in step.  Entries
are slotted records changed in place: the fork pass write-protects the
parent's, and the fork engine's promotion pass, which reads them through
:attr:`AddressSpace.by_page`, makes a sole survivor private again.

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
with the checks and log entries that a :meth:`~AddressSpace.map` per page
would make; :meth:`~AddressSpace.share_region` maps a parent's pages into
a child at fork; and :meth:`~AddressSpace.unmap_owned` tears down a
region at reap.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, NoReturn

from .capability import GRANULE, PAGE_SIZE, VIRTUAL_SPACE_LIMIT, Capability, Perm, Region
from .errors import (
    AddressSpaceExhausted,
    DoubleMap,
    SimInternalError,
    SimulatorError,
    UnmappedPage,
)
from .tagged_memory import DebugLog, FrameTable, TaggedFrame


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
    owner_pid: int

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


def _verify_owner(page_va: int, entry: PageTableEntry, owners: Mapping[int, Region]) -> None:
    """The entry's owner is in ``owners`` and its region contains the page."""
    region = owners.get(entry.owner_pid)
    if region is None or not region.base <= page_va < region.base + region.size:
        raise SimInternalError(
            f"prs conservation broken: page {page_va:#x} of pid"
            f" {entry.owner_pid} lies outside that pid's region"
        )


class AddressSpace:
    """Region reservation, page mappings, and checked accesses."""

    def __init__(
        self,
        frames: FrameTable,
        *,
        space_limit: int = VIRTUAL_SPACE_LIMIT,
    ):
        self._frames = frames
        self._space_limit = space_limit
        self._next_base = PAGE_SIZE  # address 0 is never reserved
        self._pages: dict[int, PageTableEntry] = {}

    # -- regions ---------------------------------------------------------

    def reserve_region(self, size: int) -> Region:
        """Bump-allocate a fresh region; reservations are never reused."""
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"region size must be positive and page-aligned: {size}")
        if self._next_base + size > self._space_limit:
            raise AddressSpaceExhausted(
                f"cannot reserve {size:#x} bytes, {self._space_limit - self._next_base:#x} left"
            )
        region = Region(self._next_base, size)
        self._next_base += size
        return region

    # -- mappings ---------------------------------------------------------

    def map(self, page_va: int, entry: PageTableEntry) -> None:
        if page_va % PAGE_SIZE:
            raise ValueError(f"page address {page_va:#x} not aligned")
        if page_va in self._pages:
            raise DoubleMap(f"page {page_va:#x} is already mapped")
        frames = self._frames
        frames.attach(entry.frame_id, page_va)
        self._pages[page_va] = entry
        if frames.changes is not None:
            frames.changes.add(entry.frame_id)

    def map_fresh_region(self, region: Region, owner_pid: int, read_only: Region) -> None:
        """Back every page of ``region`` with a new frame, in one pass.

        Each page is mapped as :meth:`map` would map it, to a frame
        allocated in page order with ``region`` as its origin: private,
        writable except in ``read_only``, and owned by ``owner_pid``.
        :meth:`FrameTable.allocate` logs each frame for the debug check,
        and the audit's change log gets it here.  Raises
        :class:`DoubleMap` before anything changes if a page of the region
        is already mapped.
        """
        pages, frames = self._pages, self._frames
        base, end = region.base, region.end
        for page_va in range(base, end, PAGE_SIZE):
            if page_va in pages:
                raise DoubleMap(f"page {page_va:#x} is already mapped")
        ro_base, ro_end = read_only.base, read_only.end
        changes = frames.changes
        for page_va in range(base, end, PAGE_SIZE):
            frame = frames.allocate(region)
            frame.pages.add(page_va)
            pages[page_va] = PageTableEntry(
                frame.frame_id, _PRIVATE, not ro_base <= page_va < ro_end, owner_pid
            )
            if changes is not None:
                changes.add(frame.frame_id)

    def unmap(self, page_va: int) -> int:
        """Remove a mapping; returns the frame's remaining refcount."""
        entry = self._pages.pop(page_va, None)
        if entry is None:
            raise UnmappedPage(f"page {page_va:#x} is not mapped")
        return len(self._frames.detach(entry.frame_id, page_va).pages)

    def share_region(
        self, parent: Region, child: Region, skip: set[int], state: PageState, owner_pid: int
    ) -> int:
        """Map, as :meth:`map` would, each parent page not in ``skip`` read-only
        at the same child offset, and make a private parent entry shared
        copy-on-write.  Returns the page-table entries written.
        """
        pages, frames = self._pages, self._frames.by_id
        delta = child.base - parent.base
        written = 0
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
            pages[child_va] = PageTableEntry(frame_id, state, False, owner_pid)
            frame.pages.add(child_va)
            written += 1
            if entry.state is _PRIVATE:
                entry.state = _SHARED_COW
                entry.writable = False
                written += 1
        if self._frames.debug_log is not None:
            self._frames.debug_log.regions.append(child)
        return written

    def unmap_owned(self, region: Region, pid: int) -> list[TaggedFrame]:
        """Unmap every page of ``region`` that ``pid`` owns, in one pass.

        Returns, in page order, the frames left with one mapping.
        """
        pages, frames = self._pages, self._frames.by_id
        log = self._frames.debug_log
        logged = None if log is None else log.frames
        survivors = []
        for page_va in range(region.base, region.end, PAGE_SIZE):
            entry = pages.get(page_va)
            if entry is None or entry.owner_pid != pid:
                continue
            frame_id = entry.frame_id
            if logged is not None:
                logged.add(frame_id)
            try:
                frame = frames[frame_id]
                frame.pages.remove(page_va)
            except KeyError:
                raise SimInternalError(
                    f"page {page_va:#x} is not attached to frame {frame_id}"
                ) from None
            del pages[page_va]
            mappers = len(frame.pages)
            if not mappers:
                del frames[frame_id]
            elif mappers == 1:
                survivors.append(frame)
        return survivors

    def owned_refcounts(self, region: Region, pid: int) -> dict[int, int]:
        """Pages of ``region`` owned by ``pid``, counted per frame refcount.

        The one sweep behind :meth:`Metrics.prs_bytes`.
        """
        pages, frames = self._pages, self._frames.by_id
        counts: dict[int, int] = {}
        for page_va in range(region.base, region.end, PAGE_SIZE):
            entry = pages.get(page_va)
            if entry is not None and entry.owner_pid == pid:
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

    def verify_refcounts(self, owners: Mapping[int, Region] | None = None) -> None:
        """Full debug pass: each frame's page set is exactly the PTEs mapping it.

        Once every entry's page is in its frame's set, equal totals mean
        the sets list nothing else.  With ``owners`` (``pid -> region``) it
        also checks what resident-set conservation rests on: each entry
        lies in its owner's region, so one :meth:`owned_refcounts` sweep
        counts it, and every frame has a page.  It walks every entry and
        every frame; :meth:`verify_changes` is the per-step check, and
        this pass is its oracle, so the two share no code.
        """
        frames = self._frames.by_id
        for page_va, entry in self._pages.items():
            frame = frames.get(entry.frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {entry.frame_id}, which does not list it"
                )
            if owners is not None:
                region = owners.get(entry.owner_pid)
                if region is None or not region.base <= page_va < region.base + region.size:
                    raise SimInternalError(
                        f"prs conservation broken: page {page_va:#x} of pid"
                        f" {entry.owner_pid} lies outside that pid's region"
                    )
        listed = 0
        for frame_id, frame in frames.items():
            if not frame.pages:
                raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
            listed += len(frame.pages)
        if listed != len(self._pages):
            raise SimInternalError(
                f"frames list {listed} pages, the page table maps {len(self._pages)}"
            )

    def verify_changes(self, log: DebugLog, owners: Mapping[int, Region]) -> None:
        """Per-step debug check: the facts of :meth:`verify_refcounts`, read
        only where ``log`` says they may have changed; then empties the log.

        A logged frame that still exists has a page, and every page in its
        set maps it, so the set lists nothing else.  Each of those entries,
        and each entry in a logged region, maps a frame that lists it and
        lies in its owner's region.  If the facts held when the log was
        last emptied and every change since was logged, this check passes
        exactly when the full pass does.
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
                _verify_owner(page_va, entry, owners)
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
                _verify_owner(page_va, entry, owners)
        log.frames.clear()
        log.regions.clear()

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
        return int.from_bytes(frame.data[offset : offset + width], "little")
