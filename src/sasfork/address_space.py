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
set the frame owns, which mapping and unmapping keep in step.

:meth:`AddressSpace.check_and_access` runs the fixed pipeline
``tag -> seal -> bounds -> capability perms -> page state`` so fault
kinds are deterministic.  Page-level faults (write, access, capability
load) are resolvable by the fork engine; capability-level faults and
privilege faults terminate the access.  Where capability loads are
blocked, an integer read or fetch that overlaps a tagged granule takes
the capability-load fault too: the bytes of a capability the child has
not relocated yet would show the parent's address.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .capability import GRANULE, PAGE_SIZE, VIRTUAL_SPACE_LIMIT, Capability, Perm, Region
from .errors import (
    AddressSpaceExhausted,
    DoubleMap,
    SimInternalError,
    SimulatorError,
    UnmappedPage,
)
from .tagged_memory import FrameTable, TaggedFrame


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


@dataclass
class PageTableEntry:
    """Per-virtual-page mapping; mutable because states transition."""

    frame_id: int
    state: PageState
    writable: bool
    owner_pid: int

    @property
    def shared(self) -> bool:
        return self.state is not PageState.PRIVATE


class AccessKind(enum.Enum):
    READ_INT = "ReadInt"
    WRITE = "Write"
    CAP_LOAD = "CapLoad"
    CAP_STORE = "CapStore"
    EXEC = "Exec"


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


#: Permission bits each access needs, as int masks of :class:`Perm`.
_REQUIRED_PERMS = {
    AccessKind.READ_INT: Perm.LOAD.value,
    AccessKind.WRITE: Perm.STORE.value,
    AccessKind.CAP_LOAD: (Perm.LOAD | Perm.LOAD_CAP).value,
    AccessKind.CAP_STORE: (Perm.STORE | Perm.STORE_CAP).value,
    AccessKind.EXEC: Perm.EXEC.value,
}

_EXEC_FETCH_WIDTH = 4




def page_of(addr: int) -> int:
    return addr - (addr % PAGE_SIZE)


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
        self._frames.attach(entry.frame_id, page_va)
        self._pages[page_va] = entry

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
        pages, attach = self._pages, self._frames.attach
        written = 0
        for offset in range(0, parent.size, PAGE_SIZE):
            parent_va = parent.base + offset
            if parent_va in skip:
                continue
            entry = pages.get(parent_va)
            if entry is None:
                raise SimInternalError(f"parent page {parent_va:#x} unmapped at fork")
            child_va = child.base + offset
            if child_va in pages:
                raise DoubleMap(f"page {child_va:#x} is already mapped")
            frame_id = entry.frame_id
            pages[child_va] = PageTableEntry(frame_id, state, False, owner_pid)
            attach(frame_id, child_va)
            written += 1
            if entry.state is PageState.PRIVATE:
                entry.state = PageState.SHARED_COW
                entry.writable = False
                written += 1
        return written

    def unmap_owned(self, region: Region, pid: int) -> list[TaggedFrame]:
        """Unmap every page of ``region`` that ``pid`` owns, in one pass.

        Returns, in page order, the frames left with one mapping.
        """
        pages, detach = self._pages, self._frames.detach
        survivors = []
        for page_va in region.page_addresses():
            entry = pages.get(page_va)
            if entry is None or entry.owner_pid != pid:
                continue
            del pages[page_va]
            frame = detach(entry.frame_id, page_va)
            if len(frame.pages) == 1:
                survivors.append(frame)
        return survivors

    def owned_refcounts(self, region: Region, pid: int) -> dict[int, int]:
        """Pages of ``region`` owned by ``pid``, counted per frame refcount."""
        pages, refcount = self._pages, self._frames.refcount
        counts: dict[int, int] = {}
        for page_va in region.page_addresses():
            entry = pages.get(page_va)
            if entry is not None and entry.owner_pid == pid:
                refs = refcount(entry.frame_id)
                counts[refs] = counts.get(refs, 0) + 1
        return counts

    def entry_at(self, addr: int) -> PageTableEntry | None:
        return self._pages.get(page_of(addr))

    def entries(self) -> dict[int, PageTableEntry]:
        return dict(self._pages)

    def verify_refcounts(self) -> None:
        """Debug sweep: each frame's page set is exactly the PTEs mapping it.

        Once every entry's page is in its frame's set, equal totals mean
        the sets list nothing else.
        """
        frames = self._frames.live_frames
        for page_va, entry in self._pages.items():
            frame = frames.get(entry.frame_id)
            if frame is None or page_va not in frame.pages:
                raise SimInternalError(
                    f"page {page_va:#x} maps frame {entry.frame_id}, which does not list it"
                )
        listed = sum(len(frame.pages) for frame in frames.values())
        if listed != len(self._pages):
            raise SimInternalError(
                f"frames list {listed} pages, the page table maps {len(self._pages)}"
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

        Pipeline order is fixed: tag, seal, bounds (including granule
        alignment for capability accesses), capability permissions, then
        page state for every page the access touches.  Raises
        :class:`FaultError`; resolvable faults may be retried by the
        caller after resolution.

        Returns: the integer read (``READ_INT``/``EXEC``), the loaded
        :class:`Capability` (``CAP_LOAD``), or the byte count written.
        """
        if kind is AccessKind.WRITE:
            if not isinstance(payload, (bytes, bytearray)):
                raise ValueError("WRITE requires a bytes payload")
            width = len(payload)
        elif kind is AccessKind.CAP_STORE:
            if not isinstance(payload, Capability):
                raise ValueError("CAP_STORE requires a Capability payload")
            width = GRANULE
        elif kind is AccessKind.CAP_LOAD:
            width = GRANULE
        elif kind is AccessKind.EXEC:
            width = _EXEC_FETCH_WIDTH

        def fail(fault_kind: FaultKind, addr: int):
            raise FaultError(Fault(fault_kind, pid, page_of(addr), kind))

        if not cap.tag:
            fail(FaultKind.CAP_TAG, cap.cursor)
        if cap.sealed:
            fail(FaultKind.CAP_SEALED, cap.cursor)
        if kind in (AccessKind.CAP_LOAD, AccessKind.CAP_STORE) and cap.cursor % GRANULE:
            fail(FaultKind.CAP_BOUNDS, cap.cursor)
        if not cap.in_bounds(cap.cursor, width):
            fail(FaultKind.CAP_BOUNDS, cap.cursor)
        required = _REQUIRED_PERMS[kind]
        if cap.perms.value & required != required:
            fail(FaultKind.CAP_PERM, cap.cursor)

        start = cap.cursor
        page_vas = list(range(page_of(start), page_of(start + width - 1) + 1, PAGE_SIZE))
        for page_va in page_vas:
            entry = self._pages.get(page_va)
            if entry is None:
                fail(FaultKind.PAGE_ACCESS, page_va)
            if entry.state is PageState.SHARED_COA:
                fail(FaultKind.PAGE_ACCESS, page_va)
            if kind in (AccessKind.WRITE, AccessKind.CAP_STORE) and not entry.writable:
                fail(FaultKind.PAGE_WRITE, page_va)
            if entry.state.cap_load:
                continue
            if kind is AccessKind.CAP_LOAD:
                fail(FaultKind.CAP_LOAD, page_va)
            if kind in (AccessKind.READ_INT, AccessKind.EXEC):
                lo = max(start, page_va) - page_va
                hi = min(start + width - page_va, PAGE_SIZE)
                if self._frames.get(entry.frame_id).tagged_in(lo, hi):
                    # The bytes of a capability the child has not
                    # relocated yet: copy and relocate first.
                    fail(FaultKind.CAP_LOAD, page_va)

        if kind is AccessKind.CAP_LOAD:
            entry = self._pages[page_vas[0]]
            frame = self._frames.get(entry.frame_id)
            return self._frames.load_capability(frame, (start % PAGE_SIZE) // GRANULE)
        if kind is AccessKind.CAP_STORE:
            entry = self._pages[page_vas[0]]
            frame = self._frames.get(entry.frame_id)
            self._frames.store_capability(
                frame, (start % PAGE_SIZE) // GRANULE, payload
            )
            return GRANULE
        if kind is AccessKind.WRITE:
            data = bytes(payload)
            offset = 0
            for page_va in page_vas:
                entry = self._pages[page_va]
                frame = self._frames.get(entry.frame_id)
                page_off = max(start, page_va) - page_va
                chunk = min(len(data) - offset, PAGE_SIZE - page_off)
                frame.store_bytes(page_off, data[offset : offset + chunk])
                offset += chunk
            return len(data)
        # READ_INT and EXEC: gather bytes across the touched pages.
        out = bytearray()
        remaining = width
        addr = start
        for page_va in page_vas:
            entry = self._pages[page_va]
            frame = self._frames.get(entry.frame_id)
            page_off = addr - page_va
            chunk = min(remaining, PAGE_SIZE - page_off)
            out += frame.data[page_off : page_off + chunk]
            addr += chunk
            remaining -= chunk
        return int.from_bytes(out, "little")
