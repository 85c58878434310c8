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
writable exactly when it is ``Private`` and lies past its row's
leading read-only (code) pages, which the pass that builds the row fixes
once.  A frame's refcount is its ``mapcount``.  This module is the
one writer of the counts behind it: mapping and unmapping keep them in
step with the page table, and log each change into the frame table's
change logs (see :mod:`sasfork.tagged_memory`).

Every row belongs to one *fork family*: a fork's row joins its parent's,
and any other row (boot, process creation) starts its own.  Every page
that maps a frame lies at one page index, in rows of one family: fork
puts a child page at its parent's offset, and a copy keeps its page.  So
a frame records no list of its pages.  Its first mapping fixes its
``index`` and ``family``, :meth:`AddressSpace.map` refuses a later one
at another index or in another family, and the frame's mappers are the
rows of its family whose element at ``index`` is the frame
(:meth:`AddressSpace.mappers`).

A family counts the pages that all its rows map once.  At most page
indices every row of a family maps one frame: a fork copies its parent's
column, and only a copy, a teardown or a test's :meth:`~AddressSpace.map`
or :meth:`~AddressSpace.unmap` makes the rows differ.  The family keeps
a set of indices, its *divergent* ones, that holds every other index
(:class:`_Family`).  A frame at a uniform index keeps no count: its
``mapcount`` reads as the family's row count, so a row that joins or
leaves the family counts in or out of every such frame at once.  Only a
frame at a divergent index counts its own mappings, in
``TaggedFrame.own``.  A pass that changes a count makes the index
divergent first, when the frame there takes the row count as its own.  A
teardown that frees its row's frame at a divergent index makes the index
uniform again if the frame that a row left maps there counts every row
left, one count it reads.  So the share pass, the resident-set sweep and
the teardown visit only the divergent pages and the copies, except where
a family of one row forks, or drops to one row or none: then every frame
of the row changes.  A page is private only where its frame has one
mapping, so in a family of two rows or more every page at a uniform
index is shared already, and the share pass need not read it.

The page table is one *row* per backed reservation with two columns, a
list each with one element per page: ``frames``, the frame id that backs
the page or ``None`` where nothing maps it, and ``states``, the page's
:class:`PageState` (``None`` where unmapped).  A reservation only claims
addresses; a row is built whole, every page mapped, by the pass that
backs its region.  Rows are private to this module: other modules read
plain values (frame ids, states, owner pids) or the
:class:`PageTableEntry` view, and never a row.  A fork's share pass
builds the child's row: the fork's eager copies, which no page maps yet,
go private at their pages, so the row itself says which pages were
copied; every other page takes the parent's frame id beside the
strategy's shared state, makes the parent's private state there
copy-on-write and counts in its frame's ``mapcount``, so the count stays
the refcount.  A lazy copy
writes the copy's frame id and ``Private`` (:meth:`AddressSpace.remap`),
and the promotion pass (:meth:`AddressSpace.promote`) makes a sole
survivor ``Private`` again in place and returns each one whose frame is
laid out for another region than its row's, for the fork engine to
relocate before anything runs; it finds the survivor in the last row it
found, or else in the frame's family.  The fault path finds its page
once, with :meth:`~AddressSpace.find_page`: like the access pipeline, it
tries the faulting pid's own reservation before a bisect, and it returns
the page's frame id and state, whether it is read-only, and its owner.  A
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

Each pid has at most one live row, and the whole-row passes name a row
by its pid: at boot and at process creation
:meth:`~AddressSpace.map_fresh_region` builds the row of a fresh region,
each page backed by a new frame; at fork :meth:`~AddressSpace.share_region`
builds the child's row from the row of the parent's pid; at reap
:meth:`~AddressSpace.unmap_owned` counts a pid's row out of its frames
and then removes it, so the region's addresses lie in no row; and
:meth:`~AddressSpace.owned_refcounts` counts a pid's row for the resident
set.  The first two back only the last reservation, which no row backs
yet, for a pid with no row, and refuse anything else before they
allocate a frame or change a row; the share pass and the teardown check
what they read before they change anything, so a raise changes nothing;
and a pass given a pid with no row raises.
Only a lookup by address bisects the rows: :meth:`~AddressSpace.owner_of`,
:meth:`~AddressSpace.entry_at`, and an access or fault outside the
accessing pid's own row.  Both debug checks check the index they rely
on: every row is its pid's row, and no pid names another.  They also
check what relocation rests on: a frame that one page maps is laid out
for that page's row's region, and every relative capability entry of a
checked frame lies in ``[0, origin.size]``.  And they check what the
derived counts rest on: every row maps a page at each uniform index.

Region reservation is bump-only with no reuse: released space is never
handed out again, which keeps relocation reasoning trivial and mirrors
the fragmentation trade-off of contiguous per-process regions; only a
fork that fails moves the bump base back over the reservation it made,
which no row backs.  A row lives from the pass that backs its region to
the teardown of its pid, so the rows are those of the kernel and the
live pids.  A page's owner is the pid of the row it lies in
(:meth:`~AddressSpace.owner_of`), and the owner fact the debug checks
rest on is a fact about rows: each belongs to a pid that may own pages.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, NoReturn

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


class _Family(list):
    """The live rows of one fork family, in the order they joined it, and
    its divergent page indices.

    At an index missing from ``divergent`` every row maps one frame, whose
    ``mapcount`` reads as the row count.  At an index in ``divergent``
    each frame the rows map counts its own mappings, whether or not the
    rows differ there.  A teardown that frees a frame there makes the
    index uniform again once one frame counts every row left.
    """

    __slots__ = ("divergent",)

    def __init__(self) -> None:
        super().__init__()
        self.divergent: set[int] = set()


@dataclass(slots=True, eq=False)
class _Row:
    """One reservation's page table, from ``base`` to ``end``, owned by
    ``pid``, read-only below ``ro_end``: a frame id and a state per page
    in ``frames`` and ``states``.  It is built whole, every page mapped,
    by the pass that backs the region; an element is ``None`` only where
    a page was unmapped since.  ``family`` lists the live rows of its
    fork family, this one among them, and keeps the family's divergent
    indices; every row of a family has as many pages."""

    base: int
    end: int
    pid: int | None
    ro_end: int
    frames: list[int | None]
    states: list[PageState | None]
    family: _Family


#: The row, owned by no pid and with no pages, of the addresses outside
#: every reservation, in a family of its own that no frame names.
_UNRESERVED = _Row(0, 0, None, 0, [], [], _Family())


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

    # Enum hashes a member's name in Python; a member is a singleton and
    # Enum defines no __eq__, so identity hashing agrees with equality and
    # keeps the metrics' per-kind counts off a Python-level call.
    __hash__ = object.__hash__


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


def _verify_origin(row: _Row, index: int, frame: TaggedFrame) -> None:
    """``frame``, which ``row`` alone maps, at ``index``, is laid out for the
    row's region: a copy and a promoted survivor were relocated there, and
    a fresh frame was made for it.  A frame with no origin holds no
    relative capability, and is not checked."""
    origin = frame.origin
    if origin is not None and (origin.base != row.base or origin.size != row.end - row.base):
        raise SimInternalError(
            f"page {row.base + index * PAGE_SIZE:#x} alone maps frame {frame.frame_id},"
            f" laid out for {origin}, not for its row's region"
        )


def _fault(kind: FaultKind, pid: int, addr: int, access: AccessKind) -> NoReturn:
    """Raise the fault of an access at ``addr``; the access pipeline's one exit."""
    raise FaultError(_tuple_new(Fault, (kind, pid, addr - addr % PAGE_SIZE, access)))


class AddressSpace:
    """Region reservation, page mappings, and checked accesses."""

    def __init__(self, frames: FrameTable):
        self._frames = frames
        self._next_base = PAGE_SIZE  # address 0 is never reserved
        self._bases: list[int] = []  # each row's base, in address order,
        self._rows: list[_Row] = []  # and the row
        self._pid_rows: dict[int, _Row] = {}  # each pid's one live row

    # -- regions ---------------------------------------------------------

    def reserve_region(self, size: int) -> Region:
        """Bump-allocate a fresh region; reservations are never reused.

        It only claims the addresses: the pass that backs the region
        (:meth:`map_fresh_region` or :meth:`share_region`) builds its row.
        """
        if size <= 0 or size % PAGE_SIZE:
            raise ValueError(f"region size must be positive and page-aligned: {size}")
        base = self._next_base
        if base + size > VIRTUAL_SPACE_LIMIT:
            raise AddressSpaceExhausted(
                f"cannot reserve {size:#x} bytes, {VIRTUAL_SPACE_LIMIT - base:#x} left"
            )
        self._next_base = base + size
        return Region(base, size)

    def _check_unbacked(self, region: Region, pid: int | None = None) -> None:
        """Raise unless ``region`` is the last reservation and no row backs
        it, and ``pid``, if given, has no live row."""
        if self._next_base != region.end:
            raise SimInternalError(f"{region} is not the last reservation")
        if self._rows and self._rows[-1].end > region.base:
            raise SimInternalError(f"{region} still has a row")
        if pid in self._pid_rows:
            raise SimInternalError(f"pid {pid} already has a row")

    def _row_of(self, pid: int) -> _Row:
        """The one live row of ``pid``; ``SimInternalError`` if it has none."""
        row = self._pid_rows.get(pid)
        if row is None:
            raise SimInternalError(f"pid {pid} has no row")
        return row

    def _add_row(self, row: _Row) -> None:
        """Make ``row``, built whole, the row of its reservation and of its pid."""
        row.family.append(row)
        self._bases.append(row.base)
        self._rows.append(row)
        self._pid_rows[row.pid] = row

    def _row_at(self, addr: int) -> _Row:
        """The row holding ``addr``, or ``_UNRESERVED``."""
        index = bisect_right(self._bases, addr) - 1
        row = self._rows[index] if index >= 0 else _UNRESERVED
        return row if addr < row.end else _UNRESERVED

    def owner_of(self, addr: int) -> int | None:
        """The pid whose row holds ``addr``, or None if none does."""
        return self._row_at(addr).pid

    def unreserve(self, region: Region) -> None:
        """Move the bump base back to ``region.base``: for a fork that fails
        before its share pass has built a row for ``region``, the last
        reservation."""
        self._check_unbacked(region)
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

    # -- mappings ---------------------------------------------------------

    def map(self, page_va: int, frame_id: int, state: PageState = _PRIVATE) -> None:
        """Map ``page_va`` to frame ``frame_id`` in ``state`` and count it
        in the frame's ``mapcount``.  The frame's first mapping fixes its
        index and family; a later one at another index or in another
        family raises ``SimInternalError`` before anything changes.  The
        page's index becomes divergent."""
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
        self._place(frame, row, index, page_va)
        # An unmapped page's index is divergent already.
        row.family.divergent.add(index)
        frame.own += 1
        frames[index], states[index] = frame_id, state
        for log in self._frames.logs:
            log.frames.add(frame_id)

    @staticmethod
    def _place(frame: TaggedFrame, row: _Row, index: int, page_va: int) -> None:
        """Fix ``frame``'s index and family at its first mapping, by page
        ``index`` of ``row`` at ``page_va``, and raise before anything
        changes for a mapping at another index or in another family."""
        if frame.family is None:
            frame.index, frame.family = index, row.family
        elif frame.index != index or frame.family is not row.family:
            raise SimInternalError(
                f"page {page_va:#x} cannot map frame {frame.frame_id}, whose pages lie"
                " at another index or in another fork family"
            )

    @staticmethod
    def _diverge(family: _Family, index: int, frame: TaggedFrame) -> None:
        """Make ``index`` divergent in ``family`` if it is uniform: then
        ``frame``, which every row maps there, takes the row count as its
        own count.  A count at the index may change only after this."""
        if index not in family.divergent:
            family.divergent.add(index)
            frame.own = len(family)

    def map_fresh_region(self, region: Region, pid: int, ro_pages: int) -> None:
        """Build the row of ``region``, owned by ``pid`` and read-only in its
        first ``ro_pages`` pages, backing every page with a new frame in one
        pass.

        ``region`` is the last reservation, no row backs it yet and ``pid``
        has none; the row starts a fork family of its own, every index
        uniform.  Each page is mapped private, as :meth:`map` would map it,
        to a frame allocated in page order with ``region`` as its origin.
        :meth:`FrameTable.allocate` logs each frame.
        """
        self._check_unbacked(region, pid)
        base, count, family = region.base, region.page_count, _Family()
        # Sized once: a column grown by appends keeps up to an eighth more slots.
        fresh, allocate = [None] * count, self._frames.allocate
        for index in range(count):
            frame = allocate(region)
            frame.index, frame.family = index, family
            fresh[index] = frame.frame_id
        ro_end = base + ro_pages * PAGE_SIZE
        self._add_row(_Row(base, region.end, pid, ro_end, fresh, [_PRIVATE] * count, family))

    def _mapped(self, page_va: int, row: _Row | None = None) -> tuple[_Row, int, TaggedFrame]:
        """The row of mapped page ``page_va``, its index and its frame;
        ``row``, if given, is tried before a bisect.  Raises if the page is
        not mapped, or its frame does not count it: a frame with no
        mapping, or one whose pages lie at another index or in another
        family."""
        row, index, frame_id = self._lookup(page_va, row)
        if frame_id is None:
            raise UnmappedPage(f"page {page_va:#x} is not mapped")
        frame = self._frames.by_id.get(frame_id)
        if (
            frame is None
            or frame.family is not row.family
            or frame.index != index
            or index in row.family.divergent
            and frame.own < 1
        ):
            raise SimInternalError(f"page {page_va:#x} is not attached to frame {frame_id}")
        return row, index, frame

    def _release(self, frame: TaggedFrame) -> None:
        """Count one mapping of ``frame``, at a divergent index, fewer; at
        zero free it; log it."""
        frame.own -= 1
        if not frame.own:
            del self._frames.by_id[frame.frame_id]
            frame.family = None
        for log in self._frames.logs:
            log.frames.add(frame.frame_id)

    def unmap(self, page_va: int) -> int:
        """Remove a mapping and count it out of its frame's ``mapcount``,
        freeing a frame left with none; returns the frame's remaining
        refcount.  The page's index becomes divergent first, and stays so
        while a row maps nothing there.  Raises before anything changes if
        the page is not mapped, or its frame does not count it.
        """
        row, index, frame = self._mapped(page_va)
        self._diverge(row.family, index, frame)
        self._release(frame)
        row.frames[index] = row.states[index] = None
        return frame.own

    def remap(self, page_va: int, frame_id: int, pid: int | None = None) -> None:
        """Map ``page_va`` privately to frame ``frame_id`` in place of its
        mapping, as an :meth:`unmap` and a :meth:`map` would, logging the
        old frame and the new one: the lazy copy's one write.  ``pid``, if
        given, names the row tried before a bisect, as :meth:`find_page`
        does.  The page's index becomes divergent.  Raises before anything
        changes if the page is not mapped, its frame does not count it, or
        :meth:`map` would refuse ``frame_id`` there.
        """
        fresh = self._frames.get(frame_id)
        row, index, frame = self._mapped(page_va, self._pid_rows.get(pid))
        self._place(fresh, row, index, page_va)
        self._diverge(row.family, index, frame)
        fresh.own += 1
        self._release(frame)
        row.frames[index], row.states[index] = frame_id, _PRIVATE
        for log in self._frames.logs:
            log.frames.add(frame_id)

    def share_region(
        self,
        parent_pid: int,
        child: Region,
        pid: int,
        state: PageState | None,
        copies: dict[int, int],
    ) -> int:
        """Build the row of ``child``, owned by ``pid``, as a fork of the row
        of ``parent_pid``, in one pass.  Returns the page-table entries this
        stands for: the child pages shared and the parent pages made
        copy-on-write.

        ``child``, as large as the parent's row, is the last reservation,
        no row backs it yet and ``pid`` has none.  ``copies`` maps the
        address of each child page the fork copied eagerly to its copy, a
        frame that no page maps yet: the page maps it private, the parent
        page at its offset keeps its state, and its index becomes
        divergent.  Every other child page shares the parent's frame at its
        offset in ``state``, counted in the frame's ``mapcount``, and a
        private parent page there becomes copy-on-write; ``state`` may be
        None only when every page is a copy.  The row joins the parent's fork family, and its read-only
        pages are the parent's.

        Only the divergent pages and the copies are visited.  A frame at a
        uniform index counts the child once the row joins the family, and
        its pages are shared already: a page is private only where its
        frame has one mapping, so only a lone row keeps private pages at
        uniform indices, and its first fork visits every state.  A raise
        changes no mapping, count or log.
        """
        self._check_unbacked(child, pid)
        parent_row = self._row_of(parent_pid)
        if child.size != parent_row.end - parent_row.base:
            raise SimInternalError(f"{child} is not a reservation the size of its parent's row")
        frames, family = self._frames.by_id, parent_row.family
        divergent = family.divergent
        saved, count = parent_row.states, len(parent_row.states)
        built, states = parent_row.frames.copy(), [state] * count
        placed = {}
        for page_va, frame_id in copies.items():
            index = (page_va - child.base) // PAGE_SIZE
            frame = frames.get(frame_id)
            if frame is None or frame.mapcount:
                raise SimInternalError(f"page {page_va:#x} cannot take copy {frame_id}")
            placed[index] = frame
        # The child counts in each divergent page's frame, and each page it
        # copied at a uniform index makes the frame there count its own.
        counted = [index for index in divergent if index not in placed]
        diverging = [index for index in placed if index not in divergent]
        for index in sorted(counted + diverging):
            frame_id = built[index]
            if frame_id is None:
                raise SimInternalError(
                    f"parent page {parent_row.base + index * PAGE_SIZE:#x} unmapped at fork"
                )
            if frame_id not in frames:
                raise SimInternalError(f"frame {frame_id} does not exist")
        for index in counted:
            frames[built[index]].own += 1
        for index, frame in placed.items():
            self._diverge(family, index, frames[built[index]])
            frame.index, frame.family, frame.own = index, family, 1
            built[index], states[index] = frame.frame_id, _PRIVATE
        written = count - len(placed)
        if len(family) == 1:
            shared = [_SHARED_COW if old is _PRIVATE else old for old in saved]
            for index in placed:
                shared[index] = saved[index]
            written += shared.count(_SHARED_COW) - saved.count(_SHARED_COW)
            saved[:] = shared
        else:
            for index in counted:
                if saved[index] is _PRIVATE:
                    saved[index] = _SHARED_COW
                    written += 1
        ro_end = child.base + (parent_row.ro_end - parent_row.base)
        self._add_row(_Row(child.base, child.end, pid, ro_end, built, states, family))
        for log in self._frames.logs:
            log.pids.append(pid)
        return written

    def unmap_owned(self, pid: int) -> list[TaggedFrame]:
        """Unmap every page of ``pid``'s row, in page order, all or nothing,
        then drop the row, so its addresses lie in no row.

        Returns, in page order, the frames left with one mapping.  While
        the family keeps two rows or more, only the frames at divergent
        indices change: a uniform frame just counts one row fewer.  A
        divergent index where the teardown frees the row's frame is uniform
        again once the frame a row left maps there counts every row left.  A
        family left with one row or none visits every page: each uniform
        frame is left with one mapping, or freed.  A page whose frame does
        not exist or counts no mapping raises ``SimInternalError`` before
        anything changes, so a raise changes no mapping, count, live frame
        or log.
        """
        row = self._row_of(pid)
        family, owned, frames = row.family, row.frames, self._frames.by_id
        divergent = family.divergent
        left = len(family) - 1
        changing = sorted(divergent)
        # Once the family keeps one row or none, every frame of the row
        # changes: its frames, in page order.
        picked = list(map(frames.get, owned)) if left < 2 else None
        # The column of a row left, which says where one frame counts them
        # all; where no row is left, the row's own, whose freed frames are gone.
        kept = (family[-1] if family[0] is row else family[0]).frames
        if (picked is not None and picked.count(None) != owned.count(None)) or any(
            frame_id is not None and (frame_id not in frames or frames[frame_id].own < 1)
            for frame_id in map(owned.__getitem__, changing)
        ):
            raise self._unattached(row, changing if picked is None else range(len(owned)))
        survivors = []
        for index in changing:
            frame_id = owned[index]
            if frame_id is None:
                continue
            frame = frames[frame_id]
            frame.own = mappers = frame.own - 1
            if mappers == 1:
                survivors.append(frame)
            elif not mappers:
                del frames[frame_id]
                frame.family = None
                other = frames.get(kept[index])
                if other is not None and other.own == left:
                    divergent.discard(index)
            if picked is not None and (mappers != 1 or not left):
                picked[index] = None
        if picked is not None:
            if left:
                # The one row left maps every uniform frame once, too.
                survivors = list(filter(None, picked))
            else:
                for frame in filter(None, picked):
                    del frames[frame.frame_id]
                    frame.family = None
        index = self._rows.index(row)
        del self._bases[index], self._rows[index], self._pid_rows[pid]
        family.remove(row)
        logs = self._frames.logs
        if logs:
            changed = set(owned)
            changed.discard(None)
            for log in logs:
                log.frames |= changed
        return survivors

    def _unattached(self, row: _Row, visited: Iterable[int]) -> SimInternalError:
        """The error of the first page, among ``visited``, that maps a frame
        that does not exist or, at a divergent index, counts no mapping."""
        frames, divergent = self._frames.by_id, row.family.divergent
        for index in visited:
            frame_id = row.frames[index]
            if frame_id is not None:
                frame = frames.get(frame_id)
                if frame is None or index in divergent and frame.own < 1:
                    break
        return SimInternalError(
            f"page {row.base + index * PAGE_SIZE:#x} is not attached to frame {frame_id}"
        )

    def owned_refcounts(self, pid: int) -> dict[int, int]:
        """The mapped pages of ``pid``'s row, counted per frame refcount.

        The one sweep behind :meth:`Metrics.prs_bytes`.  The uniform pages
        count at the family's row count, all at once; only the pages at
        divergent indices are visited.
        """
        row = self._row_of(pid)
        family, owned, frames = row.family, row.frames, self._frames.by_id
        divergent = family.divergent
        uniform = len(owned) - len(divergent)
        counts = {len(family): uniform} if uniform else {}
        try:
            for index in divergent:
                frame_id = owned[index]
                if frame_id is not None:
                    refs = frames[frame_id].own
                    counts[refs] = counts.get(refs, 0) + 1
        except KeyError as err:
            raise SimInternalError(
                f"the row of pid {pid} maps frame {err.args[0]}, which does not exist"
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

    def promote(self, frames: Iterable[TaggedFrame]) -> list[tuple[TaggedFrame, int]]:
        """The promotion pass: make the one mapping of each of ``frames``,
        which each have exactly one, ``Private`` again where it is shared,
        in order, and log the frame.  Returns, in order, each frame it made
        ``Private`` that is not laid out for its row's region, with the pid
        of that row: the caller relocates those before anything runs, so no
        page loads a capability of another region.  The last row found is
        tried first, and then the rows of the frame's family."""
        row = _UNRESERVED
        logs, moved = self._frames.logs, []
        for frame in frames:
            index, frame_id = frame.index, frame.frame_id
            if row.family is not frame.family or row.frames[index] != frame_id:
                for row in frame.family:
                    if row.frames[index] == frame_id:
                        break
                else:
                    raise SimInternalError(f"frame {frame_id} has no mapping to promote")
            states = row.states
            if states[index] is not _PRIVATE:
                states[index] = _PRIVATE
                # _verify_origin's test, inlined: a call per survivor costs.
                origin = frame.origin
                if origin is not None and (
                    origin.base != row.base or origin.size != row.end - row.base
                ):
                    moved.append((frame, row.pid))
                for log in logs:
                    log.frames.add(frame_id)
        return moved

    def mappers(self, frame_ids: Iterable[int]) -> list[tuple[int | None, int]]:
        """The owner pid and address of each page that maps one of the live
        frames among ``frame_ids``: for each frame in turn, the rows of its
        family whose element at its index is the frame, in the family's
        order.  The walk of a family stops once it has found the frame's
        ``mapcount`` pages."""
        frames, found = self._frames.by_id, []
        for frame_id in frame_ids:
            frame = frames.get(frame_id)
            if frame is None:
                continue
            index, left = frame.index, frame.mapcount
            for row in frame.family or ():
                if row.frames[index] == frame_id:
                    found.append((row.pid, row.base + index * PAGE_SIZE))
                    left -= 1
                    if not left:
                        break
        return found

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
        """Full debug pass: every mapped page's frame exists and lies at
        that page's index in the row's family, and each frame's
        ``mapcount`` is at least 1 and equals the number of pages that map
        it.  Given the first fact, those pages are exactly the rows of the
        frame's family that map it at its index.  It checks that every row
        is its pid's one row, which the whole-row passes rely on, and what
        resident-set conservation rests on, given ``owners``, a set of
        pids: every row belongs to a pid in ``owners`` (:meth:`_verify_rows`),
        so one :meth:`owned_refcounts` sweep counts each mapped page, and
        every frame has a page.  What the derived counts rest on: every row
        maps a page at each uniform index, so a frame there that counts the
        row count is mapped by every row.  It reads every row element and
        frame once; it is the oracle of the per-step
        :meth:`verify_changes`.  Two frames swapped between rows of one
        family at one index keep every one of these facts, so neither check
        sees that; a swap across families breaks the first.
        """
        self._verify_rows(owners)
        mapped: Counter[int | None] = Counter()
        for row in self._rows:
            mapped.update(self._verify_pages(row))
        for frame_id, frame in self._frames.by_id.items():
            self._verify_count(frame, mapped[frame_id], frame.mapcount)

    def verify_changes(self, log: ChangeLog, owners: set[int]) -> None:
        """Per-step debug check: the facts of :meth:`verify_refcounts`, read
        only where ``log`` says they may have changed; then clears the log.

        Every row is its pid's row and belongs to a pid in ``owners``, a
        walk of the rows alone.  Each mapped page of the row of a logged
        pid maps a frame that lies at its index in the row's family, and the
        row maps a page at each uniform index; a row torn down since maps
        nothing.  Each logged frame that still exists, and each frame a
        logged row maps, has a mapping, and its ``mapcount`` equals the
        number of its family's rows that map it at its index; the count
        does not read a logged row again.  If the facts held when the log
        was last cleared and every change since was logged, this check
        passes exactly when the full pass does.
        """
        self._verify_rows(owners)
        frames, logged = self._frames.by_id, log.frames
        for pid in log.pids:
            # A row torn down since maps nothing.
            row = self._pid_rows.get(pid, _UNRESERVED)
            for frame_id in self._verify_pages(row):
                if frame_id is not None:
                    self._verify_family_count(frames[frame_id], row)
                    logged.discard(frame_id)
        for frame_id in logged:
            frame = frames.get(frame_id)
            if frame is not None:
                self._verify_family_count(frame, None)
        logged.clear()
        log.pids.clear()

    def _verify_rows(self, owners: set[int]) -> None:
        """Every row is its pid's one row, which the whole-row passes find
        by pid, and no pid names a row outside the table.  Every row
        belongs to a pid in ``owners``: a pid that owns nothing keeps no
        reservation, so no page can lie in one."""
        pid_rows = self._pid_rows
        for row in self._rows:
            if pid_rows.get(row.pid) is not row:
                raise SimInternalError(f"the row at {row.base:#x} is not the row of pid {row.pid}")
            if row.pid not in owners:
                raise SimInternalError(
                    f"prs conservation broken: pid {row.pid}, which owns nothing,"
                    f" keeps the row at {row.base:#x}"
                )
        if len(pid_rows) != len(self._rows):
            raise SimInternalError("a pid names a row outside the page table")

    def _verify_pages(self, row: _Row) -> Iterator[int | None]:
        """Each mapped page of ``row`` maps a frame that exists and lies at
        that page's index in the row's family, and each uniform index is
        mapped; yields the row's frame ids, each once it is checked, so the
        row is read once."""
        frames, family = self._frames.by_id, row.family
        divergent = family.divergent
        for index, frame_id in enumerate(row.frames):
            if frame_id is None:
                if index not in divergent:
                    raise SimInternalError(
                        f"page {row.base + index * PAGE_SIZE:#x} maps nothing,"
                        " although every row of its family maps its index"
                    )
            else:
                frame = frames.get(frame_id)
                if frame is None or frame.index != index or frame.family is not family:
                    raise SimInternalError(
                        f"page {row.base + index * PAGE_SIZE:#x} maps frame {frame_id},"
                        " which does not lie at its index in its family"
                    )
                if frame.mapcount == 1:
                    _verify_origin(row, index, frame)
            yield frame_id

    def _verify_family_count(self, frame: TaggedFrame, seen: _Row | None) -> None:
        """``frame``'s ``mapcount`` is the number of its family's rows that
        map it at its index, and at least 1.  ``seen`` is a row already read
        to map it, or ``None``; it is not read again."""
        index, frame_id, mapped = frame.index, frame.frame_id, int(seen is not None)
        count = frame.mapcount
        for row in frame.family or ():
            if row is not seen and row.frames[index] == frame_id:
                mapped += 1
                if count == 1:
                    _verify_origin(row, index, frame)
        self._verify_count(frame, mapped, count)

    @staticmethod
    def _verify_count(frame: TaggedFrame, mapped: int, count: int) -> None:
        """``frame`` has a mapping, its ``mapcount``, ``count``, equals
        ``mapped``, the number of pages that map it, and each of its
        relative capability entries lies in ``[0, origin.size]``, with its
        cursor below the end."""
        frame_id = frame.frame_id
        if count < 1:
            raise SimInternalError(f"prs conservation broken: frame {frame_id} has no page")
        if count != mapped:
            raise SimInternalError(
                f"frame {frame_id} counts {count} mappings, the page table maps it {mapped} times"
            )
        relative = frame.relative
        if not relative:
            return
        # Laid out for an origin at rel_base.
        lo, size = frame.rel_base, frame.origin.size
        hi = lo + size
        for granule, (base, length, cursor, _, otype, tag) in relative.items():
            if not (
                tag and otype is None and lo <= base <= base + length <= hi and lo <= cursor < hi
            ):
                raise SimInternalError(
                    f"frame {frame_id} granule {granule} keeps a relative capability"
                    f" outside [0, {size:#x}] of its origin"
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
