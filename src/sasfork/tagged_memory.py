"""Physical frame store whose frames own their capabilities.

Each :class:`TaggedFrame` is one page of raw bytes plus ``caps``, which
maps a 16-byte granule index to the exact :class:`Capability` stored
there.  As in CHERI, the tag lives beside the granule it covers; there
is no global table of capability values.  The tag discipline is the
heart of reference tracking:

* a granule's tag is set only by a whole-granule capability store of a
  tagged capability, which also writes the cursor into the granule's
  first 8 bytes (so integer reads of a pointer see its address) and
  zeros into the last 8;
* any byte-level store overlapping a granule clears its tag, so plain
  data can never be mistaken for a reference.  The entry survives,
  untagged, only if the granule's 16 bytes are unchanged; otherwise
  the granule decodes to a degenerate untagged capability;
* integer loads never observe tags.

:meth:`FrameTable.scan_and_relocate` is the relocation primitive used on
freshly copied child pages: it visits the tagged entries only and
rewrites every capability that the parent-to-child rebase rule changes.
A capability whose target lies in neither region is stored back
untagged; the scan reports only how many granules it rewrote, and the
caller records that with the copy.

The scan works from a *relocation plan* of the frame it copies from,
built once per ``(version, parent region)`` and kept in the source
frame's ``plan`` slot, so it is freed with the frame.  The plan splits
the tagged granules in two: those whose capability is unsealed and lies
wholly inside the parent region with its cursor there too, and all the
others; it also holds the highest base and the lowest top of the first
group.  A capability lies inside the child region only if its base is
at or above the child's base and its top at or below the child's end,
so for a child region that starts above that highest base, or ends
below that lowest top, no capability of the first group lies in it, and
the rebase rule is the same shift by ``child.base - parent.base`` for
each of them: each copy applies the shift without reclassifying them.
The others, and every granule when the child region fails that test,
go through :func:`~sasfork.capability.rebase_for_child` one by one.  Every
store to a tagged granule bumps ``version``, so a stale plan is never
applied: the next scan sees the version differ and builds a new one.

A frame also owns the set of pages that map it, the one record of its
mappers: its refcount is that set's size, and it is freed when it empties.

The frame table also keeps the audit's change log, :attr:`FrameTable.changes`:
the ids of frames that may have gained a tagged capability, or a page that
can load one, since the auditor last drained it.  Capability stores and
relocation scans add to it here; the address space and the promotion pass
add the frames they map or widen.  It is ``None`` until the first audit,
so a run that never audits logs nothing.

A second log, :attr:`FrameTable.debug_log`, serves the per-step ``--debug``
check (:meth:`~sasfork.system.System.verify_invariants`): a
:class:`DebugLog` of the frames whose page set may have changed and the
regions whose entries may have.  :meth:`FrameTable.allocate`,
:meth:`~FrameTable.attach` and :meth:`~FrameTable.detach` log their frame
here; ``AddressSpace.share_region`` logs the child region,
``AddressSpace.unmap_owned`` the frames it detaches, and
``System.release_pid`` the released pid's region.  Each consumer drains only
its own log.  It is ``None`` until the first check, so a run without
``--debug`` logs nothing.
"""

from __future__ import annotations

import struct
from typing import Iterator

from .capability import (
    GRANULE,
    GRANULES_PER_PAGE,
    PAGE_SIZE,
    Capability,
    Perm,
    Region,
    rebase_for_child,
)
from .errors import OutOfFrame, SimInternalError

#: A relocation plan: ``(version, parent region, in-region granules,
#: other tagged granules, highest base and lowest top of the in-region
#: capabilities)``.
_Plan = tuple[int, Region, tuple[int, ...], tuple[int, ...], int, int]

#: Writes one little-endian 64-bit word into a frame's bytes: a tagged
#: granule is its capability's cursor word followed by a zero word.
_pack_word = struct.Struct("<Q").pack_into

#: Builds a capability from its six fields positionally, as
#: ``Capability.with_cursor`` does, without the named-tuple constructor.
_tuple_new = tuple.__new__


class TaggedFrame:
    """One physical page: data bytes, capabilities, origin and mappers.

    A granule is tagged when its ``caps`` entry is.  ``origin`` records
    which reserved region the frame's contents are laid out for; the fork
    engine uses it to pick the source region of a relocation scan (a
    frame aliased through several generations of forks still relocates
    correctly).  ``version`` is bumped on every change to ``caps``; as
    frame ids are never reused, ``(frame_id, version)`` identifies the
    frame's capability contents.  ``pages`` holds the virtual page
    addresses that map the frame.  ``plan`` caches the relocation plan
    of the frame's contents (see the module docstring), or is ``None``.
    """

    __slots__ = ("frame_id", "data", "caps", "origin", "version", "pages", "plan")

    def __init__(self, frame_id: int, origin: Region | None = None):
        self.frame_id = frame_id
        self.data = bytearray(PAGE_SIZE)
        self.caps: dict[int, Capability] = {}
        self.origin = origin
        self.version = 0
        self.pages: set[int] = set()
        self.plan: _Plan | None = None

    def store_bytes(self, offset: int, payload: bytes) -> None:
        """Write raw bytes; tags of every overlapped granule are cleared."""
        end = offset + len(payload)
        if offset < 0 or end > PAGE_SIZE:
            raise OutOfFrame(f"store of {len(payload)} bytes at {offset} exceeds page")
        if not payload:
            return
        caps = self.caps
        for granule in range(offset // GRANULE, (end - 1) // GRANULE + 1) if caps else ():
            if granule not in caps:
                continue
            self.version += 1
            lo, hi = max(offset, granule * GRANULE), min(end, (granule + 1) * GRANULE)
            if self.data[lo:hi] == payload[lo - offset : hi - offset]:
                caps[granule] = caps[granule].untagged()
            else:
                del caps[granule]
        self.data[offset:end] = payload

    def load_value(self, offset: int, width: int) -> int:
        """Little-endian unsigned integer load; never returns a tag."""
        if offset < 0 or width < 0 or offset + width > PAGE_SIZE:
            raise OutOfFrame(f"load of {width} bytes at {offset} exceeds page")
        return int.from_bytes(self.data[offset : offset + width], "little")

    def tagged_caps(self) -> list[tuple[int, Capability]]:
        """The tagged ``(granule, capability)`` entries, in granule order."""
        return sorted((g, cap) for g, cap in self.caps.items() if cap.tag)

    def tagged_granules(self) -> Iterator[int]:
        return (granule for granule, _ in self.tagged_caps())

    def tagged_in(self, lo: int, hi: int) -> bool:
        """True if bytes [lo, hi) of the page overlap a tagged granule."""
        caps = self.caps
        return hi > lo and bool(caps) and any(
            g in caps and caps[g].tag for g in range(lo // GRANULE, (hi - 1) // GRANULE + 1)
        )

    @property
    def tags(self) -> list[bool]:
        """Read-only per-granule view of the tag bits."""
        return [g in self.caps and self.caps[g].tag for g in range(GRANULES_PER_PAGE)]


class DebugLog:
    """What the per-step debug check reads again: the ids of frames whose
    page set may have changed, and the regions whose page-table entries
    may have (see the module docstring)."""

    __slots__ = ("frames", "regions")

    def __init__(self) -> None:
        self.frames: set[int] = set()
        self.regions: list[Region] = []


class FrameTable:
    """Allocator for tagged frames and the pages attached to them.

    The address space attaches and detaches each page it maps; a frame
    whose last page detaches is freed.  Frame ids are never reused
    within a run.
    """

    def __init__(self) -> None:
        self._frames: dict[int, TaggedFrame] = {}
        self._next_id = 1
        # The audit's change log and the debug check's (see the module
        # docstring).
        self.changes: set[int] | None = None
        self.debug_log: DebugLog | None = None

    def allocate(self, origin: Region | None = None) -> TaggedFrame:
        frame = TaggedFrame(self._next_id, origin)
        self._next_id += 1
        self._frames[frame.frame_id] = frame
        if self.debug_log is not None:
            self.debug_log.frames.add(frame.frame_id)
        return frame

    def get(self, frame_id: int) -> TaggedFrame:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise SimInternalError(f"frame {frame_id} does not exist") from None

    def exists(self, frame_id: int) -> bool:
        return frame_id in self._frames

    def refcount(self, frame_id: int) -> int:
        frame = self._frames.get(frame_id)
        return 0 if frame is None else len(frame.pages)

    def attach(self, frame_id: int, page_va: int) -> None:
        """Record that ``page_va`` maps the frame."""
        self.get(frame_id).pages.add(page_va)
        if self.debug_log is not None:
            self.debug_log.frames.add(frame_id)

    def detach(self, frame_id: int, page_va: int) -> TaggedFrame:
        """Drop ``page_va`` from the frame's pages; free the frame when none is left."""
        frame = self.get(frame_id)
        pages = frame.pages
        if page_va not in pages:
            raise SimInternalError(f"page {page_va:#x} is not attached to frame {frame_id}")
        pages.remove(page_va)
        if not pages:
            del self._frames[frame_id]
        if self.debug_log is not None:
            self.debug_log.frames.add(frame_id)
        return frame

    def clone(self, frame_id: int) -> TaggedFrame:
        """Copy bytes, capabilities and origin into a fresh frame."""
        src = self.get(frame_id)
        out = self.allocate(src.origin)
        out.data[:] = src.data
        out.caps.update(src.caps)
        return out

    @property
    def by_id(self) -> dict[int, TaggedFrame]:
        """The live frames by id, not a copy.

        The address space's whole-region page passes, its refcount
        check and the auditor index it directly; the teardown pass
        deletes a frame whose page set it empties, as :meth:`detach`
        does.  Nothing else may change it.
        """
        return self._frames

    @property
    def live_frames(self) -> dict[int, TaggedFrame]:
        return dict(self._frames)

    def total_bytes(self) -> int:
        return len(self._frames) * PAGE_SIZE

    # -- capability granules -----------------------------------------------

    def store_capability(self, frame: TaggedFrame, granule: int, cap: Capability) -> None:
        """Store a capability into a granule; the tag follows ``cap.tag``."""
        if not 0 <= granule < GRANULES_PER_PAGE:
            raise OutOfFrame(f"granule index {granule} out of range")
        offset = granule * GRANULE
        _pack_word(frame.data, offset, cap.cursor % (1 << 64))
        _pack_word(frame.data, offset + 8, 0)
        frame.caps[granule] = cap
        frame.version += 1
        if self.changes is not None:
            self.changes.add(frame.frame_id)

    def load_capability(self, frame: TaggedFrame, granule: int) -> Capability:
        """Load the capability stored in a granule.

        A granule whose entry survives comes back exactly, tag included.
        Bytes scribbled over by plain stores decode to a degenerate
        untagged capability whose dereference will tag-fault.
        """
        if not 0 <= granule < GRANULES_PER_PAGE:
            raise OutOfFrame(f"granule index {granule} out of range")
        cap = frame.caps.get(granule)
        if cap is not None:
            return cap
        cursor = frame.load_value(granule * GRANULE, 8)
        return Capability(base=cursor, length=0, cursor=cursor, perms=Perm(0), tag=False)

    def scan_and_relocate(
        self,
        frame: TaggedFrame,
        parent: Region,
        child: Region,
        source: TaggedFrame | None = None,
    ) -> int:
        """Rewrite every tagged granule the rebase rule would change.

        Replaces each capability whose rebased value differs from the
        stored one; a capability invalidated by the rebase (target in
        neither region) is stored untagged.  ``source`` is the frame
        whose capabilities ``frame`` holds unchanged, as after
        :meth:`clone` (by default ``frame`` itself); the relocation plan
        is built from it and kept on it.  Returns the number of granules
        rewritten; a second scan returns 0.
        """
        if not frame.caps:
            return 0
        source = frame if source is None else source
        plan = source.plan
        if plan is None or plan[0] != source.version or plan[1] != parent:
            plan = source.plan = _relocation_plan(source, parent)
        _, _, inside, others, top_base, bottom_top = plan
        caps = frame.caps
        rewritten = 0
        if (
            inside
            and (child.base > top_base or child.end < bottom_top)
            and child.size == parent.size
        ):
            # Each granule takes the rebase rule's shift, as store_capability
            # would store it.  Only the cursor word changes: the second
            # word of a tagged granule is already zero, and the shifted
            # cursor lies in the child region, so it needs no wrap.
            data, delta = frame.data, child.base - parent.base
            for granule in inside:
                cap = caps[granule]
                cursor = cap.cursor + delta
                _pack_word(data, granule * GRANULE, cursor)
                caps[granule] = _tuple_new(
                    Capability, (cap.base + delta, cap.length, cursor, cap.perms, None, True)
                )
            frame.version += len(inside)
            rewritten = len(inside)
            if self.changes is not None:
                self.changes.add(frame.frame_id)
        else:
            others = inside + others
        for granule in others:
            cap = caps[granule]
            rebased = rebase_for_child(cap, parent, child)
            if rebased != cap:
                self.store_capability(frame, granule, rebased)
                rewritten += 1
        return rewritten


def _relocation_plan(frame: TaggedFrame, parent: Region) -> _Plan:
    """Classify the frame's tagged granules for relocation out of ``parent``."""
    inside: list[int] = []
    others: list[int] = []
    top_base, bottom_top = parent.base, parent.end
    for granule, cap in frame.tagged_caps():
        base, top = cap.base, cap.base + cap.length
        if (
            cap.otype is None
            and parent.base <= base <= top <= parent.end
            and parent.contains(cap.cursor)
        ):
            inside.append(granule)
            top_base, bottom_top = max(top_base, base), min(bottom_top, top)
        else:
            others.append(granule)
    return frame.version, parent, tuple(inside), tuple(others), top_base, bottom_top
