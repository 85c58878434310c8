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
"""

from __future__ import annotations

from typing import Callable, Iterator

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


class TaggedFrame:
    """One physical page: data bytes, capabilities, and its origin region.

    A granule is tagged when its ``caps`` entry is.  ``origin`` records
    which reserved region the frame's contents are laid out for; the fork
    engine uses it to pick the source region of a relocation scan (a
    frame aliased through several generations of forks still relocates
    correctly).
    """

    __slots__ = ("frame_id", "data", "caps", "origin")

    def __init__(self, frame_id: int, origin: Region | None = None):
        self.frame_id = frame_id
        self.data = bytearray(PAGE_SIZE)
        self.caps: dict[int, Capability] = {}
        self.origin = origin

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


class FrameTable:
    """Allocator and refcount bookkeeping for tagged frames.

    ``refcount(f)`` equals the number of page-table entries mapping
    ``f``; a frame whose count drops to zero is freed.  Frame ids are
    never reused within a run.
    """

    def __init__(self) -> None:
        self._frames: dict[int, TaggedFrame] = {}
        self._refcounts: dict[int, int] = {}
        self._next_id = 1

    def allocate(self, origin: Region | None = None) -> TaggedFrame:
        frame = TaggedFrame(self._next_id, origin)
        self._next_id += 1
        self._frames[frame.frame_id] = frame
        self._refcounts[frame.frame_id] = 0
        return frame

    def get(self, frame_id: int) -> TaggedFrame:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise SimInternalError(f"frame {frame_id} does not exist") from None

    def exists(self, frame_id: int) -> bool:
        return frame_id in self._frames

    def refcount(self, frame_id: int) -> int:
        return self._refcounts.get(frame_id, 0)

    def incref(self, frame_id: int) -> int:
        self.get(frame_id)
        self._refcounts[frame_id] += 1
        return self._refcounts[frame_id]

    def decref(self, frame_id: int) -> int:
        count = self._refcounts.get(frame_id)
        if count is None or count <= 0:
            raise SimInternalError(f"refcount underflow on frame {frame_id}")
        count -= 1
        if count == 0:
            del self._frames[frame_id]
            del self._refcounts[frame_id]
        else:
            self._refcounts[frame_id] = count
        return count

    def clone(self, frame_id: int, origin: Region | None = None) -> TaggedFrame:
        """Copy bytes and capabilities into a fresh frame."""
        src = self.get(frame_id)
        out = self.allocate(origin if origin is not None else src.origin)
        out.data[:] = src.data
        out.caps.update(src.caps)
        return out

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
        encoded = (cap.cursor % (1 << 64)).to_bytes(GRANULE, "little")
        frame.data[offset : offset + GRANULE] = encoded
        frame.caps[granule] = cap

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
        on_invalidate: Callable[[int, Capability], None] | None = None,
    ) -> int:
        """Rewrite every tagged granule the rebase rule would change.

        Visits the frame's tagged entries in granule order and replaces
        each capability whose rebased value differs from the stored one.
        Capabilities invalidated by the rebase (targets in neither
        region) are reported through ``on_invalidate``.  Returns
        the number of granules rewritten; a second scan returns 0.
        """
        rewritten = 0
        for granule, cap in frame.tagged_caps():
            rebased = rebase_for_child(cap, parent, child)
            if rebased == cap:
                continue
            self.store_capability(frame, granule, rebased)
            rewritten += 1
            if not rebased.tag and on_invalidate is not None:
                on_invalidate(granule, cap)
        return rewritten
