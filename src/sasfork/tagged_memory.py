"""Physical frame store whose frames own their capabilities.

Each :class:`TaggedFrame` is one page of bytes plus ``caps``, which
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
freshly copied child pages: it visits each of the frame's entries once
and rewrites every tagged capability that the parent-to-child rebase
rule changes.  A tagged capability that is unsealed and lies wholly
inside the parent region with its cursor there too, and does not
already lie in the child region, takes the rule's shift by
``child.base - parent.base`` inline; every other tagged capability goes
through :func:`~sasfork.capability.rebase_for_child`.  A capability
whose target lies in neither region is stored back untagged; the scan
reports only how many granules it rewrote, and the caller records that
with the copy.  The scan keeps no state between copies: the tags alone
say which granules to relocate.

A frame keeps a count of the pages that map it, ``mapcount``, which is
its refcount, and it is freed when the count drops to zero.  It stores no
list of those pages.  Every page that maps a frame lies at the same page
index of its reservation, and in reservations of one fork family, so the
frame records that ``index`` and that ``family`` at its first mapping, and
its mappers are found by walking the family's reservations (see
:mod:`sasfork.address_space`, the one writer of all three).

A frame holds only what was written to it.  Its page is cut into chunks
of :data:`CHUNK` bytes, and ``chunks`` maps the index of each chunk ever
written to the frame's own ``bytearray``.  Every other chunk reads as the
one shared, immutable :data:`_ZERO_CHUNK`; a write first gives the chunk
a fresh ``bytearray``, so no write can reach another frame through the
zero chunk.  A read slices one chunk, and the rare range that crosses a
chunk joins the chunks it covers.  A clone copies the written chunks
alone.

The frame table keeps, in :attr:`FrameTable.logs`, one :class:`ChangeLog`
per per-step check that has run: the audit's and the ``--debug`` check's.
Every change is logged into every log, by one rule.  A frame is logged when
it is allocated, when a capability is written into it (a capability store
or a relocation scan), when a page starts or stops mapping it
(``AddressSpace.map``, ``unmap``, ``unmap_owned``, and ``remap``, which
logs the old frame and the new one), or when the promotion pass makes
its sole page private.  A pid is logged when a pass maps its row
wholesale: the child of every fork, under every strategy, whose row
``AddressSpace.share_region`` builds; a fork's eager copies are logged
when they are allocated.
A teardown logs the frames it drops and needs no pid: it removes the
pid's row, so a logged pid whose row is gone maps nothing.  Each check
clears only its own log, so neither drains the other's, and a run with
neither check logs nothing.
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

#: Bytes per chunk of a frame's page; a granule never crosses a chunk.
#: 128 kept ~4% less memory than 256 on the benchmark workloads, but took
#: ~1.4x as long to clone a fully written page.
CHUNK = 256
_GRANULES_PER_CHUNK = CHUNK // GRANULE

#: What every chunk that was never written reads as: immutable, so a write
#: into it raises instead of reaching every frame that reads it.
_ZERO_CHUNK = bytes(CHUNK)

#: Writes a tagged granule into a chunk: its capability's cursor word
#: followed by a zero word, both little-endian 64-bit.
_pack_granule = struct.Struct("<QQ").pack_into
#: Rewrites the cursor word alone, as the relocation scan's shift does.
_pack_word = struct.Struct("<Q").pack_into

#: Builds a capability from its six fields positionally, as
#: ``Capability.with_cursor`` does, without the named-tuple constructor.
_tuple_new = tuple.__new__


class TaggedFrame:
    """One physical page: chunked bytes, capabilities, origin and mappers.

    ``chunks`` holds the page's written chunks by index; every other
    chunk reads as :data:`_ZERO_CHUNK` (see the module docstring).  A
    granule is tagged when its ``caps`` entry is.  ``origin`` records
    which reserved region the frame's contents are laid out for; the fork
    engine uses it to pick the source region of a relocation scan (a
    frame aliased through several generations of forks still relocates
    correctly).  ``mapcount`` is the number of pages that map the frame;
    ``index`` and ``family``, ``None`` until its first mapping, are the page
    index and the fork family of the reservations those pages lie in.
    """

    __slots__ = ("frame_id", "chunks", "caps", "origin", "mapcount", "index", "family")

    def __init__(self, frame_id: int, origin: Region | None = None):
        self.frame_id = frame_id
        self.chunks: dict[int, bytearray] = {}
        self.caps: dict[int, Capability] = {}
        self.origin = origin
        self.mapcount = 0
        self.index: int | None = None
        self.family: list | None = None

    @property
    def data(self) -> bytes:
        """The page's bytes, assembled from its chunks: for tests and
        oracles, never for an access."""
        return self.read(0, PAGE_SIZE)

    def writable_chunk(self, index: int) -> bytearray:
        """The frame's own chunk ``index``: a fresh zero one if never written."""
        chunk = self.chunks.get(index)
        if chunk is None:
            chunk = self.chunks[index] = bytearray(CHUNK)
        return chunk

    def read(self, offset: int, count: int) -> bytes | bytearray:
        """Bytes [offset, offset + count) of the page, unchecked.

        A range inside one chunk is one slice; one that crosses a chunk
        joins the chunks it covers.
        """
        at = offset % CHUNK
        if 0 < count <= CHUNK - at:
            return self.chunks.get(offset // CHUNK, _ZERO_CHUNK)[at : at + count]
        get = self.chunks.get
        covered = range(offset // CHUNK, (offset + count - 1) // CHUNK + 1)
        return b"".join([get(index, _ZERO_CHUNK) for index in covered])[at : at + count]

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
            if self.read(lo, hi - lo) == payload[lo - offset : hi - offset]:
                caps[granule] = caps[granule].untagged()
            else:
                del caps[granule]
        # Each slice is replaced by as many bytes, so no chunk changes size.
        index, at, done = offset // CHUNK, offset % CHUNK, 0
        while len(payload) - done > CHUNK - at:
            self.writable_chunk(index)[at:] = payload[done : done + CHUNK - at]
            index, at, done = index + 1, 0, done + CHUNK - at
        self.writable_chunk(index)[at : at + len(payload) - done] = payload[done:]

    def load_value(self, offset: int, width: int) -> int:
        """Little-endian unsigned integer load; never returns a tag."""
        if offset < 0 or width < 0 or offset + width > PAGE_SIZE:
            raise OutOfFrame(f"load of {width} bytes at {offset} exceeds page")
        return int.from_bytes(self.read(offset, width), "little")

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


class ChangeLog:
    """What a per-step check reads again: the ids of the frames changed,
    and the pids of the rows built, since it last cleared the log (see the
    module docstring)."""

    __slots__ = ("frames", "pids")

    def __init__(self) -> None:
        self.frames: set[int] = set()
        self.pids: list[int] = []


class FrameTable:
    """Allocator for tagged frames.

    The address space counts each page it maps in the frame's
    ``mapcount``, and frees a frame whose count it drops to zero.  Frame
    ids are never reused within a run.
    """

    def __init__(self) -> None:
        self._frames: dict[int, TaggedFrame] = {}
        self._next_id = 1
        # The change log of each per-step check that has run (see the
        # module docstring).
        self.logs: list[ChangeLog] = []

    def allocate(self, origin: Region | None = None) -> TaggedFrame:
        frame = TaggedFrame(self._next_id, origin)
        self._next_id += 1
        self._frames[frame.frame_id] = frame
        for log in self.logs:
            log.frames.add(frame.frame_id)
        return frame

    def get(self, frame_id: int) -> TaggedFrame:
        try:
            return self._frames[frame_id]
        except KeyError:
            raise SimInternalError(f"frame {frame_id} does not exist") from None

    def free_unmapped(self, frame: TaggedFrame) -> None:
        """Free ``frame``, which no page maps: a copy whose relocation scan
        or install raised.  Its id is not handed out again."""
        del self._frames[frame.frame_id]

    def clone(self, frame_id: int) -> TaggedFrame:
        """Copy bytes, capabilities and origin into a fresh frame.

        Only the written chunks are copied.
        """
        src = self.get(frame_id)
        out = self.allocate(src.origin)
        out.chunks = chunks = src.chunks.copy()
        # Replacing a value keeps the dict's size, so the loop may do it.
        for index, chunk in chunks.items():
            chunks[index] = chunk[:]
        out.caps.update(src.caps)
        return out

    @property
    def by_id(self) -> dict[int, TaggedFrame]:
        """The live frames by id, not a copy.

        The address space and the auditor index it directly.  Only the
        address space's :meth:`~sasfork.address_space.AddressSpace.unmap`
        and teardown pass delete from it, a frame whose count they drop to
        zero, and :meth:`free_unmapped` a copy never mapped; nothing else
        may change it.
        """
        return self._frames

    def total_bytes(self) -> int:
        return len(self._frames) * PAGE_SIZE

    # -- capability granules -----------------------------------------------

    def store_capability(self, frame: TaggedFrame, granule: int, cap: Capability) -> None:
        """Store a capability into a granule; the tag follows ``cap.tag``."""
        if not 0 <= granule < GRANULES_PER_PAGE:
            raise OutOfFrame(f"granule index {granule} out of range")
        _pack_granule(
            frame.writable_chunk(granule // _GRANULES_PER_CHUNK),
            granule % _GRANULES_PER_CHUNK * GRANULE,
            cap.cursor % (1 << 64),
            0,
        )
        frame.caps[granule] = cap
        for log in self.logs:
            log.frames.add(frame.frame_id)

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

    def scan_and_relocate(self, frame: TaggedFrame, parent: Region, child: Region) -> int:
        """Rewrite every tagged granule the rebase rule would change, in one pass.

        Replaces each capability whose rebased value differs from the
        stored one; a capability invalidated by the rebase (target in
        neither region) is stored untagged.  Regions of unequal size raise
        ``ValueError`` before any write.  Returns the number of granules
        rewritten; a second scan returns 0.
        """
        caps = frame.caps
        if not caps:
            return 0
        if parent.size != child.size:
            raise ValueError("parent and child regions must be the same size")
        lo, hi = parent.base, parent.end
        child_lo, child_hi = child.base, child.end
        chunks, delta = frame.chunks, child_lo - lo
        kept = 0
        # Rewriting an existing key keeps the dict's size and order, so the
        # pass may store into the dict it walks.
        for granule, cap in caps.items():
            base, length, cursor, perms, otype, tag = cap
            top = base + length
            if (
                tag
                and otype is None
                and lo <= base <= top <= hi
                and lo <= cursor < hi
                and not (child_lo <= base and top <= child_hi)
            ):
                # The rebase rule's shift, as store_capability would store
                # it.  Only the cursor word changes: the second word of a
                # tagged granule is already zero, and the shifted cursor
                # lies in the child region, so it needs no wrap.  The store
                # that tagged the granule wrote its chunk.
                cursor += delta
                _pack_word(
                    chunks[granule // _GRANULES_PER_CHUNK],
                    granule % _GRANULES_PER_CHUNK * GRANULE,
                    cursor,
                )
                caps[granule] = _tuple_new(
                    Capability, (base + delta, length, cursor, perms, None, True)
                )
            elif tag and (rebased := rebase_for_child(cap, parent, child)) != cap:
                self.store_capability(frame, granule, rebased)
            else:
                kept += 1
        rewritten = len(caps) - kept
        if rewritten:
            for log in self.logs:
                log.frames.add(frame.frame_id)
        return rewritten
