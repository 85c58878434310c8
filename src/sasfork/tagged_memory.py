"""Physical frame store whose frames own their capabilities.

Each :class:`TaggedFrame` is one page of bytes plus the exact
:class:`Capability` stored in each of its 16-byte granules.  As in CHERI,
the tag lives beside the granule it covers; there is no global table of
capability values.  The tag discipline is the heart of reference
tracking:

* a granule's tag is set only by a whole-granule capability store of a
  tagged capability, which also writes the cursor into the granule's
  first 8 bytes (so integer reads of a pointer see its address) and
  zeros into the last 8;
* any byte-level store overlapping a granule clears its tag, so plain
  data can never be mistaken for a reference.  The entry survives,
  untagged, only if the granule's 16 bytes are unchanged; otherwise
  the granule decodes to a degenerate untagged capability;
* integer loads never observe tags.

A frame keeps each granule's entry in one of two maps.  ``relative``
holds every tagged, unsealed capability whose bounds and cursor lie in
the frame's ``origin``, the region its contents are laid out for;
``absolute`` holds every other entry as stored: untagged, sealed and
foreign ones, and the zero-length capabilities at either end of the
origin, which also lie in the region adjacent there, so that whether the
rebase rule moves them depends on the destination.  A relative entry is
kept relative to the frame's ``rel_base``, the base its origin had when
the entry was laid out: it reads as its stored value shifted by
``origin.base - rel_base``, so an entry stored into a frame that never
moved reads back as the very capability stored.  Every reader sees
absolute values, through :meth:`TaggedFrame.entry` and
:meth:`TaggedFrame.entries`.  A frame that holds no entry of a kind
shares :data:`_NO_ENTRIES`, read-only, as that map; its first store of the
kind gives it a dict of its own.

:meth:`FrameTable.scan_and_relocate` is the relocation primitive used on
freshly copied child pages and on promoted survivors.  A frame laid out
for the parent region takes the child region as its new origin, which
relocates every relative entry at once, by the rebase rule's shift.  Only
the absolute entries go through
:func:`~sasfork.capability.rebase_for_child`, one by one; a capability
whose target lies in neither region is stored back untagged.  The scan
reports how many granules it relocated, and the caller records that with
the copy.  The scan keeps no state between copies.

A relative granule's cursor word, which an integer read sees, is laid
out for ``rel_base`` too, so moving the origin leaves it at the old
address, and ``rel_base`` is also the marker of stale words: while it
differs from ``origin.base``, the first read of the frame's bytes lays
every relative entry and its cursor word out for the current origin
before it reads (:meth:`TaggedFrame.read`, which integer loads, the
byte-store compare, the decoding of an untagged granule and the kernel's
copy-in all go through).  A copy that nothing reads, like most of a
fork's GOT copies, never pays for that.

A frame's refcount, ``mapcount``, is the number of pages that map it, and
the frame is freed when it drops to zero.  It stores no list of those
pages.  Every page that maps a frame lies at the same page index of its
reservation, and in reservations of one fork family, so the frame records
that ``index`` and that ``family`` at its first mapping, and its mappers
are found by walking the family's reservations.  A frame at an index
where every row of its family maps it keeps no count: its ``mapcount``
reads as the family's row count.  Only a frame at one of the family's
*divergent* indices, a set that holds every index where the rows map
different frames, counts its own mappings, in ``own`` (see
:mod:`sasfork.address_space`, the one writer of ``own``, ``index`` and
``family``).  A freed frame leaves its family, so its count reads zero.

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
from types import MappingProxyType
from typing import Iterator, Mapping

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

#: The granule map of every frame that holds no entry of its kind:
#: read-only, so a store into it raises instead of reaching every frame
#: that shares it.
_NO_ENTRIES: Mapping[int, Capability] = MappingProxyType({})

#: Writes a tagged granule into a chunk: its capability's cursor word
#: followed by a zero word, both little-endian 64-bit.
_pack_granule = struct.Struct("<QQ").pack_into
#: Rewrites the cursor word alone, as a stale relative granule needs.
_pack_word = struct.Struct("<Q").pack_into

#: Builds a capability from its six fields positionally, as
#: ``Capability.with_cursor`` does, without the named-tuple constructor.
_tuple_new = tuple.__new__


def _shifted(cap: Capability, delta: int) -> Capability:
    """The tagged, unsealed ``cap`` with its base and cursor moved by ``delta``."""
    base, length, cursor, perms, _, _ = cap
    return _tuple_new(Capability, (base + delta, length, cursor + delta, perms, None, True))


class TaggedFrame:
    """One physical page: chunked bytes, capabilities, origin and mappers.

    ``chunks`` holds the page's written chunks by index; every other
    chunk reads as :data:`_ZERO_CHUNK` (see the module docstring).  Each
    granule's entry lies in ``relative``, laid out for an origin at
    ``rel_base``, or in ``absolute``.  ``origin`` records which reserved
    region the frame's contents are laid out for; the fork engine uses it
    to pick the source region of a relocation scan (a frame aliased
    through several generations of forks still relocates correctly).
    ``index`` and ``family``, ``None`` until its first mapping and again
    once the frame is freed, are the page index and the fork family of
    the reservations its pages lie in; ``own`` counts those pages while
    ``index`` is divergent in ``family`` (see the module docstring).
    """

    __slots__ = (
        "frame_id",
        "chunks",
        "absolute",
        "relative",
        "rel_base",
        "origin",
        "own",
        "index",
        "family",
    )

    def __init__(self, frame_id: int, origin: Region | None = None):
        self.frame_id = frame_id
        self.chunks: dict[int, bytearray] = {}
        self.absolute: Mapping[int, Capability] = _NO_ENTRIES
        self.relative: Mapping[int, Capability] = _NO_ENTRIES
        self.rel_base: int | None = None
        self.origin = origin
        self.own = 0
        self.index: int | None = None
        self.family: list | None = None

    @property
    def mapcount(self) -> int:
        """The number of pages that map the frame, its refcount: the row
        count of its family where every row maps it, else its own count."""
        family = self.family
        if family is None or self.index in family.divergent:
            return self.own
        return len(family)

    @mapcount.setter
    def mapcount(self, count: int) -> None:
        """Set the frame's own count to ``count`` and make its index
        divergent, so the count is read: the way a test or a check
        corrupts a count on purpose."""
        if self.family is not None:
            self.family.divergent.add(self.index)
        self.own = count

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
        joins the chunks it covers.  Stale cursor words are rewritten
        first.
        """
        rel_base = self.rel_base
        if rel_base is not None and rel_base != self.origin.base:
            self._rebase_relative()
        at = offset % CHUNK
        if 0 < count <= CHUNK - at:
            return self.chunks.get(offset // CHUNK, _ZERO_CHUNK)[at : at + count]
        get = self.chunks.get
        covered = range(offset // CHUNK, (offset + count - 1) // CHUNK + 1)
        return b"".join([get(index, _ZERO_CHUNK) for index in covered])[at : at + count]

    def _rebase_relative(self) -> None:
        """Lay every relative entry, and its granule's cursor word, out for
        the current origin.

        The store that tagged a granule wrote its chunk, and a clone
        copies the chunk, so the chunk exists.
        """
        base = self.origin.base
        delta, self.rel_base = base - self.rel_base, base
        relative, chunks = self.relative, self.chunks
        # Replacing a value keeps the dict's size, so the loop may do it.
        for granule, cap in relative.items():
            relative[granule] = cap = _shifted(cap, delta)
            _pack_word(
                chunks[granule // _GRANULES_PER_CHUNK],
                granule % _GRANULES_PER_CHUNK * GRANULE,
                cap[2],
            )

    def store_bytes(self, offset: int, payload: bytes) -> None:
        """Write raw bytes; tags of every overlapped granule are cleared."""
        end = offset + len(payload)
        if offset < 0 or end > PAGE_SIZE:
            raise OutOfFrame(f"store of {len(payload)} bytes at {offset} exceeds page")
        if not payload:
            return
        if self.absolute or self.relative:
            self._clear_tags(offset, payload)
        # Each slice is replaced by as many bytes, so no chunk changes size.
        index, at, done = offset // CHUNK, offset % CHUNK, 0
        while len(payload) - done > CHUNK - at:
            self.writable_chunk(index)[at:] = payload[done : done + CHUNK - at]
            index, at, done = index + 1, 0, done + CHUNK - at
        self.writable_chunk(index)[at : at + len(payload) - done] = payload[done:]

    def _clear_tags(self, offset: int, payload: bytes) -> None:
        """Untag every entry that ``payload``, stored at ``offset``,
        overlaps: an entry stays, absolute, where the store leaves its
        granule's bytes unchanged, and is dropped where it changes them."""
        end = offset + len(payload)
        for granule in range(offset // GRANULE, (end - 1) // GRANULE + 1):
            cap = self.entry(granule)
            if cap is None:
                continue
            lo, hi = max(offset, granule * GRANULE), min(end, (granule + 1) * GRANULE)
            # Read while the entry is still in its map, so that a stale
            # cursor word is rewritten first.
            kept = self.read(lo, hi - lo) == payload[lo - offset : hi - offset]
            if granule in self.relative:
                del self.relative[granule]
            elif not kept:
                del self.absolute[granule]
            if kept:
                if self.absolute is _NO_ENTRIES:
                    self.absolute = {}
                self.absolute[granule] = cap.untagged()

    def load_value(self, offset: int, width: int) -> int:
        """Little-endian unsigned integer load; never returns a tag."""
        if offset < 0 or width < 0 or offset + width > PAGE_SIZE:
            raise OutOfFrame(f"load of {width} bytes at {offset} exceeds page")
        return int.from_bytes(self.read(offset, width), "little")

    def entry(self, granule: int) -> Capability | None:
        """The entry of ``granule`` as an absolute value, tagged or not, or
        ``None`` if it holds none."""
        cap = self.relative.get(granule)
        if cap is None:
            return self.absolute.get(granule)
        delta = self.origin.base - self.rel_base
        return _shifted(cap, delta) if delta else cap

    def entries(self) -> dict[int, Capability]:
        """Every entry, tagged or not, as an absolute value, in granule order."""
        view = dict(self.absolute) if self.absolute else {}
        if self.relative:
            delta = self.origin.base - self.rel_base
            view.update(
                (g, _shifted(cap, delta) if delta else cap) for g, cap in self.relative.items()
            )
        return dict(sorted(view.items()))

    def tagged_caps(self) -> list[tuple[int, Capability]]:
        """The tagged ``(granule, capability)`` entries, as absolute values,
        in granule order."""
        absolute = self.absolute
        found = [(g, cap) for g, cap in absolute.items() if cap.tag] if absolute else []
        if self.relative:
            delta = self.origin.base - self.rel_base
            if delta:
                found += [(g, _shifted(cap, delta)) for g, cap in self.relative.items()]
            else:
                found += self.relative.items()
        found.sort()
        return found

    def tagged_granules(self) -> Iterator[int]:
        return (granule for granule, _ in self.tagged_caps())

    def tagged_in(self, lo: int, hi: int) -> bool:
        """True if bytes [lo, hi) of the page overlap a tagged granule."""
        absolute, relative = self.absolute, self.relative
        return hi > lo and bool(absolute or relative) and any(
            g in relative or (g in absolute and absolute[g].tag)
            for g in range(lo // GRANULE, (hi - 1) // GRANULE + 1)
        )

    @property
    def tags(self) -> list[bool]:
        """Read-only per-granule view of the tag bits."""
        absolute, relative = self.absolute, self.relative
        return [
            g in relative or (g in absolute and absolute[g].tag)
            for g in range(GRANULES_PER_PAGE)
        ]

    def make_absolute(self) -> None:
        """Move every relative entry into the absolute map, unchanged in
        value, with its cursor word up to date."""
        if self.relative:
            if self.rel_base != self.origin.base:
                self._rebase_relative()
            self.absolute = self.entries()
            self.relative = _NO_ENTRIES
        self.rel_base = None


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
    ``mapcount`` (in the frame's own count, or in its family's row count
    where every row maps it), and frees a frame whose count it drops to
    zero.  Frame ids are never reused within a run.
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

        Only the written chunks, and only a map that holds entries, are
        copied; stale cursor words stay stale in the copy.
        """
        src = self.get(frame_id)
        out = self.allocate(src.origin)
        out.chunks = chunks = src.chunks.copy()
        # Replacing a value keeps the dict's size, so the loop may do it.
        for index, chunk in chunks.items():
            chunks[index] = chunk[:]
        if src.absolute:
            out.absolute = dict(src.absolute)
        if src.relative:
            out.relative = dict(src.relative)
            out.rel_base = src.rel_base
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
        """Store a capability into a granule; the tag follows ``cap.tag``.

        A tagged, unsealed capability whose bounds and cursor lie in the
        frame's origin, and which is not of zero length at either end of
        it, is kept relative to the origin; any other, absolute.
        """
        if not 0 <= granule < GRANULES_PER_PAGE:
            raise OutOfFrame(f"granule index {granule} out of range")
        base, length, cursor, perms, otype, tag = cap
        origin = frame.origin
        if origin is not None and tag and otype is None:
            lo = origin.base
            hi = lo + origin.size
            # A zero-length capability at either end of the origin also lies
            # in the region adjacent there, so it stays absolute.
            relative = lo <= base <= base + length <= hi and lo <= cursor < hi and (
                length or lo < base < hi
            )
        else:
            relative = False
        if relative:
            if granule in frame.absolute:
                del frame.absolute[granule]
            entries = frame.relative
            if not entries:
                if entries is _NO_ENTRIES:
                    entries = frame.relative = {}
                frame.rel_base = lo
            elif frame.rel_base != lo:
                # Laid out, cursor word included, for the base the other
                # relative entries keep.
                cap = _shifted(cap, frame.rel_base - lo)
                cursor = cap[2]
            entries[granule] = cap
        else:
            if granule in frame.relative:
                del frame.relative[granule]
            entries = frame.absolute
            if entries is _NO_ENTRIES:
                entries = frame.absolute = {}
            entries[granule] = cap
        index = granule // _GRANULES_PER_CHUNK
        _pack_granule(
            frame.chunks.get(index) or frame.writable_chunk(index),
            granule % _GRANULES_PER_CHUNK * GRANULE,
            cursor % (1 << 64),
            0,
        )
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
        cap = frame.entry(granule)
        if cap is not None:
            return cap
        cursor = frame.load_value(granule * GRANULE, 8)
        return Capability(base=cursor, length=0, cursor=cursor, perms=Perm(0), tag=False)

    def scan_and_relocate(self, frame: TaggedFrame, parent: Region, child: Region) -> int:
        """Relocate a frame from ``parent`` to ``child`` by the rebase rule.

        The frame takes ``child`` as its origin, which moves every relative
        entry by the rule's shift; then each tagged absolute entry that the
        rule changes is stored again, untagged if its target lies in
        neither region.  A frame laid out for another region than
        ``parent``, or regions that overlap, leave no entry relative first,
        so the rule alone decides every entry.  Regions of unequal size
        raise ``ValueError`` before any write.  Returns the number of
        granules relocated; a second scan returns 0.
        """
        if parent.size != child.size:
            raise ValueError("parent and child regions must be the same size")
        origin = frame.origin
        if (
            origin is not parent
            and (origin is None or origin.base != parent.base or origin.size != parent.size)
        ) or parent.overlaps_range(child.base, child.end):
            frame.make_absolute()
        moved = len(frame.relative)
        frame.origin = child
        rewritten = 0
        # A store may move an entry into the relative map, so the pass
        # walks a copy.
        for granule, cap in list(frame.absolute.items()) if frame.absolute else ():
            if cap.tag and (rebased := rebase_for_child(cap, parent, child)) != cap:
                self.store_capability(frame, granule, rebased)
                rewritten += 1
        if moved:
            for log in self.logs:
                log.frames.add(frame.frame_id)
        return moved + rewritten
