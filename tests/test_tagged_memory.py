"""Frame store: tag discipline, the relocation scan and chunked frames."""

import gc
import random
import tracemalloc

import pytest

from sasfork.capability import (
    DATA_PERMS,
    GRANULE,
    GRANULES_PER_PAGE,
    PAGE_SIZE,
    Capability,
    Perm,
    Region,
    rebase_for_child,
)
from sasfork import tagged_memory
from sasfork.address_space import AccessKind, AddressSpace, PageState
from sasfork.errors import OutOfFrame, SimInternalError
from sasfork.process import LayoutSpec
from sasfork.system import System
from sasfork.tagged_memory import CHUNK, ChangeLog, FrameTable
from sasfork.workload import run

PARENT = Region(0x1_0000, 4 * PAGE_SIZE)
CHILD = Region(0x9_0000, 4 * PAGE_SIZE)


def parent_cap(offset, length=0x100):
    return Capability(
        base=PARENT.base + offset,
        length=length,
        cursor=PARENT.base + offset,
        perms=DATA_PERMS,
    )


@pytest.fixture
def table():
    return FrameTable()


class TestTagClearing:
    def test_byte_store_over_tagged_granule_clears_it(self, table):
        frame = table.allocate()
        table.store_capability(frame, 0, parent_cap(0))
        assert frame.tags[0]
        frame.store_bytes(0, b"\x01" * 8)
        assert not frame.tags[0]

    def test_byte_store_into_untagged_granule_changes_data_only(self, table):
        frame = table.allocate()
        frame.store_bytes(16, b"\xab" * 16)
        assert frame.data[16:32] == b"\xab" * 16
        assert not any(frame.tags)

    def test_spanning_store_clears_both_granules(self, table):
        frame = table.allocate()
        table.store_capability(frame, 2, parent_cap(0))
        table.store_capability(frame, 3, parent_cap(16))
        frame.store_bytes(40, b"\x00" * 16)  # overlaps granules 2 and 3
        assert not frame.tags[2] and not frame.tags[3]

    def test_out_of_frame_store_is_rejected(self, table):
        frame = table.allocate()
        with pytest.raises(OutOfFrame):
            frame.store_bytes(PAGE_SIZE - 4, b"\x00" * 8)


class TestCapabilityRoundTrip:
    def test_tagged_round_trip_is_exact(self, table):
        frame = table.allocate()
        stored = parent_cap(0x40).with_cursor(PARENT.base + 0x48)
        table.store_capability(frame, 5, stored)
        assert frame.tags[5]
        assert table.load_capability(frame, 5) == stored

    def test_storing_untagged_capability_leaves_tag_clear(self, table):
        frame = table.allocate()
        table.store_capability(frame, 4, parent_cap(0).untagged())
        assert not frame.tags[4]
        assert not table.load_capability(frame, 4).tag

    def test_scribbled_granule_loads_untagged(self, table):
        frame = table.allocate()
        table.store_capability(frame, 1, parent_cap(0))
        frame.store_bytes(16, b"\xff" * 16)
        loaded = table.load_capability(frame, 1)
        assert not loaded.tag

    def test_integer_load_of_a_pointer_sees_its_address(self, table):
        frame = table.allocate()
        stored = parent_cap(0x40)
        table.store_capability(frame, 0, stored)
        assert frame.load_value(0, 8) == stored.cursor

    def test_tag_soundness_under_random_traffic(self, table):
        # After arbitrary stores, a set tag always round-trips exactly.
        rng = random.Random(99)
        frame = table.allocate()
        shadow = {}
        for _ in range(2000):
            granule = rng.randrange(GRANULES_PER_PAGE)
            if rng.random() < 0.5:
                stored = parent_cap(16 * rng.randrange(64), length=16 * rng.randrange(1, 16))
                table.store_capability(frame, granule, stored)
                shadow[granule] = stored
            else:
                offset = rng.randrange(PAGE_SIZE - 8)
                frame.store_bytes(offset, rng.randbytes(8))
                for hit in range(offset // GRANULE, (offset + 7) // GRANULE + 1):
                    shadow.pop(hit, None)
        for granule, stored in shadow.items():
            assert frame.tags[granule]
            assert table.load_capability(frame, granule) == stored


class TestScanAndRelocate:
    def seed_page(self, table, tagged_offsets):
        frame = table.allocate(origin=PARENT)
        for granule in tagged_offsets:
            table.store_capability(frame, granule, parent_cap(granule * GRANULE))
        frame.store_bytes(100 * GRANULE, PARENT.base.to_bytes(8, "little"))
        return frame

    def test_scan_matches_granule_enumeration_oracle(self, table):
        tagged = [3, 17, 200]
        frame = self.seed_page(table, tagged)
        # Oracle: enumerate granules, apply the rebase rule independently.
        expected = {}
        for granule in range(GRANULES_PER_PAGE):
            if not frame.tags[granule]:
                continue
            stored = table.load_capability(frame, granule)
            rebased = rebase_for_child(stored, PARENT, CHILD)
            if rebased != stored:
                expected[granule] = rebased
        assert sorted(expected) == tagged

        count = table.scan_and_relocate(frame, PARENT, CHILD)
        assert count == 3
        for granule, want in expected.items():
            assert table.load_capability(frame, granule) == want
            assert CHILD.contains(table.load_capability(frame, granule).cursor)

    def test_untagged_parent_address_bytes_are_not_touched(self, table):
        frame = self.seed_page(table, [3])
        before = bytes(frame.data[100 * GRANULE : 101 * GRANULE])
        table.scan_and_relocate(frame, PARENT, CHILD)
        assert bytes(frame.data[100 * GRANULE : 101 * GRANULE]) == before

    def test_scan_is_idempotent(self, table):
        frame = self.seed_page(table, [3, 17, 200])
        assert table.scan_and_relocate(frame, PARENT, CHILD) == 3
        assert table.scan_and_relocate(frame, PARENT, CHILD) == 0

    def test_zero_tag_page_is_byte_identical(self, table):
        frame = table.allocate(origin=PARENT)
        frame.store_bytes(0, bytes(range(256)))
        before = bytes(frame.data)
        assert table.scan_and_relocate(frame, PARENT, CHILD) == 0
        assert bytes(frame.data) == before

    def test_neither_region_cap_is_invalidated_and_reported(self, table):
        frame = table.allocate(origin=PARENT)
        stray = Capability(base=0x70_0000, length=0x100, cursor=0x70_0000, perms=DATA_PERMS)
        table.store_capability(frame, 9, stray)
        count = table.scan_and_relocate(frame, PARENT, CHILD)
        assert count == 1
        assert table.load_capability(frame, 9) == stray.untagged()


#: Where the random capabilities of :func:`random_capability` start and end,
#: relative to the regions of one scan: each end of either region, and a
#: target in neither.
FAR = 0x70_0000
NUDGES = (-0x20, -0x10, 0, 0x10, 0x40)
LENGTHS = (0, 0, -0x10, 0x10, 0x40, 0x100)


def random_capability(rng, parent, child):
    """One capability of the kinds the rebase rule tells apart: tagged or
    not, sealed or not, of zero, negative or positive length, with its
    cursor inside or outside its bounds and bounds that may straddle
    either end of either region."""
    anchors = (parent.base, parent.end, child.base, child.end, FAR)
    base = rng.choice(anchors) + rng.choice(NUDGES)
    if rng.random() < 0.3:
        length = rng.choice(anchors) + rng.choice(NUDGES) - base
    else:
        length = rng.choice(LENGTHS)
    cursor = rng.choice(
        (base, base + max(length, 0) // 2, rng.choice(anchors) + rng.choice(NUDGES))
    )
    otype = rng.choice((3, 17)) if rng.random() < 0.2 else None
    return Capability(base, length, cursor, DATA_PERMS, otype, rng.random() < 0.85)


def random_frame(table, rng, parent, child):
    """A frame laid out for ``parent`` holding random capabilities, and an
    untagged granule whose bytes hold a parent address."""
    frame = table.allocate(origin=parent)
    for granule in rng.sample(range(GRANULES_PER_PAGE - 1), rng.randrange(1, 24)):
        table.store_capability(frame, granule, random_capability(rng, parent, child))
    last = (GRANULES_PER_PAGE - 1) * GRANULE
    frame.store_bytes(last, parent.base.to_bytes(8, "little"))
    return frame


def outcome(cap, rebased):
    """What the rebase rule did to one tagged capability."""
    if rebased == cap:
        return "unchanged"
    if not rebased.tag:
        return "untagged"
    return "shifted" if rebased.length == cap.length else "clamped"


#: Same-sized regions just below and just above PARENT, and one above CHILD.
BELOW = Region(PARENT.base - PARENT.size, PARENT.size)
ABOVE = Region(PARENT.end, PARENT.size)
GRANDCHILD = Region(0x20_0000, PARENT.size)


def rebase_one_at_a_time(table, source, parent, child):
    """Oracle: a clone of ``source`` relocated by ``rebase_for_child`` per granule."""
    frame = table.clone(source.frame_id)
    rewritten = 0
    for granule, cap in frame.tagged_caps():
        rebased = rebase_for_child(cap, parent, child)
        if rebased != cap:
            table.store_capability(frame, granule, rebased)
            rewritten += 1
    return frame, rewritten


class TestOnePassScan:
    @pytest.mark.parametrize("in_place", [False, True], ids=["copy", "in-place"])
    @pytest.mark.parametrize(
        "parent, child",
        [(PARENT, CHILD), (PARENT, ABOVE), (PARENT, BELOW), (CHILD, GRANDCHILD)],
        ids=["far", "above", "below", "grandchild"],
    )
    def test_scan_matches_rebasing_one_capability_at_a_time(
        self, table, parent, child, in_place
    ):
        rng = random.Random(f"{parent.base}:{child.base}:{in_place}")
        log = ChangeLog()
        table.logs.append(log)
        seen = set()
        for _ in range(60):
            source = random_frame(table, rng, parent, child)
            want, want_count = rebase_one_at_a_time(table, source, parent, child)
            seen.update(outcome(cap, want.entry(g)) for g, cap in source.tagged_caps())
            before = (source.entries(), bytes(source.data))
            frame = source if in_place else table.clone(source.frame_id)
            log.frames.clear()
            assert table.scan_and_relocate(frame, parent, child) == want_count
            assert (frame.entries(), frame.data) == (want.entries(), want.data)
            assert (frame.frame_id in log.frames) == (want_count > 0)
            if not in_place:
                assert (source.entries(), bytes(source.data)) == before
        # The random capabilities reach every outcome of the rule.
        assert seen == {"unchanged", "untagged", "shifted", "clamped"}

    def test_regions_of_unequal_size_raise_before_any_write(self, table):
        frame = table.allocate(origin=PARENT)
        table.store_capability(frame, 1, parent_cap(0x40))
        before = (frame.entries(), bytes(frame.data))
        with pytest.raises(ValueError, match="same size"):
            table.scan_and_relocate(frame, PARENT, Region(CHILD.base, 2 * PAGE_SIZE))
        assert (frame.entries(), bytes(frame.data)) == before

    def test_in_parent_capabilities_are_shifted_without_a_rebase_call(
        self, table, monkeypatch
    ):
        calls = []

        def counted(cap, parent, child):
            calls.append(cap)
            return rebase_for_child(cap, parent, child)

        monkeypatch.setattr(tagged_memory, "rebase_for_child", counted)
        frame = table.allocate(origin=PARENT)
        kinds = [
            Capability(PARENT.base + 0x40, 0x100, PARENT.base + 0x48, DATA_PERMS),
            # Zero-length at either end of the parent, cursor inside it.
            Capability(PARENT.end, 0, PARENT.base + 0x80, DATA_PERMS),
            Capability(PARENT.base, 0, PARENT.base + 0x80, DATA_PERMS),
            # Sealed, straddling the parent's end, and in neither region.
            Capability(PARENT.base, 0x10, PARENT.base, DATA_PERMS, otype=3),
            Capability(PARENT.end - 0x20, 0x40, PARENT.end - 0x10, DATA_PERMS),
            Capability(FAR, 0x100, FAR, DATA_PERMS),
        ]
        for granule, cap in enumerate(kinds):
            table.store_capability(frame, granule, cap)
        assert table.scan_and_relocate(frame, PARENT, CHILD) == len(kinds)
        # The first moves with the origin.  A zero-length capability at
        # either end also lies in the region adjacent there, so it is kept
        # absolute and rebased with the others.
        assert calls == kinds[1:]


def random_next_region(rng, region):
    """A region of ``region``'s size: adjacent above or below it, or apart."""
    size = region.size
    kind = rng.choice(("above", "below", "apart"))
    if kind == "above":
        return Region(region.end, size)
    if kind == "below":
        return Region(region.base - size, size)
    return Region(region.end + PAGE_SIZE * rng.randrange(1, 64), size)


def zero_length_at_the_ends(rng, *regions):
    """Tagged zero-length capabilities at either end of each region, with a
    cursor inside the first."""
    cursor = regions[0].base + GRANULE * rng.randrange(regions[0].size // GRANULE)
    return [
        Capability(at, 0, cursor, DATA_PERMS)
        for region in regions
        for at in (region.base, region.end)
    ]


class TestRelativeEntries:
    """A frame keeps its in-origin capabilities relative to its origin;
    every reader sees absolute values."""

    @pytest.mark.parametrize("seed", range(4))
    def test_relocation_equals_rebasing_the_absolute_view(self, table, seed):
        rng = random.Random(seed)
        for _ in range(40):
            size = PAGE_SIZE * rng.randrange(1, 5)
            parent = Region(PAGE_SIZE * rng.randrange(64, 256), size)
            frame = table.allocate(origin=parent)
            flat = FlatFrame()
            # Three hops, each to a region adjacent or apart, so relative
            # entries move again while their cursor words are stale.
            for hop in range(3):
                child = random_next_region(rng, parent)
                kinds = zero_length_at_the_ends(rng, parent, child)
                for granule in rng.sample(range(GRANULES_PER_PAGE), 24):
                    if rng.random() < 0.2:
                        cap = rng.choice(kinds)
                    else:
                        cap = random_capability(rng, parent, child)
                    table.store_capability(frame, granule, cap)
                    flat.store_capability(granule, cap)
                before = frame.entries()
                assert before == flat.caps
                want = {g: rebase_for_child(cap, parent, child) for g, cap in before.items()}
                count = table.scan_and_relocate(frame, parent, child)
                assert frame.entries() == want
                assert count == sum(want[g] != cap for g, cap in before.items())
                assert count == flat.relocate(parent, child)
                assert frame.origin == child
                if rng.random() < 0.5:
                    assert frame.data == flat.page
                at = frame.rel_base
                for g, (base, length, cursor, _, otype, tag) in frame.relative.items():
                    assert tag and otype is None and g not in frame.absolute
                    base, cursor = base - at, cursor - at
                    assert 0 <= base <= base + length <= size and 0 <= cursor < size
                    # Never destination-dependent: no zero length at an end.
                    assert length or 0 < base < size
                parent = child
            assert frame.data == flat.page

    def test_an_integer_read_of_a_relocated_granule_sees_the_child_address(self, table):
        frame = table.allocate(origin=PARENT)
        table.store_capability(frame, 3, parent_cap(0x40).with_cursor(PARENT.base + 0x48))
        assert 3 in frame.relative
        assert table.scan_and_relocate(frame, PARENT, CHILD) == 1
        assert frame.rel_base == PARENT.base
        assert frame.load_value(3 * GRANULE, 8) == CHILD.base + 0x48
        assert frame.rel_base == CHILD.base
        assert frame.load_value(3 * GRANULE + 8, 8) == 0

    def test_a_child_integer_read_of_its_got_sees_the_child_address(self):
        system = System("full")
        parent = system.create_initial_process()
        child = system.process(system.fork_engine.fork(parent.pid))
        got = child.registers["got"]
        expected = system.access(child.pid, got, AccessKind.CAP_LOAD).cursor
        assert child.region.contains(expected)
        assert system.access(child.pid, got, AccessKind.READ_INT) == expected
        assert system.peek_bytes(got.cursor, 8) == expected.to_bytes(8, "little")

    @pytest.mark.parametrize("at, width", [(0, GRANULE), (8, 4), (2, 3)])
    def test_rewriting_a_relocated_granule_with_its_own_bytes_keeps_it_absolute(
        self, table, at, width
    ):
        frame = table.allocate(origin=PARENT)
        table.store_capability(frame, 3, parent_cap(0x40))
        assert table.scan_and_relocate(frame, PARENT, CHILD) == 1
        assert frame.rel_base == PARENT.base
        # The granule's bytes as the child's address gives them, built
        # without reading the frame, so the store's own compare must see
        # the rewritten cursor word.
        granule = (CHILD.base + 0x40).to_bytes(8, "little") + bytes(8)
        frame.store_bytes(3 * GRANULE + at, granule[at : at + width])
        relocated = parent_cap(0x40)._replace(base=CHILD.base + 0x40, cursor=CHILD.base + 0x40)
        assert 3 not in frame.relative and frame.absolute[3] == relocated.untagged()
        assert table.load_capability(frame, 3) == relocated.untagged()
        assert frame.read(3 * GRANULE, GRANULE) == granule
        # A later relocation leaves the untagged entry and its bytes alone.
        assert table.scan_and_relocate(frame, CHILD, GRANDCHILD) == 0
        assert frame.entries() == {3: relocated.untagged()}
        assert frame.read(3 * GRANULE, GRANULE) == granule

    def test_a_store_reaches_no_other_frame_through_the_shared_empty_maps(self, table):
        first, second = table.allocate(origin=PARENT), table.allocate(origin=PARENT)
        assert first.absolute is second.relative and not second.absolute
        table.store_capability(first, 1, parent_cap(0))
        table.store_capability(first, 2, parent_cap(0).untagged())
        assert set(first.relative) == {1} and set(first.absolute) == {2}
        only_relative = table.clone(first.frame_id)
        only_relative.store_bytes(2 * GRANULE, b"\x01")
        copy = table.clone(second.frame_id)
        table.store_capability(copy, 4, parent_cap(16).untagged())
        table.store_capability(copy, 5, parent_cap(32))
        assert second.entries() == {} and second.absolute is second.relative
        with pytest.raises(TypeError):
            second.absolute[0] = parent_cap(0)
        assert first.entries() == {1: parent_cap(0), 2: parent_cap(0).untagged()}
        assert only_relative.entries() == {1: parent_cap(0)}
        assert copy.entries() == {4: parent_cap(16).untagged(), 5: parent_cap(32)}
        # A clone copies only the maps that hold entries.
        assert table.clone(only_relative.frame_id).absolute is second.absolute


class TestRefcounts:
    def test_map_unmap_cycle(self, table):
        space = AddressSpace(table)
        parent = space.reserve_region(0x2000)
        assert parent.base == 0x1000
        space.map_fresh_region(parent, 1, 0)
        child = space.reserve_region(0x2000)
        assert child.base == 0x3000
        space.share_region(1, child, 2, PageState.SHARED_COPA, {})
        # Two rows of one fork family that map nothing.
        for va in range(parent.base, child.end, 0x1000):
            space.unmap(va)
        frame = table.allocate()
        space.map(0x1000, frame.frame_id, PageState.SHARED_COPA)
        # A frame's pages lie at one page index: not at two of one region.
        with pytest.raises(SimInternalError, match="0x2000 cannot map frame"):
            space.map(0x2000, frame.frame_id, PageState.SHARED_COPA)
        assert space.entry_at(0x2000) is None and frame.mapcount == 1
        space.map(0x3000, frame.frame_id, PageState.SHARED_COPA)
        assert frame.mapcount == 2
        assert space.unmap(0x1000) == 1 and space.mappers([frame.frame_id]) == [(2, 0x3000)]
        assert frame.frame_id in table.by_id
        assert space.unmap(0x3000) == 0 and frame.mapcount == 0
        assert frame.frame_id not in table.by_id

    def test_clone_copies_bytes_and_tags(self, table):
        frame = table.allocate(origin=PARENT)
        table.store_capability(frame, 7, parent_cap(0))
        frame.store_bytes(0, b"\xde\xad")
        copy = table.clone(frame.frame_id)
        assert copy.data == frame.data
        assert copy.tags == frame.tags
        assert copy.origin == PARENT
        assert copy.frame_id != frame.frame_id


class TestIntactEncoding:
    def test_byte_store_of_unchanged_bytes_keeps_the_exact_value_untagged(self, table):
        frame = table.allocate()
        stored = parent_cap(0x40).with_cursor(PARENT.base + 0x48)
        table.store_capability(frame, 6, stored)
        frame.store_bytes(6 * GRANULE + 4, bytes(frame.data[6 * GRANULE + 4 : 7 * GRANULE]))
        assert not frame.tags[6]
        assert table.load_capability(frame, 6) == stored.untagged()

    @pytest.mark.parametrize("offset", [0, 7, 12])
    def test_byte_store_that_changes_bytes_loads_the_degenerate_value(self, table, offset):
        frame = table.allocate()
        stored = parent_cap(0x40)
        table.store_capability(frame, 6, stored)
        at = 6 * GRANULE + offset
        frame.store_bytes(at, bytes([frame.data[at] ^ 0x01]))
        cursor = frame.load_value(6 * GRANULE, 8)
        assert table.load_capability(frame, 6) == Capability(
            base=cursor, length=0, cursor=cursor, perms=Perm(0), tag=False
        )


class TestPerFrameStorage:
    def test_repeated_stores_retain_one_capability(self, table):
        frame = table.allocate()
        for step in range(10_000):
            table.store_capability(frame, 0, parent_cap(16 * (step % 64)))
        assert len(frame.entries()) == 1
        assert table.load_capability(frame, 0) == parent_cap(16 * (9_999 % 64))

    def test_pointer_bytes_depend_only_on_the_value(self, table):
        first, second = table.allocate(), table.allocate()
        stored = parent_cap(0x40)
        table.store_capability(first, 2, stored)
        table.store_capability(first, 3, parent_cap(0x80))
        table.store_capability(second, 2, stored)
        assert first.data[32:48] == second.data[32:48]
        assert first.load_value(40, 8) == 0

    def test_a_store_writes_the_cursor_word_then_a_zero_word(self, table):
        frame = table.allocate()
        frame.store_bytes(0, b"\xff" * (2 * GRANULE))
        table.store_capability(frame, 0, parent_cap(0x40).with_cursor(PARENT.base + 0x48))
        # A cursor below zero is stored as its 64-bit two's complement.
        table.store_capability(frame, 1, parent_cap(0x40).with_cursor(-8))
        assert frame.data[:GRANULE] == (PARENT.base + 0x48).to_bytes(8, "little") + bytes(8)
        assert frame.data[GRANULE : 2 * GRANULE] == ((1 << 64) - 8).to_bytes(
            8, "little"
        ) + bytes(8)

    def test_clone_caps_are_independent_of_the_source(self, table):
        frame = table.allocate(origin=PARENT)
        table.store_capability(frame, 7, parent_cap(0))
        table.store_capability(frame, 8, parent_cap(16))
        copy = table.clone(frame.frame_id)
        table.store_capability(copy, 7, parent_cap(32))
        copy.store_bytes(8 * GRANULE, b"\xff")
        table.store_capability(copy, 9, parent_cap(48))
        assert frame.entries() == {7: parent_cap(0), 8: parent_cap(16)}
        assert frame.tags[7] and frame.tags[8] and not frame.tags[9]

    def test_reaped_workers_leave_no_capability_entries_behind(self):
        def retained(forks):
            text = "alloc a 4096\nstore_ref a+0 a+16\n" + "fork nowait {\nexit 0\n}\n" * forks
            frames = run(text, "copa").system.frames.by_id.values()
            return sum(len(frame.entries()) for frame in frames), len(frames)

        few, few_frames = retained(8)
        many, many_frames = retained(800)
        assert many <= GRANULES_PER_PAGE * many_frames
        assert (many, many_frames) == (few, few_frames)


class FlatFrame:
    """Oracle of one frame: a plain page of bytes and a granule-to-capability
    dict, following the tag discipline of the `sasfork.tagged_memory`
    docstring."""

    def __init__(self, page=None, caps=None):
        self.page = bytearray(PAGE_SIZE) if page is None else bytearray(page)
        self.caps = {} if caps is None else dict(caps)

    def store_bytes(self, offset, payload):
        end = offset + len(payload)
        for granule in range(offset // GRANULE, (end - 1) // GRANULE + 1):
            if granule in self.caps:
                lo, hi = max(offset, granule * GRANULE), min(end, (granule + 1) * GRANULE)
                if self.page[lo:hi] == payload[lo - offset : hi - offset]:
                    self.caps[granule] = self.caps[granule].untagged()
                else:
                    del self.caps[granule]
        self.page[offset:end] = payload

    def store_capability(self, granule, cap):
        at = granule * GRANULE
        self.page[at : at + GRANULE] = (cap.cursor % (1 << 64)).to_bytes(8, "little") + bytes(8)
        self.caps[granule] = cap

    def load_capability(self, granule):
        if granule in self.caps:
            return self.caps[granule]
        cursor = int.from_bytes(self.page[granule * GRANULE : granule * GRANULE + 8], "little")
        return Capability(base=cursor, length=0, cursor=cursor, perms=Perm(0), tag=False)

    def relocate(self, parent, child):
        rewritten = 0
        for granule, cap in sorted(self.caps.items()):
            if cap.tag and (rebased := rebase_for_child(cap, parent, child)) != cap:
                self.store_capability(granule, rebased)
                rewritten += 1
        return rewritten


def random_span(rng):
    """An ``(offset, width)`` inside one page, mostly at or across the
    boundary between two chunks, sometimes the whole page."""
    roll = rng.random()
    if roll < 0.05:
        return 0, PAGE_SIZE
    if roll < 0.7:
        boundary = CHUNK * rng.randrange(1, PAGE_SIZE // CHUNK)
        offset = boundary + rng.randrange(-6, 7)
        width = rng.randrange(1, 17)
    else:
        offset = rng.randrange(PAGE_SIZE)
        width = rng.randrange(1, 3 * CHUNK)
    offset = min(offset, PAGE_SIZE - 1)
    return offset, min(width, PAGE_SIZE - offset)


class TestChunkedFrames:
    """Frames store their page in chunks; checked against :class:`FlatFrame`."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_operations_match_a_flat_page(self, table, seed):
        rng = random.Random(seed)
        pairs = [(table.allocate(origin=PARENT), FlatFrame())]
        for _ in range(400):
            frame, flat = rng.choice(pairs)
            op = rng.choice(
                ("bytes", "bytes", "cap", "value", "load_cap", "clone", "scan", "page")
            )
            if op == "bytes":
                offset, width = random_span(rng)
                payload = rng.randbytes(width) if rng.random() < 0.7 else bytes(width)
                frame.store_bytes(offset, payload)
                flat.store_bytes(offset, payload)
            elif op == "page":
                payload = rng.randbytes(PAGE_SIZE)
                frame.store_bytes(0, payload)
                flat.store_bytes(0, payload)
            elif op == "cap":
                granule = rng.randrange(GRANULES_PER_PAGE)
                if rng.random() < 0.5:
                    # The first or the last granule of a chunk.
                    per_chunk = CHUNK // GRANULE
                    granule += rng.choice((0, per_chunk - 1)) - granule % per_chunk
                cap = random_capability(rng, PARENT, CHILD)
                table.store_capability(frame, granule, cap)
                flat.store_capability(granule, cap)
            elif op == "value":
                offset, width = random_span(rng)
                want = int.from_bytes(flat.page[offset : offset + width], "little")
                assert frame.load_value(offset, width) == want
            elif op == "load_cap":
                granule = rng.randrange(GRANULES_PER_PAGE)
                assert table.load_capability(frame, granule) == flat.load_capability(granule)
            elif op == "clone":
                copy = table.clone(frame.frame_id)
                pairs.append((copy, FlatFrame(flat.page, flat.caps)))
            else:
                assert table.scan_and_relocate(frame, PARENT, CHILD) == flat.relocate(
                    PARENT, CHILD
                )
            for frame, flat in pairs:
                assert frame.data == flat.page
                assert frame.entries() == flat.caps
                assert frame.tags == [
                    g in flat.caps and flat.caps[g].tag for g in range(GRANULES_PER_PAGE)
                ]
                assert all(
                    type(chunk) is bytearray and len(chunk) == CHUNK
                    for chunk in frame.chunks.values()
                )
        assert len(pairs) > 10

    def test_a_write_reaches_no_other_frame(self, table):
        untouched = table.allocate()
        clone = table.clone(untouched.frame_id)
        written, fresh = table.allocate(), table.allocate()
        written.store_bytes(CHUNK - 4, b"\xff" * 8)
        table.store_capability(written, 0, parent_cap(0))
        clone.store_bytes(0, b"\x01")
        assert written.load_value(CHUNK - 4, 8) == (1 << 64) - 1
        assert fresh.data == untouched.data == bytes(PAGE_SIZE)
        assert not fresh.chunks and not untouched.chunks
        assert clone.data == b"\x01" + bytes(PAGE_SIZE - 1)

    def test_a_clone_copies_only_written_chunks(self, table):
        frame = table.allocate()
        frame.store_bytes(3 * CHUNK + 8, b"\x07")
        copy = table.clone(frame.frame_id)
        assert list(copy.chunks) == [3]
        assert copy.chunks[3] == frame.chunks[3] and copy.chunks[3] is not frame.chunks[3]


def kept_bytes(build):
    """What ``build()`` leaves allocated, after a full collection."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = build()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, kept
    finally:
        tracemalloc.stop()


class TestFrameMemory:
    """A page costs what was written to it, not 4 KiB (a frame holding a
    whole page kept ~4.7 KiB per page)."""

    HEAP = 4096

    def create(self):
        sim = System()
        return sim, sim.create_initial_process(LayoutSpec(heap_pages=self.HEAP))

    def test_a_fresh_process_keeps_under_1_5_kib_per_page(self):
        used, _ = kept_bytes(self.create)
        assert used / self.HEAP < 1536

    def test_one_store_per_heap_page_keeps_under_2_kib_per_page(self):
        def build():
            sim, proc = self.create()
            for page_va in proc.layout.heap.page_addresses():
                sim.poke_bytes(page_va + 8, page_va.to_bytes(8, "little"))
            return sim, proc

        used, (sim, proc) = kept_bytes(build)
        assert used / self.HEAP < 2048
        last = proc.layout.heap.end - PAGE_SIZE
        assert sim.peek_bytes(last, 16) == bytes(8) + last.to_bytes(8, "little")
