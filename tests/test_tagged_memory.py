"""Frame store: tag discipline and the relocation scan."""

import random

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
from sasfork.errors import OutOfFrame
from sasfork.tagged_memory import FrameTable
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


class TestRefcounts:
    def test_map_unmap_cycle(self, table):
        frame = table.allocate()
        table.attach(frame.frame_id, 0x1000)
        table.attach(frame.frame_id, 0x2000)
        assert table.refcount(frame.frame_id) == 2
        assert table.detach(frame.frame_id, 0x1000).pages == {0x2000}
        assert table.exists(frame.frame_id)
        assert not table.detach(frame.frame_id, 0x2000).pages
        assert not table.exists(frame.frame_id)
        assert table.refcount(frame.frame_id) == 0

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
        assert len(frame.caps) == 1
        assert table.load_capability(frame, 0) == parent_cap(16 * (9_999 % 64))

    def test_pointer_bytes_depend_only_on_the_value(self, table):
        first, second = table.allocate(), table.allocate()
        stored = parent_cap(0x40)
        table.store_capability(first, 2, stored)
        table.store_capability(first, 3, parent_cap(0x80))
        table.store_capability(second, 2, stored)
        assert first.data[32:48] == second.data[32:48]
        assert first.load_value(40, 8) == 0

    def test_clone_caps_are_independent_of_the_source(self, table):
        frame = table.allocate(origin=PARENT)
        table.store_capability(frame, 7, parent_cap(0))
        table.store_capability(frame, 8, parent_cap(16))
        copy = table.clone(frame.frame_id)
        table.store_capability(copy, 7, parent_cap(32))
        copy.store_bytes(8 * GRANULE, b"\xff")
        table.store_capability(copy, 9, parent_cap(48))
        assert frame.caps == {7: parent_cap(0), 8: parent_cap(16)}
        assert frame.tags[7] and frame.tags[8] and not frame.tags[9]

    def test_version_changes_exactly_when_caps_change(self, table):
        frame = table.allocate(origin=PARENT)
        seen = [frame.version]

        def changed():
            seen.append(frame.version)
            return seen[-1] != seen[-2]

        frame.store_bytes(0, b"\x01" * 64)
        assert not changed()  # no capability in the way
        table.store_capability(frame, 1, parent_cap(0))
        assert changed()
        table.scan_and_relocate(frame, PARENT, CHILD)
        assert changed()
        frame.store_bytes(GRANULE, frame.data[GRANULE : GRANULE + 8])
        assert changed()  # untagged in place
        frame.store_bytes(GRANULE + 4, b"\xff")
        assert changed()  # entry dropped
        assert frame.caps == {}
        frame.store_bytes(GRANULE, b"\x02")
        assert not changed()
        assert len(set(seen)) == 5

    def test_reaped_workers_leave_no_capability_entries_behind(self):
        def retained(forks):
            text = "alloc a 4096\nstore_ref a+0 a+16\n" + "fork nowait {\nexit 0\n}\n" * forks
            frames = run(text, "copa").system.frames.live_frames.values()
            return sum(len(frame.caps) for frame in frames), len(frames)

        few, few_frames = retained(8)
        many, many_frames = retained(800)
        assert many <= GRANULES_PER_PAGE * many_frames
        assert (many, many_frames) == (few, few_frames)
