"""Capability model: derivation monotonicity, sealing, rebase rule."""

import random

import pytest

from sasfork.capability import (
    DATA_PERMS,
    PAGE_SIZE,
    Capability,
    Perm,
    Region,
    rebase_for_child,
)
from sasfork.errors import BoundsWiden, SealedMutation


def cap(base, length, cursor=None, perms=DATA_PERMS, tag=True):
    return Capability(
        base=base, length=length, cursor=base if cursor is None else cursor,
        perms=perms, tag=tag,
    )


PARENT = Region(0x1000_0000, 0x0400_0000)
CHILD = Region(0x5000_0000, 0x0400_0000)


def interval_intersection(lo1, hi1, lo2, hi2):
    """Independent oracle for the rebase clamp."""
    lo, hi = max(lo1, lo2), min(hi1, hi2)
    return (lo, hi) if hi >= lo else None


class TestDerive:
    def test_narrowing_is_always_legal(self):
        src = cap(0x1000, 0x1000)
        out = src.derive(0x1200, 0x100)
        assert (out.base, out.length, out.cursor) == (0x1200, 0x100, 0x1200)
        assert out.perms == src.perms
        assert out.tag

    def test_widening_is_forbidden(self):
        src = cap(0x1000, 0x100)
        with pytest.raises(BoundsWiden):
            src.derive(0x0F00, 0x400)

    def test_permission_gain_is_forbidden(self):
        src = cap(0x1000, 0x100, perms=Perm.LOAD)
        with pytest.raises(BoundsWiden):
            src.derive(0x1000, 0x100, perms=Perm.LOAD | Perm.STORE)
        with pytest.raises(BoundsWiden):
            src.derive(0x1000, 0x100, perms=Perm.LOAD | Perm.SYSTEM)

    def test_permissive_mode_clears_tag_instead(self):
        src = cap(0x1000, 0x100)
        out = src.derive(0x0F00, 0x400, permissive=True)
        assert not out.tag

    def test_sealed_source_is_an_error(self):
        sealed = cap(0x1000, 0x100).seal(7)
        with pytest.raises(SealedMutation):
            sealed.derive(0x1000, 0x10)

    def test_untagged_source_gives_untagged_result(self):
        src = cap(0x1000, 0x100, tag=False)
        assert not src.derive(0x1000, 0x10).tag


class TestCursor:
    def test_cursor_moves_freely(self):
        src = cap(0x1000, 0x100)
        assert src.with_cursor(0x1040).cursor == 0x1040

    def test_out_of_bounds_cursor_is_representable(self):
        out = cap(0x1000, 0x100).with_cursor(0x2000)
        assert out.cursor == 0x2000
        assert out.tag  # the fault happens at dereference, not here

    def test_sealed_cursor_move_is_an_error(self):
        sealed = cap(0x1000, 0x100).seal(3)
        with pytest.raises(SealedMutation):
            sealed.with_cursor(0x1000)


class TestSeal:
    def test_seal_marks_and_double_seal_fails(self):
        sealed = cap(0x1000, 0x100).seal(7)
        assert sealed.sealed and sealed.otype == 7
        with pytest.raises(SealedMutation):
            sealed.seal(8)

    def test_sealed_capability_is_bit_stable(self):
        sealed = cap(0x1000, 0x100).seal(7)
        again = cap(0x1000, 0x100).seal(7)
        assert sealed == again


class TestRebase:
    def test_offset_preserving_translation(self):
        src = cap(0x1000_2000, 0x100, cursor=0x1000_2040)
        out = rebase_for_child(src, PARENT, CHILD)
        assert (out.base, out.length, out.cursor) == (0x5000_2000, 0x100, 0x5000_2040)
        assert out.tag

    def test_rebase_preserves_intra_region_offsets(self):
        rng = random.Random(7)
        for _ in range(200):
            offset = rng.randrange(0, PARENT.size - 0x100, 8)
            src = cap(PARENT.base + offset, 0x100, cursor=PARENT.base + offset + 8)
            out = rebase_for_child(src, PARENT, CHILD)
            assert out.cursor - CHILD.base == src.cursor - PARENT.base

    def test_spanning_cap_is_clamped_to_child(self):
        # Oracle: shift then intersect with the child interval.
        src = cap(PARENT.end - 0x1000, 0x3000, cursor=PARENT.end - 0x800)
        delta = CHILD.base - PARENT.base
        expected = interval_intersection(
            src.base + delta, src.top + delta, CHILD.base, CHILD.end
        )
        assert expected == (0x53FF_F000, 0x5400_0000)  # frozen from the oracle
        out = rebase_for_child(src, PARENT, CHILD)
        assert (out.base, out.top) == expected
        assert CHILD.contains_range(out.base, out.top)
        assert out.cursor == src.cursor + delta

    def test_neither_region_clears_tag(self):
        src = cap(0x9000_0000, 0x100)
        out = rebase_for_child(src, PARENT, CHILD)
        assert not out.tag
        assert (out.base, out.length, out.cursor) == (src.base, src.length, src.cursor)

    def test_idempotent_on_child_region(self):
        src = cap(0x1000_2000, 0x100, cursor=0x1000_2040)
        once = rebase_for_child(src, PARENT, CHILD)
        twice = rebase_for_child(once, PARENT, CHILD)
        assert once == twice

    def test_sealed_cap_needing_relocation_is_invalidated(self):
        sealed = cap(PARENT.base, 0x100).seal(9)
        out = rebase_for_child(sealed, PARENT, CHILD)
        assert not out.tag

    def test_mismatched_region_sizes_are_rejected(self):
        with pytest.raises(ValueError):
            rebase_for_child(cap(0x1000, 8), PARENT, Region(0x5000_0000, PAGE_SIZE))


class TestMonotonicityChains:
    def test_random_chains_never_escape_the_root(self):
        rng = random.Random(1234)
        for _ in range(500):
            root = cap(0x4_0000, 0x4000)
            current = root
            for _ in range(rng.randrange(1, 8)):
                if current.sealed:
                    break
                action = rng.randrange(3)
                if action == 0:
                    lo = rng.randrange(current.base, current.top + 1)
                    hi = rng.randrange(lo, current.top + 1)
                    current = current.derive(lo, hi - lo)
                elif action == 1:
                    current = current.with_cursor(rng.randrange(0, 0x10_0000))
                else:
                    widened_base = rng.randrange(0, 0x8_0000)
                    widened_len = rng.randrange(0, 0x8000)
                    try:
                        current = current.derive(widened_base, widened_len)
                    except BoundsWiden:
                        continue
            if current.tag:
                assert current.base >= root.base and current.top <= root.top
                assert not (current.perms & ~root.perms)


class TestValueSemantics:
    """A capability is an immutable value, whatever its representation."""

    @pytest.mark.parametrize("field", ["base", "length", "cursor", "perms", "otype", "tag"])
    def test_assigning_to_a_field_is_an_error(self, field):
        value = cap(0x1000, 0x100)
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))

    def test_positional_and_keyword_construction_agree_with_defaults(self):
        positional = Capability(0x1000, 0x100, 0x1040, DATA_PERMS)
        keyword = Capability(base=0x1000, length=0x100, cursor=0x1040, perms=DATA_PERMS)
        assert positional == keyword
        assert positional.otype is None and positional.tag is True
        full = Capability(0x1000, 0x100, 0x1040, DATA_PERMS, 5, False)
        assert (full.otype, full.tag) == (5, False)

    def test_equal_capabilities_hash_equal_and_find_each_other_as_keys(self):
        one = cap(0x1000, 0x100, cursor=0x1010).seal(4)
        two = Capability(0x1000, 0x100, 0x1010, DATA_PERMS, 4, True)
        assert one is not two and one == two and hash(one) == hash(two)
        targets = {one: "entry"}
        assert targets[two] == "entry" and two in targets
        assert cap(0x1000, 0x100, cursor=0x1010) not in targets
        assert cap(0x1000, 0x100, tag=False) != cap(0x1000, 0x100)

    def test_str_is_stable(self):
        assert str(cap(0x1000, 0x100, cursor=0x1040)) == (
            "cap[0x1000,+0x100]@0x1040 LOAD+LOAD_CAP+STORE+STORE_CAP"
        )
        assert str(cap(0x1000, 0x10, perms=Perm.LOAD, tag=False)) == (
            "cap[0x1000,+0x10]@0x1000 LOAD untagged"
        )
        assert str(cap(0x2000, 0x20, perms=Perm.LOAD | Perm.EXEC).seal(7)) == (
            "cap[0x2000,+0x20]@0x2000 EXEC+LOAD sealed:7"
        )
