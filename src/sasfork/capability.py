"""Tagged, bounded memory references and the regions they address.

A :class:`Capability` is the only way to name memory in the simulator.
It is a pure value: base/length bounds, a cursor (the address
dereferenced unless an access names another), a permission set, an
optional seal, and a one-bit validity tag.  It is an immutable named
tuple of those six fields, which makes one cheap to build: the
relocation scan builds one for nearly every capability it touches.  An
access builds none: it names its address beside the capability, as a
CHERI load names an offset.  Its hash is the hash of the tuple of its
fields, so dict and set order depend on the values alone.  Being a
tuple, a ``Capability`` compares equal to a plain tuple of its fields.
The rules are deliberately hardware-like:

* **Monotonicity.**  Derivation can shrink bounds and drop permissions
  but never the reverse; widening is a hard :class:`~sasfork.errors.BoundsWiden`
  error.
* **Out-of-bounds cursors are representable.**  The cursor may be moved
  anywhere; bounds are enforced at dereference time, so one-past-the-end
  iteration idioms do not fault spuriously.
* **Seals freeze a capability.**  A sealed capability cannot be moved,
  re-bounded, re-sealed, or dereferenced; mutation attempts either raise
  :class:`~sasfork.errors.SealedMutation` or come back tag-cleared.

:func:`rebase_for_child` is the parent-to-child relocation rule used at
fork time: a capability pointing into the parent's region is translated
offset-for-offset into the child's region and clamped to it; one that
points into neither region is conservatively invalidated.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import BoundsWiden, SealedMutation

PAGE_SIZE = 4096
GRANULE = 16
GRANULES_PER_PAGE = PAGE_SIZE // GRANULE

#: Reservations are bump-allocated from a 40-bit simulated space.
VIRTUAL_SPACE_LIMIT = 1 << 40

_tuple_new = tuple.__new__


class Perm(enum.Flag):
    """Access permissions carried by a capability."""

    LOAD = enum.auto()
    STORE = enum.auto()
    EXEC = enum.auto()
    LOAD_CAP = enum.auto()
    STORE_CAP = enum.auto()
    SYSTEM = enum.auto()

    def names(self) -> str:
        """Stable, sorted rendering used by reports and traces."""
        members = [m.name for m in Perm if m in self and m.name]
        return "+".join(sorted(members)) if members else "none"


#: Everything a data reference needs: plain and capability load/store.
DATA_PERMS = Perm.LOAD | Perm.STORE | Perm.LOAD_CAP | Perm.STORE_CAP
#: What instruction-fetch references carry.
CODE_PERMS = Perm.LOAD | Perm.EXEC
#: Read-only view including capability loads (e.g. the GOT).
RO_CAP_PERMS = Perm.LOAD | Perm.LOAD_CAP


@dataclass(frozen=True)
class Region:
    """A page-aligned, contiguous slice of the single address space."""

    base: int
    size: int

    def __post_init__(self) -> None:
        if self.base % PAGE_SIZE or self.size % PAGE_SIZE:
            raise ValueError(
                f"region base/size must be page-aligned, got {self.base:#x}+{self.size:#x}"
            )
        if self.base < 0 or self.size < 0:
            raise ValueError("region base/size must be non-negative")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def contains_range(self, lo: int, hi: int) -> bool:
        """True if [lo, hi) lies inside the region (empty ranges count)."""
        return self.base <= lo and hi <= self.end and lo <= hi

    def overlaps_range(self, lo: int, hi: int) -> bool:
        return lo < self.end and self.base < hi

    def page_addresses(self) -> Iterator[int]:
        return iter(range(self.base, self.end, PAGE_SIZE))

    @property
    def page_count(self) -> int:
        return self.size // PAGE_SIZE

    def __str__(self) -> str:
        return f"[{self.base:#x}, {self.end:#x})"


class Capability(NamedTuple):
    """A tagged, bounded memory reference.

    ``base``/``length`` delimit what the capability may touch, ``cursor``
    is where the next dereference lands, ``otype`` is the seal (``None``
    when unsealed) and ``tag`` is the validity bit.  Instances are
    immutable; operations return new values.
    """

    base: int
    length: int
    cursor: int
    perms: Perm
    otype: int | None = None
    tag: bool = True

    @property
    def top(self) -> int:
        return self.base + self.length

    @property
    def sealed(self) -> bool:
        return self.otype is not None

    def in_bounds(self, addr: int, width: int = 1) -> bool:
        return self.base <= addr and addr + width <= self.top

    def untagged(self) -> "Capability":
        return Capability(self.base, self.length, self.cursor, self.perms, self.otype, False)

    def derive(self, new_base: int, new_length: int, perms: Perm | None = None) -> "Capability":
        """Return a narrowed capability.

        Bounds must stay inside the source and permissions may only be
        dropped; a widening attempt raises :class:`BoundsWiden`.  The
        cursor of the result sits at ``new_base``.  Deriving from an
        untagged source yields an untagged result.
        """
        if self.sealed:
            raise SealedMutation("cannot derive from a sealed capability")
        if new_length < 0:
            raise ValueError("negative length")
        if perms is None:
            perms = self.perms
        if new_base < self.base or new_base + new_length > self.top or perms & ~self.perms:
            raise BoundsWiden(
                f"derive [{new_base:#x},+{new_length:#x}) perms={perms.names()} "
                f"exceeds [{self.base:#x},+{self.length:#x}) perms={self.perms.names()}"
            )
        return Capability(new_base, new_length, new_base, perms, self.otype, self.tag)

    def with_cursor(self, addr: int) -> "Capability":
        """Move the cursor; anywhere is representable, bounds checked on use."""
        base, length, _, perms, otype, tag = self
        if otype is not None:
            raise SealedMutation("cannot move the cursor of a sealed capability")
        # Skip the named tuple's keyword-handling constructor.
        return _tuple_new(Capability, (base, length, addr, perms, otype, tag))

    def seal(self, otype: int) -> "Capability":
        """Return a sealed (immutable, non-dereferenceable) copy."""
        if self.sealed:
            raise SealedMutation("capability is already sealed")
        if otype < 0:
            raise ValueError("otype must be non-negative")
        return Capability(self.base, self.length, self.cursor, self.perms, otype, self.tag)

    def __str__(self) -> str:
        seal = f" sealed:{self.otype}" if self.sealed else ""
        tag = "" if self.tag else " untagged"
        return (
            f"cap[{self.base:#x},+{self.length:#x}]@{self.cursor:#x} "
            f"{self.perms.names()}{seal}{tag}"
        )


def rebase_for_child(cap: Capability, parent: Region, child: Region) -> Capability:
    """Translate a capability from the parent's region into the child's.

    The regions must be the same size.  Behavior:

    * untagged input: returned unchanged (nothing to relocate);
    * bounds already inside the child: returned unchanged (idempotent);
    * bounds or cursor touch the parent: base and cursor shift by
      ``child.base - parent.base``, bounds are clamped to the child;
    * anything else (neither region, or a sealed capability that would
      have to move, or a clamp that leaves no range): returned with the
      tag cleared.  Degenerate inputs never raise.
    """
    if parent.size != child.size:
        raise ValueError("parent and child regions must be the same size")
    if not cap.tag:
        return cap
    if child.contains_range(cap.base, cap.top):
        return cap
    touches_parent = parent.overlaps_range(cap.base, cap.top) or parent.contains(
        cap.cursor
    )
    if not touches_parent:
        return cap.untagged()
    if cap.sealed:
        # A seal freezes bounds and cursor; relocation would mutate them.
        return cap.untagged()
    delta = child.base - parent.base
    new_base = max(cap.base + delta, child.base)
    new_top = min(cap.top + delta, child.end)
    if new_top < new_base:
        return cap.untagged()
    return Capability(
        new_base, new_top - new_base, cap.cursor + delta, cap.perms, cap.otype, cap.tag
    )
