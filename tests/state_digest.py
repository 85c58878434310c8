"""A canonical digest of a simulator's state, the oracle of the state tests.

:func:`state_digest` hashes what the simulator means, not how it stores
it: the expanded page table, the frames, the reservations, the PID-table
slot holders and the copy events.  Two systems whose page tables hold a
mapping in different forms (a frame id or an entry) digest the same.
"""

import hashlib

from sasfork.capability import PAGE_SIZE


def _region(region):
    return None if region is None else (region.base, region.size)


def state_parts(system):
    """The digested state, as plain values in a fixed order."""
    space = system.address_space
    entries = [
        (va, entry.frame_id, entry.state.value, entry.writable)
        for va, entry in sorted(space.entries().items())
    ]
    frames = [
        (
            frame_id,
            sorted(frame.pages),
            _region(frame.origin),
            bytes(frame.read(0, PAGE_SIZE)),
            [(granule, tuple(cap)) for granule, cap in frame.tagged_caps()],
        )
        for frame_id, frame in sorted(system.frames.by_id.items())
    ]
    reservations = [(row.base, row.pid) for row in space._rows], space._next_base
    holders = [
        (pid, slot, system.processes[pid].exit_code, system.processes[pid].exit_seq)
        for pid, slot in sorted(system._pid_slots.items())
    ]
    events = [
        (e.pid, e.page_va, e.cause.value, e.scanned, e.relocations)
        for e in system.fork_engine.events
    ]
    return entries, frames, reservations, (holders, system._next_pid), events


def state_digest(system):
    """A sha256 over :func:`state_parts`."""
    return hashlib.sha256(repr(state_parts(system)).encode()).hexdigest()


def entry_pages(space):
    """The pages whose row element is a :class:`PageTableEntry`, not a frame id."""
    return {
        row.base + index * PAGE_SIZE
        for row in space._rows
        if row.pages is not None
        for index, element in enumerate(row.pages)
        if element is not None and type(element) is not int
    }


def materialise(system):
    """Turn every frame-id element into its entry; returns how many there were."""
    space = system.address_space
    pages = space.entries().keys() - entry_pages(space)
    for va in pages:
        space.entry_at(va)
    assert entry_pages(space) == space.entries().keys()
    return len(pages)
