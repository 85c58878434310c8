"""A canonical digest of a simulator's state, the oracle of the state tests.

:func:`state_digest` hashes what the simulator means, not how it stores
it: the expanded page table, the frames (each with the pages the table
maps to it and its refcount), the reservations, the PID-table slot
holders, the file table and the copy events.
"""

import hashlib

from sasfork.capability import PAGE_SIZE


def _region(region):
    return None if region is None else (region.base, region.size)


def pages_by_frame(space):
    """The pages that map each mapped frame, in address order, read from the
    expanded page table."""
    pages = {}
    for va, entry in space.entries().items():
        pages.setdefault(entry.frame_id, []).append(va)
    return pages


def state_parts(system):
    """The digested state, as plain values in a fixed order."""
    space = system.address_space
    entries = [
        (va, entry.frame_id, entry.state.value, entry.writable)
        for va, entry in sorted(space.entries().items())
    ]
    pages = pages_by_frame(space)
    frames = [
        (
            frame_id,
            pages.get(frame_id, []),
            frame.mapcount,
            _region(frame.origin),
            bytes(frame.read(0, PAGE_SIZE)),
            [(granule, tuple(cap)) for granule, cap in frame.entries().items()],
        )
        for frame_id, frame in sorted(system.frames.by_id.items())
    ]
    reservations = [(row.base, row.pid) for row in space._rows], space._next_base
    holders = [
        (
            pid,
            slot,
            system.processes[pid].exit_code,
            system.processes[pid].exit_seq,
            sorted(system.processes[pid].fd_table.items()),
        )
        for pid, slot in sorted(system._pid_slots.items())
    ]
    files = [
        (obj.id, obj.name, bytes(obj.data), obj.read_pos)
        for _, obj in sorted(system.files._objects.items())
    ]
    events = [
        (e.pid, e.page_va, e.cause.value, e.scanned, e.relocations)
        for e in system.fork_engine.events
    ]
    return entries, frames, reservations, (holders, system._next_pid), files, events


def state_digest(system):
    """A sha256 over :func:`state_parts`."""
    return hashlib.sha256(repr(state_parts(system)).encode()).hexdigest()
