"""Process state: identity, region layout, registers, file descriptors.

A :class:`MicroProcess` is an emulated POSIX process occupying one
contiguous region of the shared address space.  Its layout carves the
region into fixed sub-regions (code, GOT, allocator metadata, heap,
stack, TLS); its register file holds plain integers and capabilities,
with the program-counter capability (``pcc``) and stack capability
(``sp``) always present.

The workload DSL names memory symbolically; those symbol bindings are
modeled as a spill area of the register file (``symbols`` plus the
implicit last-loaded reference).  They relocate at fork and are audited
exactly like architectural registers.

File descriptors follow POSIX duplication semantics: fork copies the
table, both tables reference the same open file objects, and closing in
one process never disturbs the other's slot.

A process runs until :meth:`ForkEngine.exit` gives it an exit record
(``exit_code`` and ``exit_seq``), and is unreaped while it holds a slot
of the kernel PID table (:attr:`System.unreaped_pids`); its record,
``region`` included, stays in ``System.processes`` after reap, while the
page table drops the region's row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Mapping, Union

from .capability import PAGE_SIZE, Capability, Region
from .errors import BadFd

#: Registers hold either a 64-bit integer or a capability; integer
#: values never carry tags.
RegisterValue = Union[int, Capability]

KERNEL_PID = 0

#: fd numbers 0..2 are reserved (stdio is not modeled); open() hands out
#: the lowest free number from here.
FIRST_FD = 3


@dataclass(frozen=True)
class LayoutSpec:
    """Sub-region sizes in pages, in region order; the sum is the region size.

    Field ``i`` sizes field ``i`` of :class:`Layout`.
    """

    code_pages: int = 2
    got_pages: int = 1
    alloc_meta_pages: int = 1
    heap_pages: int = 4
    stack_pages: int = 2
    tls_pages: int = 0

    def __post_init__(self) -> None:
        if any(n < 0 for n in _page_counts(self)):
            raise ValueError("page counts must be non-negative")
        if min(self.code_pages, self.got_pages, self.alloc_meta_pages) < 1:
            raise ValueError("code, got and alloc_meta need at least one page")
        if self.heap_pages < 1 or self.stack_pages < 1:
            raise ValueError("heap and stack need at least one page")

    @property
    def total_pages(self) -> int:
        return sum(_page_counts(self))

    @property
    def total_bytes(self) -> int:
        return self.total_pages * PAGE_SIZE

    def carve(self, region: Region) -> "Layout":
        """Slice a reserved region into the sub-regions, in fixed order."""
        if region.size != self.total_bytes:
            raise ValueError(
                f"region holds {region.page_count} pages, layout needs {self.total_pages}"
            )
        base = region.base
        pieces = []
        for pages in _page_counts(self):
            pieces.append(Region(base, pages * PAGE_SIZE))
            base += pages * PAGE_SIZE
        return Layout(*pieces)


@dataclass(frozen=True)
class Layout:
    """The carved sub-regions of one process region, in region order."""

    code_ro: Region
    got: Region
    alloc_meta: Region
    heap: Region
    stack: Region
    tls: Region

    def subregions(self) -> dict[str, Region]:
        return dict(zip(_SUBREGION_NAMES, _subregions(self)))

    def rebased(self, region: Region) -> "Layout":
        """The same layout moved to a different (equal-sized) region."""
        shift = region.base - self.code_ro.base
        return Layout(*(Region(sub.base + shift, sub.size) for sub in _subregions(self)))


#: Each reads the fields of its class as one plain tuple, in field order.
_page_counts = attrgetter(*(f.name for f in fields(LayoutSpec)))
_SUBREGION_NAMES = tuple(f.name for f in fields(Layout))
_subregions = attrgetter(*_SUBREGION_NAMES)


@dataclass
class MicroProcess:
    pid: int
    region: Region
    layout: Layout
    registers: dict[str, RegisterValue]
    # The gateway's one read-only sealed-entry map, shared by every process.
    entry_caps: Mapping[str, Capability]
    fd_table: dict[int, int] = field(default_factory=dict)
    symbols: dict[str, Capability] = field(default_factory=dict)
    loaded_ref: Capability | None = None
    parent_pid: int | None = None
    exit_code: int | None = None
    exit_seq: int | None = None

    @property
    def running(self) -> bool:
        return self.exit_seq is None

    def next_fd(self) -> int:
        fd = FIRST_FD
        while fd in self.fd_table:
            fd += 1
        return fd


@dataclass
class FileObject:
    """An open file: a byte buffer with a shared read offset.

    The object outlives its descriptors: a named file with none open
    still exists.
    """

    id: int
    name: str
    data: bytearray = field(default_factory=bytearray)
    read_pos: int = 0

    def write(self, payload: bytes) -> int:
        self.data += payload
        return len(payload)

    def read(self, count: int) -> bytes:
        out = bytes(self.data[self.read_pos : self.read_pos + count])
        self.read_pos += len(out)
        return out


class FileTable:
    """Kernel-side registry of file objects and fd-table operations."""

    def __init__(self) -> None:
        self._objects: dict[int, FileObject] = {}
        self._by_name: dict[str, int] = {}
        self._next_id = 1

    def open(self, proc: MicroProcess, name: str) -> int:
        """Open (creating if needed) a named memory file; returns the fd."""
        object_id = self._by_name.get(name)
        if object_id is None:
            object_id = self._next_id
            self._next_id += 1
            self._objects[object_id] = FileObject(id=object_id, name=name)
            self._by_name[name] = object_id
        fd = proc.next_fd()
        proc.fd_table[fd] = object_id
        return fd

    def object_for_fd(self, proc: MicroProcess, fd: int) -> FileObject:
        try:
            return self._objects[proc.fd_table[fd]]
        except KeyError:
            raise BadFd(f"pid {proc.pid} has no fd {fd}") from None

    def dup_fd_table(self, src: MicroProcess) -> dict[int, int]:
        """POSIX fork semantics: the child's descriptors name the same objects."""
        return dict(src.fd_table)

    def close_fd(self, proc: MicroProcess, fd: int) -> None:
        if proc.fd_table.pop(fd, None) is None:
            raise BadFd(f"pid {proc.pid} has no fd {fd}")

    def drop_table(self, proc: MicroProcess) -> None:
        """Release every descriptor a process still holds (at reap)."""
        proc.fd_table.clear()
