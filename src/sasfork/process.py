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
of the kernel PID table (:attr:`System.unreaped_pids`); its record stays
in ``System.processes`` after reap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

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
    """Sub-region sizes in pages; the sum is the region size."""

    code_pages: int = 2
    got_pages: int = 1
    alloc_meta_pages: int = 1
    heap_pages: int = 4
    stack_pages: int = 2
    tls_pages: int = 0

    def __post_init__(self) -> None:
        sizes = (
            self.code_pages,
            self.got_pages,
            self.alloc_meta_pages,
            self.heap_pages,
            self.stack_pages,
            self.tls_pages,
        )
        if any(n < 0 for n in sizes):
            raise ValueError("page counts must be non-negative")
        if min(self.code_pages, self.got_pages, self.alloc_meta_pages) < 1:
            raise ValueError("code, got and alloc_meta need at least one page")
        if self.heap_pages < 1 or self.stack_pages < 1:
            raise ValueError("heap and stack need at least one page")

    @property
    def total_pages(self) -> int:
        return (
            self.code_pages
            + self.got_pages
            + self.alloc_meta_pages
            + self.heap_pages
            + self.stack_pages
            + self.tls_pages
        )

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
        pieces = {}
        for name, pages in (
            ("code_ro", self.code_pages),
            ("got", self.got_pages),
            ("alloc_meta", self.alloc_meta_pages),
            ("heap", self.heap_pages),
            ("stack", self.stack_pages),
            ("tls", self.tls_pages),
        ):
            pieces[name] = Region(base, pages * PAGE_SIZE)
            base += pages * PAGE_SIZE
        return Layout(region=region, **pieces)


@dataclass(frozen=True)
class Layout:
    """The carved sub-regions of one process region."""

    region: Region
    code_ro: Region
    got: Region
    alloc_meta: Region
    heap: Region
    stack: Region
    tls: Region

    def subregions(self) -> dict[str, Region]:
        return {
            "code_ro": self.code_ro,
            "got": self.got,
            "alloc_meta": self.alloc_meta,
            "heap": self.heap,
            "stack": self.stack,
            "tls": self.tls,
        }

    def page_writable(self, page_va: int) -> bool:
        # Code pages are mapped read-only; everything else is data.
        return not self.code_ro.contains(page_va)

    def rebased(self, region: Region) -> "Layout":
        """The same layout carved at a different (equal-sized) region."""
        spec = LayoutSpec(
            code_pages=self.code_ro.page_count,
            got_pages=self.got.page_count,
            alloc_meta_pages=self.alloc_meta.page_count,
            heap_pages=self.heap.page_count,
            stack_pages=self.stack.page_count,
            tls_pages=self.tls.page_count,
        )
        return spec.carve(region)


@dataclass
class MicroProcess:
    pid: int
    region: Region
    layout: Layout
    registers: dict[str, RegisterValue]
    entry_caps: dict[str, Capability] = field(default_factory=dict)
    fd_table: dict[int, int] = field(default_factory=dict)
    symbols: dict[str, Capability] = field(default_factory=dict)
    loaded_ref: Capability | None = None
    parent_pid: int | None = None
    exit_code: int | None = None
    exit_seq: int | None = None

    @property
    def running(self) -> bool:
        return self.exit_seq is None

    def register_caps(self) -> Iterator[tuple[str, Capability]]:
        """Every capability reachable from register state, with a location label."""
        for name, value in self.registers.items():
            if isinstance(value, Capability):
                yield f"register:{name}", value
        for name, cap in self.entry_caps.items():
            yield f"entry:{name}", cap
        for name, cap in self.symbols.items():
            yield f"symbol:{name}", cap
        if self.loaded_ref is not None:
            yield "register:loaded_ref", self.loaded_ref

    def next_fd(self) -> int:
        fd = FIRST_FD
        while fd in self.fd_table:
            fd += 1
        return fd


@dataclass
class FileObject:
    """An open file: a byte buffer with a shared read offset.

    ``refcount`` counts fd-table slots across all processes referencing
    the object; the object itself survives refcount 0 (a named file with
    no open descriptors still exists).
    """

    id: int
    name: str
    data: bytearray = field(default_factory=bytearray)
    read_pos: int = 0
    refcount: int = 0

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
        self._objects[object_id].refcount += 1
        return fd

    def object_for_fd(self, proc: MicroProcess, fd: int) -> FileObject:
        try:
            return self._objects[proc.fd_table[fd]]
        except KeyError:
            raise BadFd(f"pid {proc.pid} has no fd {fd}") from None

    def dup_fd_table(self, src: MicroProcess) -> dict[int, int]:
        """POSIX fork semantics: same objects, bumped refcounts."""
        for object_id in src.fd_table.values():
            self._objects[object_id].refcount += 1
        return dict(src.fd_table)

    def close_fd(self, proc: MicroProcess, fd: int) -> None:
        object_id = proc.fd_table.pop(fd, None)
        if object_id is None:
            raise BadFd(f"pid {proc.pid} has no fd {fd}")
        self._objects[object_id].refcount -= 1

    def drop_table(self, proc: MicroProcess) -> None:
        """Release every descriptor a process still holds (at reap)."""
        for fd in list(proc.fd_table):
            self.close_fd(proc, fd)

    def refcount(self, object_id: int) -> int:
        return self._objects[object_id].refcount
