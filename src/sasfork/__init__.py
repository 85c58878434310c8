"""sasfork: a deterministic single-address-space fork simulator.

POSIX fork is emulated inside one shared virtual address space: a child
process is a copy of its parent's contiguous memory region at a new base
address.  Per-granule validity tags identify the absolute memory
references in the copied pages so they can be rebased into the child's
region, bounded capabilities confine each process to its own region, and
a sealed-capability gateway is the only path into the kernel.

The interesting knobs are the copy strategy (full copy, copy-on-access,
copy-on-pointer-access, and a deliberately unsafe copy-on-write used to
demonstrate stale references) and the isolation level (none / fault /
full with TOCTTOU buffer copies).  Strategies change cost, never
observable behavior, and the metrics module makes that testable.
"""

from .address_space import (
    AccessKind,
    AddressSpace,
    Fault,
    FaultError,
    FaultKind,
    PageState,
    PageTableEntry,
)
from .capability import (
    DATA_PERMS,
    GRANULE,
    GRANULES_PER_PAGE,
    PAGE_SIZE,
    Capability,
    Perm,
    Region,
    rebase_for_child,
)
from .fork_engine import CopyCause, CopyEvent, ForkEngine, ForkStrategy
from .kernel import (
    AuditReport,
    AuditViolation,
    IsolationLevel,
    KernelGateway,
    ProbeOutcome,
)
from .metrics import Metrics, MetricsReport, compare
from .process import (
    FileObject,
    FileTable,
    Layout,
    LayoutSpec,
    MicroProcess,
)
from .system import System
from .tagged_memory import FrameTable, TaggedFrame
from .workload import RunResult, Script, Trace, generate, parse, print_script, run

__all__ = [
    "AccessKind",
    "AddressSpace",
    "AuditReport",
    "AuditViolation",
    "Capability",
    "CopyCause",
    "CopyEvent",
    "DATA_PERMS",
    "Fault",
    "FaultError",
    "FaultKind",
    "FileObject",
    "FileTable",
    "ForkEngine",
    "ForkStrategy",
    "FrameTable",
    "GRANULE",
    "GRANULES_PER_PAGE",
    "IsolationLevel",
    "KernelGateway",
    "Layout",
    "LayoutSpec",
    "Metrics",
    "MetricsReport",
    "MicroProcess",
    "PAGE_SIZE",
    "PageState",
    "PageTableEntry",
    "Perm",
    "ProbeOutcome",
    "Region",
    "RunResult",
    "Script",
    "System",
    "TaggedFrame",
    "Trace",
    "compare",
    "generate",
    "parse",
    "print_script",
    "rebase_for_child",
    "run",
]
