"""Seeded workload generators for the sasfork benchmark.

Each generator returns the text of a workload script; the simulator only
ever receives that text.  The same seed gives the same text.  The seed
moves values and page placement only: page-copy, fork-cost and resident
set counts depend on the sizes alone, so the modelled metrics repeat
exactly across seeds and any change in them is a change of behaviour.

The generators live here rather than in ``sasfork.workload.generator`` so
that a change to the program cannot change the benchmark's inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

PAGE = 4096
GRANULE = 16
_INT_SLOTS = PAGE // 8
_OUTPUT_PAGES = 4
# Snapshot: one index entry per data page, 16 entries to an index page.
_REF_DENSITY = 1 / 16
# Churn: workers forked per round, capabilities per index page, and the
# index entries each worker dereferences and data pages it stores to.
_BATCH = 4
_CAPS_PER_INDEX = 8
_LOADS = 4
_STORES = 16


def snapshot_script(seed: int, pages: int) -> str:
    """The fork-for-snapshot pattern of ``sasfork gen`` with child_read_frac 1.

    The parent fills ``pages`` data pages and an index of capabilities
    into them, then forks; the child loads and dereferences every index
    entry, reads every data page and writes four output pages.
    """
    rng = random.Random(seed)
    index_pages = max(1, round(pages * _REF_DENSITY))
    lines = [
        f"layout heap={pages + index_pages + _OUTPUT_PAGES}",
        f"alloc data {pages * PAGE}",
    ]
    for page in range(pages):
        offset = page * PAGE + 8 * rng.randrange(_INT_SLOTS)
        lines.append(f"store_int data+{offset} {rng.randrange(1, 1 << 31)}")
    lines.append(f"alloc index {index_pages * PAGE}")
    targets = list(range(pages))
    rng.shuffle(targets)
    index_offsets = []
    for j, target in enumerate(targets):
        # Page-major spread, so every index page carries entries.
        offset = (j % index_pages) * PAGE + (j // index_pages) * GRANULE
        index_offsets.append(offset)
        target_offset = target * PAGE + 8 * rng.randrange(_INT_SLOTS)
        lines.append(f"store_ref index+{offset} data+{target_offset}")
    lines.append(f"alloc out {_OUTPUT_PAGES * PAGE}")
    lines.append("fork {")
    for offset in index_offsets:
        lines += [f"  load_ref index+{offset}", "  deref"]
    for page in range(pages):
        lines.append(f"  load_int data+{page * PAGE + 8 * rng.randrange(_INT_SLOTS)}")
    for page in range(_OUTPUT_PAGES):
        lines.append(f"  store_int out+{page * PAGE} {rng.randrange(1, 1 << 31)}")
    lines += ["  exit 0", "}"]
    for page in sorted(rng.sample(range(pages), min(2, pages))):
        lines.append(f"load_int data+{page * PAGE}")
    return "\n".join(lines) + "\n"


def churn_script(seed: int, data_pages: int, index_pages: int, workers: int) -> str:
    """A prefork server: batches of ``nowait`` workers that write.

    The parent fills the data pages and index pages of capabilities,
    then per round forks ``_BATCH`` workers, writes one shared data page
    and waits for all of them.  Each worker loads and dereferences
    ``_LOADS`` index entries, stores to ``_STORES`` data pages, stores one
    capability, writes 64 bytes to a file and exits.  Within a round the
    pages each worker and the parent touch are disjoint, so copy counts
    and resident sets do not depend on the seed.
    """
    per_worker = _STORES + 1
    assert workers % _BATCH == 0, "workers must be a multiple of the batch"
    assert _BATCH * per_worker < data_pages and _BATCH * _LOADS <= index_pages
    rng = random.Random(seed)
    lines = [
        f"layout heap={data_pages + index_pages}",
        f"alloc data {data_pages * PAGE}",
    ]
    for page in range(data_pages):
        offset = page * PAGE + 8 * rng.randrange(_INT_SLOTS)
        lines.append(f"store_int data+{offset} {rng.randrange(1, 1 << 31)}")
    lines.append(f"alloc index {index_pages * PAGE}")
    for page in range(index_pages):
        for slot in range(_CAPS_PER_INDEX):
            target = rng.randrange(data_pages) * PAGE + 8 * rng.randrange(_INT_SLOTS)
            lines.append(f"store_ref index+{page * PAGE + slot * GRANULE} data+{target}")
    for _ in range(workers // _BATCH):
        data = rng.sample(range(data_pages), _BATCH * per_worker + 1)
        index = rng.sample(range(index_pages), _BATCH * _LOADS)
        for w in range(_BATCH):
            lines.append("fork nowait {")
            for page in index[w * _LOADS : (w + 1) * _LOADS]:
                slot = rng.randrange(_CAPS_PER_INDEX)
                lines += [f"  load_ref index+{page * PAGE + slot * GRANULE}", "  deref"]
            mine = data[w * per_worker : (w + 1) * per_worker]
            for page in mine[:_STORES]:
                offset = page * PAGE + 8 * rng.randrange(_INT_SLOTS)
                lines.append(f"  store_int data+{offset} {rng.randrange(1, 1 << 31)}")
            dest = mine[_STORES] * PAGE + GRANULE * rng.randrange(PAGE // GRANULE)
            target = mine[0] * PAGE + 8 * rng.randrange(_INT_SLOTS)
            lines.append(f"  store_ref data+{dest} data+{target}")
            source = mine[0] * PAGE + 64 * rng.randrange(PAGE // 64)
            lines += ["  open log", f"  write log data+{source} 64", "  close log"]
            lines += ["  exit 0", "}"]
        offset = data[-1] * PAGE + 8 * rng.randrange(_INT_SLOTS)
        lines.append(f"store_int data+{offset} {rng.randrange(1, 1 << 31)}")
        lines += ["wait"] * _BATCH
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    strategy: str
    isolation: str
    # Run with the auditor and the invariant sweeps, as `sasfork run
    # --audit --debug` does.
    audit: bool
    script: Callable[[int], str]
    tiny_script: Callable[[int], str]


# Why each workload was chosen; BENCHMARK.json gives each a one-line summary.
WORKLOADS = {
    w.name: w
    for w in (
        # Fork-for-snapshot: almost every statement is a checked access, so
        # address_space, capability and the interpreter do most of the work;
        # copy/scan, fork and audit barely run.
        Workload(
            name="snapshot",
            strategy="copa",
            isolation="fault",
            audit=False,
            script=lambda seed: snapshot_script(seed, 4096),
            tiny_script=lambda seed: snapshot_script(seed, 32),
        ),
        # Writes beside snapshot's reads: fork PTE installs, page copy and
        # relocation scan, reap/promotion, the per-exit resident-set sweep
        # and the kernel copy-in take most of the time.
        Workload(
            name="churn",
            strategy="copa",
            isolation="full",
            audit=False,
            script=lambda seed: churn_script(seed, 448, 64, 64),
            tiny_script=lambda seed: churn_script(seed, 80, 16, 8),
        ),
        # The path of `sasfork run --audit --debug`: the auditor and the
        # invariant sweeps, which the other workloads never call, take
        # more than 90% of the time.
        Workload(
            name="audited",
            strategy="coa",
            isolation="fault",
            audit=True,
            script=lambda seed: snapshot_script(seed, 48),
            tiny_script=lambda seed: snapshot_script(seed, 16),
        ),
    )
}
