"""Synthetic workload generator: a snapshot-style parent/child script.

The generated shape mirrors the classic fork-for-snapshot pattern: the
parent populates ``pages`` heap pages of data and builds an index whose
entries are capabilities into the data pages, then forks; the child
walks the index (capability loads), plain-reads a fraction of the data
pages, and writes a handful of output pages before exiting.

The page counts are what make the copy strategies diverge: an
access-copies strategy must copy every page the child touches, while a
pointer-access strategy copies only the index pages (capability loads)
and the written output pages.

Generation is deterministic: the same flags produce byte-identical
scripts.  The seed drives only value/placement randomness, never the
execution order.
"""

from __future__ import annotations

import random

from ..capability import GRANULE, GRANULES_PER_PAGE, PAGE_SIZE
from ..process import LayoutSpec
from .script import (
    MAX_LAYOUT_PAGES,
    Alloc,
    Deref,
    Exit,
    Fork,
    LoadInt,
    LoadRef,
    Script,
    StoreInt,
    StoreRef,
)

#: Pages the child writes at the end of its run (its "output").
OUTPUT_PAGES = 4

_INT_SLOTS = PAGE_SIZE // 8


def index_page_count(pages: int, ref_density: float) -> int:
    """How many reference-bearing index pages a given density yields.

    Each index page holds :data:`GRANULES_PER_PAGE` references, one per
    data page; :func:`generate` refuses a density that yields too few.
    """
    if ref_density <= 0 or pages <= 0:
        return 0
    return max(1, round(pages * ref_density))


def generate(
    pages: int, ref_density: float, child_read_frac: float, seed: int
) -> Script:
    """Build the parent/child script for the given sizing knobs."""
    if pages < 1:
        raise ValueError("pages must be >= 1")
    if not 0 <= ref_density <= 1:
        raise ValueError("ref-density must be in [0, 1]")
    if not 0 <= child_read_frac <= 1:
        raise ValueError("child-read-frac must be in [0, 1]")
    rng = random.Random(seed)
    index_pages = index_page_count(pages, ref_density)
    if index_pages and index_pages * GRANULES_PER_PAGE < pages:
        needed = -(-pages // GRANULES_PER_PAGE)
        raise ValueError(
            f"pages={pages} at ref-density {ref_density:g} gets {index_pages} "
            f"index page(s), but {pages} data pages need {needed}: the limit is "
            f"{GRANULES_PER_PAGE} references per index page, one per data page"
        )
    heap_pages = pages + index_pages + OUTPUT_PAGES
    total_pages = LayoutSpec(heap_pages=heap_pages).total_pages
    if total_pages > MAX_LAYOUT_PAGES:
        raise ValueError(
            f"pages={pages} needs a layout of {total_pages} pages, "
            f"over the limit of {MAX_LAYOUT_PAGES}"
        )

    body = [Alloc("data", pages * PAGE_SIZE)]
    for page in range(pages):
        offset = page * PAGE_SIZE + 8 * rng.randrange(_INT_SLOTS)
        body.append(StoreInt("data", offset, rng.randrange(1, 1 << 31)))

    ref_slots: list[tuple[int, int]] = []
    if index_pages:
        body.append(Alloc("index", index_pages * PAGE_SIZE))
        targets = list(range(pages))
        rng.shuffle(targets)
        for j, target_page in enumerate(targets):
            # Entries are spread page-major so every index page carries some.
            page = j % index_pages
            slot = j // index_pages
            index_offset = page * PAGE_SIZE + slot * GRANULE
            target_offset = target_page * PAGE_SIZE + 8 * rng.randrange(_INT_SLOTS)
            ref_slots.append((index_offset, target_offset))
            body.append(StoreRef("index", index_offset, "data", target_offset))

    body.append(Alloc("out", OUTPUT_PAGES * PAGE_SIZE))

    child: list = []
    for index_offset, _ in ref_slots:
        child.append(LoadRef("index", index_offset))
        child.append(Deref())
    read_count = round(child_read_frac * pages)
    for page in sorted(rng.sample(range(pages), read_count)):
        child.append(LoadInt("data", page * PAGE_SIZE + 8 * rng.randrange(_INT_SLOTS)))
    for page in range(OUTPUT_PAGES):
        child.append(StoreInt("out", page * PAGE_SIZE, rng.randrange(1, 1 << 31)))
    child.append(Exit(0))

    body.append(Fork(label=None, nowait=False, body=tuple(child)))
    # Parent sanity reads after the implicit wait.
    for page in sorted(rng.sample(range(pages), min(2, pages))):
        body.append(LoadInt("data", page * PAGE_SIZE))

    return Script(body=tuple(body), layout={"heap": heap_pages})
