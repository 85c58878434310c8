"""Host-speed probe: scales host times to a fixed reference speed.

On a shared host the speed of one process drifts by tens of percent over
seconds and minutes as other tenants load the machine; on a 2-vCPU Xeon
box, medians of the same run taken minutes apart differed by 25-60%.
Every timed section of the benchmark is therefore bracketed by two runs
of a fixed probe loop, and its host seconds are multiplied by
``REFERENCE_S / mean(probe before, probe after)``.  The probe uses no
sasfork code, so a change to the simulator moves the scaled times as
much as the raw ones; only the host's drift cancels.

The loop has the shape of the simulator's access path: frozen-dataclass
replacement, dict lookups, and 8-byte stores and loads in 4 KiB
bytearray pages.  Scaling by a plain arithmetic loop cancelled the
drift about half as well.
"""

from __future__ import annotations

import dataclasses
import gc
import time

#: Probe seconds on a quiet 2.1 GHz Xeon vCPU: scaled times read as host
#: times on that machine.
REFERENCE_S = 0.030

_ITERATIONS = 12_000


@dataclasses.dataclass(frozen=True)
class _Ref:
    base: int
    cursor: int


def probe_seconds() -> float:
    """Host seconds of one run of the fixed probe loop."""
    gc.collect()
    start = time.perf_counter()
    pages: dict[int, bytearray] = {}
    names: dict[int, str] = {}
    loaded = []
    ref = _Ref(0, 0)
    for i in range(_ITERATIONS):
        ref = dataclasses.replace(ref, cursor=(i * 40503) & 0xFFFFF)
        page = pages.get(ref.cursor >> 12)
        if page is None:
            page = pages[ref.cursor >> 12] = bytearray(4096)
        offset = ref.cursor & 0xFF8
        page[offset : offset + 8] = i.to_bytes(8, "little")
        loaded.append(int.from_bytes(page[offset : offset + 8], "little"))
        names[i & 1023] = str(i)
    return time.perf_counter() - start


class Bracket:
    """Probe before a timed section; :meth:`scale` probes after it."""

    def __init__(self) -> None:
        self._before = probe_seconds()

    def scale(self) -> float:
        """Factor that turns the section's host seconds into reference seconds."""
        return 2 * REFERENCE_S / (self._before + probe_seconds())
