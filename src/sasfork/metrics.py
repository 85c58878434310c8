"""Counters and reports that make copy-strategy costs observable.

Everything here is exact: page copies, granules scanned, capabilities
relocated, and faults are integers; the proportional resident set is
kept as a :class:`fractions.Fraction` so that a frame shared three ways
still sums to exactly one page across its mappers.

Each fact is recorded once.  Page copies, and the granules their
relocation scans charged and rewrote, are read from the fork engine's
copy events when a report is taken.  Counters hold only what no event
records: faults, fork cost, capability registers relocated at fork,
in-place relocation scans at promotion, and the resident set at exit.

``prs(pid)`` is the sum over frames mapped by ``pid`` of
``PAGE_SIZE / refcount(frame)``, where a frame's refcount is its
``mapcount``.  A page's owner is the pid of the page-table row it lies
in (pid 0 for the kernel's), and each pid has one row, so one sweep of
the pid's row counts its pages per refcount as integers, and
:func:`proportional_bytes` turns those counts into one exact
``Fraction`` over the least common multiple of the refcounts present.
The sweep visits only the row's divergent pages: every other page is
mapped by each row of the pid's fork family, so they all count at the
family's row count at once (see :mod:`sasfork.address_space`).
The owners' shares sum to every frame exactly once when each mapped
page lies in the region of a PID-table slot holder or the kernel and
each frame has a page, which the debug check tests.  A process that
has exited but has not been reaped keeps its mappings and its PID-table
slot, so its share still counts; a pid without a slot reads zero
without a sweep (the value at exit is preserved separately for
reporting, since the interesting number for a forked worker is what it
consumed while alive).

Fork latency is a synthetic cost, not wall-clock time:
``512 * eager page copies + PTE writes + granules scanned at fork``.

Reports serialize to a line-oriented text format and to CSV rows (one
row per pid); the field names are documented in the CLI reference and
are stable.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .address_space import FaultKind
from .capability import PAGE_SIZE
from .errors import MismatchedScripts, UnknownPid
from .fork_engine import CopyCause, CopyEvent, ForkStrategy
from .process import KERNEL_PID

if TYPE_CHECKING:
    from .system import System

#: The causes of lazy copies, in declaration order: the report's and the
#: CSV's column order.
LAZY_CAUSES = tuple(cause for cause in CopyCause if not cause.eager)

CSV_FIELDS = (
    "pid",
    "eager_pages_copied",
    "lazy_write_fault",
    "lazy_access_fault",
    "lazy_cap_load_fault",
    "granules_scanned",
    "caps_relocated",
    "faults_total",
    "prs_bytes",
    "prs_at_exit_bytes",
    "fork_cost",
)


@dataclass(frozen=True)
class PidMetrics:
    pid: int
    eager_pages_copied: int
    lazy_pages_copied: dict[CopyCause, int]
    granules_scanned: int
    caps_relocated: int
    faults: dict[FaultKind, int]
    prs_bytes: Fraction
    prs_at_exit_bytes: Fraction | None
    fork_cost: int

    @property
    def lazy_total(self) -> int:
        return sum(self.lazy_pages_copied.values())

    @property
    def copies_total(self) -> int:
        return self.eager_pages_copied + self.lazy_total

    @property
    def final_prs_bytes(self) -> Fraction:
        """What the process consumed: live share, or the share at exit."""
        if self.prs_at_exit_bytes is not None and self.prs_bytes == 0:
            return self.prs_at_exit_bytes
        return self.prs_bytes


@dataclass(frozen=True)
class MetricsReport:
    strategy: str
    isolation: str
    rows: tuple[PidMetrics, ...]

    def row(self, pid: int) -> PidMetrics:
        for row in self.rows:
            if row.pid == pid:
                return row
        raise UnknownPid(f"no metrics for pid {pid}")

    @property
    def total_copies(self) -> int:
        return sum(r.copies_total for r in self.rows)

    @property
    def total_eager(self) -> int:
        return sum(r.eager_pages_copied for r in self.rows)

    @property
    def total_lazy(self) -> int:
        return sum(r.lazy_total for r in self.rows)

    @property
    def total_fork_cost(self) -> int:
        return sum(r.fork_cost for r in self.rows)

    @property
    def total_prs_bytes(self) -> Fraction:
        return sum((r.prs_bytes for r in self.rows), Fraction(0))

    def to_text(self) -> str:
        """Line-oriented structured rendering: `key=value` pairs per line."""
        lines = [f"report strategy={self.strategy} isolation={self.isolation}"]
        for r in self.rows:
            parts = [f"pid={r.pid}", f"eager={r.eager_pages_copied}"]
            parts += [
                f"lazy_{cause.value}={r.lazy_pages_copied.get(cause, 0)}"
                for cause in LAZY_CAUSES
            ]
            parts += [
                f"scanned={r.granules_scanned}",
                f"relocated={r.caps_relocated}",
                f"prs={float(r.prs_bytes):.1f}",
            ]
            if r.prs_at_exit_bytes is not None:
                parts.append(f"prs_at_exit={float(r.prs_at_exit_bytes):.1f}")
            parts.append(f"fork_cost={r.fork_cost}")
            parts += [
                f"fault_{kind.value}={count}"
                for kind, count in sorted(r.faults.items(), key=lambda kv: kv[0].value)
                if count
            ]
            lines.append(" ".join(parts))
        lines.append(
            f"total copies={self.total_copies} eager={self.total_eager} "
            f"lazy={self.total_lazy} fork_cost={self.total_fork_cost} "
            f"prs={float(self.total_prs_bytes):.1f}"
        )
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Machine-readable rows, one per pid; header documented in the README."""
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(("strategy", "isolation") + CSV_FIELDS)
        for r in self.rows:
            writer.writerow(
                (
                    self.strategy,
                    self.isolation,
                    r.pid,
                    r.eager_pages_copied,
                    *(r.lazy_pages_copied.get(cause, 0) for cause in LAZY_CAUSES),
                    r.granules_scanned,
                    r.caps_relocated,
                    sum(r.faults.values()),
                    float(r.prs_bytes),
                    float(r.prs_at_exit_bytes) if r.prs_at_exit_bytes is not None else "",
                    r.fork_cost,
                )
            )
        return out.getvalue()


def proportional_bytes(counts: dict[int, int]) -> Fraction:
    """``PAGE_SIZE * pages / refs`` summed over ``{refs: pages}``, exactly.

    The sum is built in integers over the least common multiple of the
    refcounts present, so one ``Fraction`` is made per call.
    """
    denominator = math.lcm(*counts)
    return Fraction(
        PAGE_SIZE * sum(pages * (denominator // refs) for refs, pages in counts.items()),
        denominator,
    )


class Metrics:
    """Live counters owned by one system instance."""

    def __init__(self, system: "System") -> None:
        self._system = system
        # Promotion scans and fork-time register relocations; copies
        # and their scans are folded from the copy events.
        self._scanned: dict[int, int] = {}
        self._relocated: dict[int, int] = {}
        self._faults: dict[int, dict[FaultKind, int]] = {}
        self._fork_cost: dict[int, int] = {}
        self._prs_at_exit: dict[int, Fraction] = {}

    # -- recording -----------------------------------------------------------

    def record_scan(self, pid: int, granules: int, relocations: int) -> None:
        self._scanned[pid] = self._scanned.get(pid, 0) + granules
        self._relocated[pid] = self._relocated.get(pid, 0) + relocations

    def record_register_relocations(self, pid: int, count: int) -> None:
        self._relocated[pid] = self._relocated.get(pid, 0) + count

    def record_fault(self, pid: int, kind: FaultKind) -> None:
        per = self._faults.setdefault(pid, {})
        per[kind] = per.get(kind, 0) + 1

    def record_fork_cost(self, pid: int, cost: int) -> None:
        self._fork_cost[pid] = self._fork_cost.get(pid, 0) + cost

    def record_exit_prs(self, pid: int) -> None:
        self._prs_at_exit[pid] = self.prs_bytes(pid)

    # -- reading --------------------------------------------------------------

    def prs_bytes(self, pid: int) -> Fraction:
        """Exact proportional resident set from a fresh sweep of the pid's row.

        A pid without a PID-table slot (reaped) owns no page, so it reads
        0 without a sweep; a page left mapped for it is then counted by no
        one, which the debug conservation check reports.  An unknown pid
        raises ``UnknownPid``.
        """
        system = self._system
        if pid != KERNEL_PID and pid not in system.unreaped_pids:
            system.process(pid)  # an unknown pid raises
            return Fraction(0)
        return proportional_bytes(system.address_space.owned_refcounts(pid))

    def snapshot(self) -> MetricsReport:
        """Pure read of the copy events and counters plus a fresh resident-set sweep."""
        system = self._system
        pids = sorted(set(system.processes) | {0})
        copies: dict[int, list[CopyEvent]] = {}
        for event in system.fork_engine.events:
            copies.setdefault(event.pid, []).append(event)
        rows = tuple(self._row(p, copies.get(p, [])) for p in pids)
        return MetricsReport(
            strategy=system.strategy.value,
            isolation=system.isolation.value,
            rows=rows,
        )

    def _row(self, pid: int, copies: list[CopyEvent]) -> PidMetrics:
        lazy: dict[CopyCause, int] = {}
        for event in copies:
            if not event.eager:
                lazy[event.cause] = lazy.get(event.cause, 0) + 1
        return PidMetrics(
            pid=pid,
            eager_pages_copied=sum(event.eager for event in copies),
            lazy_pages_copied=lazy,
            granules_scanned=self._scanned.get(pid, 0)
            + sum(event.scanned for event in copies),
            caps_relocated=self._relocated.get(pid, 0)
            + sum(event.relocations for event in copies),
            faults=dict(self._faults.get(pid, {})),
            prs_bytes=self.prs_bytes(pid),
            prs_at_exit_bytes=self._prs_at_exit.get(pid),
            fork_cost=self._fork_cost.get(pid, 0),
        )


# -- strategy comparison -------------------------------------------------------


@dataclass(frozen=True)
class StrategySummary:
    strategy: ForkStrategy
    total_copies: int
    total_eager: int
    total_lazy: int
    fork_cost: int
    final_prs: dict[int, Fraction]

    @property
    def final_prs_total(self) -> Fraction:
        return sum(self.final_prs.values(), Fraction(0))


@dataclass(frozen=True)
class Comparison:
    summaries: tuple[StrategySummary, ...]
    verdicts: tuple[tuple[str, bool], ...]

    @property
    def dominance_ok(self) -> bool:
        return all(ok for _, ok in self.verdicts)

    def to_text(self) -> str:
        lines = ["strategy copies eager lazy fork_cost final_prs"]
        for s in self.summaries:
            lines.append(
                f"{s.strategy.value} {s.total_copies} {s.total_eager} "
                f"{s.total_lazy} {s.fork_cost} {float(s.final_prs_total):.1f}"
            )
        for claim, ok in self.verdicts:
            lines.append(f"verdict {claim}: {'ok' if ok else 'VIOLATED'}")
        return "\n".join(lines)


_DOMINANCE_ORDER = (ForkStrategy.COPA, ForkStrategy.COA, ForkStrategy.FULL_COPY)


def compare(runs) -> Comparison:
    """Build the per-strategy cost table and dominance verdicts.

    ``runs`` are workload run results for the same script under
    different strategies.  Result traces must match (the strategies
    change cost, never semantics); otherwise :class:`MismatchedScripts`.
    """
    if not runs:
        raise ValueError("nothing to compare")
    hashes = {run.trace.value_hash() for run in runs}
    if len(hashes) != 1:
        raise MismatchedScripts(
            "runs produced different result traces; not the same script/semantics"
        )
    summaries = []
    for run in runs:
        report = run.report
        summaries.append(
            StrategySummary(
                strategy=run.strategy,
                total_copies=report.total_copies,
                total_eager=report.total_eager,
                total_lazy=report.total_lazy,
                fork_cost=report.total_fork_cost,
                final_prs={
                    r.pid: r.final_prs_bytes for r in report.rows if r.pid != 0
                },
            )
        )
    by_strategy = {s.strategy: s for s in summaries}
    verdicts = []
    present = [s for s in _DOMINANCE_ORDER if s in by_strategy]
    for cheap, costly in zip(present, present[1:]):
        a, b = by_strategy[cheap], by_strategy[costly]
        verdicts.append(
            (
                f"copies({cheap.value}) <= copies({costly.value})",
                a.total_copies <= b.total_copies,
            )
        )
        verdicts.append(
            (
                f"prs({cheap.value}) <= prs({costly.value})",
                a.final_prs_total <= b.final_prs_total,
            )
        )
    return Comparison(summaries=tuple(summaries), verdicts=tuple(verdicts))
