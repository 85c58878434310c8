"""Per-module spans and counts, recorded from outside the program.

:class:`Tracer` patches the public functions of each sasfork module at
runtime, records one span per call (name, start, end, parent span, run
id) or bumps a counter, and restores every original on exit.  Spans stay
in memory until :meth:`Tracer.write_spans` writes them at the end.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import csv
import statistics
import time
from collections import Counter
from pathlib import Path

from sasfork import address_space, capability, fork_engine, kernel, metrics, system
from sasfork import tagged_memory
from sasfork.address_space import FaultError
from sasfork.workload import interpreter, script

# (owner, attribute, span name): timed calls.
_SPANS = (
    (script, "parse", "script.parse"),
    (interpreter, "run", "interpreter.run"),
    (system.System, "__init__", "system.boot"),
    (system.System, "create_initial_process", "system.create_initial_process"),
    (system.System, "access", "system.access"),
    (system.System, "verify_invariants", "system.verify_invariants"),
    (address_space.AddressSpace, "check_and_access", "address_space.check_and_access"),
    (fork_engine.ForkEngine, "fork", "fork_engine.fork"),
    (fork_engine.ForkEngine, "resolve_fault", "fork_engine.resolve_fault"),
    (fork_engine.ForkEngine, "reap", "fork_engine.reap"),
    (tagged_memory.FrameTable, "clone", "tagged_memory.clone"),
    (tagged_memory.FrameTable, "scan_and_relocate", "tagged_memory.scan"),
    (kernel.KernelGateway, "syscall", "kernel.syscall"),
    (kernel.KernelGateway, "audit", "kernel.audit"),
    (metrics.Metrics, "prs_bytes", "metrics.prs_bytes"),
    (metrics.Metrics, "snapshot", "metrics.snapshot"),
)

# (owner, attribute, counter name): counted calls, too small to time.
_COUNTS = (
    (address_space.AddressSpace, "map", "address_space.map_calls"),
    (address_space.AddressSpace, "unmap", "address_space.unmap_calls"),
    (capability.Capability, "with_cursor", "capability.with_cursor_calls"),
    (tagged_memory.FrameTable, "allocate", "tagged_memory.allocate_calls"),
    (tagged_memory.FrameTable, "load_capability", "tagged_memory.load_capability_calls"),
    (tagged_memory.FrameTable, "store_capability", "tagged_memory.store_capability_calls"),
)

class Tracer:
    """Installs the patches for one traced run at a time."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1, run id].
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = {}
        self._stack: list[int] = []
        self._run_id = 0

    @contextlib.contextmanager
    def installed(self, run_id: int):
        """Patch every traced function for the duration of one run."""
        self._run_id = run_id
        counts = self.counts.setdefault(run_id, Counter())
        originals = []
        try:
            for owner, attr, name in _SPANS:
                originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._span(name, owner.__dict__[attr], counts))
            for owner, attr, name in _COUNTS:
                originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, _counted(name, owner.__dict__[attr], counts))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self._stack.clear()

    def _span(self, name: str, fn, counts: Counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        run_id = self._run_id

        def record(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, run_id]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except FaultError as err:
                if name == "address_space.check_and_access" and err.fault.resolvable:
                    counts["address_space.resolvable_faults"] += 1
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if name == "tagged_memory.scan":
                counts["tagged_memory.caps_relocated"] += result
            return result

        return record

    def run_seconds(self, run_id: int) -> float:
        """Duration of the traced ``run()`` call of one run."""
        return sum(
            end - start
            for name, start, end, _, rid in self.spans
            if rid == run_id and name == "interpreter.run"
        )

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-module metrics of one traced run (without the overhead)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_time: Counter = Counter()
        module_self: Counter = Counter()
        forks = []
        for index, (name, start, end, _, rid) in enumerate(self.spans):
            if rid != run_id:
                continue
            calls[name] += 1
            total[name] += end - start
            own = end - start - child_time[index]
            self_time[name] += own
            module_self[name.split(".")[0]] += own
            if name == "fork_engine.fork":
                forks.append(end - start)
        counts = self.counts[run_id]
        accesses = calls["address_space.check_and_access"]
        out = {
            "script.parse_s": total["script.parse"],
            "interpreter.self_s": self_time["interpreter.run"],
            "system.boot_s": total["system.boot"],
            "system.create_initial_process_s": total["system.create_initial_process"],
            "system.access_calls": calls["system.access"],
            "system.access_self_s": self_time["system.access"],
            "system.verify_invariants_calls": calls["system.verify_invariants"],
            "system.verify_invariants_s": total["system.verify_invariants"],
            "system.self_s": module_self["system"],
            "address_space.check_and_access_calls": accesses,
            "address_space.check_and_access_s": total["address_space.check_and_access"],
            "address_space.fault_ratio": (
                counts["address_space.resolvable_faults"] / accesses if accesses else 0.0
            ),
            "fork_engine.fork_calls": calls["fork_engine.fork"],
            "fork_engine.fork_s_p50": statistics.median(forks) if forks else 0.0,
            "fork_engine.fork_self_s": self_time["fork_engine.fork"],
            "fork_engine.resolve_fault_calls": calls["fork_engine.resolve_fault"],
            "fork_engine.resolve_fault_self_s": self_time["fork_engine.resolve_fault"],
            "fork_engine.reap_calls": calls["fork_engine.reap"],
            "fork_engine.reap_s": total["fork_engine.reap"],
            "fork_engine.self_s": module_self["fork_engine"],
            "tagged_memory.clone_calls": calls["tagged_memory.clone"],
            "tagged_memory.clone_s": total["tagged_memory.clone"],
            "tagged_memory.scan_calls": calls["tagged_memory.scan"],
            "tagged_memory.scan_s": total["tagged_memory.scan"],
            "tagged_memory.caps_relocated": counts["tagged_memory.caps_relocated"],
            "kernel.syscall_calls": calls["kernel.syscall"],
            "kernel.syscall_self_s": self_time["kernel.syscall"],
            "kernel.audit_calls": calls["kernel.audit"],
            "kernel.audit_s": total["kernel.audit"],
            "kernel.self_s": module_self["kernel"],
            "metrics.prs_bytes_calls": calls["metrics.prs_bytes"],
            "metrics.prs_bytes_s": total["metrics.prs_bytes"],
            "metrics.snapshot_s": total["metrics.snapshot"],
        }
        for _, _, name in _COUNTS:
            out[name] = counts[name]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("run", "span", "parent", "name", "start_s", "end_s"))
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                writer.writerow((run_id, index, parent, name, f"{start:.9f}", f"{end:.9f}"))


def _counted(name: str, fn, counts: Counter):
    def count(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return count
