"""Measurement phases of the sasfork benchmark, with the correctness gate.

Every measured run is checked by :class:`Gate` against an oracle: the
same script run once, untimed, under the ``full`` strategy.  A run must
reproduce the oracle's trace value hash, report the same modelled counts
as every other run, and, when the workload audits, end with a clean
audit.  End-to-end metrics come from untraced runs with the garbage
collector enabled; per-module metrics come from separate traced runs.
Host times are scaled to a reference host speed by :mod:`hostspeed`.
"""

from __future__ import annotations

import gc
import json
import re
import statistics
import time
import tracemalloc
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from sasfork import errors, system
from sasfork.address_space import FaultKind
from sasfork.process import KERNEL_PID
from sasfork.workload import interpreter, script as script_mod

from hostspeed import Bracket
from tracing import Tracer
from workloads import Workload

#: The benchmark's manifest, which names every metric and its unit.
MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in MANIFEST[key]}

#: Fewest timed runs and set-ups behind a median, however short the budget.
MIN_RUNS = 3
MIN_SETUPS = 7
#: Time spent on set-ups, as a share of the timed run time.
SETUP_SHARE = 0.2

_FAILURE_NAMES = frozenset(kind.value for kind in FaultKind) | frozenset(
    cls.__name__
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.SimulatorError)
)
_ERRNO = re.compile(r"E[A-Z]+")


def is_failure(result: str) -> bool:
    """A trace result that is a fault kind, an errno or a failed expect."""
    return (
        result in _FAILURE_NAMES
        or _ERRNO.fullmatch(result) is not None
        or result.startswith("FAILED(")
    )


def sim_counts(report) -> tuple[int, int, Fraction]:
    """Modelled page copies, fork cost and resident set of one run."""
    prs = sum(
        (row.final_prs_bytes for row in report.rows if row.pid != KERNEL_PID),
        Fraction(0),
    )
    return report.total_copies, report.total_fork_cost, prs


class Gate:
    """Checks runs against the oracle and counts failed statements."""

    def __init__(self, oracle_hash: str, statements: int, require_clean_audit: bool):
        self.oracle_hash = oracle_hash
        self.statements = statements
        self.require_clean_audit = require_clean_audit
        self.sim: tuple[int, int, Fraction] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.errors and self.failed == 0

    def check(self, label: str, result) -> bool:
        events = result.trace.events
        self.attempted += len(events)
        problems = []
        if result.trace.value_hash() != self.oracle_hash:
            problems.append("trace hash differs from the oracle")
        sim = sim_counts(result.report)
        if self.sim is None:
            self.sim = sim
        elif sim != self.sim:
            problems.append(f"modelled counts {sim} differ from {self.sim}")
        if self.require_clean_audit and (result.audit is None or not result.audit.clean):
            problems.append("audit is not clean")
        if problems:
            # A wrong run fails every statement it attempted.
            self.failed += len(events)
            self.errors.append(f"{label}: {'; '.join(problems)}")
            return False
        self.failed += sum(1 for event in events if is_failure(event.result))
        return True

    def crashed(self, label: str, exc: BaseException) -> None:
        self.attempted += self.statements
        self.failed += self.statements
        detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        self.errors.append(f"{label}: raised {detail}")


@dataclass
class Report:
    gate: Gate
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        """What the benchmark prints: notes, then the JSON result line."""
        return self.notes + [json.dumps(self.summary())]

    def summary(self) -> dict:
        return {
            "correct": self.gate.ok,
            "attempted": self.gate.attempted,
            "failed": self.gate.failed,
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in self.metrics.items()
            },
        }


class _Bench:
    """One workload script, its oracle and the runs made of it."""

    def __init__(self, workload: Workload, text: str):
        self.workload = workload
        self.text = text
        self.script = script_mod.parse(text)
        oracle = interpreter.run(self.script, "full", workload.isolation)
        self.gate = Gate(
            oracle.trace.value_hash(), len(oracle.trace.events), workload.audit
        )

    def run(self, label: str, call=None) -> float | None:
        """One gated run; returns the host seconds of the call, or None."""
        w = self.workload
        call = call or (
            lambda: interpreter.run(
                self.script, w.strategy, w.isolation, audit=w.audit, debug=w.audit
            )
        )
        gc.collect()
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a crashing run is a failed run, not an abort
            self.gate.crashed(label, exc)
            return None
        seconds = time.perf_counter() - start
        return seconds if self.gate.check(label, result) else None

    def scaled_run(self, label: str, call=None) -> tuple[float, float] | None:
        """A gated run: its host seconds and their factor to reference seconds."""
        bracket = Bracket()
        seconds = self.run(label, call)
        return None if seconds is None else (seconds, bracket.scale())

    def scaled_setups(self, budget: float, at_least: int = 1) -> list[float]:
        """Set-ups for ``budget`` host seconds, in reference seconds each."""
        w = self.workload
        bracket = Bracket()
        times: list[float] = []
        deadline = time.perf_counter() + budget
        while len(times) < at_least or time.perf_counter() < deadline:
            gc.collect()
            start = time.perf_counter()
            parsed = script_mod.parse(self.text)
            sim = system.System(w.strategy, w.isolation, debug=w.audit)
            sim.create_initial_process(parsed.layout_spec())
            times.append(time.perf_counter() - start)
            if parsed != self.script:
                self.gate.errors.append("set-up parse differs from the first parse")
                break
        scale = bracket.scale()
        return [t * scale for t in times]

    def peak_memory_mb(self) -> float | None:
        tracemalloc.start()
        try:
            seconds = self.run("memory run")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return None if seconds is None else peak / 1e6


def _spread(name: str, values: list[float], unit: str) -> str:
    if len(values) < 2:
        return f"{name} median={values[0]:.6g} {unit} n=1" if values else f"{name} n=0"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{name} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} {unit} n={len(values)}"


def _fail_line(gate: Gate) -> str:
    frac = gate.failed / gate.attempted if gate.attempted else 1.0
    return f"fail_frac {frac:.6g} ({gate.failed} of {gate.attempted} statements)"


def measure_end_to_end(workload: Workload, text: str, seconds: float) -> Report:
    bench = _Bench(workload, text)
    report = Report(bench.gate)
    bench.run("warm-up run")
    statements = bench.gate.statements
    rates: list[float] = []
    raw_rates: list[float] = []
    setups: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_RUNS or time.perf_counter() < deadline:
        timed = bench.scaled_run(f"timed run {len(rates) + 1}")
        if timed is None:
            break
        elapsed, scale = timed
        rates.append(statements / (elapsed * scale))
        raw_rates.append(statements / elapsed)
        # Set-ups take a fixed share of the measured time, interleaved with
        # the runs so that both see the same host conditions.
        setups += bench.scaled_setups(SETUP_SHARE * elapsed)
    if len(setups) < MIN_SETUPS:
        setups += bench.scaled_setups(0.0, MIN_SETUPS - len(setups))
    peak = bench.peak_memory_mb()

    report.notes.append(_spread("stmts_per_s", rates, "1/s"))
    report.notes.append(_spread("stmts_per_s unscaled", raw_rates, "1/s"))
    report.notes.append(_spread("setup_s", setups, "s"))
    if rates:
        report.metrics["stmts_per_s"] = statistics.median(rates)
    report.metrics["setup_s"] = statistics.median(setups)
    if peak is not None:
        report.metrics["peak_mem_mb"] = peak
    if bench.gate.sim is not None:
        copies, fork_cost, prs = bench.gate.sim
        report.metrics["sim_pages_copied"] = copies
        report.metrics["sim_fork_cost"] = fork_cost
        report.metrics["sim_prs_bytes"] = float(prs)
    report.notes.append(_fail_line(bench.gate))
    report.notes += bench.gate.errors
    return report


def measure_layers(
    workload: Workload, text: str, seconds: float, spans_path: Path
) -> Report:
    """Alternate untraced and traced runs; per-module medians and overhead."""
    bench = _Bench(workload, text)
    report = Report(bench.gate)
    w = workload
    tracer = Tracer()
    bench.run("warm-up run")
    untraced: list[float] = []
    traced: list[float] = []
    per_run: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while len(traced) < MIN_RUNS or time.perf_counter() < deadline:
        run_id = len(traced) + 1

        def traced_call():
            with tracer.installed(run_id):
                parsed = script_mod.parse(text)
                return interpreter.run(
                    parsed, w.strategy, w.isolation, audit=w.audit, debug=w.audit
                )

        plain = bench.scaled_run(f"untraced run {run_id}")
        spanned = plain and bench.scaled_run(f"traced run {run_id}", traced_call)
        if not spanned:
            break
        untraced.append(plain[0] * plain[1])
        scale = spanned[1]
        traced.append(tracer.run_seconds(run_id) * scale)
        per_run.append(
            {
                name: value * scale if UNITS[name] == "s" else value
                for name, value in tracer.layer_metrics(run_id).items()
            }
        )
    tracer.write_spans(spans_path)

    for name in per_run[0] if per_run else ():
        report.metrics[name] = statistics.median(layer[name] for layer in per_run)
    if traced:
        report.metrics["trace.overhead_frac"] = (
            statistics.median(traced) / statistics.median(untraced) - 1
        )
    report.notes.append(_spread("untraced run", untraced, "s"))
    report.notes.append(_spread("traced run", traced, "s"))
    report.notes.append(f"spans written to {spans_path}")
    report.notes.append(_fail_line(bench.gate))
    report.notes += bench.gate.errors
    return report
