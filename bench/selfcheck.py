"""Self-check of the sasfork benchmark.

Run from the repository root::

    python3 bench/selfcheck.py

It runs a tiny instance of every workload in BENCHMARK.json with and
without tracing and asserts that the metrics printed are exactly those
BENCHMARK.json lists, each with its unit, shows
that the correctness gate fails on a wrong oracle hash, and shows that
the benchmark exits non-zero without a result when the simulator sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (needs src/ on the path)
import tracing  # noqa: E402
from sasfork.workload import interpreter  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out" / "selfcheck"


def expect(condition: bool, detail) -> None:
    if not condition:
        raise AssertionError(detail)


def check_printed(lines: list[str], metrics: list[dict]) -> None:
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, result)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0, lines)
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    expect(printed == {m["name"]: m["unit"] for m in metrics}, printed)


def check_tiny_runs(manifest: dict) -> None:
    listed = [w["name"] for w in manifest["workloads"]]
    expect(sorted(listed) == sorted(WORKLOADS), f"workloads {listed} differ from the code")
    originals = {
        (owner, attr): owner.__dict__[attr]
        for owner, attr, _ in tracing._SPANS + tracing._COUNTS
    }
    for name, workload in WORKLOADS.items():
        text = workload.tiny_script(7)
        report = harness.measure_end_to_end(workload, text, 0.2)
        check_printed(report.lines(), manifest["end_to_end"])
        spans = OUT / f"spans-{name}.csv"
        traced = harness.measure_layers(workload, text, 0.2, spans)
        check_printed(traced.lines(), manifest["per_layer"])
        expect(spans.stat().st_size > 0, f"no spans written to {spans}")
        for (owner, attr), original in originals.items():
            expect(owner.__dict__[attr] is original, f"{attr} still patched")
        print(f"ok: tiny {name} prints every metric with its unit")


def check_gate_rejects_wrong_hash() -> None:
    workload = WORKLOADS["snapshot"]
    result = interpreter.run(workload.tiny_script(7), workload.strategy, workload.isolation)
    statements = len(result.trace.events)
    gate = harness.Gate("0" * 64, statements, require_clean_audit=False)
    expect(not gate.check("wrong oracle", result), "a wrong hash passed the gate")
    expect(
        not gate.ok and gate.failed == gate.attempted == statements,
        "a wrong hash did not fail every statement",
    )
    right = harness.Gate(result.trace.value_hash(), statements, require_clean_audit=False)
    expect(right.check("right oracle", result) and right.ok, "the right hash failed")
    print("ok: the gate fails every statement of a run with a wrong oracle hash")


def check_fails_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "snapshot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    expect(proc.returncode != 0 and not proc.stdout.strip(), proc)
    print("ok: without src/ the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    check_tiny_runs(harness.MANIFEST)
    check_gate_rejects_wrong_hash()
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
