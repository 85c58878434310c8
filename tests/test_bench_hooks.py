"""The benchmark's traced run patches sasfork by attribute name.

``bench/tracing.py`` wraps each ``(owner, attr)`` it lists by looking the
attribute up in ``owner.__dict__``; a renamed or moved function would
only break the traced benchmark run.  This test makes it break here.
"""

import sys
from pathlib import Path

import pytest

from sasfork.metrics import Metrics
from sasfork.tagged_memory import FrameTable
from sasfork.workload import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return workloads


def hooks(tracing):
    return [(owner, attr) for owner, attr, _ in tracing._SPANS + tracing._COUNTS]


def test_every_patched_attribute_exists_on_its_owner(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in hooks(tracing)
        if attr not in vars(owner)
    ]
    assert not missing, f"benchmark hooks name missing attributes: {missing}"


def test_every_patched_attribute_is_callable(tracing):
    assert all(callable(vars(owner)[attr]) for owner, attr in hooks(tracing))


def test_traced_caps_relocated_is_every_granule_the_scans_rewrote(
    tracing, workloads, monkeypatch
):
    # The traced run adds up what scan_and_relocate returns, so each
    # result must be the int count of granules that scan rewrote.
    results, promoted = [], []
    scan, record_scan = FrameTable.scan_and_relocate, Metrics.record_scan

    def recording_scan(*args, **kwargs):
        results.append(scan(*args, **kwargs))
        return results[-1]

    def recording_promotion(self, pid, granules, relocations):
        promoted.append(relocations)
        record_scan(self, pid, granules, relocations)

    monkeypatch.setattr(FrameTable, "scan_and_relocate", recording_scan)
    monkeypatch.setattr(Metrics, "record_scan", recording_promotion)
    w = workloads.WORKLOADS["churn"]
    tracer = tracing.Tracer()
    with tracer.installed(1):
        result = run(w.tiny_script(1), w.strategy, w.isolation)
    assert all(type(count) is int for count in results)
    copies = sum(event.relocations for event in result.system.fork_engine.events)
    assert promoted and copies > 0
    assert tracer.counts[1]["tagged_memory.caps_relocated"] == sum(results)
    assert sum(results) == copies + sum(promoted)
