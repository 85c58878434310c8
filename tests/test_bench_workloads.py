"""The benchmark's correctness gate, run on its tiny scripts.

``bench/run.py`` refuses a run whose trace differs from the ``full``
strategy's, whose statements fail, whose modelled counts move or whose
audit is not clean.  The same checks run here on each workload's tiny
script, so a change that would fail the gate fails a test first.
"""

import sys
from pathlib import Path

import pytest

from sasfork.workload import run

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import harness
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return harness, workloads


@pytest.mark.parametrize("name", ["snapshot", "churn", "audited"])
def test_tiny_scripts_pass_the_benchmark_gate(bench, name):
    harness, workloads = bench
    w = workloads.WORKLOADS[name]
    sims = set()
    for seed in (1, 2):
        text = w.tiny_script(seed)
        flags = dict(audit=w.audit or None, debug=w.audit)
        own = run(text, w.strategy, w.isolation, **flags)
        oracle = run(text, "full", w.isolation, **flags)
        assert own.trace.value_hash() == oracle.trace.value_hash()
        failures = [e for e in own.trace.events if harness.is_failure(e.result)]
        assert not failures
        if w.audit:
            assert own.audit is not None and own.audit.clean
        sims.add(harness.sim_counts(own.report))
    assert len(sims) == 1, sims
