"""Run one workload of the sasfork benchmark and print its metrics.

Run from the repository root; the simulator is imported from ``src/``::

    python3 bench/run.py --workload snapshot --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics (statement rate, set-up
time, peak traced memory and the modelled counts); ``--trace 1`` prints
the per-module metrics of traced runs and writes their spans under
``.bench_out/``.  Host times are scaled to a reference host speed by
the probe in ``hostspeed.py``.  Human-readable lines with medians,
quartiles and run counts come first; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every run passed the correctness gate, 1 when
one did not and 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "sasfork" / "__init__.py").is_file():
        print(f"run.py: no simulator sources at {src / 'sasfork'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness  # imports sasfork, so only once src/ is on the path

    workload = WORKLOADS[args.workload]
    text = workload.script(args.seed)
    if args.trace:
        spans = root / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.csv"
        report = harness.measure_layers(workload, text, args.seconds, spans)
    else:
        report = harness.measure_end_to_end(workload, text, args.seconds)
    print("\n".join(report.lines()))
    return 0 if report.gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
