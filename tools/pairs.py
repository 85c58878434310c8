"""Alternating base/change pairs of the benchmark, and the trajectory files.

Runs the working tree's ``bench/run.py`` on a base tree and on the
working tree in turn, ``--pairs`` times per workload, the base first in
the first pair and the order swapped from each pair to the next, so that
a host whose speed drifts favours neither side, and
prints each end-to-end metric's median and quartiles on both sides and the
number of pairs the change wins::

    python3 tools/pairs.py --base REV --workload churn --seed 1 --pairs 10 --seconds 20
    python3 tools/pairs.py --base-dir DIR --workload audited --seed 1 --pairs 1 --seconds 0.2

``--base REV`` unpacks the ``src/`` of git revision ``REV`` with
``git archive`` into a temporary directory; it touches no worktree and
writes nothing under ``.git``.  ``--base-dir DIR`` takes a tree that
already holds ``src/sasfork``.  Both sides run the same harness, the
working tree's ``bench/``, so only the simulator differs between them.
``--workload`` may be given more than once.

With ``--record NOTE`` it appends one entry per workload to
``BENCH_<workload>.json`` at the repository root, a JSON list of entries:
the working tree's commit and whether its ``src/`` differs from it, the
base, which side ran first in each pair (``order``), both sides' medians
and quartiles, the win and tie counts, the ``sim_*`` counts, the Python version, the host-speed probe of
``bench/hostspeed.py`` and the note.  It uses the standard library only.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
#: Where ``--record`` writes the ``BENCH_<workload>.json`` files.
RECORD_DIR = ROOT
#: Probe runs whose median an entry records.
PROBES = 5


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True
    ).stdout


def unpack_base(rev: str, into: Path) -> str:
    """Unpack ``rev``'s ``src/`` under ``into``; returns the full commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit, "src"))) as tar:
        # The "data" filter, where this Python has it, refuses members that
        # would land outside ``into``.
        tar.extractall(into, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return commit


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of ``bench/run.py`` from ``tree``: its last line's metrics."""
    proc = subprocess.run(
        [
            sys.executable,
            str(RUN),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        raise SystemExit(
            f"pairs.py: {workload} from {tree} failed (exit {proc.returncode}):\n"
            + proc.stdout[-2000:]
            + proc.stderr[-2000:]
        )
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> dict:
    """Per metric: both sides' spread, and the pairs the change wins and ties."""
    out = {}
    for metric in metrics:
        name = metric["name"]
        sides = [(base[name], change[name]) for base, change in pairs if name in base]
        if not sides:
            continue
        sign = 1 if metric["better"] == "higher" else -1
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": spread([b for b, _ in sides]),
            "change": spread([c for _, c in sides]),
            "wins": sum(sign * (c - b) > 0 for b, c in sides),
            "ties": sum(c == b for b, c in sides),
        }
    return out


def probe_seconds() -> float:
    """Median host seconds of the benchmark's host-speed probe."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import hostspeed
    finally:
        sys.path.pop(0)
    return statistics.median(hostspeed.probe_seconds() for _ in range(PROBES))


def head() -> tuple[str | None, bool | None]:
    """The working tree's commit, and whether its ``src/`` differs from it;
    both ``None`` outside a git checkout."""
    try:
        commit = git("rev-parse", "HEAD").decode().strip()
        changed = bool(git("status", "--porcelain", "--", "src").strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return commit, changed


def record(workload: str, entry: dict) -> Path:
    """Append ``entry`` to the workload's trajectory file."""
    path = RECORD_DIR / f"BENCH_{workload}.json"
    entries = json.loads(path.read_text()) if path.exists() else []
    entries.append(entry)
    path.write_text(json.dumps(entries, indent=1) + "\n")
    return path


def report_lines(workload: str, summary: dict) -> list[str]:
    lines = [f"{workload}: base -> change, median [q1, q3]"]
    for name, m in summary.items():
        b, c = m["base"], m["change"]
        lines.append(
            f"  {name:<16} {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}]"
            f" -> {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {m['unit']}"
            f"  wins {m['wins']} ties {m['ties']}"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="git revision whose src/ is the base")
    base.add_argument("--base-dir", type=Path, help="tree whose src/ is the base")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--record", metavar="NOTE")
    args = parser.parse_args(argv)
    bench = manifest()
    known = {w["name"] for w in bench["workloads"]}
    unknown = [w for w in args.workload if w not in known]
    if unknown or args.pairs < 1:
        parser.error(f"unknown workload {unknown}" if unknown else "--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="pairs-") as unpacked:
        if args.base is not None:
            base_tree = Path(unpacked)
            base_name = unpack_base(args.base, base_tree)
        else:
            base_tree = args.base_dir.resolve()
            base_name = f"dir:{base_tree.name}"
        for workload in args.workload:
            pairs, order = [], []
            for n in range(args.pairs):
                if n % 2:
                    after = run_side(ROOT, workload, args.seed, args.seconds)
                    before = run_side(base_tree, workload, args.seed, args.seconds)
                else:
                    before = run_side(base_tree, workload, args.seed, args.seconds)
                    after = run_side(ROOT, workload, args.seed, args.seconds)
                pairs.append((before, after))
                order.append("change" if n % 2 else "base")
                print(f"{workload} pair {n + 1}/{args.pairs} done", file=sys.stderr)
            summary = summarize(pairs, bench["end_to_end"])
            print("\n".join(report_lines(workload, summary)))
            if args.record is not None:
                commit, changed = head()
                entry = {
                    "date": datetime.datetime.now(datetime.timezone.utc).strftime(
                        "%Y-%m-%dT%H:%M:%SZ"
                    ),
                    "commit": commit,
                    "src_changed": changed,
                    "base": base_name,
                    "workload": workload,
                    "seed": args.seed,
                    "pairs": args.pairs,
                    "order": order,
                    "seconds": args.seconds,
                    "metrics": summary,
                    "sim": {
                        name: pairs[-1][1][name] for name in summary if name.startswith("sim_")
                    },
                    "python": platform.python_version(),
                    "probe_s": probe_seconds(),
                    "note": args.record,
                }
                print(f"recorded in {record(workload, entry)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
