"""Command-line front end.

Subcommands::

    run      execute a script under one strategy/isolation level
    compare  run a script under several strategies and check dominance
    audit    run a script with the isolation auditor armed
    gen      emit a synthetic snapshot-style workload script

Exit codes: 0 on success, 1 on assertion/dominance/audit failure,
2 on usage errors (including unreadable script files).
"""

from __future__ import annotations

import argparse
import sys

from .errors import MismatchedScripts, ParseError, SimulatorError
from .fork_engine import ForkStrategy
from .kernel import IsolationLevel
from .metrics import compare as compare_runs
from .workload import generate, parse, print_script, run as run_script

_STRATEGIES = [s.value for s in ForkStrategy]
_ISOLATION = [lvl.value for lvl in IsolationLevel]


def _read_script(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise SystemExit(f"sasfork: cannot read {path}: {err.strerror}") from err


def _add_script_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("script", help="script file, or '-' for stdin")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasfork",
        description="Deterministic single-address-space fork simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a workload script")
    _add_script_arg(p_run)
    p_run.add_argument("--strategy", choices=_STRATEGIES, default="copa")
    p_run.add_argument("--isolation", choices=_ISOLATION, default="fault")
    p_run.add_argument("--format", choices=["text", "csv"], default="text")
    p_run.add_argument("--no-trace", action="store_true", help="omit the trace")
    p_run.add_argument("--debug", action="store_true", help="verify invariants per step")
    p_run.add_argument("--audit", action="store_true", help="audit after every step")

    p_cmp = sub.add_parser("compare", help="compare strategies on one script")
    _add_script_arg(p_cmp)
    p_cmp.add_argument(
        "--strategies",
        default="full,coa,copa",
        help="comma-separated strategy list (default: full,coa,copa)",
    )
    p_cmp.add_argument("--isolation", choices=_ISOLATION, default="fault")
    p_cmp.add_argument("--format", choices=["text", "csv"], default="text")

    p_audit = sub.add_parser("audit", help="run with the auditor armed")
    _add_script_arg(p_audit)
    p_audit.add_argument("--strategy", choices=_STRATEGIES, default="copa")
    p_audit.add_argument("--isolation", choices=_ISOLATION, default="fault")

    p_gen = sub.add_parser("gen", help="generate a synthetic workload script")
    p_gen.add_argument("--pages", type=int, required=True, help="data pages")
    p_gen.add_argument("--ref-density", type=float, default=0.0625)
    p_gen.add_argument("--child-read-frac", type=float, default=1.0)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--output", "-o", default="-", help="file, or '-' for stdout")

    return parser


def _cmd_run(args) -> int:
    result = run_script(
        _read_script(args.script),
        args.strategy,
        args.isolation,
        debug=args.debug,
        audit=args.audit or None,
    )
    if not args.no_trace:
        print(result.trace.to_text())
    if args.format == "csv":
        print(result.report.to_csv(), end="")
    else:
        print(result.report.to_text())
    if result.audit is not None:
        print(result.audit.to_text())
    return 0 if result.ok else 1


def _cmd_compare(args) -> int:
    text = _read_script(args.script)
    strategies = [token.strip() for token in args.strategies.split(",") if token.strip()]
    for name in strategies:
        if name not in _STRATEGIES:
            raise SystemExit(f"sasfork: unknown strategy {name!r}")
    runs = [run_script(text, name, args.isolation) for name in strategies]
    try:
        comparison = compare_runs(runs)
    except MismatchedScripts as err:
        print(f"compare failed: {err}", file=sys.stderr)
        return 1
    if args.format == "csv":
        for result in runs:
            print(result.report.to_csv(), end="")
        for claim, ok in comparison.verdicts:
            print(f"verdict,{claim},{'ok' if ok else 'VIOLATED'}")
    else:
        print(comparison.to_text())
    return 0 if comparison.dominance_ok else 1


def _cmd_audit(args) -> int:
    result = run_script(
        _read_script(args.script), args.strategy, args.isolation, audit=True
    )
    print(result.audit.to_text())
    violations = result.audit.violations
    if violations and args.strategy != ForkStrategy.UNSAFE_COW.value:
        return 1
    return 0


def _cmd_gen(args) -> int:
    script = generate(args.pages, args.ref_density, args.child_read_frac, args.seed)
    text = print_script(script)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "audit": _cmd_audit,
        "gen": _cmd_gen,
    }
    try:
        return handlers[args.command](args)
    except ParseError as err:
        print(f"sasfork: script error: {err}", file=sys.stderr)
        return 2
    except SimulatorError as err:
        print(f"sasfork: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"sasfork: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
