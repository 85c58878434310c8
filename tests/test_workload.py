"""DSL parsing, printing, interpretation, generation, and the CLI."""

import os
import runpy
import subprocess
import sys
import tracemalloc
import typing
from dataclasses import dataclass
from pathlib import Path

import pytest

import sasfork.system
from sasfork.address_space import page_of
from sasfork.capability import Capability
from sasfork.cli import main
from sasfork.errors import ParseError, SimInternalError
from sasfork.kernel import KernelGateway
from sasfork.system import System
from sasfork.workload import TraceEvent, generate, interpreter, parse, print_script, run
from sasfork.workload.script import (
    _FORMATTERS,
    _SYNTAX,
    MAX_FORK_DEPTH,
    MAX_LAYOUT_PAGES,
    Alloc,
    Close,
    Deref,
    Exit,
    Expect,
    Fork,
    LoadInt,
    LoadRef,
    Open,
    Priv,
    Read,
    Script,
    Statement,
    StoreInt,
    StoreRef,
    Wait,
    Write,
    Yield,
    format_statement,
)
from test_golden import GOLDEN
from test_kernel import bench_workloads


def nested_forks(depth):
    return "alloc a 64\n" + "fork {\n" * depth + "exit 0\n}\n" * depth


#: One malformed script per message the parser raises, with the line,
#: column and message of its error.  A column is that of the token's
#: first occurrence on the raw line, so ``exit x`` points into ``exit``.
#: Each statement's checks run in a fixed order: the argument count first,
#: then its tokens left to right (``alloc a x`` fails on the name).
MALFORMED = [
    ("  }\n", 1, 3, "unmatched '}'"),
    ("alloc 1a 64\n", 1, 7, "bad symbol: '1a'"),
    ("alloc a 64\nload_int a+x\n", 2, 12, "bad offset: 'x'"),
    ("alloc a 64\nload_int a+-16\n", 2, 10, "negative offset"),
    ("alloc a 64\nstore_int b+0 1\n", 2, 11, "undeclared symbol 'b'"),
    (
        "layout heap=4 hep=2\n",
        1,
        15,
        "bad layout item 'hep=2' (keys: alloc_meta, code, got, heap, stack, tls)",
    ),
    ("layout heap=x\n", 1, 13, "bad page count: 'x'"),
    ("layout  # nothing\n", 1, 1, "empty layout directive"),
    (
        "\n# big\nlayout code=1 heap=200000\n",
        3,
        1,
        "layout of 200005 pages exceeds the limit of 131072",
    ),
    ("alloc a\n", 1, 1, "alloc takes 2 argument(s), got 1"),
    ("wait 1\n", 1, 1, "wait takes 0 argument(s), got 1"),
    ("alloc a 64\nalloc a x\n", 2, 7, "symbol 'a' already allocated"),
    ("alloc a 6x4\n", 1, 9, "bad size: '6x4'"),
    ("alloc a 0\n", 1, 9, "alloc size must be positive"),
    ("alloc a 64\nstore_int a+0 seven\n", 2, 15, "bad value: 'seven'"),
    ("alloc a 64\nstore_ref a+8 b+0\n", 2, 11, "reference stores must be 16-byte aligned"),
    ("alloc a 64\nload_ref a+8\n", 2, 10, "reference loads must be 16-byte aligned"),
    ("alloc a 64\nload_ref a+0\nderef 8 16\n", 3, 1, "deref takes at most one offset"),
    ("alloc a 64\nderef x\n", 2, 1, "deref before any load_ref in scope"),
    ("fork nowait  # no block\n", 1, 11, "fork needs a '{' block"),
    ("fork 9 {\n}\n", 1, 6, "bad fork label: '9'"),
    ("fork a b nowait {\n}\n", 1, 1, "fork takes at most a label and 'nowait'"),
    (nested_forks(MAX_FORK_DEPTH + 1), 102, 1, "fork blocks nested deeper than 100"),
    ("alloc a 64\nfork {\nexit 0\n\n", 4, 1, "fork block never closed with '}'"),
    ("exit x\n", 1, 6, "bad exit code: 'x'"),
    ("exit 256\n", 1, 6, "exit code must be 0..255"),
    ("open 1f\n", 1, 6, "bad file name: '1f'"),
    ("alloc a 64\nopen f\nfork {\nclose g\n}\n", 4, 7, "file 'g' never opened"),
    ("alloc a 64\nopen f\nread f a+0 x\n", 3, 12, "bad count: 'x'"),
    ("alloc a 64\nopen f\nwrite f a+0 -1\n", 3, 13, "negative count"),
    ("alloc a 64\nwrite g a+0 1\n", 2, 7, "file 'g' never opened"),
    ("expect 1\n", 1, 1, "expect needs a previous result"),
    ("expect\n", 1, 1, "expect takes 1 argument(s), got 0"),
    ("alloc a 64\nexpect 1x\n", 2, 8, "bad expected value: '1x'"),
    ("alloc a 64\n  frob a\n", 2, 3, "unknown statement 'frob'"),
    ("alloc a 64\nfork {\nalloc b 64\n}\nload_int b+0\n", 5, 10, "undeclared symbol 'b'"),
    ("layout heap=0\n", 1, 8, "heap and stack need at least one page"),
    ("layout heap=-3 code=5\n", 1, 8, "page counts must be non-negative"),
    ("layout heap=4 got=0\n", 1, 15, "code, got and alloc_meta need at least one page"),
    ("layout heap=4 heap=8\n", 1, 15, "duplicate layout key 'heap'"),
    ("alloc a 64\nstore_int a+0 a\n", 2, 15, "bad value: 'a'"),
    ("alloc a 64\nalloc b a\n", 2, 9, "bad size: 'a'"),
    ("layout heap=a\n", 1, 13, "bad page count: 'a'"),
    ("alloc a 64\nload_int a+a\n", 2, 12, "bad offset: 'a'"),
    ("fork nowait\n", 1, 11, "fork needs a '{' block"),
    ("alloc a 64\nload_ref a+0\nderef d\n", 3, 7, "bad offset: 'd'"),
]

#: A sample statement of each type with a ``_SYNTAX`` row, and a prelude
#: that declares what the samples use and gives ``expect`` a result.
SAMPLES = {
    Alloc: Alloc("b", 64),
    StoreInt: StoreInt("a", 8, -3),
    StoreRef: StoreRef("a", 16, "a", 40),
    LoadInt: LoadInt("a", 8),
    LoadRef: LoadRef("a", 32),
    Exit: Exit(255),
    Wait: Wait(),
    Open: Open("g"),
    Close: Close("f"),
    Read: Read("f", "a", 8, 4),
    Write: Write("f", "a", 0, 0),
    Yield: Yield(),
    Priv: Priv(),
    Expect: Expect("EFAULT"),
}
PRELUDE = "alloc a 4096\nopen f\nload_int a+0\n"


class TestParser:
    def test_three_statement_script(self):
        script = parse("alloc a 4096\nstore_int a+0 42\nload_int a+0\n")
        assert script.body == (
            Alloc("a", 4096),
            StoreInt("a", 0, 42),
            LoadInt("a", 0),
        )

    def test_undeclared_symbol_is_named(self):
        with pytest.raises(ParseError) as err:
            parse("alloc a 4096\nstore_ref a+16 b+0\n")
        assert "b" in str(err.value) and err.value.line == 2

    def test_misaligned_reference_store_is_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("alloc a 4096\nstore_ref a+7 a+0\n")
        assert "16-byte aligned" in str(err.value)

    def test_deref_requires_a_prior_load_ref(self):
        with pytest.raises(ParseError):
            parse("alloc a 4096\nderef\n")

    def test_unknown_statement_has_a_location(self):
        with pytest.raises(ParseError) as err:
            parse("alloc a 64\nfrobnicate a\n")
        assert err.value.line == 2 and err.value.column == 1

    def test_unclosed_fork_block(self):
        with pytest.raises(ParseError):
            parse("alloc a 64\nfork {\nexit 0\n")

    def test_layout_pragma(self):
        script = parse("layout heap=16 stack=4\nalloc a 64\n")
        assert script.layout == {"heap": 16, "stack": 4}
        spec = script.layout_spec()
        assert spec.heap_pages == 16 and spec.stack_pages == 4

    def test_layout_size_is_limited(self):
        # The other sub-regions keep their default 6 pages.  Only parsed:
        # an oversized layout never reaches the simulator.
        fits = f"layout heap={MAX_LAYOUT_PAGES - 6}\nalloc a 64\n"
        assert parse(fits).layout_spec().total_pages == MAX_LAYOUT_PAGES
        for text, line, column in (
            (f"layout heap={MAX_LAYOUT_PAGES - 5}\n", 1, 1),
            ("# big\n  layout code=1 heap=100000000\nalloc a 64\n", 2, 3),
        ):
            with pytest.raises(ParseError) as err:
                parse(text)
            assert (err.value.line, err.value.column) == (line, column)
            assert f"limit of {MAX_LAYOUT_PAGES}" in err.value.message

    def test_comments_and_hex_values(self):
        script = parse("# setup\nalloc a 0x1000  # one page\nstore_int a+0x10 0xff\n")
        assert script.body[1] == StoreInt("a", 16, 255)

    def test_fork_labels_and_nowait(self):
        script = parse("alloc a 64\nfork worker nowait {\nexit 0\n}\nwait\n")
        fork = script.body[1]
        assert isinstance(fork, Fork) and fork.label == "worker" and fork.nowait

    def test_child_scope_inherits_parent_symbols(self):
        parse("alloc a 64\nfork {\nload_int a+0\nexit 0\n}\n")
        with pytest.raises(ParseError):
            # ...but not the other way around.
            parse("fork {\nalloc b 64\nexit 0\n}\nload_int b+0\n")

    def test_expect_needs_a_previous_result(self):
        with pytest.raises(ParseError):
            parse("expect 1\n")
        parse("alloc a 64\nfork {\nexpect 0\nexit 0\n}\n")  # fork return counts


    @pytest.mark.parametrize("text, line, column, message", MALFORMED)
    def test_each_malformed_script_fails_at_its_token(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)

    @pytest.mark.parametrize("word", ["layouts", "layout_heap"])
    def test_only_the_exact_layout_keyword_starts_a_layout(self, word):
        with pytest.raises(ParseError) as err:
            parse(f"{word} heap=4\nalloc a 64\n")
        assert (err.value.line, err.value.column) == (1, 1)
        assert err.value.message == f"unknown statement {word!r}"
        assert parse("  layout heap=2 # c\nalloc a 64\n").layout == {"heap": 2}

    def test_fork_nesting_is_limited(self):
        script = parse(nested_forks(MAX_FORK_DEPTH))
        assert parse(print_script(script)) == script
        with pytest.raises(ParseError) as err:
            parse(nested_forks(MAX_FORK_DEPTH + 1))
        assert "nested deeper" in str(err.value) and err.value.line == MAX_FORK_DEPTH + 2


class TestRoundTrip:
    def test_parse_print_round_trip(self):
        script = generate(pages=6, ref_density=0.4, child_read_frac=0.5, seed=11)
        assert parse(print_script(script)) == script

    def test_round_trip_with_all_statement_kinds(self):
        text = (
            "layout heap=8\n"
            "alloc a 4096\n"
            "store_int a+0 7\n"
            "store_ref a+16 a+64\n"
            "load_int a+0\n"
            "expect 7\n"
            "load_ref a+16\n"
            "deref\n"
            "open log\n"
            "write log a+0 8\n"
            "read log a+128 8\n"
            "close log\n"
            "fork w nowait {\n"
            "  yield\n"
            "  priv\n"
            "}\n"
            "wait\n"
            "exit 0\n"
        )
        script = parse(text)
        assert parse(print_script(script)) == script

    @pytest.mark.parametrize("name", ["snapshot", "churn", "audited"])
    def test_each_full_size_benchmark_script_prints_back_byte_for_byte(self, name):
        text = bench_workloads().WORKLOADS[name].script(1)
        script = parse(text)
        printed = print_script(script)
        assert printed == text
        assert parse(printed) == script


class TestStatementIdentity:
    @pytest.mark.parametrize(
        "one, other",
        [
            (LoadInt("a", 0), LoadRef("a", 0)),
            (Wait(), Yield()),
            (Wait(), Priv()),
            (Yield(), Priv()),
            (Open("f"), Close("f")),
            (Read("f", "a", 0, 8), Write("f", "a", 0, 8)),
        ],
        ids=lambda stmt: type(stmt).__name__,
    )
    def test_types_with_equal_fields_are_different_statements(self, one, other):
        assert one != other and not one == other
        assert other != one and not other == one
        assert len({one, other}) == 2

    def test_scripts_differ_by_statement_type(self):
        assert Script((Wait(),)) != Script((Yield(),))
        assert Script((Wait(),)) == Script((Wait(),))
        fork = Fork(None, False, (LoadInt("a", 0),))
        assert fork != Fork(None, False, (LoadRef("a", 0),))
        assert fork == Fork(label=None, nowait=False, body=(LoadInt("a", 0),))

    def test_a_statement_never_equals_a_plain_tuple(self):
        stmt = StoreInt("a", 0, 1)
        assert stmt != ("a", 0, 1) and ("a", 0, 1) != stmt
        assert not stmt == ("a", 0, 1) and not ("a", 0, 1) == stmt
        assert Wait() != () and () != Wait()
        assert len({stmt, ("a", 0, 1)}) == 2

    @pytest.mark.parametrize(
        "stmt, fields",
        [
            (Alloc("b", 64), ("b", 64)),
            (StoreRef("a", 16, "a", 40), ("a", 16, "a", 40)),
            (Deref(), (0,)),
            (Wait(), ()),
            (Expect("EFAULT"), ("EFAULT",)),
            (Fork("w", True, (Exit(0), Yield())), ("w", True, ((0,), ()))),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_a_statement_hashes_as_its_field_tuple(self, stmt, fields):
        assert hash(stmt) == hash(fields)
        script = Script((stmt,), {"heap": 4})
        assert hash(script) == hash(((fields,), (("heap", 4),)))

    def test_assigning_a_field_raises(self):
        stmt = StoreInt("a", 0, 1)
        with pytest.raises(AttributeError):
            stmt.value = 2
        with pytest.raises(AttributeError):
            Fork(None, False, ()).nowait = True
        assert stmt == StoreInt("a", 0, 1)


class TestExecution:
    def test_fork_return_convention(self):
        result = run("alloc a 64\nfork {\nexpect 0\nexit 3\n}\nexpect 3\n", "copa")
        assert result.ok
        parent_fork = next(e for e in result.trace.events if e.stmt == "fork" and e.pid == 1)
        child_fork = next(e for e in result.trace.events if e.stmt == "fork" and e.pid == 2)
        assert parent_fork.result == "2" and child_fork.result == "0"

    def test_child_deref_reads_child_memory_and_matches_full_copy(self):
        text = (
            "alloc a 4096\nalloc b 4096\nstore_int b+8 12345\nstore_ref a+0 b+8\n"
            "fork {\nload_ref a+0\nderef\nexpect 12345\nexit 0\n}\n"
        )
        copa = run(text, "copa")
        full = run(text, "full")
        assert copa.ok and full.ok
        assert copa.trace.value_hash() == full.trace.value_hash()
        child_region = copa.system.process(2).region
        loaded = next(e for e in copa.trace.events if e.stmt == "load_ref a+0")
        cursor = int(loaded.result.split(":")[1].split("+")[0], 16)
        assert child_region.contains(cursor)

    def test_child_integer_read_of_a_reference_matches_across_strategies(self):
        text = (
            "layout heap=4\nalloc a 4096\nalloc b 4096\nstore_ref b+0 a+16\n"
            "fork {\nload_int b+0\nload_int b+8\nexit 0\n}\n"
        )
        runs = {name: run(text, name) for name in ("full", "coa", "copa")}
        assert len({result.trace.value_hash() for result in runs.values()}) == 1
        copa = runs["copa"]
        child = {e.stmt: e.result for e in copa.trace.events if e.pid == 2}
        # A reaped process keeps its region; the script's spec carves it.
        spec = parse(text).layout_spec()
        child_a = spec.carve(copa.system.process(2).region).heap.base
        assert int(child["load_int b+0"]) == child_a + 16
        assert child["load_int b+8"] == "0"
        # The unsafe CoW child still reads the parent's address.
        cow = run(text, "unsafe-cow")
        cow_child = {e.stmt: e.result for e in cow.trace.events if e.pid == 2}
        cow_a = spec.carve(cow.system.process(1).region).heap.base
        assert int(cow_child["load_int b+0"]) == cow_a + 16

    def test_child_store_to_shared_page_raises_exactly_one_write_fault(self):
        text = "alloc a 4096\nstore_int a+0 1\nfork {\nstore_int a+8 2\nexit 0\n}\n"
        result = run(text, "copa")
        child_row = result.report.row(2)
        from sasfork.fork_engine import CopyCause

        assert child_row.lazy_pages_copied == {CopyCause.WRITE_FAULT: 1}
        assert child_row.faults.get(
            __import__("sasfork").FaultKind.PAGE_WRITE
        ) == 1

    def test_priv_is_a_trace_terminal_fault(self):
        result = run("alloc a 64\nfork {\npriv\nexit 0\n}\nwait\n", "copa")
        child_events = [e for e in result.trace.events if e.pid == 2]
        assert child_events[-1].result == "PrivilegeFault"
        # The parent reaps the fault exit code, not 0.
        wait_event = next(e for e in result.trace.events if e.stmt == "wait")
        assert wait_event.result == "139"

    def test_fault_kills_only_the_faulting_process(self):
        text = (
            "alloc a 4096\n"
            "fork {\npriv\nexit 0\n}\n"
            "load_int a+0\n"
        )
        result = run(text, "copa")
        parent_events = [e for e in result.trace.events if e.pid == 1]
        assert any(e.stmt == "load_int a+0" for e in parent_events)

    def test_stale_load_then_deref_faults_after_tag_clear(self):
        # Clearing the granule with a byte store makes the later
        # capability load untagged; dereferencing it must tag-fault.
        text = (
            "alloc a 4096\nalloc b 4096\nstore_ref a+0 b+0\nstore_int a+8 1\n"
            "load_ref a+0\nderef\n"
        )
        result = run(text, "copa")
        events = [e.result for e in result.trace.events if e.pid == 1]
        assert "CapTagFault" in events

    def test_bad_fd_and_continue(self):
        text = "alloc a 64\nopen f\nclose f\nclose f\nload_int a+0\n"
        result = run(text, "copa")
        results = [e.result for e in result.trace.events if e.pid == 1]
        assert "BadFd" in results
        assert results[-2] == "0"  # the load after the failed close ran

    def test_nowait_child_still_reaped_by_final_sweep(self):
        text = "alloc a 64\nfork nowait {\nyield\nexit 9\n}\nload_int a+0\n"
        result = run(text, "copa", debug=True)
        assert result.system.process(2).exit_code == 9

    def test_a_second_expect_checks_the_statement_before_the_first(self):
        result = run("alloc a 64\nload_int a+0\nexpect 0\nexpect 0\nexpect 1\n", "copa")
        expects = [e.result for e in result.trace.events if e.stmt.startswith("expect")]
        assert expects == ["ok", "ok", "FAILED(actual=0)"]
        assert len(result.expect_failures) == 1

    def test_expect_after_load_ref_compares_the_rendered_capability(self):
        text = "alloc a 64\nalloc b 64\nstore_ref a+0 b+0\nload_ref a+0\nexpect 5\n"
        events = run(text, "copa").trace.events
        seq, loaded = next((i, e) for i, e in enumerate(events) if e.stmt == "load_ref a+0")
        assert loaded.result.startswith("cap:0x")
        assert events[seq + 1].result == f"FAILED(actual={loaded.result})"

    def test_expect_efault_after_a_refused_write_passes(self):
        result = run("alloc a 64\nopen f\nwrite f a+0 128\nexpect EFAULT\n", "copa")
        assert [e.result for e in result.trace.events][-3:] == ["EFAULT", "ok", "0"]
        assert result.ok

    def test_expect_of_a_hex_value_matches_its_integer(self):
        result = run("alloc a 64\nstore_int a+0 16\nload_int a+0\nexpect 0x10\n", "copa")
        assert result.ok
        assert result.trace.events[-2].stmt == "expect 16"
        assert result.trace.events[-2].result == "ok"

    def test_yield_round_robin_interleaves(self):
        text = (
            "alloc a 64\n"
            "fork nowait {\nyield\nstore_int a+0 1\nexit 0\n}\n"
            "yield\nload_int a+0\nwait\n"
        )
        result = run(text, "copa")
        pids = [e.pid for e in result.trace.events]
        assert pids.index(2) < len(pids) - 1  # the child really interleaved


    def test_scheduler_drops_the_tasks_of_exited_processes(self, monkeypatch):
        from sasfork.workload.interpreter import _Interpreter

        real = _Interpreter._after_step
        sizes = []

        def measured(interp):
            sizes.append(len(interp._tasks))
            real(interp)

        monkeypatch.setattr(_Interpreter, "_after_step", measured)

        def peak_tasks(workers):
            sizes.clear()
            batch = "fork nowait {\nexit 0\n}\n" * 8 + "wait\n" * 8
            result = run("layout code=1 heap=1 stack=1\n" + batch * (workers // 8), "copa")
            assert len(result.system.processes) == workers + 1
            return max(sizes)

        few = peak_tasks(8)
        assert few > 1
        assert peak_tasks(800) <= few


def statements(body):
    for stmt in body:
        yield stmt
        if isinstance(stmt, Fork):
            yield from statements(stmt.body)


@dataclass(frozen=True)
class NotAStatement:
    name: str = "a"


#: A raw result's types.  Each is immutable, so an event rendered when the
#: trace is read shows the text its result had when the statement ran.
RAW_RESULT_TYPES = (int, bool, str, type(None), Capability)

#: The golden scripts and each benchmark workload's tiny script.
TRACED_SCRIPTS = {name: text for name, (text, _) in GOLDEN.items()} | {
    f"tiny-{name}": w.tiny_script(1) for name, w in bench_workloads().WORKLOADS.items()
}


class TestStatementTables:
    def test_every_statement_type_has_one_handler_and_one_formatter(self):
        types = typing.get_args(Statement)
        assert len(set(types)) == len(types)
        assert set(interpreter._HANDLERS) == set(types)
        assert set(_FORMATTERS) == set(types)
        assert all(callable(interpreter._HANDLERS[t]) for t in types)
        # Fork and Deref have readers of their own; every other type has
        # one syntax row, and no two rows share a keyword.
        assert set(_SYNTAX) == set(types) - {Fork, Deref}
        keywords = [keyword for keyword, _ in _SYNTAX.values()] + ["fork", "deref"]
        assert len(set(keywords)) == len(keywords)
        # A syntax row's formatter is its ``%`` template, which starts with
        # the keyword and fills every field of the statement once.
        for cls, (keyword, _) in _SYNTAX.items():
            template = _FORMATTERS[cls].__self__
            assert template.split()[0] == keyword
            assert template.count("%s") == len(cls._fields)

    def test_each_statement_form_prints_exactly_this_text(self):
        # A parse/print round trip misses a change made the same way on
        # both sides; the exact text does not.
        expected = [
            (Alloc("b", 64), "alloc b 64"),
            (StoreInt("a", 8, -3), "store_int a+8 -3"),
            (StoreRef("a", 16, "a", 40), "store_ref a+16 a+40"),
            (LoadInt("a", 8), "load_int a+8"),
            (LoadRef("a", 32), "load_ref a+32"),
            (Deref(), "deref"),
            (Deref(8), "deref 8"),
            (Fork(None, False, ()), "fork"),
            (Fork("w", True, (Exit(0),)), "fork w nowait"),
            (Exit(255), "exit 255"),
            (Wait(), "wait"),
            (Open("g"), "open g"),
            (Close("f"), "close f"),
            (Read("f", "a", 8, 4), "read f a+8 4"),
            (Write("f", "a", 0, 0), "write f a+0 0"),
            (Yield(), "yield"),
            (Priv(), "priv"),
            (Expect("ok"), "expect ok"),
            (Expect(-3), "expect -3"),
            # Hex is read, and written back in decimal.
            (parse(PRELUDE + "store_int a+0x10 0xff\n").body[-1], "store_int a+16 255"),
        ]
        assert {type(stmt) for stmt, _ in expected} == set(typing.get_args(Statement))
        assert [format_statement(stmt) for stmt, _ in expected] == [text for _, text in expected]

    @pytest.mark.parametrize("cls", list(_SYNTAX), ids=lambda cls: cls.__name__)
    def test_each_syntax_row_reads_back_what_its_formatter_writes(self, cls):
        stmt = SAMPLES[cls]
        text = format_statement(stmt)
        assert text.split()[0] == _SYNTAX[cls][0]
        assert parse(PRELUDE + text + "\n").body[-1] == stmt

    def test_another_type_is_an_internal_error_and_has_no_text(self):
        with pytest.raises(SimInternalError, match="unhandled statement"):
            run(Script(body=(NotAStatement(),)), "copa")
        with pytest.raises(TypeError, match="unknown statement"):
            format_statement(NotAStatement())

    @pytest.mark.parametrize("name", sorted(TRACED_SCRIPTS))
    def test_the_trace_shows_each_statement_as_the_printer_does(self, name, monkeypatch):
        if name == "eagain":
            monkeypatch.setattr(sasfork.system, "PID_SLOTS", 4)
        script = parse(TRACED_SCRIPTS[name])
        assert parse(print_script(script)) == script
        # An event keeps the script's own statement tuple, which the
        # printer renders, or the implicit wait behind a fork or exit 0 at
        # the end of a stream; and a raw result of an immutable type.
        own = {id(stmt) for stmt in statements(script.body)}
        for strategy in ("full", "coa", "copa", "unsafe-cow"):
            events = run(script, strategy).trace.events
            assert events
            for event in events:
                assert id(event.statement) in own or event.statement in (Wait(), Exit(0))
                assert type(event.value) in RAW_RESULT_TYPES, event


class TestTraceEvents:
    def test_the_trace_keeps_little_per_event(self):
        # What the events of a `gen --pages 256` run hold, measured by
        # dropping the trace's columns under tracemalloc (Python 3.11):
        # ~58 B per event, against ~112 B when the trace kept a TraceEvent
        # tuple per event and ~225 B when each event also kept its
        # sequence number and rendered statement and result text.
        script = generate(256, 0.0625, 1.0, 0)
        tracemalloc.start()
        try:
            result = run(script, "copa")
            trace = result.trace
            count = len(trace.pids)
            held = tracemalloc.get_traced_memory()[0]
            trace.pids = trace.statements = trace.values = []
            per_event = (held - tracemalloc.get_traced_memory()[0]) / count
        finally:
            tracemalloc.stop()
        assert count > 1000
        assert per_event < 75, f"{per_event:.0f} B per event"

    def test_events_compare_as_their_raw_fields(self):
        result = run("alloc a 64\nload_int a+0\n", "copa")
        first = result.trace.events[0]
        assert first == (1, Alloc("a", 64), 0)
        assert (first.stmt, first.result) == ("alloc a 64", "0")


#: Page offsets of the 8-byte integer accesses: in-page, then crossing.
EDGE_OFFSETS = (4088, 4089, 4092, 4095)
#: What the child runs for each access; ``deref`` reads through ``r+0``.
EDGE_OPS = {
    "load_int": "load_int a+{off}",
    "store_int": "store_int a+{off} 0x0102030405060708\nload_int a+{off}\nexpect 0x0102030405060708",
    "deref": "load_ref r+0\nderef",
}
LOW, HIGH = 0x1122334455667788, 0x99AABBCCDDEEFF00


def edge_script(op, off):
    return (
        "layout heap=4\nalloc a 8192\nalloc r 4096\n"
        f"store_int a+4088 {LOW}\nstore_int a+4096 {HIGH}\nstore_ref r+0 a+{off}\n"
        "fork {\n" + EDGE_OPS[op].format(off=off) + "\nexit 0\n}\n"
    )


def traced_steps(text, strategy, isolation, monkeypatch):
    """Each step's last event, the pages its accesses touched, and its copies."""
    steps, accesses = [], []
    real_access = System.access
    real_step = interpreter._Interpreter._after_step

    def access(self, pid, cap, *args, **kwargs):
        # An access lands at its ``at`` address, or at the cursor without one.
        accesses.append(page_of(kwargs.get("at", cap.cursor)))
        return real_access(self, pid, cap, *args, **kwargs)

    def after_step(interp):
        lazy = [e for e in interp.system.fork_engine.events if not e.eager]
        copied = sum(len(step[2]) for step in steps)
        trace = interp.trace
        last = TraceEvent(trace.pids[-1], trace.statements[-1], trace.values[-1])
        steps.append((last, list(accesses), lazy[copied:]))
        accesses.clear()
        real_step(interp)

    monkeypatch.setattr(System, "access", access)
    monkeypatch.setattr(interpreter._Interpreter, "_after_step", after_step)
    result = run(text, strategy, isolation)
    monkeypatch.undo()
    return result, steps


class TestPageEdges:
    @pytest.mark.parametrize("off", EDGE_OFFSETS)
    @pytest.mark.parametrize("op", sorted(EDGE_OPS))
    def test_integer_accesses_at_a_page_edge(self, op, off, monkeypatch):
        memory = LOW.to_bytes(8, "little") + HIGH.to_bytes(8, "little")
        expected = str(int.from_bytes(memory[off - 4088 : off - 4080], "little"))
        spec = parse(edge_script(op, off)).layout_spec()
        for isolation in ("fault", "full"):
            traces = {}
            for strategy in ("full", "coa", "copa", "unsafe-cow"):
                result, steps = traced_steps(edge_script(op, off), strategy, isolation, monkeypatch)
                assert result.ok and not result.expect_failures
                traces[strategy] = result.trace.to_text()
                # The unsafe CoW child's stale reference reads the parent's pages.
                stale = op == "deref" and strategy == "unsafe-cow"
                region = result.system.process(1 if stale else 2).region
                base = spec.carve(region).heap.base
                touched = sorted({page_of(base + off), page_of(base + off + 7)})
                assert len(touched) == (1 if off == 4088 else 2)
                copied = set()
                child = [
                    step for step in steps
                    if step[0].pid == 2 and step[0].stmt.split()[0] in EDGE_OPS
                ]
                assert len(child) == (2 if op == "store_int" else 1)
                for event, pages, copies in child:
                    kind = event.stmt.split()[0]
                    # One access per page the statement touches, in order.
                    assert pages == touched, (strategy, event)
                    if op != "store_int":  # the store's read-back has its expect
                        assert event.result == expected
                    lazy = strategy == "coa" or (kind == "store_int" and strategy != "full")
                    fresh = [p for p in touched if p not in copied] if lazy else []
                    assert [(c.pid, c.page_va) for c in copies] == [(2, p) for p in fresh]
                    copied.update(fresh)
            assert traces["full"] == traces["coa"] == traces["copa"]


#: Every access statement, once a word of it crosses the page edge.
ACCESSES = """
alloc a 8192
store_ref a+0 a+4089
store_int a+4089 5
load_int a+4089
expect 5
load_ref a+0
deref
expect 5
deref 3
store_int a+24 7
load_int a+24
expect 7
"""


def test_an_access_builds_no_capability(monkeypatch):
    """An access passes its address beside its capability, so only a
    capability that is a value moves a cursor: the bump cursor that
    ``alloc`` stores back, and the target that ``store_ref`` stores."""
    moved = []
    real = Capability.with_cursor

    def with_cursor(cap, addr):
        moved.append(addr)
        return real(cap, addr)

    monkeypatch.setattr(Capability, "with_cursor", with_cursor)
    result = run(ACCESSES, "copa", "fault", debug=True)
    monkeypatch.undo()
    assert result.ok and not result.expect_failures
    region = result.system.process(1).region
    heap = parse(ACCESSES).layout_spec().carve(region).heap
    assert moved == [heap.base + 8192, heap.base + 4089]


REUSED = """
alloc a 64
fork {
  fork {
    store_int a+0 1
  }
  load_int a+0
}
fork nowait {
  yield
  exit 3
}
wait
expect 3
"""


class TestScriptReuse:
    def test_a_run_leaves_its_script_as_it_was(self, monkeypatch):
        script = parse(REUSED)
        before = hash(script)
        waits = []
        real = KernelGateway.syscall

        def syscall(self, pid, entry, name, args):
            waits.append(name == "wait")
            return real(self, pid, entry, name, args)

        monkeypatch.setattr(KernelGateway, "syscall", syscall)
        first = run(script, "copa", debug=True)
        second = run(script, "copa", debug=True)
        assert first.ok and second.trace.to_text() == first.trace.to_text()
        assert script == parse(REUSED) and hash(script) == before
        events = first.trace.events
        # Each fork without nowait is waited for, each stream without an
        # exit ends in exit 0, and a wait was retried after blocking.
        assert sum(e.stmt == "wait" for e in events) == 3
        assert sum(e.stmt == "exit 0" for e in events) == 3
        assert sum(waits) > 2 * 3


class TestGenerator:
    def test_same_flags_same_bytes(self):
        a = print_script(generate(pages=16, ref_density=0.25, child_read_frac=0.5, seed=9))
        b = print_script(generate(pages=16, ref_density=0.25, child_read_frac=0.5, seed=9))
        assert a == b

    def test_different_seeds_differ(self):
        a = print_script(generate(pages=16, ref_density=0.25, child_read_frac=0.5, seed=1))
        b = print_script(generate(pages=16, ref_density=0.25, child_read_frac=0.5, seed=2))
        assert a != b

    def test_every_index_page_carries_a_reference(self):
        from sasfork.capability import PAGE_SIZE
        from sasfork.workload.script import StoreRef

        script = generate(pages=32, ref_density=0.125, child_read_frac=1.0, seed=4)
        refs = [s for s in script.body if isinstance(s, StoreRef)]
        index_pages = {s.offset // PAGE_SIZE for s in refs}
        assert index_pages == set(range(4))  # 32 * 0.125

    def test_too_few_index_pages_for_one_reference_per_data_page_is_usage(self, capsys):
        # round(600 * 0.001) is one index page: 256 granules for 600 references.
        with pytest.raises(ValueError, match="limit is 256 references per index page"):
            generate(pages=600, ref_density=0.001, child_read_frac=1.0, seed=1)
        assert main(["gen", "--pages", "600", "--ref-density", "0.001", "--seed", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "600 data pages need 3" in err

    def test_a_low_density_that_fits_runs_without_a_fault(self):
        from sasfork.workload.script import StoreRef

        script = generate(pages=512, ref_density=1 / 256, child_read_frac=1.0, seed=1)
        refs = [s for s in script.body if isinstance(s, StoreRef)]
        assert len(refs) == 512 and {s.offset // 4096 for s in refs} == {0, 1}
        events = run(script, "copa").trace.events
        assert not [e for e in events if e.result.endswith("Fault")]
        assert [e.pid for e in events if e.stmt == "exit 0"] == [2, 1]


class TestIsolationMonotonicity:
    def test_error_free_scripts_agree_across_isolation_levels(self):
        script = print_script(generate(pages=6, ref_density=0.34, child_read_frac=0.6, seed=21))
        hashes = {
            run(script, "copa", level).trace.value_hash()
            for level in ("full", "fault", "none")
        }
        assert len(hashes) == 1


class TestCli(object):
    def test_gen_run_pipe(self, tmp_path, capsys):
        script_path = tmp_path / "w.sas"
        assert main(["gen", "--pages", "8", "--ref-density", "0.25", "--seed", "1",
                     "--output", str(script_path)]) == 0
        assert main(["run", str(script_path), "--strategy", "copa"]) == 0
        out = capsys.readouterr().out
        assert "report strategy=copa" in out

    def test_compare_exit_code_and_table(self, tmp_path, capsys):
        script_path = tmp_path / "w.sas"
        main(["gen", "--pages", "8", "--ref-density", "0.25", "--seed", "2",
              "--output", str(script_path)])
        assert main(["compare", str(script_path)]) == 0
        out = capsys.readouterr().out
        assert "verdict" in out and "VIOLATED" not in out

    def test_audit_unsafe_cow_reports_but_exits_zero(self, tmp_path, capsys):
        script = (
            "alloc a 4096\nalloc b 4096\nstore_ref a+0 b+0\n"
            "fork {\nload_ref a+0\nderef\nexit 0\n}\n"
        )
        path = tmp_path / "stale.sas"
        path.write_text(script)
        assert main(["audit", str(path), "--strategy", "unsafe-cow"]) == 0
        out = capsys.readouterr().out
        assert "violation" in out
        assert main(["audit", str(path), "--strategy", "copa"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_expect_failure_sets_exit_code(self, tmp_path):
        path = tmp_path / "bad.sas"
        path.write_text("alloc a 64\nload_int a+0\nexpect 1\n")
        assert main(["run", str(path)]) == 1

    def test_parse_error_is_usage(self, tmp_path):
        path = tmp_path / "broken.sas"
        path.write_text("frobnicate\n")
        assert main(["run", str(path)]) == 2

    def test_an_oversized_layout_is_a_script_error(self, tmp_path, capsys):
        path = tmp_path / "huge.sas"
        path.write_text("layout heap=100000000\nalloc a 64\n")
        assert main(["run", str(path)]) == 2
        assert "script error: line 1, col 1" in capsys.readouterr().err

    def test_a_refused_layout_count_is_a_script_error(self, tmp_path, capsys):
        path = tmp_path / "empty_heap.sas"
        path.write_text("layout heap=0\nalloc a 64\n")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "script error: line 1, col 8: heap and stack need at least one page" in err

    def test_python_dash_m_runs_the_cli(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "w.sas"
        path.write_text("alloc a 64\nstore_int a+0 1\n")
        monkeypatch.setattr("sys.argv", ["sasfork", "audit", str(path)])
        with pytest.raises(SystemExit) as done:
            runpy.run_module("sasfork", run_name="__main__")
        assert done.value.code == 0
        assert capsys.readouterr().out == "audit: clean\n"

    def test_a_reader_that_closes_stdout_early_gets_no_traceback(self, tmp_path):
        """``sasfork run big.sas | head -1``: the trace is far larger than a
        pipe buffer, so the writes after the reader is gone fail."""
        path = tmp_path / "g.sas"
        assert main(["gen", "--pages", "512", "--seed", "1", "--output", str(path)]) == 0
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "sasfork", "run", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert first.startswith(b"[0] pid=1 alloc")
        assert b"Traceback" not in err and b"Exception ignored" not in err

    def test_gen_rejects_pages_whose_layout_exceeds_the_limit(self, capsys):
        with pytest.raises(ValueError, match="limit"):
            generate(MAX_LAYOUT_PAGES, ref_density=0.0, child_read_frac=0.0, seed=0)
        assert main(["gen", "--pages", str(MAX_LAYOUT_PAGES)]) == 2
        assert f"over the limit of {MAX_LAYOUT_PAGES}" in capsys.readouterr().err

    def test_deeply_nested_forks_are_a_script_error(self, tmp_path, capsys):
        path = tmp_path / "deep.sas"
        path.write_text(nested_forks(1200))
        assert main(["run", str(path)]) == 2
        assert "script error" in capsys.readouterr().err

    def test_missing_file_is_usage(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.sas")]) == 2
        assert "cannot read" in capsys.readouterr().err
        output = tmp_path / "missing" / "w.sas"
        assert main(["gen", "--pages", "4", "--output", str(output)]) == 2
        assert "cannot write" in capsys.readouterr().err
        assert not output.exists()

    def test_unknown_compare_strategy_is_usage(self, tmp_path, capsys):
        path = tmp_path / "w.sas"
        path.write_text("alloc a 64\n")
        assert main(["compare", str(path), "--strategies", "full,bogus"]) == 2
        assert "unknown strategy 'bogus'" in capsys.readouterr().err
