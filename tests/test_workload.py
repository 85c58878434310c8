"""DSL parsing, printing, interpretation, generation, and the CLI."""

import pytest

from sasfork.cli import main
from sasfork.errors import ParseError
from sasfork.workload import generate, parse, print_script, run
from sasfork.workload.script import MAX_FORK_DEPTH, Alloc, Fork, LoadInt, StoreInt


def nested_forks(depth):
    return "alloc a 64\n" + "fork {\n" * depth + "exit 0\n}\n" * depth


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
        child_a = copa.system.process(2).layout.heap.base
        assert int(child["load_int b+0"]) == child_a + 16
        assert child["load_int b+8"] == "0"
        # The unsafe CoW child still reads the parent's address.
        cow = run(text, "unsafe-cow")
        cow_child = {e.stmt: e.result for e in cow.trace.events if e.pid == 2}
        assert int(cow_child["load_int b+0"]) == cow.system.process(1).layout.heap.base + 16

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
        loaded = next(e for e in events if e.stmt == "load_ref a+0")
        assert loaded.result.startswith("cap:0x")
        assert events[loaded.seq + 1].result == f"FAILED(actual={loaded.result})"

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
