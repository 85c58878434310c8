"""``tools/pairs.py``: one alternating pair, and the entry it records."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def pairs(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RECORD_DIR", tmp_path)
    return module


def test_one_pair_of_audited_records_an_entry(pairs, tmp_path, capsys):
    argv = ["--base-dir", str(ROOT), "--workload", "audited", "--seed", "1"]
    assert pairs.main([*argv, "--pairs", "1", "--seconds", "0.05", "--record", "shape"]) == 0
    (entry,) = json.loads((tmp_path / "BENCH_audited.json").read_text())
    assert {
        "date", "commit", "src_changed", "base", "workload", "seed", "pairs",
        "order", "seconds", "metrics", "sim", "python", "probe_s", "note",
    } == set(entry)
    assert entry["order"] == ["base"]
    assert (entry["workload"], entry["seed"], entry["pairs"], entry["note"]) == (
        "audited", 1, 1, "shape"
    )
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(entry["metrics"]) == {m["name"] for m in manifest["end_to_end"]}
    for metric in entry["metrics"].values():
        for side in ("base", "change"):
            assert set(metric[side]) == {"median", "q1", "q3"}
            assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
        assert 0 <= metric["wins"] + metric["ties"] <= 1
    # The same tree on both sides models the same run.
    assert entry["sim"] == {
        name: m["change"]["median"] for name, m in entry["metrics"].items()
        if name.startswith("sim_")
    }
    for name in entry["sim"]:
        assert entry["metrics"][name]["ties"] == 1
    assert entry["probe_s"] > 0
    assert "audited: base -> change" in capsys.readouterr().out


def test_an_unknown_workload_is_a_usage_error(pairs):
    with pytest.raises(SystemExit) as exit_:
        pairs.main(["--base-dir", ".", "--workload", "nope", "--seed", "1", "--pairs", "1",
                    "--seconds", "1"])
    assert exit_.value.code == 2


def test_the_side_that_runs_first_alternates_from_pair_to_pair(pairs, tmp_path, monkeypatch):
    sides = []

    def run_side(tree, workload, seed, seconds):
        sides.append("change" if tree == pairs.ROOT else "base")
        return {"stmts_per_s": 1.0}

    monkeypatch.setattr(pairs, "run_side", run_side)
    monkeypatch.setattr(pairs, "probe_seconds", lambda: 1.0)
    argv = ["--base-dir", str(tmp_path), "--workload", "churn", "--seed", "1", "--seconds", "1"]
    assert pairs.main([*argv, "--pairs", "3", "--record", "order"]) == 0
    assert sides == ["base", "change", "change", "base", "base", "change"]
    (entry,) = json.loads((tmp_path / "BENCH_churn.json").read_text())
    assert entry["order"] == ["base", "change", "base"]
    assert entry["metrics"]["stmts_per_s"]["ties"] == 3
