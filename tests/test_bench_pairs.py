"""tools/bench_pairs.py: it keeps the runs it has when a run fails, and it
labels each metric against its bound."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_a_failing_run_writes_the_runs_so_far(tmp_path, monkeypatch):
    tool = load_tool()
    shutil.copy(TOOL.parent.parent / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "unpack", lambda rev, into: "abc1234")
    metrics = {m: {"value": 1.0} for m in tool.METRICS}
    calls = []

    def run_side(root, workload, seed, seconds):
        calls.append((workload, seed))
        if len(calls) == 3:
            raise subprocess.CalledProcessError(3, ["perfbench"], stderr="Traceback: boom\n")
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "run_side", run_side)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--tag", "t", "--workloads",
                                      "circle", "--seeds", "1-4"])
    with pytest.raises(SystemExit) as exit_info:
        tool.main()
    assert exit_info.value.code not in (0, None)
    out = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert [(r["seed"], r["side"]) for r in out["runs"]] == [(1, "parent"), (1, "change")]
    # seed 2 runs the change side first
    assert out["failed"]["seed"] == 2 and out["failed"]["side"] == "change"
    assert out["failed"]["exit_code"] == 3
    assert "boom" in out["failed"]["stderr_tail"]
    assert len(calls) == 3


def test_both_sides_run_in_fresh_trees(tmp_path, monkeypatch):
    # a repository with one committed, modified file, one untracked file
    # and one ignored file
    repo = tmp_path / "repo"
    repo.mkdir()
    shutil.copy(TOOL.parent.parent / "BENCHMARK.json", repo)
    (repo / ".gitignore").write_text("junk.txt\n")
    (repo / "a.txt").write_text("committed\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
                       cwd=repo, check=True, capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (repo / "a.txt").write_text("changed\n")
    (repo / "new.txt").write_text("untracked\n")
    (repo / "junk.txt").write_text("ignored\n")

    tool = load_tool()
    monkeypatch.setattr(tool, "ROOT", repo)
    metrics = {m: {"value": 1.0} for m in tool.METRICS}
    seen = {}

    def run_side(root, workload, seed, seconds):
        seen[root] = {p.name: p.read_text() for p in root.glob("*.txt")}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(tool, "run_side", run_side)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--tag", "t", "--workloads",
                                      "circle", "--seeds", "1"])
    tool.main()
    assert len(seen) == 2 and repo not in seen
    by_side = {root.name: files for root, files in seen.items()}
    assert by_side["parent"] == {"a.txt": "committed\n"}
    assert by_side["change"] == {"a.txt": "changed\n", "new.txt": "untracked\n"}


def _runs(parent, change):
    """Synthetic runs of the circle workload: one pair per seed, with the
    given setup_s values, 1.0 for the other metrics, and 20 ops attempted
    of which none failed, all correct."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        for side, v in (("parent", p), ("change", c)):
            runs.append({"w": "circle", "seed": seed, "side": side, "correct": True,
                         "attempted": 20, "failed": 0, "setup_s": v,
                         "build_s": 1.0, "verify_s": 1.0, "peak_rss_mb": 1.0})
    return runs


BOUNDS = {"setup_s": 0.25, "build_s": 0.24, "verify_s": 0.24, "peak_rss_mb": 0.1}


def _setup_label(capsys, parent, change) -> str:
    tool = load_tool()
    tool.summary(_runs(parent, change), BOUNDS)
    lines = capsys.readouterr().out.splitlines()
    (line,) = [s for s in lines if s.startswith("circle setup_s:")]
    assert all(s.endswith(": ok") for s in lines if s is not line)
    return line.rsplit(": ", 1)[1]


def test_a_median_beyond_the_bound_is_worse(capsys):
    # median 1.0 -> 1.3, beyond 1.0 x (1 + 0.25); the parent is tight
    assert _setup_label(capsys, [1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3]) == "worse"
    assert load_tool().verdict([1.0] * 4, [1.25] * 4, 0.25) == "ok"  # on the bound


def test_a_wide_parent_without_a_clean_win_is_unresolved(capsys):
    # parent quartiles 0.7-1.3 (IQR 0.6 > 0.25 x median 1.0); the change
    # median is lower, but one change run is slower than a parent run
    parent = [0.6, 0.8, 1.0, 1.2, 1.4]
    assert _setup_label(capsys, parent, [0.7, 0.8, 0.9, 0.9, 0.9]) == "unresolved"
    # every change run below every parent run decides it despite the spread
    assert load_tool().verdict(parent, [0.5, 0.5, 0.5, 0.5, 0.5], 0.25) == "ok"


def test_a_tight_parent_within_the_bound_is_ok(capsys):
    assert _setup_label(capsys, [1.0, 1.02, 0.98, 1.0], [1.1, 1.1, 1.1, 1.1]) == "ok"


def _flag_lines(capsys, runs):
    load_tool().summary(runs, BOUNDS)
    lines = capsys.readouterr().out.splitlines()
    return [s for s in lines if s.startswith("circle: ")]


def test_a_clean_change_raises_no_flag(capsys):
    assert _flag_lines(capsys, _runs([1.0] * 3, [1.0] * 3)) == []


def test_an_incorrect_change_run_is_flagged(capsys):
    runs = _runs([1.0] * 3, [1.0] * 3)
    runs[3]["correct"] = False  # the change run of seed 1
    (line,) = _flag_lines(capsys, runs)
    assert line.startswith("circle: incorrect") and line.endswith("[1]")
    # a parent run that reads false is the parent's fault, not the change's
    runs = _runs([1.0] * 3, [1.0] * 3)
    runs[2]["correct"] = False
    assert _flag_lines(capsys, runs) == []


def test_a_larger_failed_share_than_the_paired_parent_is_flagged(capsys):
    runs = _runs([1.0] * 3, [1.0] * 3)
    runs[4]["failed"] = 1                            # parent of seed 2: 1/20
    runs[5].update(attempted=10, failed=1)           # its change run: 1/10
    (line,) = _flag_lines(capsys, runs)
    assert line.startswith("circle: more failed ops") and line.endswith("[2]")
    # the same share on both sides is no flag, whatever the counts
    runs[5].update(attempted=40, failed=2)
    assert _flag_lines(capsys, runs) == []
