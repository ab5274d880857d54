"""tools/bench_pairs.py keeps the runs it has when a run fails."""

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
