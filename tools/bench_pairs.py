"""Alternating benchmark pairs: a parent commit against the working tree.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD --tag celltable \
        --workloads circle,translation,minimal,ledger --seeds 1-10

`git archive <parent>` is unpacked into one temporary directory and the
working tree's tracked and untracked, non-ignored files are copied into
a second one, so both sides start from a fresh tree that holds no
build or test leftovers. For every workload and seed
`perfbench/run.py --trace 0` runs once in each (the parent side and the
change side), one run at a time, each for the `run_seconds` that
`BENCHMARK.json` sets. The side that runs first alternates from seed
to seed, so a drift of the machine's speed falls on both sides alike.

The last JSON line of every run goes into `BENCH_<tag>.json` in the
layout of `BENCH_compose.json`: a header ("what", "command", "pairs",
"machine") and one flat record per run with the workload, seed, side,
correctness, attempted/failed counts and the four end-to-end metrics.
The script also prints, per workload and metric, the median of each
side, the parent's quartile spread, how many pairs the change won and
a verdict against the metric's `bound` in `BENCHMARK.json` (lower is
better for every metric here):

- `worse`: the change's median exceeds the parent's by more than
  bound x the parent's median;
- `unresolved`: the parent's quartile spread exceeds bound x its median
  and not every change run beats every parent run, so the runs spread
  too widely to tell;
- `ok`: neither.

Before those lines it flags a workload whose change side went wrong:
`incorrect` when a change run reads `correct: false`, and `more failed
ops` when a change run fails a larger share of its attempted ops than
the parent run of its pair.

If a run fails (a non-zero exit or a timeout), no further run starts:
`BENCH_<tag>.json` is written with the runs collected so far and a
"failed" record naming the workload, seed, side and exit code, and the
script exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "build_s", "verify_s", "peak_rss_mb")


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def unpack(rev: str, into: Path) -> str:
    """Lay out both sides under `into`: the committed files of `rev` in
    `into / "parent"`, and the working tree's tracked and untracked,
    non-ignored files, with their working-tree contents, in
    `into / "change"`. Returns the commit's short hash."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = into / "parent.tar"
    with archive.open("wb") as f:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True, stdout=f)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "parent", filter="data")
    archive.unlink()
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout
    for name in filter(None, map(os.fsdecode, names.split(b"\0"))):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is left out
            dst = into / "change" / name
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    return sha


def run_side(root: Path, workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=60 * seconds + 600, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def record(workload: str, seed: int, side: str, result: dict) -> dict:
    rec = {"w": workload, "seed": seed, "side": side, "correct": result["correct"],
           "attempted": result["attempted"], "failed": result["failed"]}
    rec.update({m: result["metrics"][m]["value"] for m in METRICS})
    return rec


def iqr(values) -> float:
    """The spread between the quartiles (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(par, chg, bound: float) -> str:
    """`worse`, `unresolved` or `ok` for one metric's parent and change
    runs (lower is better), as the module docstring defines them."""
    pm = statistics.median(par)
    if statistics.median(chg) > pm * (1 + bound):
        return "worse"
    if iqr(par) > bound * pm and not max(chg) < min(par):
        return "unresolved"
    return "ok"


def failed_share(run: dict) -> float:
    return run["failed"] / max(run["attempted"], 1)


def flags(w: str, runs, pairs) -> list:
    """The module docstring's `incorrect` and `more failed ops` lines for
    workload w, each naming the seeds of the change runs at fault."""
    out = []
    wrong = [r["seed"] for r in runs if r["w"] == w and r["side"] == "change"
             and not r["correct"]]
    if wrong:
        out.append(f"{w}: incorrect: change runs read correct: false at seeds {wrong}")
    worse = [p["change"]["seed"] for p in pairs
             if failed_share(p["change"]) > failed_share(p["parent"])]
    if worse:
        out.append(f"{w}: more failed ops: change runs fail a larger share of their ops "
                   f"than their parent runs at seeds {worse}")
    return out


def summary(runs, bounds) -> None:
    """Per workload: the `flags`, then per metric the medians, the
    parent's quartile spread, the pairs the change won and the `verdict`
    against `bounds[metric]`."""
    for w in dict.fromkeys(r["w"] for r in runs):
        pairs = {}
        for r in runs:
            if r["w"] == w:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        pairs = [p for p in pairs.values() if len(p) == 2]
        for line in flags(w, runs, pairs):
            print(line)
        if not pairs:
            continue
        for m in METRICS:
            par = [p["parent"][m] for p in pairs]
            chg = [p["change"][m] for p in pairs]
            wins = sum(c < p for p, c in zip(par, chg))
            pm, cm = statistics.median(par), statistics.median(chg)
            print(f"{w} {m}: parent {pm:.5g}, change {cm:.5g} ({(cm - pm) / pm:+.1%}), "
                  f"parent IQR {iqr(par):.4g}, change won {wins}/{len(pairs)}: "
                  f"{verdict(par, chg, bounds[m])}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--tag", required=True, help="output goes to BENCH_<tag>.json")
    parser.add_argument("--workloads", default="circle,translation,minimal,ledger")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--what", default="", help="one line on the change measured")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs, failed = [], None
    with tempfile.TemporaryDirectory() as tmp:
        sha = unpack(args.parent, Path(tmp))
        sides = {side: Path(tmp) / side for side in ("parent", "change")}
        plan = [(w, seed, side) for w in workloads for i, seed in enumerate(args.seeds)
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent"))]
        for w, seed, side in plan:
            try:
                result = run_side(sides[side], w, seed, seconds)
            except subprocess.SubprocessError as exc:
                stderr = getattr(exc, "stderr", None)
                failed = {"w": w, "seed": seed, "side": side,
                          "exit_code": getattr(exc, "returncode", None), "error": str(exc),
                          "stderr_tail": stderr[-2000:] if isinstance(stderr, str) else None}
                print(json.dumps(failed), file=sys.stderr, flush=True)
                break
            runs.append(record(w, seed, side, result))
            print(json.dumps(runs[-1]), flush=True)

    seeds = f"{args.seeds[0]}-{args.seeds[-1]}" if len(args.seeds) > 1 else str(args.seeds[0])
    out = {
        "what": f"perfbench end-to-end metrics, parent commit {sha} against the working "
                f"tree{': ' + args.what if args.what else ''}",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                   f"--seconds {seconds} --trace 0",
        "pairs": f"{len(args.seeds)} per workload, seeds {seeds}, the side run first "
                 f"alternating from seed to seed",
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, Python "
                   f"{platform.python_version()}, one run at a time",
        "runs": runs,
    }
    if failed is not None:
        out["failed"] = failed
    path = ROOT / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    summary(runs, bounds)
    if failed is not None:
        sys.exit(f"run failed: {failed['w']} seed {failed['seed']} on the {failed['side']} "
                 f"side (exit code {failed['exit_code']}); {len(runs)} runs kept in {path}")


if __name__ == "__main__":
    main()
