"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root:

    python3 perfbench/spread.py --workload minimal --seeds 1-10 --seconds 20

Each seed gets one run of perfbench/run.py with tracing off, one after
the other.  For every metric the script prints the median over the runs
and the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the bound that BENCHMARK.json gives the metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"]
              for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}

    values = {}
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: run not correct or with failures: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.5g}"
                                           for k, m in result["metrics"].items()),
              flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        print(f"{name}: median {med:.6g}, spread {spread:.4f}, bound {bound}, "
              f"spread/bound {spread / bound:.3f}")


if __name__ == "__main__":
    main()
