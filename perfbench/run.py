"""Build-and-verify benchmark for abctorus.

Run from the repository root:

    python3 perfbench/run.py --workload circle --seed 1 --seconds 20 --trace 0

One single-threaded process runs a closed loop with one caller: build
the workload's stack (or certificates), run its verifier suite, repeat
until `--seconds` have passed.  Only calls into the package's public
functions are timed, from outside.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it carries the per-layer metrics of a traced pass (see
README.md).  The program is imported from `src/` of the current
directory and nowhere else; without it the run fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
COLD_SETUPS = 5
DIGESTS = HERE / "digests.json"

# ROADMAP "Recent" baselines as (low, high): exact, analytic and rational
# T_n in us per point at circle stages 1-3; ledger of 20 stages in s.
ROADMAP_BASELINE = {
    **{f"baseline.circle.exact_us.stage{s}": (v, v) for s, v in ((1, 64), (2, 122), (3, 179))},
    **{f"baseline.circle.analytic_us.stage{s}": (v, v)
       for s, v in ((1, 2.0), (2, 4.3), (3, 6.3))},
    **{f"baseline.circle.rational_us.stage{s}": (120, 340) for s in (1, 2, 3)},
    "baseline.ledger.build_s": (0.37, 0.37),
    "baseline.ledger.verify_s": (0.06, 0.06),
}


def import_program():
    src = Path.cwd() / "src"
    if not (src / "abctorus").is_dir():
        sys.exit(f"error: no abctorus package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import abctorus

    for p in abctorus.__path__:
        if Path(p).resolve().parent != src.resolve():
            sys.exit(f"error: abctorus was imported from {p}, not from {src}")


def platform_key() -> dict:
    """What the float outputs depend on besides the code: numpy's version
    and SIMD dispatch, the C library and the machine."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return {
        "numpy": np.__version__,
        "simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
        "libc": list(platform.libc_ver()),
        "machine": platform.machine(),
    }


def cold_setup(workload: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, str(HERE / "cold_setup.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Outcome of every op run: counted ops, known-defect ops, failed checks."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.known_attempted = 0
        self.raised = Counter()  # exception class -> n, over all ops
        self.untyped = 0  # raised something other than an AbcTorusError
        self.check_failures = []
        self.samples = self.hits = 0
        self.op_seconds = {}  # op name -> wall time of each call

    def suite_seconds(self) -> float:
        """Wall time of one suite pass, as the sum over ops of each op's
        median time: a burst of interference then spoils one sample of one
        op instead of a whole pass."""
        return sum(statistics.median(v) for v in self.op_seconds.values())

    def run(self, ops) -> None:
        from abctorus.errors import AbcTorusError
        from abctorus.engine import ConjugacyReport

        for op in ops:
            if op.known is None:
                self.attempted += 1
            else:
                self.known_attempted += 1
            t = time.perf_counter()
            try:
                result, exc = op.call(), None
            except Exception as e:  # every refusal is recorded, by class
                result, exc = None, e
            self.op_seconds.setdefault(op.name, []).append(time.perf_counter() - t)
            if exc is not None:
                cls = type(exc).__name__
                self.raised[cls] += 1
                typed = isinstance(exc, AbcTorusError)
                self.untyped += not typed
                if op.known is None:
                    self.failed += 1
                elif not (typed or cls == op.known):
                    self.check_failures.append(
                        f"{op.name}: raised {cls}, expected {op.known} or a typed refusal")
                continue
            msg = op.check(result)
            if msg:
                self.check_failures.append(f"{op.name}: {msg}")
            if isinstance(result, ConjugacyReport):
                self.samples += result.samples
                self.hits += result.hits

    @property
    def all_attempted(self) -> int:
        return self.attempted + self.known_attempted

    @property
    def all_failed(self) -> int:
        return sum(self.raised.values())


def check_digests(workload, seed: int, outputs: dict) -> list:
    """Compare output digests with the ones recorded for the default seed."""
    recorded = json.loads(DIGESTS.read_text())
    if seed != recorded["seed"]:
        return []
    from workloads import digest

    same_platform = recorded["platform"] == platform_key()
    problems = []
    for model, value in outputs.items():
        if model in workload.float_digest and not same_platform:
            print(f"note: {model} digest recorded on another platform; not compared")
            continue
        if digest(value) != recorded[workload.name][model]:
            problems.append(f"{model} outputs differ from the recorded digest")
    return problems


def run_evals(batches) -> dict:
    """model -> (points, seconds, output) for each evaluation batch."""
    out = {}
    for model, n, thunk in batches:
        t = time.perf_counter()
        value = thunk()
        out[model] = (n, time.perf_counter() - t, value)
    return out


def one_pass(workload, tally: Tally):
    """Build and verify once; returns (state, build times).

    Garbage left by the previous pass is collected first, and each
    build's predecessor is dropped before the clock starts, so a build
    does not pay for freeing it.
    """
    builds, state = [], None
    gc.collect()
    for _ in range(workload.builds_per_pass):
        state = None
        t = time.perf_counter()
        state = workload.build()
        builds.append(time.perf_counter() - t)
    tally.run(workload.suite(state))
    return state, builds


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_tally(tally: Tally) -> None:
    print(f"counted ops: {tally.attempted} attempted, {tally.failed} failed")
    print(f"known-defect ops: {tally.known_attempted} attempted")
    share = tally.all_failed / tally.all_attempted
    print(f"fail_frac (all ops): {tally.all_failed}/{tally.all_attempted} = {share:.4f}")
    for cls, n in sorted(tally.raised.items()):
        print(f"  raised {cls}: {n}")
    print(f"  raised something other than AbcTorusError: {tally.untyped}")
    for msg, n in Counter(tally.check_failures).items():
        print(f"CHECK FAILED ({n}x): {msg}")


def run_untraced(workload, args, t_start: float) -> dict:
    state = workload.build()
    setup = [time.perf_counter() - t_start]
    setup += [cold_setup(args.workload, args.seed) for _ in range(COLD_SETUPS)]

    tally = Tally()
    evals = run_evals(workload.evals(state))
    del state
    problems = check_digests(workload, args.seed, {m: v for m, (_, _, v) in evals.items()})
    for model, (n, secs, _) in evals.items():
        if model != "ledger":
            print(f"{model}_pts_per_s (one batch, {n} points): {n / secs:.6g} 1/s")
    del evals

    builds, passes = [], 0
    loop_start = time.perf_counter()
    while not passes or time.perf_counter() - loop_start < args.seconds:
        builds += one_pass(workload, tally)[1]
        passes += 1
    print(f"passes: {passes}, builds: {len(builds)}")
    print_tally(tally)
    for msg in problems:
        print(f"DIGEST MISMATCH: {msg}")

    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "build_s": metric(statistics.median(builds), "s"),
        "verify_s": metric(tally.suite_seconds(), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"setup_s samples (in-process first, then {COLD_SETUPS} cold): "
          + ", ".join(f"{s:.4f}" for s in setup))
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    return {
        "correct": not (tally.check_failures or problems),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


class Pair(NamedTuple):
    untraced_s: float
    traced_s: float
    tracer: object
    tally: Tally  # of the untraced pass
    traced_check_failures: list


def traced_pair(workload) -> Pair:
    """One untraced and one traced build-verify-evaluate pass."""
    import layers
    from tracer import Tracer

    def full_pass(tally):
        t = time.perf_counter()
        state, _ = one_pass(workload, tally)
        run_evals(workload.evals(state))
        return time.perf_counter() - t

    tally, traced_tally = Tally(), Tally()
    untraced = full_pass(tally)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = full_pass(traced_tally)
    finally:
        tracer.uninstall()
    return Pair(untraced, traced, tracer, tally, traced_tally.check_failures)


def median_seconds(thunk, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        thunk()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def baselines(workload, state) -> dict:
    """Untraced us per point at circle stages 1-3, or the ledger's 20-stage
    build and verify times, as medians of 5 repeats, next to the ROADMAP
    figures."""
    from abctorus import bounds, engine

    out = {}
    if workload.name == "circle":
        pts, floats, rats = workload.exact_pts, workload.float_pts, workload.rational_pts
        for stage in (1, 2, 3):
            batches = {
                "exact": (len(pts), lambda: [
                    engine.eval_stage_map(state, x, "exact", 1, stage) for x in pts]),
                "analytic": (floats.shape[1], lambda: engine.eval_stage_map(
                    state, floats, "analytic", 1, stage)),
                "rational": (len(rats), lambda: [
                    engine.eval_stage_map_rational(state, x.coords, 1, stage) for x in rats]),
            }
            for model, (n, thunk) in batches.items():
                out[f"baseline.circle.{model}_us.stage{stage}"] = 1e6 * median_seconds(thunk) / n
    if workload.name == "ledger":
        stages, gaps = bounds.ledger_recipe(20, rho=workload.rho)
        out["baseline.ledger.build_s"] = median_seconds(
            lambda: bounds.ledger_recipe(20, rho=workload.rho))
        out["baseline.ledger.verify_s"] = median_seconds(
            lambda: bounds.convergence_ledger(stages, gaps))
    for name, value in out.items():
        lo, hi = ROADMAP_BASELINE[name]
        flag = "  MORE THAN 2x AWAY" if value > 2 * hi or value < lo / 2 else ""
        shown = f"{lo:g}-{hi:g}" if lo != hi else f"{lo:g}"
        print(f"{name}: {value:.4g} (ROADMAP {shown}){flag}")
    return out


def run_traced(workload, args, t_start: float) -> dict:
    import layers

    pairs = []
    while not pairs or time.perf_counter() - t_start < args.seconds:
        pairs.append(traced_pair(workload))
    state = workload.build()
    untraced = statistics.median(p.untraced_s for p in pairs)
    traced = statistics.median(p.traced_s for p in pairs)
    tracer, tally = pairs[-1].tracer, pairs[-1].tally
    summaries = [p.tracer.summary() for p in pairs]
    summary = {
        name: (calls, statistics.median(s.get(name, (0, 0.0))[1] for s in summaries))
        for name, (calls, _) in summaries[-1].items()
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}.npz")

    metrics = layers.layer_metrics(tracer, summary)
    for name, value in workload.structure(state).items():
        metrics[name] = (value, "count")
    metrics["engine.verify.samples"] = (tally.samples, "count")
    metrics["engine.verify.hit_ratio"] = (
        tally.hits / tally.samples if tally.samples else 0.0, "ratio")
    evals = run_evals(workload.evals(state))
    problems = check_digests(workload, args.seed, {m: v for m, (_, _, v) in evals.items()})
    problems += [msg for p in pairs
                 for msg in p.tally.check_failures + p.traced_check_failures]
    for model in ("exact", "analytic", "rational"):
        n, secs, _ = evals.get(model, (0, 1.0, None))
        metrics[f"eval.{model}_pts_per_s"] = (n / secs, "1/s")
    metrics["suite.fail_frac"] = (tally.all_failed / tally.all_attempted, "ratio")
    metrics["suite.failed_untyped"] = (tally.untyped, "count")
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    measured = baselines(workload, state)
    for name in ROADMAP_BASELINE:
        metrics[name] = (measured.get(name, 0.0), "us" if "_us." in name else "s")

    print(f"traced pairs: {len(pairs)}; untraced pass {untraced:.4f} s, traced pass "
          f"{traced:.4f} s, overhead {traced - untraced:.4f} s")
    print_tally(tally)
    for msg in sorted(set(problems)):
        print(f"PROBLEM: {msg}")
    return {
        "correct": not problems,
        "attempted": sum(p.tally.attempted for p in pairs),
        "failed": sum(p.tally.failed for p in pairs),
        "metrics": {k: metric(v, u) for k, (v, u) in metrics.items()},
    }


def main() -> None:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    run = run_traced if args.trace else run_untraced
    print(json.dumps(run(workload, args, t_start)))


if __name__ == "__main__":
    main()
