"""Command line: build a scenario and print its stage reports as JSON.

    abctorus run {circle,translation,minimal}

The scenarios are built at the toy sizes the benchmark uses: two circle
stages from q0 = 3 with l = 4, one translation stage along
`translation_params(h=2, levels=2, gamma1=(1, 4), p1=1, q1=2, l_base=2)`
(a 4-op closed-form conjugation whose block-slide realization has
34,688 shears, exact only) and one minimality stage at n = 2, l = 4,
q = 3, r = 2. For every stage the output holds the conjugacy report of
each model, the commutation report and the correspondence defect of each
model, each drawn from SAMPLES verifier samples at seed SEED. A report
the engine refuses (no analytic model, a box lattice beyond the
oracle's budget) is printed as {"refused": "<error class>: <message>"}.
Fractions are printed as "p/q" strings, and a defect lists only its
atoms with a nonzero share.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import engine
from .bounds import translation_params
from .errors import AbcTorusError

SCENARIOS = {
    "circle": lambda: engine.run_circle_scenario(2, q0=3, l=4),
    "translation": lambda: engine.run_translation_scenario(
        translation_params(h=2, levels=2, gamma1=(1, 4), p1=1, q1=2, l_base=2), 1),
    "minimal": lambda: engine.run_minimal_scenario(n=2, l=4, q=3, r=2, stages=1),
}
SAMPLES = 64
SEED = 0


def _plain(value):
    """A report field as JSON: Fractions as "p/q" strings, tuples as lists."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def _report(make: Callable[[], object]) -> dict:
    """The report `make` returns as a dict of its fields and verdicts, or
    {"refused": ...} when the engine refuses it."""
    try:
        r = make()
    except AbcTorusError as exc:
        return {"refused": f"{type(exc).__name__}: {exc}"}
    out = {f.name: _plain(getattr(r, f.name)) for f in dataclasses.fields(r)}
    if isinstance(r, engine.CorrespondenceDefect):
        out["total"] = str(r.total)
    else:
        out["passed"] = r.passed
    return out


def stage_reports(maps: engine.StageMaps) -> list:
    """Per stage: conjugacy in both models, commutation, defect in both models."""
    out = []
    for stage in range(1, maps.stage_count + 1):
        rec = maps.records[stage]
        out.append({
            "stage": stage,
            "p": rec.p,
            "q": rec.q,
            "conjugacy": {m: _report(lambda m=m: engine.verify_cyclic_permutation(
                maps, stage, m, SAMPLES, SEED)) for m in ("exact", "analytic")},
            "commutation": _report(lambda: engine.check_stage_commutation(
                maps, stage, SAMPLES, SEED)),
            "defect": {m: _report(lambda m=m: engine.correspondence_defect(
                maps, stage, m, seed=SEED)) for m in ("exact", "analytic")},
        })
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="abctorus", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="build a scenario and print its stage reports")
    run.add_argument("scenario", choices=sorted(SCENARIOS))
    args = parser.parse_args(argv)
    reports = stage_reports(SCENARIOS[args.scenario]())
    json.dump({"scenario": args.scenario, "stages": reports}, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
