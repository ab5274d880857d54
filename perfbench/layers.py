"""Which abctorus functions the traced run wraps, and under which names.

Span names follow `<layer>.<function>`; the per-layer metrics are
`<span name>.calls`, `<span name>.self_s` and the named counts that the
hooks below add (`<span name>.<count>`).  Several functions may share
one span name (all builders are `exact.builders`), in which case their
calls and self times add up.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from abctorus import analytic, bounds, engine, minimal, towers
from abctorus.exact import blockslide, builders, oracle, partitions, points, steps

from tracer import Tracer


def _table_bytes(counts: Counter, name, args, result, parent) -> None:
    # CompiledMap.build(m, M): one int64 table of length M per move
    m, M = args[0], args[1]
    counts[name + ".table_bytes"] += 8 * int(M) * len(m.moves)


def _lattice_points(counts: Counter, name, args, result, parent) -> None:
    counts[name + ".lattice_points"] += int(result.shape[1])


def _builder_moves(counts: Counter, name, args, result, parent) -> None:
    # builders call each other; count the moves of outermost calls only
    if parent != name and hasattr(result, "moves"):
        counts[name + ".moves"] += len(result.moves)


def _entire_points(counts: Counter, name, args, result, parent) -> None:
    counts[name + ".points"] += int(np.size(args[1]))


def _captured(counts: Counter, name, args, result, parent) -> None:
    counts[name + ".captured"] += result is not None


FUNCTIONS = [
    # engine: the public entry points the suites call, and the stage builders
    (engine, "build_stage_circle", "engine.build_stage", None),
    (engine, "build_stage_translation", "engine.build_stage", None),
    (engine, "build_stage_minimal", "engine.build_stage", None),
    (engine, "translation_index_function", "engine.translation_index_function", None),
    (engine, "verify_cyclic_permutation", "engine.verify_cyclic_permutation", None),
    (engine, "check_stage_commutation", "engine.check_stage_commutation", None),
    (engine, "correspondence_defect", "engine.correspondence_defect", None),
    (engine, "stage_partition", "engine.stage_partition", None),
    (engine, "eval_stage_map", "engine.eval_stage_map", None),
    (engine, "eval_stage_map_rational", "engine.eval_stage_map_rational", None),
    # exact
    (oracle, "induced_atom_permutation", "exact.oracle.induced_atom_permutation", None),
    (oracle, "commutes_with_rotation", "exact.oracle.commutes_with_rotation", None),
    (oracle, "full_lattice", "exact.oracle.full_lattice", _lattice_points),
    # analytic
    (analytic, "approximate_blockslide", "analytic.approximate_blockslide", None),
    (analytic, "choose_amplitude", "analytic.choose_amplitude", None),
    (analytic, "amplitude_conditions_hold", "analytic.amplitude_conditions_hold", None),
    (analytic, "step_to_plateau", "analytic.step_to_plateau", None),
    # bounds
    (bounds, "ledger_recipe", "bounds.ledger_recipe", None),
    (bounds, "convergence_ledger", "bounds.convergence_ledger", None),
    (bounds, "liouville_generate", "bounds.liouville_generate", None),
    (bounds, "liouville_verify", "bounds.liouville_verify", None),
    (bounds, "translation_params", "bounds.translation_params", None),
    (bounds, "verify_translation_params", "bounds.verify_translation_params", None),
    (bounds, "check_amplitude", "bounds.check_amplitude", None),
    (bounds, "check_q_condition", "bounds.check_q_condition", None),
] + [
    (builders, fn, "exact.builders", _builder_moves)
    for fn, obj in vars(builders).items()
    if fn.startswith("build_") and getattr(obj, "__module__", None) == builders.__name__
]

METHODS = [
    (engine.StageMaps, "apply_exact", "engine.apply_exact", None),
    (engine.StageMaps, "apply_analytic", "engine.apply_analytic", None),
    (engine.StageMaps, "apply_analytic_rational", "engine.apply_analytic_rational", None),
    (points.TorusPoint, "__init__", "exact.point_new", None),
    (steps.StepFunction, "__call__", "exact.step_call", None),
    (blockslide.BlockSlideMove, "apply", "exact.move_apply", None),
    (blockslide.BlockSlideMap, "__call__", "exact.map_call", None),
    (blockslide.CompiledMap, "build", "exact.compiled_build", _table_bytes),
    (blockslide.CompiledMap, "apply", "exact.compiled_apply", None),
    (partitions.PartitionSpec, "atom_index", "exact.atom_index", None),
    (analytic.EntireStep, "__call__", "analytic.entire_step", _entire_points),
    (analytic.EntireStep, "eval_at_rational", "analytic.eval_at_rational", None),
    (analytic.AnalyticBlockSlide, "transform", "analytic.transform", None),
    (analytic.AnalyticBlockSlide, "transform_rational", "analytic.transform_rational", None),
    (minimal.MinimalConjugation, "__call__", "minimal.conjugation_call", None),
    (minimal.MinimalCombinatorics, "__call__", "minimal.combinatorics_call", None),
    (minimal.MinimalStage, "locate", "minimal.locate", _captured),
    # __radd__ and __rmul__ delegate to the wrapped __add__ / __mul__
    (towers.TowerReal, "__init__", "towers.new", None),
    (towers.TowerReal, "__add__", "towers.add", None),
    (towers.TowerReal, "__mul__", "towers.mul", None),
    (towers.TowerReal, "__pow__", "towers.pow", None),
    (towers.TowerReal, "compare", "towers.compare", None),
    (towers.TowerReal, "exp", "towers.exp", None),
    (towers.TowerReal, "ln", "towers.ln", None),
]


def install(tracer: Tracer) -> None:
    for module, attr, name, hook in FUNCTIONS:
        tracer.patch_function(module, attr, name, hook)
    for cls, attr, name, hook in METHODS:
        tracer.patch_method(cls, attr, name, hook)


def span_names():
    """Every span name, in declaration order, without duplicates."""
    seen = {}
    for _, _, name, _ in FUNCTIONS + METHODS:
        seen.setdefault(name, None)
    return list(seen)


def layer_metrics(tracer: Tracer, summary) -> dict:
    """Per-layer metrics of one traced pass: calls and self time for every
    span name (zero when the workload never reached it) plus the counts."""
    out = {}
    for name in span_names():
        calls, self_s = summary.get(name, (0, 0.0))
        out[name + ".calls"] = (calls, "count")
        out[name + ".self_s"] = (self_s, "s")
    c = tracer.counts
    out["exact.compiled_build.table_bytes"] = (c["exact.compiled_build.table_bytes"], "B")
    out["exact.oracle.full_lattice.lattice_points"] = (
        c["exact.oracle.full_lattice.lattice_points"], "count")
    out["exact.builders.moves"] = (c["exact.builders.moves"], "count")
    out["analytic.entire_step.points"] = (c["analytic.entire_step.points"], "count")
    locates = summary.get("minimal.locate", (0, 0.0))[0]
    out["minimal.locate.captured_ratio"] = (
        c["minimal.locate.captured"] / locates if locates else 0.0, "ratio")
    out["towers.ambiguous"] = (tracer.errors[("towers.add", "AmbiguousComparison")], "count")
    return out
