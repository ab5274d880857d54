"""Every `engine` entry point returns or raises an `AbcTorusError`, and so
do the `analytic` calls the engine hands its arguments to.

Hypothesis draws toy-sized arguments, mostly in or near each domain and
one time in ten malformed (wrong types, nan and inf, fractional sizes),
with explicit size caps: circle stacks of at most 2 stages with q0 <= 5
and l <= 6, minimality stages with n <= 4 and l, q <= 6, at most 8
verifier samples, 64 Monte Carlo samples and 3 partition atoms. The verifiers run on one `run_circle_scenario(2)` stack.
`stage_partition` with atoms=None visits every atom of stage 1 (144) and
is refused at stage 2 (331,776 atoms, beyond the point budget).

The stage runners and the parameter record are swept too: the
translation runner on the 3-move chain `translation_params(h=1,
levels=2, gamma1=(1,), l_base=4)`, the minimality runner with l <= 3,
and every `exact.builders.build_*` at k, l, q <= 6. So are the exact
layer's constructors: `rotation_map`, `PartitionSpec` and its named constructors,
`BlockSlideMove`, `StepFunction.constant` and the named steps of
`exact.steps`, each with its known leaks as explicit examples.

Nothing is asserted about the value returned; a leaked `TypeError`,
`ValueError`, `ZeroDivisionError` or the like fails.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from abctorus.analytic import (
    ErrorSet,
    amplitude_conditions_hold,
    amplitude_lower_bounds,
    approximate_blockslide,
    choose_amplitude,
    stage_amplitude,
    stage_delta,
    stage_epsilon,
)
from abctorus.bounds import translation_params
from abctorus.engine import (
    AbCParams,
    check_stage_commutation,
    correspondence_defect,
    eval_stage_map,
    run_circle_scenario,
    run_minimal_scenario,
    run_translation_scenario,
    stage_partition,
    verify_cyclic_permutation,
)
from abctorus.errors import AbcTorusError, ParamOutOfRange
from abctorus.exact import builders
from abctorus.exact.blockslide import BlockSlideMove, rotation_map
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.steps import (
    StepFunction,
    build_trapping_step,
    plateau_target,
    psi1_refine,
    psi2_refine,
    psi3_refine,
)
from abctorus.minimal import minimal_stage, trapping_exponent
from abctorus.towers import TowerReal

MAPS = run_circle_scenario(2)
CHAIN = translation_params(h=1, levels=2, gamma1=(1,), p1=1, q1=2, l_base=4)


def returns_or_typed(f, *args, **kwargs) -> None:
    try:
        f(*args, **kwargs)
    except AbcTorusError:
        pass


malformed = st.sampled_from([None, "a", "1.5", [], float("nan"), float("inf"),
                             -float("inf"), 1.5, -1, 0, True, Fraction(1, 3),
                             TowerReal(6, 1.5)])


def mostly(valid, bad=malformed):
    """Values of `valid`, and one time in ten a malformed one."""
    return st.integers(0, 9).flatmap(lambda i: bad if i == 0 else valid)


coordinate = mostly(st.one_of(
    st.fractions(0, 1, max_denominator=2**20),
    st.floats(-2, 2),
))
points = mostly(st.lists(coordinate, min_size=1, max_size=3).map(tuple))
stages = st.one_of(st.none(), mostly(st.integers(0, 3)))
seeds = mostly(st.integers(0, 2**16))
models = mostly(st.sampled_from(["exact", "analytic", "rational"]))
budgets = mostly(st.fractions(0, Fraction(6, 5), max_denominator=10**6))


@settings(max_examples=100, deadline=None)
@given(n=mostly(st.integers(-1, 40)), l=mostly(st.integers(-1, 8)))
def test_stage_schedule(n, l):
    returns_or_typed(stage_epsilon, n)
    returns_or_typed(stage_delta, n)
    returns_or_typed(stage_amplitude, n, l)


@settings(max_examples=60, deadline=None)
@given(stages=mostly(st.integers(-1, 2)), q0=mostly(st.integers(0, 5)),
       l=mostly(st.integers(0, 6)))
def test_run_circle_scenario(stages, q0, l):
    returns_or_typed(run_circle_scenario, stages, q0=q0, l=l)


@settings(max_examples=150, deadline=None)
@given(x=points, model=models, power=mostly(st.integers(-3, 3)), stage=stages)
def test_eval_stage_map(x, model, power, stage):
    returns_or_typed(eval_stage_map, MAPS, x, model, power, stage)


@settings(max_examples=100, deadline=None)
@given(stage=stages, model=models, samples=mostly(st.integers(-1, 8)), seed=seeds)
def test_verify_cyclic_permutation(stage, model, samples, seed):
    returns_or_typed(verify_cyclic_permutation, MAPS, stage, model, samples, seed)


@settings(max_examples=100, deadline=None)
@given(stage=stages, samples=mostly(st.integers(-1, 8)), seed=seeds)
def test_check_stage_commutation(stage, samples, seed):
    returns_or_typed(check_stage_commutation, MAPS, stage, samples, seed)


@settings(max_examples=100, deadline=None)
@given(stage=stages, model=models, samples=mostly(st.integers(-1, 64)), seed=seeds)
def test_correspondence_defect(stage, model, samples, seed):
    returns_or_typed(correspondence_defect, MAPS, stage, model, samples, seed)


def test_a_bool_sample_count_is_refused():
    # found by the sweep above: samples=True passed the integer check and
    # numpy refused the shape (2, True) with a TypeError
    with pytest.raises(ParamOutOfRange):
        correspondence_defect(MAPS, 1, "analytic", True, 0)


@settings(max_examples=100, deadline=None)
@given(stage=stages, atoms=mostly(st.lists(mostly(st.integers(-1, 150)), max_size=3)))
def test_stage_partition(stage, atoms):
    returns_or_typed(stage_partition, MAPS, stage, atoms)


@settings(max_examples=100, deadline=None)
@given(x=points)
def test_analytic_conjugation_point(x):
    returns_or_typed(MAPS.conjugations_analytic[0], x)


@settings(max_examples=100, deadline=None)
@given(x=mostly(st.one_of(st.floats(-2, 2), st.fractions(-2, 2, max_denominator=10**6))))
def test_error_set_contains(x):
    returns_or_typed(ErrorSet(16, Fraction(1, 16), Fraction(1, 128)).contains, x)


@settings(max_examples=100, deadline=None)
@given(l=mostly(st.integers(0, 8)), eps=budgets, delta=budgets)
def test_choose_amplitude(l, eps, delta):
    returns_or_typed(choose_amplitude, l, eps, delta)


@settings(max_examples=60, deadline=None)
@given(eps=budgets, delta=budgets)
def test_approximate_blockslide(eps, delta):
    returns_or_typed(approximate_blockslide, MAPS.conjugations_exact[0], eps, delta)


small = mostly(st.integers(-1, 6))
index_functions = mostly(st.lists(mostly(st.integers(-1, 6)), max_size=5))


@settings(max_examples=100, deadline=None)
@given(n=mostly(st.integers(0, 3)), p=small, q=small, k=small, l=small, s=small,
       a=index_functions)
def test_abc_params(n, p, q, k, l, s, a):
    returns_or_typed(AbCParams, n=n, p=p, q=q, k=k, l=l, s=s, a=a)


@settings(max_examples=60, deadline=None)
@given(chain=mostly(st.just(CHAIN)), stages=st.one_of(st.none(), mostly(st.integers(-1, 2))))
def test_run_translation_scenario(chain, stages):
    returns_or_typed(run_translation_scenario, chain, stages)


@settings(max_examples=80, deadline=None)
@given(n=mostly(st.integers(0, 3)), l=mostly(st.integers(0, 3)), q=mostly(st.integers(0, 4)),
       r=mostly(st.integers(0, 3)), stages=mostly(st.integers(0, 2)))
@example(n=2, l=4, q=3, r=2.5, stages=1)
def test_run_minimal_scenario(n, l, q, r, stages):
    returns_or_typed(run_minimal_scenario, n, l, q, r, stages)


minimal_sizes = dict(n=mostly(st.integers(0, 4)), l=mostly(st.integers(0, 6)),
                     q=mostly(st.integers(0, 6)))


@settings(max_examples=100, deadline=None)
@given(r=mostly(st.integers(0, 4)), **minimal_sizes)
@example(n=2, l=4, q=3, r=2.5)
@example(n=2.5, l=4, q=3, r=2)
@example(n=2, l="4", q=3, r=2)
def test_minimal_stage(n, l, q, r):
    returns_or_typed(minimal_stage, n, l, q, r)


@settings(max_examples=100, deadline=None)
@given(**minimal_sizes)
@example(n=2.5, l=4, q=3)
def test_trapping_exponent(n, l, q):
    returns_or_typed(trapping_exponent, n, l, q)


BUILDERS = {
    "build_interchange": st.tuples(small, small),
    "build_rearrange": st.tuples(small, small, small, small),
    "build_grid_refine": st.tuples(small, mostly(st.integers(-1, 3))),
    "build_unstack": st.tuples(index_functions, small, small),
    "build_abc_conjugation": st.tuples(index_functions, small, mostly(st.integers(-1, 2)),
                                       small),
    "build_two_cycle": st.tuples(small, mostly(st.integers(-1, 3)), small),
    "build_transposition": st.tuples(small, small, small, mostly(st.integers(-1, 3)),
                                     small),
    "build_minimal_combinatorics": st.tuples(mostly(st.integers(-1, 2)),
                                             mostly(st.integers(-1, 2)),
                                             mostly(st.integers(-1, 2))),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder(name):
    @settings(max_examples=60, deadline=None)
    @given(args=BUILDERS[name])
    def sweep(args):
        returns_or_typed(getattr(builders, name), *args)
    sweep()


STEP = StepFunction.constant(Fraction(1, 3))
rationals = mostly(st.fractions(-2, 2, max_denominator=64))
axes = mostly(st.integers(-1, 2))
# name -> (constructor, argument tuples, the known leaks as explicit examples)
CONSTRUCTORS = {
    "rotation_map": (rotation_map, st.tuples(rationals),
                     [("x",), (float("inf"),), (None,)]),
    "PartitionSpec": (PartitionSpec, st.tuples(st.tuples(small, small)),
                      [((2.5, 1),), ((0, 1),)]),
    "PartitionSpec.blocks": (PartitionSpec.blocks, st.tuples(small),
                             [("3",), (None,), (2.5,)]),
    "PartitionSpec.grid": (PartitionSpec.grid, st.tuples(small, small), [(2.5, 1)]),
    "PartitionSpec.tower": (PartitionSpec.tower, st.tuples(index_functions, small, small),
                            [((0,), 1, "3"), (None, 1, 3)]),
    "PartitionSpec.strips": (PartitionSpec.strips, st.tuples(small, small, small),
                             [("a", 1, 1)]),
    "PartitionSpec.grid_min": (PartitionSpec.grid_min, st.tuples(small, small, small),
                               [(None, 1, 1)]),
    "BlockSlideMove": (BlockSlideMove,
                       st.tuples(axes, axes, mostly(st.sampled_from((1, -1))),
                                 mostly(st.just(STEP))),
                       [("0", 1, 1, STEP), (0, 1, 1, None), (0, 2, 1, STEP), (0, 1, 1.0, STEP)]),
    "StepFunction.constant": (StepFunction.constant, st.tuples(rationals), [("x",)]),
    "build_trapping_step": (build_trapping_step,
                            st.tuples(small, small, small, small, rationals),
                            [(2, 4, 3, 2, "x")]),
    "psi1_refine": (psi1_refine, st.tuples(small, small), [(2.5, 1)]),
    "psi2_refine": (psi2_refine, st.tuples(small, small), [(2.5, 1)]),
    "psi3_refine": (psi3_refine, st.tuples(small, small), [(2.5, 1)]),
    "plateau_target": (plateau_target,
                       st.tuples(mostly(st.lists(rationals, max_size=4)), small),
                       [([1], 2.5)]),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor(name):
    f, args, examples = CONSTRUCTORS[name]

    @settings(max_examples=60, deadline=None)
    @given(args=args)
    def sweep(args):
        returns_or_typed(f, *args)
    for args in examples:
        sweep = example(args=args)(sweep)
    sweep()


@pytest.mark.parametrize("name", sorted(CONSTRUCTORS))
def test_constructor_refuses_its_known_leaks(name):
    # each of these leaked a TypeError, ValueError, OverflowError or
    # AttributeError, or returned a partition with float counts
    f, _, examples = CONSTRUCTORS[name]
    for args in examples:
        with pytest.raises(AbcTorusError):
            f(*args)


NAN = float("nan")
H1 = MAPS.conjugations_analytic[0]
POINT3 = (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
FLOATS3 = np.full((3, 4), 0.25)
REFUSED = {
    "defect with no samples": lambda: correspondence_defect(MAPS, 1, "analytic", samples=0),
    "commutation with negative samples": lambda: check_stage_commutation(MAPS, 1, samples=-1),
    "conjugacy with fractional samples": lambda: verify_cyclic_permutation(MAPS, 1, "exact", 1.5),
    "conjugacy at a text stage": lambda: verify_cyclic_permutation(MAPS, "x"),
    "fractional power": lambda: eval_stage_map(MAPS, (Fraction(1, 3), Fraction(1, 5)),
                                               "exact", power=1.5),
    "fractional stage": lambda: eval_stage_map(MAPS, (0.1, 0.2), "analytic", stage=1.5),
    "3-D point on the 2-torus": lambda: eval_stage_map(MAPS, (0.1, 0.2, 0.3), "analytic"),
    "3-D points on the 2-torus": lambda: eval_stage_map(MAPS, FLOATS3, "analytic"),
    "exact 3-D point": lambda: eval_stage_map(MAPS, POINT3, "exact"),
    "rational 3-D point": lambda: eval_stage_map(MAPS, POINT3, "rational"),
    "3-D point through H_1": lambda: MAPS.apply_exact(POINT3, 1),
    "3-D point through h_1": lambda: MAPS.conjugations_exact[0](POINT3),
    "3-D point through a minimality h": lambda: minimal_stage(2, 2, 1, 1).conjugation()(POINT3),
    "3-D point through the analytic h_1": lambda: H1((0.1, 0.2, 0.3)),
    "3-D points through the analytic h_1": lambda: H1.transform(FLOATS3),
    "rational 3-D point through the analytic h_1": lambda: H1.transform_rational(POINT3),
    "text atom": lambda: stage_partition(MAPS, 1, ["x"]),
    "fractional stage count": lambda: run_circle_scenario(1.5),
    "fractional grid multiplier": lambda: run_minimal_scenario(1, 1.5, 3, 2),
    "text index function": lambda: AbCParams(n=1, p=1, q=2, k=1, l=2, s=1, a=("x",)),
    "transposition with no blocks": lambda: builders.build_transposition(1, 0, 4, 0, 2),
    "fractional stage index": lambda: stage_epsilon(1.5),
    "scalar analytic point": lambda: MAPS.conjugations_analytic[0](0.5),
    "text analytic coordinate": lambda: MAPS.conjugations_analytic[0](("abc", 0.5)),
    "nan in the error set": lambda: ErrorSet(16, Fraction(1, 16), Fraction(1, 128)).contains(NAN),
    "nan amplitude budget": lambda: choose_amplitude(4, NAN, Fraction(1, 10)),
    "unhashable amplitude eps": lambda: amplitude_lower_bounds(4, [], 1 / 4),
    "unhashable amplitude delta": lambda: amplitude_conditions_hold(4, 1 / 12, [], 2048),
    "nan realization budget": lambda: approximate_blockslide(MAPS.conjugations_exact[0],
                                                             NAN, Fraction(1, 4)),
}


@pytest.mark.parametrize("call", list(REFUSED.values()), ids=list(REFUSED))
def test_malformed_call_is_refused(call):
    with pytest.raises(ParamOutOfRange):
        call()
