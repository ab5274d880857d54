"""The frozen-rational analytic path against a plain Fraction reference.

`EntireStep.eval_at_rational` and `AnalyticBlockSlide.transform_rational`
must return the same floats and the same rational images as the direct
Fraction formulation kept below as `_reference_*`: every window phase
reduced as a Fraction and converted once and evaluated by the full
window formula without the saturation shortcut
(`test_window_kernel.full_at_rational`), every image coordinate moved
by Fraction additions mod 1. Step values are compared as floats and by
`repr` (which also tells 0.0 from -0.0), images by Fraction equality.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abctorus.analytic import approximate_blockslide
from abctorus.engine import eval_stage_map, run_circle_scenario, run_minimal_scenario
from abctorus.errors import ParamOutOfRange
from abctorus.exact.points import TorusPoint
from test_integer_program import block_slide_maps
from test_window_kernel import full_at_rational

F = Fraction

# the full window formula, every window through sin, clamp and both
# exponentials (no saturation shortcut)
_reference_eval_at_rational = full_at_rational


def _reference_transform_rational(am, coords):
    out = [Fraction(c) % 1 for c in coords]
    for mv in am.moves:
        if mv.is_constant:
            out[mv.target] = (out[mv.target] + mv.sign * mv.constant) % 1
        else:
            val = Fraction(_reference_eval_at_rational(mv.step, out[mv.source]))
            out[mv.target] = (out[mv.target] + mv.sign * val) % 1
    return tuple(out)


def assert_same_value(step, x):
    got = step.eval_at_rational(x)
    want = _reference_eval_at_rational(step, x)
    assert got == want and repr(got) == repr(want), (step, x)


_CIRCLE = run_circle_scenario(3)
CIRCLE_MAPS = _CIRCLE.conjugations_analytic
MINIMAL_MAP = run_minimal_scenario(n=2, l=4, q=3, r=2).conjugations_analytic[0]

# denominators 1, powers of two, coprime to 2 and above 2^60
DENOMINATORS = (1, 2**17, 576 * 2**17, 231, 5**30, 2**60 + 33)


def sample_rationals(seed: int, per_denominator: int = 3):
    """Rationals over each of DENOMINATORS: one in [0, 1), one negative
    and one at or above 1."""
    rng = np.random.default_rng(seed)
    out = []
    for d in DENOMINATORS:
        for offset in (0, -3, 3)[:per_denominator]:
            n = int(rng.integers(0, 2**62)) % d
            out.append(F(n + offset * d, d))
    return out


def steps_of(am):
    return sorted({mv.step for mv in am.moves if mv.step is not None}, key=repr)


MINIMAL_STEPS = steps_of(MINIMAL_MAP)


def test_minimal_realization_has_many_distinct_steps():
    assert len(MINIMAL_MAP.moves) == 3709
    assert len(MINIMAL_STEPS) > 10


def test_eval_at_rational_matches_reference_on_circle_steps():
    xs = sample_rationals(1)
    for am in CIRCLE_MAPS:
        for step in steps_of(am):
            for x in xs:
                assert_same_value(step, x)


def test_eval_at_rational_matches_reference_on_minimal_steps():
    xs = sample_rationals(2)
    for step in MINIMAL_STEPS:
        for x in xs:
            assert_same_value(step, x)


def test_eval_at_rational_matches_reference_on_cell_boundaries():
    # phases land exactly on 0, 1/2 and the cell boundaries i/l, within
    # the first period and one period later
    for step in steps_of(CIRCLE_MAPS[2]) + MINIMAL_STEPS[:20]:
        half_cells = 2 * step.l * step.N
        for j in range(-2, 2 * step.l + 3):
            assert_same_value(step, F(j, half_cells))
            assert_same_value(step, F(j + 2 * step.l, half_cells))


@given(num=st.integers(-2**70, 2**70), den=st.integers(1, 2**70))
@settings(max_examples=150, deadline=None)
def test_eval_at_rational_matches_reference_on_random_rationals(num, den):
    for step in steps_of(CIRCLE_MAPS[2]):
        assert_same_value(step, F(num, den))


def test_eval_at_rational_accepts_ints_floats_and_strings():
    step = steps_of(CIRCLE_MAPS[0])[0]
    for x in (0, 3, -7, 0.375, -2.5, 1e-300, "5/231", "-17/8"):
        assert_same_value(step, x)


def point_pairs(seed: int):
    xs = sample_rationals(seed)
    return [(xs[i], xs[(5 * i + 3) % len(xs)]) for i in range(len(xs))]


def test_transform_rational_matches_reference_on_circle_maps():
    for am in CIRCLE_MAPS:
        inv = am.inverse()
        for x in point_pairs(3):
            y = am.transform_rational(x)
            assert y == _reference_transform_rational(am, x)
            assert inv.transform_rational(x) == _reference_transform_rational(inv, x)
            assert inv.transform_rational(y) == tuple(c % 1 for c in x)


def test_transform_rational_matches_reference_on_minimal_realization():
    inv = MINIMAL_MAP.inverse()
    points = [(F(1, 3), F(5, 7)), (F(-12345, 2**17), F(7, 2**60 + 33)),
              (F(3 * 5**30 + 11, 5**30), F(-2))]
    for x in points:
        y = MINIMAL_MAP.transform_rational(x)
        assert y == _reference_transform_rational(MINIMAL_MAP, x)
        assert inv.transform_rational(y) == _reference_transform_rational(inv, y)
        assert inv.transform_rational(y) == tuple(c % 1 for c in x)


def test_transform_rational_matches_reference_on_unreduced_numerators():
    # the common denominator D = lcm of the coordinates' denominators
    # leaves the source numerator over D unreduced: 1/3 is carried as
    # 2^17 / (3 * 2^17), 5/12 as 5 * 5^30 / (12 * 5^30), and so on
    points = [(F(1, 3), F(5, 2**17)), (F(5, 12), F(-2, 5**30)),
              (F(7, 2**60 + 33), F(1, 2)), (F(3, 4), F(11, 576 * 2**17))]
    cases = [(am, points) for am in CIRCLE_MAPS] + [(MINIMAL_MAP, points[:2])]
    for am, pts in cases:
        for x in pts:
            for h in (am, am.inverse()):
                assert h.transform_rational(x) == _reference_transform_rational(h, x)
                assert h.transform_rational(x[::-1]) == \
                    _reference_transform_rational(h, x[::-1])


def test_eval_at_rational_of_an_unreduced_pair_is_the_reduced_value():
    # transform_rational passes its unreduced numerator over the common
    # denominator D straight to eval_at_rational(n, D)
    rng = np.random.default_rng(16)
    for step in steps_of(CIRCLE_MAPS[2]) + MINIMAL_STEPS[:20]:
        for D in (3 * 2**17, 12 * 5**30, 2 * (2**60 + 33), 576 * 2**17):
            for n in (int(rng.integers(0, 2**62)) % D, D // 3, D // 2, 0):
                want = step.eval_at_rational(F(n, D))
                got = step.eval_at_rational(n, D)
                assert got == want and repr(got) == repr(want), (step, n, D)
                assert_same_value(step, F(n, D))
        # a Fraction numerator is divided by d as well
        assert step.eval_at_rational(F(1, 3), 5) == step.eval_at_rational(F(1, 15))


def test_eval_at_rational_refuses_a_bad_denominator():
    step = MINIMAL_STEPS[0]
    for d in (0, -3, 1.5, "7", None):
        with pytest.raises(ParamOutOfRange, match="positive integer"):
            step.eval_at_rational(1, d)


def test_transform_rational_takes_ints_floats_and_strings():
    am = CIRCLE_MAPS[1]
    for x in ((0, 1), (0.25, -1.5), ("3/7", "-9/4"), (F(1, 3), 2)):
        assert am.transform_rational(x) == _reference_transform_rational(am, x)


rational_coordinates = st.builds(
    F,
    st.integers(-3 * 2**61, 3 * 2**61),
    st.sampled_from(DENOMINATORS + (3, 12, 2**20 + 7)),
)


@given(m=block_slide_maps(max_moves=5, max_period=3, max_cells=4, max_denominator=6),
       coords=st.lists(rational_coordinates, min_size=2, max_size=2))
@settings(max_examples=60, deadline=None)
def test_random_analytic_map_matches_reference(m, coords):
    am = approximate_blockslide(m, F(1, 100), F(1, 100))
    x = tuple(coords)
    for h in (am, am.inverse()):
        assert h.transform_rational(x) == _reference_transform_rational(h, x)


# -- non-finite and malformed coordinates are refused with a typed error ----

def test_eval_at_rational_refuses_infinity():
    step = steps_of(CIRCLE_MAPS[0])[0]
    for x in (float("inf"), float("-inf")):
        with pytest.raises(ParamOutOfRange, match="not a finite rational"):
            step.eval_at_rational(x)


def test_transform_rational_refuses_nan():
    with pytest.raises(ParamOutOfRange, match="not a finite rational"):
        CIRCLE_MAPS[0].transform_rational((float("nan"), 0.5))


def test_transform_rational_refuses_malformed_coordinates():
    for bad in ("abc", None, 1j):
        with pytest.raises(ParamOutOfRange, match="not a finite rational"):
            CIRCLE_MAPS[0].transform_rational((bad, 0.5))


def test_exact_stage_map_refuses_infinity():
    with pytest.raises(ParamOutOfRange, match="not a finite rational"):
        eval_stage_map(_CIRCLE, (float("inf"), 0.5), "exact")
    with pytest.raises(ParamOutOfRange, match="not a finite rational"):
        TorusPoint((0.5, "abc"))
    # a well-formed sequence still reaches the exact model
    x = TorusPoint((F(1, 5), F(2, 7)))
    assert eval_stage_map(_CIRCLE, ("1/5", "2/7"), "exact") == eval_stage_map(_CIRCLE, x, "exact")
