"""Tests for the entire-function approximation layer."""

import gc
import weakref
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from abctorus.analytic import (
    AnalyticMove,
    EntireStep,
    _amplitude_bounds,
    amplitude_conditions_hold,
    amplitude_lower_bounds,
    approximate_blockslide,
    choose_amplitude,
    error_set,
    step_to_plateau,
    stage_amplitude,
    stage_delta,
    stage_epsilon,
    verify_proximity,
)
from abctorus.bounds import (
    DEFAULT_LIP_CONSTANT,
    check_amplitude,
    lip_increment_bound,
    sup_increment_bound,
)
from abctorus.engine import run_circle_scenario
from abctorus.errors import ParamOutOfRange, RangeOverflow
from abctorus.exact.blockslide import BlockSlideMap, rotation_map
from abctorus.exact.builders import build_interchange
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import (
    StepFunction,
    plateau_target,
    psi1_refine,
    psi2_refine,
    sigma1_interchange,
    sigma3_interchange,
)
from abctorus.towers import TowerReal

EPS_DEMO = Fraction(1, 10)
DELTA_DEMO = Fraction(1, 4)


def demo_step() -> EntireStep:
    A = choose_amplitude(2, EPS_DEMO, DELTA_DEMO)
    return EntireStep((0.0, 0.5), 1, EPS_DEMO, DELTA_DEMO, A)


# ---------------------------------------------------------------------------
# Amplitude selection.
# ---------------------------------------------------------------------------


def test_amplitude_lower_bounds_frozen():
    a1, a2 = amplitude_lower_bounds(2, EPS_DEMO, DELTA_DEMO)
    assert abs(float(a1) - 22.285480360042566) < 1e-9
    assert abs(float(a2) - 6.647954129745945) < 1e-9


def test_amplitude_lower_bounds_cache_returns_the_computed_bounds():
    # the four (l, eps, delta) triples of the minimal realization's build
    for l in (2, 4, 8, 16):
        args = (l, Fraction(1, 82224), Fraction(1, 27408))
        cached = amplitude_lower_bounds(*args)
        assert amplitude_lower_bounds(*args) is cached
        fresh = _amplitude_bounds.__wrapped__(*args)
        for a, b in zip(cached, fresh):
            assert isinstance(a, mp.mpf) and a == b and a.man == b.man and a.exp == b.exp


def test_amplitude_lower_bounds_cache_keeps_the_integer_check():
    amplitude_lower_bounds(2, EPS_DEMO, DELTA_DEMO)
    with pytest.raises(ParamOutOfRange):
        amplitude_lower_bounds(2.0, EPS_DEMO, DELTA_DEMO)


def test_choose_amplitude_general_smallest_power_of_two():
    A = choose_amplitude(2, EPS_DEMO, DELTA_DEMO)
    assert A == 32
    assert amplitude_conditions_hold(2, EPS_DEMO, DELTA_DEMO, A)
    # the next power down must fail (A = 32 is the smallest)
    assert not amplitude_conditions_hold(2, EPS_DEMO, DELTA_DEMO, 16)


def test_choose_amplitude_stage_schedule():
    assert stage_amplitude(1, 4) == 2048
    assert stage_amplitude(2, 4) == 8192
    assert stage_amplitude(1, 8) == 8192
    # the schedule is a fixed amplitude, at or above the smallest power of
    # two that the stage budgets need
    for n in (1, 2, 3):
        for l in (4, 8):
            assert choose_amplitude(l, stage_epsilon(n), stage_delta(n)) <= stage_amplitude(n, l)


@pytest.mark.parametrize("l", [4, 6, 8])
def test_stage_amplitude_clears_the_circle_split_budget(l):
    # a circle stage gives each of its three shears (eps_n/4, delta_n/4)
    for n in range(1, 9):
        assert amplitude_conditions_hold(
            l, stage_epsilon(n) / 4, stage_delta(n) / 4, stage_amplitude(n, l))


def test_choose_amplitude_rejections():
    with pytest.raises(ParamOutOfRange):
        stage_amplitude(1, 2)  # the stage schedule needs l >= 4
    with pytest.raises(ParamOutOfRange):
        stage_amplitude(1, 5)  # and an even l
    with pytest.raises(ParamOutOfRange):
        stage_amplitude(0, 4)
    with pytest.raises(ParamOutOfRange):
        choose_amplitude(5, Fraction(1, 10), Fraction(1, 4))  # odd l
    with pytest.raises(ParamOutOfRange):
        choose_amplitude(2, Fraction(1, 8), Fraction(1, 4))  # eps too large
    with pytest.raises(ParamOutOfRange):
        choose_amplitude(2, Fraction(1, 10), Fraction(1))  # delta too large


def test_tiny_budgets_do_not_overflow():
    # far beyond float range; mpmath keeps the bounds finite and ordered
    a1, a2 = amplitude_lower_bounds(2, Fraction(1, 2**2000), Fraction(1, 2**2000))
    assert a1 > 0 and a2 > 0
    A = choose_amplitude(2, Fraction(1, 9), Fraction(1, 2**2000))
    assert amplitude_conditions_hold(2, Fraction(1, 9), Fraction(1, 2**2000), A)


@pytest.mark.parametrize("bad", [float("inf"), None, "x"])
def test_amplitude_routes_refuse_a_malformed_amplitude(bad):
    # one rule, towers.require_real, for the evaluation and the bounds route
    with pytest.raises(ParamOutOfRange, match="amplitude must be a finite real"):
        amplitude_conditions_hold(4, Fraction(1, 12), Fraction(1, 4), bad)
    with pytest.raises(ParamOutOfRange, match="amplitude must be a finite real"):
        check_amplitude(bad, 4, Fraction(1, 12), Fraction(1, 4))
    with pytest.raises(ParamOutOfRange, match="amplitude must be a finite real"):
        EntireStep((0.0, 0.5), 1, EPS_DEMO, DELTA_DEMO, bad)


# ---------------------------------------------------------------------------
# Real evaluation.
# ---------------------------------------------------------------------------


def test_plateau_values_frozen():
    s = demo_step()
    assert abs(s(0.25) - 0.0) < 0.1
    assert abs(s(0.75) - 0.5) < 0.1
    # sharp versions (the windows saturate off the collars)
    assert abs(s(0.25)) < 1e-5
    assert abs(s(0.75) - 0.5) < 1e-5


def test_zero_profile_evaluates_to_zero():
    s = EntireStep((0.0, 0.0), 1, EPS_DEMO, DELTA_DEMO, 32)
    xs = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(s(xs))) == 0.0
    assert s(0.123) == 0.0


def test_scalar_matches_vector_evaluation():
    s = demo_step()
    xs = np.linspace(0.0, 1.0, 101)
    vec = s(xs)
    for x, v in zip(xs, vec):
        assert s(float(x)) == pytest.approx(v, abs=0.0)


def test_matches_mpmath_reference():
    """Dual-route check: float evaluation against the formula computed in
    mpmath at 120 bits."""
    s = demo_step()
    A, l, N = s.A, s.l, s.N

    def reference(x):
        with mp.workprec(120):
            w = mp.mpf(x) * N
            E = [mp.e ** (-mp.e ** (-A * mp.sin(2 * mp.pi * (w - mp.mpf(i) / l))))
                 for i in range(l)]
            E.append(E[0])
            low = sum(s.beta[i] * (E[i] - E[i + 1]) for i in range(l // 2))
            high = sum(s.beta[i] * (E[i] - E[i + 1]) for i in range(l // 2, l))
            wp = mp.e ** (-mp.e ** (-A * mp.sin(2 * mp.pi * w)))
            wm = mp.e ** (-mp.e ** (A * mp.sin(2 * mp.pi * w)))
            return float(low * wp + high * wm)

    for x in (0.05, 0.21, 0.33, 0.5, 0.62, 0.75, 0.99):
        assert s(x) == pytest.approx(reference(x), abs=5e-13)


def test_periodicity():
    s = demo_step()
    rng = np.random.default_rng(7)
    xs = rng.random(1000)
    assert np.max(np.abs(s(xs + 1.0) - s(xs))) <= 1e-12

    # an N = 16 profile at stage amplitude; the shift 1/16 is exactly
    # representable, so float rounding cannot masquerade as aperiodicity
    s16 = EntireStep((0.0, 0.25, 0.5, 0.75), 16, stage_epsilon(1), stage_delta(1), 2048)
    xs = rng.random(1000)
    assert np.max(np.abs(s16(xs + 0.0625) - s16(xs))) <= 1e-12


def test_periodicity_non_dyadic_period_high_precision():
    """1/12 has no exact float, so the periodicity of an N = 12 profile is
    checked where it actually holds: in 120-bit arithmetic."""
    beta, N, _ = step_to_plateau(psi2_refine(4, 3))
    A, l = 2048, len(beta)

    def reference(x):
        with mp.workprec(120):
            w = x * N
            E = [mp.e ** (-mp.e ** (-A * mp.sin(2 * mp.pi * (w - mp.mpf(i) / l))))
                 for i in range(l)]
            E.append(E[0])
            low = sum(beta[i] * (E[i] - E[i + 1]) for i in range(l // 2))
            high = sum(beta[i] * (E[i] - E[i + 1]) for i in range(l // 2, l))
            wp = mp.e ** (-mp.e ** (-A * mp.sin(2 * mp.pi * w)))
            wm = mp.e ** (-mp.e ** (A * mp.sin(2 * mp.pi * w)))
            return low * wp + high * wm

    with mp.workprec(120):
        for x in (mp.mpf("0.113"), mp.mpf("0.471"), mp.mpf("0.823")):
            assert abs(reference(x + mp.mpf(1) / 12) - reference(x)) < mp.mpf(10) ** -25


def test_linearity_in_profile():
    b1 = (0.1, 0.7)
    b2 = (0.5, 0.2)
    a, b = 0.4, 0.6
    mix = tuple(a * u + b * v for u, v in zip(b1, b2))
    args = (1, EPS_DEMO, DELTA_DEMO, 32)
    s1, s2, sm = EntireStep(b1, *args), EntireStep(b2, *args), EntireStep(mix, *args)
    xs = np.linspace(0.0, 1.0, 401)
    assert np.max(np.abs(sm(xs) - (a * s1(xs) + b * s2(xs)))) < 1e-10


def test_entire_step_validation():
    with pytest.raises(ParamOutOfRange):
        EntireStep((0.0, 1.5), 1, EPS_DEMO, DELTA_DEMO, 32)  # value > 1
    with pytest.raises(ParamOutOfRange):
        EntireStep((0.0, 0.5, 0.5), 1, EPS_DEMO, DELTA_DEMO, 32)  # odd l
    with pytest.raises(ParamOutOfRange):
        EntireStep((0.0, 0.5), 0, EPS_DEMO, DELTA_DEMO, 32)  # bad N
    with pytest.raises(ParamOutOfRange):
        EntireStep((0.0, 0.5), 1, EPS_DEMO, DELTA_DEMO, 16)  # amplitude too small
    with pytest.raises(ParamOutOfRange):
        EntireStep((0.0, 0.5), 1, Fraction(1, 8), DELTA_DEMO, 32)  # eps at the edge


def test_derivative_small_off_collars():
    """Central differences off the collars stay below eps at stage
    parameters: the plateaus are genuinely flat."""
    beta, N, _ = step_to_plateau(psi1_refine(4, 144))
    s = EntireStep(
        tuple(float(b) for b in beta), N, stage_epsilon(1), stage_delta(1),
        stage_amplitude(1, 4),
    )
    collars = error_set(s)
    h = 1e-6
    for j in range(200):
        x = Fraction(2 * j + 1, 400)
        if collars.contains(x) or collars.contains(x + Fraction(1, 10**6)):
            continue
        slope = (s(float(x) + h) - s(float(x) - h)) / (2 * h)
        assert abs(slope) < float(stage_epsilon(1))


# ---------------------------------------------------------------------------
# Complex evaluation.
# ---------------------------------------------------------------------------


def test_complex_real_axis_agrees():
    s = demo_step()
    for x in (0.1, 0.25, 0.5, 0.75, 0.9):
        z = s.eval_complex(complex(x, 0.0))
        assert z == complex(s(x), 0.0)
        assert abs(z.imag) <= 1e-12


def test_complex_guard_frozen():
    s = EntireStep((0.0, 0.5), 1, stage_epsilon(1), stage_delta(1), 2048)
    value = s.eval_complex(0.3 + 0.01j)
    assert abs(value) < 1e300  # finite
    with pytest.raises(RangeOverflow):
        s.eval_complex(0.3 + 1j)


def test_complex_moderate_strip():
    s = demo_step()  # A = 32
    value = s.eval_complex(0.75 + 0.001j)
    assert abs(value - 0.5) < 0.01


def test_complex_never_exceeds_sup_bound():
    s = demo_step()
    for z in (0.75 + 0.001j, 0.3 + 0.01j, 0.1 + 0.005j):
        v = abs(s.eval_complex(z))
        bound = sup_increment_bound(s.A, s.N, abs(z.imag))
        if v > 0:
            assert TowerReal.from_number(v) < bound


# ---------------------------------------------------------------------------
# Collars.
# ---------------------------------------------------------------------------


PROBE = Fraction(1, 256)


def assert_collar_pinned(es, lo: Fraction, hi: Fraction):
    """[lo, hi] is one closed piece of `es`: both ends are inside and a
    probe 1/256 beyond either end is outside, except past 0 or 1, where
    the collar at 0 wraps round and the probe lands in its other piece."""
    assert es.contains(lo) and es.contains(hi)
    assert es.contains(lo - PROBE) == (lo == 0)
    assert es.contains(hi + PROBE) == (hi == 1)


def test_error_set_frozen_two_cells():
    s = demo_step()
    es = error_set(s)
    assert es.cell_count == 2
    assert es.total_measure() == Fraction(1, 4)
    for lo, hi in (
        (Fraction(0), Fraction(1, 16)),
        (Fraction(7, 16), Fraction(9, 16)),
        (Fraction(15, 16), Fraction(1)),
    ):
        assert_collar_pinned(es, lo, hi)
    assert es.contains(Fraction(1, 16))        # closed boundary
    assert not es.contains(Fraction(17, 256))  # just outside
    assert es.contains(Fraction(0))
    assert es.contains(Fraction(7, 16))
    assert not es.contains(Fraction(111, 256))


def test_error_set_twelve_collars():
    s = EntireStep((0.0,) * 4, 3, EPS_DEMO, DELTA_DEMO,
                   choose_amplitude(4, EPS_DEMO, DELTA_DEMO))
    es = error_set(s)
    assert es.cell_count == 12
    h = DELTA_DEMO / 24
    # the collar at 0 wraps and splits into [0, h] and [1 - h, 1]
    assert_collar_pinned(es, Fraction(0), h)
    assert_collar_pinned(es, 1 - h, Fraction(1))
    for i in range(1, 12):
        assert_collar_pinned(es, Fraction(i, 12) - h, Fraction(i, 12) + h)
    assert es.total_measure() == DELTA_DEMO


def test_circle_collar_measure_is_below_stage_delta():
    # each of the three shears of a circle stage carries delta_n/4, so the
    # summed collar measure is 3 delta_n/4 < delta_n
    hs = run_circle_scenario(3).conjugations_analytic
    assert [h.delta for h in hs] == [stage_delta(n) for n in (1, 2, 3)]
    assert [h.error_measure_bound() for h in hs] == [
        Fraction(3, 16), Fraction(3, 32), Fraction(3, 64)]
    assert all(h.error_measure_bound() < h.delta for h in hs)


# ---------------------------------------------------------------------------
# Proximity.
# ---------------------------------------------------------------------------


def test_verify_proximity_demo():
    s = demo_step()
    dev = verify_proximity(s, plateau_target((Fraction(0), Fraction(1, 2)), 1))
    assert dev < float(EPS_DEMO)
    assert dev < 1e-3  # sharp at this amplitude


def test_verify_proximity_stage_profile():
    target = psi1_refine(4, 144)
    beta, N, l = step_to_plateau(target)
    s = EntireStep(
        tuple(float(b) for b in beta), N, stage_epsilon(1), stage_delta(1),
        stage_amplitude(1, 4),
    )
    assert verify_proximity(s, target, 10**4) < float(stage_epsilon(1))


def test_verify_proximity_zero_profile():
    s = EntireStep((0.0, 0.0), 1, EPS_DEMO, DELTA_DEMO, 32)
    assert verify_proximity(s, plateau_target((Fraction(0), Fraction(0)), 1)) == 0.0


# ---------------------------------------------------------------------------
# Strip bounds.
# ---------------------------------------------------------------------------


def test_sup_bound_frozen_unit_parameters():
    bound = sup_increment_bound(1, 1, 0)
    with mp.workprec(120):
        ref = 2 * mp.pi * mp.e ** (2 * mp.e + 1)
        assert abs(bound.to_mpf() - ref) / ref < mp.mpf(2) ** -100


def test_lipschitz_bound_frozen_unit_parameters():
    bound = lip_increment_bound(1, 1, 2, 0)
    with mp.workprec(120):
        # the default prefactor is the double closest to 6*pi (it is a knob,
        # not a derived constant)
        ref = mp.mpf(DEFAULT_LIP_CONSTANT) * 1 * 2 * 1 * mp.e ** (4 * mp.e)
        assert abs(bound.to_mpf() - ref) / ref < mp.mpf(2) ** -100


def test_norm_bounds_monotone_in_strip_width():
    assert sup_increment_bound(2, 1, 1.0) > sup_increment_bound(2, 1, 0.5)
    assert lip_increment_bound(2, 1, 2, 1.0) > lip_increment_bound(2, 1, 2, 0.5)


def test_norm_bounds_stage_parameters_comparable():
    sup = sup_increment_bound(2048, 1, 1.0)
    lip = lip_increment_bound(2048, 1, 4, 1.0)
    assert sup > TowerReal.from_number(10**300)
    assert lip > TowerReal.from_number(10**300)
    # the evaluator never materializes these as floats
    with pytest.raises(RangeOverflow):
        sup.to_float()


def test_norm_bounds_of_step():
    s = demo_step()
    sup = sup_increment_bound(s.A, s.N, Fraction(1, 2))
    lip = lip_increment_bound(s.A, s.N, s.l, Fraction(1, 2))
    # bit-exact pins, frozen from a separate mpmath evaluation
    with mp.workprec(160):
        assert sup == TowerReal(4, mp.mpf("1.888321012529619628086482901325446566599136833290394"))
        assert lip == TowerReal(4, mp.mpf("1.888462452350156533040375535684365882287124302892109"))
    with pytest.raises(ParamOutOfRange):
        sup_increment_bound(s.A, s.N, -1)
    with pytest.raises(ParamOutOfRange):
        lip_increment_bound(s.A, s.N, s.l, -1)


# ---------------------------------------------------------------------------
# Plateau extraction.
# ---------------------------------------------------------------------------


def test_step_to_plateau_frozen():
    beta, N, l = step_to_plateau(psi1_refine(4, 144))
    assert (beta, N, l) == (
        (Fraction(0), Fraction(1, 768), Fraction(1, 1152), Fraction(1, 2304)), 1, 4)

    beta, N, l = step_to_plateau(sigma1_interchange(4, 3))
    assert (beta, N, l) == ((Fraction(0), Fraction(1, 12)), 1, 2)

    beta, N, l = step_to_plateau(sigma3_interchange(4, 3))
    assert (beta, N, l) == (
        (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)), 3, 4)


def test_step_to_plateau_pads_odd_cell_counts():
    step = StepFunction.from_pieces(1, [(0, Fraction(1, 5)), (Fraction(1, 3), Fraction(2, 5))])
    beta, N, l = step_to_plateau(step)
    assert N == 1 and l == 6
    assert beta == (Fraction(1, 5),) * 2 + (Fraction(2, 5),) * 4


def test_step_to_plateau_needs_unit_fraction_period():
    step = StepFunction.from_pieces(Fraction(2, 3), [(0, Fraction(1, 5))])
    with pytest.raises(ParamOutOfRange):
        step_to_plateau(step)


# ---------------------------------------------------------------------------
# Whole block-slide maps.
# ---------------------------------------------------------------------------


def test_empty_map_approximation():
    am = approximate_blockslide(BlockSlideMap(), Fraction(1, 100), Fraction(1, 100))
    assert am.moves == ()
    assert am.error_measure_bound() == 0
    assert not am.in_error_set(TorusPoint((Fraction(1, 3), Fraction(1, 7))))
    assert am((0.3, 0.7)) == (0.3, 0.7)


def test_interchange_approximation_structure():
    f43 = build_interchange(4, 3)
    am = approximate_blockslide(f43, Fraction(1, 1000), Fraction(1, 1000))
    assert len(am.moves) == 8
    constants = [i for i, mv in enumerate(am.moves) if mv.is_constant]
    assert constants == [3]  # the fixed half-turn shear stays exact
    assert am.moves[3].constant == Fraction(1, 2)
    assert am.error_measure_bound() < Fraction(1, 1000)
    assert am.commutes_with_rotation(3)
    assert am.commutes_with_rotation(1)
    assert not am.commutes_with_rotation(7)


def test_two_block_interchange_keeps_both_constants():
    am = approximate_blockslide(build_interchange(2, 3), Fraction(1, 100), Fraction(1, 100))
    constants = [i for i, mv in enumerate(am.moves) if mv.is_constant]
    assert constants == [3, 7]  # half turn, and the degenerate last profile


def test_interchange_close_to_exact_outside_error_set():
    f43 = build_interchange(4, 3)
    am = approximate_blockslide(f43, Fraction(1, 1000), Fraction(1, 1000))
    rng = np.random.default_rng(12)
    checked = 0
    worst = 0.0
    for _ in range(200):
        x = TorusPoint((Fraction(int(rng.integers(0, 2**20)) * 2 + 1, 2**21),
                        Fraction(int(rng.integers(0, 2**20)) * 2 + 1, 2**21)))
        if am.in_error_set(x):
            continue
        exact = f43(x)
        approx = am(tuple(float(c) for c in x))
        for a, e in zip(approx, exact):
            d = abs(a - float(e))
            worst = max(worst, min(d, 1.0 - d))
        checked += 1
    assert checked > 150
    assert worst < 1e-3
    assert worst < 1e-6  # sharp at these amplitudes


def test_analytic_commutation_numeric():
    f43 = build_interchange(4, 3)
    am = approximate_blockslide(f43, Fraction(1, 1000), Fraction(1, 1000))
    third = 1.0 / 3.0
    worst = 0.0
    checked = 0
    for j in range(40):
        for k in range(3):
            x = (j / 40.0 + 0.0125, k / 3.0 + 0.17)
            pt = TorusPoint((Fraction(x[0]), Fraction(x[1])))
            rot = TorusPoint((Fraction(x[0]) + Fraction(1, 3), Fraction(x[1])))
            if am.in_error_set(pt) or am.in_error_set(rot):
                continue
            a = am((x[0] + third, x[1]))
            b = am(x)
            b = ((b[0] + third) % 1.0, b[1])
            for u, v in zip(a, b):
                d = abs(u - v) % 1.0
                worst = max(worst, min(d, 1.0 - d))
            checked += 1
    assert checked > 80
    assert worst <= 1e-12


def test_transform_shape_checks():
    am = approximate_blockslide(build_interchange(2, 1), Fraction(1, 10), Fraction(1, 10))
    with pytest.raises(ParamOutOfRange):
        am.transform(np.zeros((3, 5)))
    with pytest.raises(ParamOutOfRange):
        am((0.1, 0.2, 0.3))
    out = am.transform(np.array([[0.1, 0.6], [0.2, 0.7]]))
    assert out.shape == (2, 2)


def test_rotation_map_stays_exact():
    rot = rotation_map(Fraction(2, 5))
    am = approximate_blockslide(rot, Fraction(1, 100), Fraction(1, 100))
    assert all(mv.is_constant for mv in am.moves)
    assert am.error_measure_bound() == 0
    assert am((0.1, 0.9)) == (pytest.approx(0.5), 0.9)


def test_budget_rejections():
    with pytest.raises(ParamOutOfRange):
        approximate_blockslide(build_interchange(2, 1), 0, Fraction(1, 10))
    with pytest.raises(ParamOutOfRange):
        approximate_blockslide(build_interchange(2, 1), Fraction(1, 10), 0)


# ---------------------------------------------------------------------------
# Exact-rational evaluation paths.
# ---------------------------------------------------------------------------


def test_eval_at_rational_matches_float_path():
    # scalar libm vs numpy SIMD transcendentals: agreement to ~1 ulp,
    # not bit equality (the rational path's contract is exact periodicity)
    step = demo_step()
    for x in (0.113, 0.25, 0.73, 0.999):
        assert abs(step.eval_at_rational(Fraction(x)) - step(x)) < 1e-15


def test_eval_at_rational_exactly_periodic_in_profile_period():
    # N = 12 profile: float evaluation drifts ~1e-12 under non-dyadic
    # shifts, the rational path is bit-for-bit periodic
    beta = (0.0, 0.25, 0.5, 0.75)
    step = EntireStep(beta, 12, Fraction(1, 24), Fraction(1, 8), 2048)
    for num in (5, 17, 101):
        x = Fraction(num, 1024)
        assert step.eval_at_rational(x + Fraction(1, 12)) == step.eval_at_rational(x)
        assert step.eval_at_rational(x + 5) == step.eval_at_rational(x)


def test_transform_rational_matches_float_transform():
    am = approximate_blockslide(
        build_interchange(4, 3), Fraction(1, 1000), Fraction(1, 1000)
    )
    x = (Fraction(5, 24), Fraction(7, 24))
    exact_path = am.transform_rational(x)
    float_path = am((float(x[0]), float(x[1])))
    for a, b in zip(exact_path, float_path):
        d = abs(float(a) - b)
        assert min(d, 1.0 - d) < 1e-12


def test_transform_rational_commutes_exactly():
    am = approximate_blockslide(
        build_interchange(4, 3), Fraction(1, 1000), Fraction(1, 1000)
    )
    third = Fraction(1, 3)
    for x in ((Fraction(1, 10), Fraction(3, 7)), (Fraction(5, 8), Fraction(1, 5))):
        lhs = am.transform_rational((x[0] + third, x[1]))
        rhs = am.transform_rational(x)
        rhs = ((rhs[0] + third) % 1, rhs[1])
        assert lhs == rhs  # exact Fraction equality, no tolerance


def test_analytic_inverse_roundtrip_is_exact():
    am = approximate_blockslide(
        build_interchange(4, 3), Fraction(1, 1000), Fraction(1, 1000)
    )
    inv = am.inverse()
    for x in ((Fraction(1, 10), Fraction(3, 7)), (Fraction(9, 11), Fraction(2, 3))):
        assert inv.transform_rational(am.transform_rational(x)) == x
    # float route inherits the exactness move by move
    y = am((0.13, 0.57))
    back = inv(y)
    assert back == (pytest.approx(0.13, abs=1e-15), pytest.approx(0.57, abs=1e-15))


def test_inverse_structure():
    am = approximate_blockslide(
        build_interchange(4, 3), Fraction(1, 1000), Fraction(1, 1000)
    )
    inv = am.inverse()
    assert len(inv.moves) == len(am.moves)
    assert inv.moves[0].sign == -am.moves[-1].sign
    assert inv.eps == am.eps and inv.delta == am.delta
    assert inv.exact == am.exact.inverse()


def test_inverse_is_kept_on_the_forward_map():
    am = approximate_blockslide(
        build_interchange(4, 3), Fraction(1, 1000), Fraction(1, 1000)
    )
    inv = am.inverse()
    assert am.inverse() is inv
    x = (Fraction(5, 24), Fraction(-7, 2**61 + 1))
    assert inv.transform_rational(am.transform_rational(x)) == tuple(c % 1 for c in x)
    assert inv.inverse() is not am and inv.inverse().moves == am.moves


def test_kept_inverse_forms_no_reference_cycle():
    am = approximate_blockslide(
        build_interchange(4, 3), Fraction(1, 1000), Fraction(1, 1000)
    )
    forward, inverse = weakref.ref(am), weakref.ref(am.inverse())
    gc.disable()
    try:
        del am
        # freed by reference counting alone, with the collector off
        assert forward() is None and inverse() is None
    finally:
        gc.enable()
