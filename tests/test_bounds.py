"""Tests for the certified inequality checks (amplitude and q gates,
convergence ledger, Liouville-type recipes, translation parameters).

Expected values were frozen from independent computations: the amplitude
thresholds from a direct 200-bit mpmath evaluation, the translation-level
chain from a by-hand run of the congruence search (including the forced
escalation at level 2), and the Liouville denominators from the ceiling
recursion done with exact integers.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import mpmath
import pytest
from mpmath import mp

from abctorus import analytic, bounds
from abctorus.bounds import (
    GapBound,
    LiouvilleLevel,
    LiouvilleRecipe,
    StageBounds,
    TranslationParams,
    check_amplitude,
    check_q_condition,
    convergence_ledger,
    ledger_recipe,
    lip_increment_bound,
    liouville_from_rational,
    liouville_generate,
    liouville_verify,
    rho_prime_bound,
    stage_gap_threshold,
    sup_increment_bound,
    translation_params,
    verify_translation_params,
)
from abctorus.errors import (
    LinkFailed,
    ParamOutOfRange,
    SearchExhausted,
)
from abctorus.towers import TowerReal, tower

F = Fraction


# ---------------------------------------------------------------------------
# Amplitude gate.
# ---------------------------------------------------------------------------


class TestCheckAmplitude:
    def test_stage_one_schedule_passes(self):
        assert check_amplitude(2048, 4, F(1, 12), F(1, 4)) is True

    def test_zero_and_negative_amplitudes_fail(self):
        assert check_amplitude(0, 4, F(1, 12), F(1, 4)) is False
        assert check_amplitude(-5, 4, F(1, 12), F(1, 4)) is False

    def test_value_just_below_threshold_fails(self):
        # independent 200-bit evaluation of both thresholds
        with mp.workprec(200):
            e = mp.mpf(1) / 12
            d = mp.mpf(1) / 4
            scale = 2 * 4 / (mp.pi * d)
            t1 = -scale * mp.log(-mp.log1p(-e / 8))
            t2 = scale * mp.log(-mp.log(e / (2 * 4)))
            top = max(t1, t2)
            below = float(top) * (1 - 1e-12)
            above = float(top) * (1 + 1e-12)
        assert check_amplitude(below, 4, F(1, 12), F(1, 4)) is False
        assert check_amplitude(above, 4, F(1, 12), F(1, 4)) is True

    def test_stage_schedule_amplitudes_always_clear(self):
        for n in (1, 2, 3, 4):
            eps = analytic.stage_epsilon(n)
            delta = analytic.stage_delta(n)
            amp = 2 ** (2 * n + 5) * 4 * 4
            assert check_amplitude(amp, 4, eps, delta) is True

    def test_tower_amplitudes(self):
        assert check_amplitude(TowerReal(0, 2048), 4, F(1, 12), F(1, 4)) is True
        assert check_amplitude(tower(4, 2), 4, F(1, 12), F(1, 4)) is True
        assert check_amplitude(TowerReal(0, 0), 4, F(1, 12), F(1, 4)) is False

    def test_agrees_with_evaluation_route(self):
        # same decision as the evaluation layer away from razor edges
        for l in (2, 4, 6):
            for eps in (F(1, 12), F(1, 100)):
                for delta in (F(1, 4), F(1, 10)):
                    for amp in (1, 64, 2048, 10**7):
                        assert check_amplitude(amp, l, eps, delta) == \
                            analytic.amplitude_conditions_hold(l, eps, delta, amp)

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfRange):
            check_amplitude(2048, 3, F(1, 12), F(1, 4))
        with pytest.raises(ParamOutOfRange):
            check_amplitude(2048, 4, F(1, 8), F(1, 4))
        with pytest.raises(ParamOutOfRange):
            check_amplitude(2048, 4, F(1, 12), 1)


# ---------------------------------------------------------------------------
# Denominator growth gate.
# ---------------------------------------------------------------------------


class TestCheckQCondition:
    def test_literal_q_fails(self):
        assert check_q_condition(10**100, 4, 1) is False

    def test_symbolic_q_passes(self):
        # exp(exp(9000)) beats 2 C^2 * 4 * exp(4 exp(2^7 * 64)) since
        # exp(9000) > 4 exp(8192) + ln(2 C^2 * 4)
        assert check_q_condition(tower(2, 9000), 4, 1) is True

    def test_symbolic_q_too_shallow_fails(self):
        # exp(exp(exp(2))) = exp(exp(7.39)) = exp(1619) is far below
        assert check_q_condition(tower(3, 2), 4, 1) is False

    def test_monotone_in_q(self):
        q = tower(2, 9000)
        assert check_q_condition(q, 4, 1) is True
        assert check_q_condition(q.exp(), 4, 1) is True

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfRange):
            check_q_condition(5, 4, 0)
        with pytest.raises(ParamOutOfRange):
            check_q_condition(5, 1, 1)
        with pytest.raises(ParamOutOfRange):
            check_q_condition(TowerReal(0, 0), 4, 1)


# ---------------------------------------------------------------------------
# Norm growth bounds against (height, mantissa) pins, frozen from a
# separate mpmath evaluation of the same closed forms.
# ---------------------------------------------------------------------------


class TestNormBounds:
    def test_sup_increment_matches_evaluation_layer(self):
        mine = sup_increment_bound(2048, 12, F(1, 10))
        assert mine.height == 5
        assert abs(mine.mantissa - mpmath.mpf("1.0002469954128252701915927488")) < 1e-12

    def test_lip_increment_matches_evaluation_layer(self):
        mine = lip_increment_bound(2048, 12, 4, F(1, 10))
        assert mine.height == 5
        assert abs(mine.mantissa - mpmath.mpf("1.0002469997756118355859826603")) < 1e-12

    def test_rho_prime_exceeds_rho_and_matches_sum(self):
        rp = rho_prime_bound(F(1, 10), 2048)
        assert rp > TowerReal(0, F(1, 10))
        # rho + sup bound of one shear with N = 1
        assert rp.height == 4
        assert abs(rp.mantissa - mpmath.mpf("2.1105910756135995454942002355")) < 1e-12

    def test_rho_prime_accepts_deep_towers(self):
        deep = tower(5, 2)
        rp = rho_prime_bound(deep, 2048)
        assert rp > deep

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfRange):
            sup_increment_bound(0, 1, F(1, 10))
        with pytest.raises(ParamOutOfRange):
            rho_prime_bound(0, 2048)


# ---------------------------------------------------------------------------
# Gap certificates.
# ---------------------------------------------------------------------------


class TestGapBound:
    def test_coercions(self):
        assert GapBound.from_number(0).zero is True
        assert GapBound.from_number(F(1, 7)).literal == F(1, 7)
        assert GapBound.from_number(0.25).literal == F(1, 4)
        g = GapBound.from_number(TowerReal(0, F(1, 2)))
        assert g.neglog is not None
        assert abs(g.neglog.to_float() - mpmath.log(2)) < 1e-15
        assert GapBound.from_number(TowerReal(0, 0)).zero is True

    def test_tall_tower_rejected_as_direct_gap(self):
        with pytest.raises(ParamOutOfRange):
            GapBound.from_number(tower(2, 5))

    def test_exactly_one_form(self):
        with pytest.raises(ParamOutOfRange):
            GapBound(zero=True, literal=F(1, 2))
        with pytest.raises(ParamOutOfRange):
            GapBound()
        with pytest.raises(ParamOutOfRange):
            GapBound(literal=F(3, 2))

    def test_neglog_lower_directed(self):
        g = GapBound.from_fraction(F(1, 7))
        nl = g.neglog_lower()
        # rounded down: certainly <= ln 7
        assert nl.to_float() <= float(mpmath.log(7))
        assert nl.to_float() > float(mpmath.log(7)) - 1e-10

    def test_below_exp_neg(self):
        tiny = GapBound.from_fraction(F(1, 10**9))
        assert tiny.below_exp_neg(20) is True       # e^-20 > 1e-9
        assert tiny.below_exp_neg(21) is False      # e^-21 < 1e-9
        assert GapBound.from_fraction(0).below_exp_neg(tower(5, 2)) is True
        sym = GapBound.from_neglog(tower(3, 2))
        assert sym.below_exp_neg(tower(2, 2)) is True
        assert sym.below_exp_neg(tower(4, 2)) is False


# ---------------------------------------------------------------------------
# Convergence ledger.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def recipe5():
    return ledger_recipe(stages=5)


class TestLedger:
    def test_recipe_passes_all_stages(self, recipe5):
        stages, gaps = recipe5
        verdict = convergence_ledger(stages, gaps)
        assert verdict.stages == (1, 2, 3, 4, 5)
        assert verdict.distance_bounds == (
            F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32))
        text = verdict.audit_text()
        assert text.count("[L4]") == 5
        assert text.count(": ok") == 20

    def test_recipe_first_stage_is_literal(self, recipe5):
        stages, _ = recipe5
        s1 = stages[0]
        assert s1.l == 1004 and s1.l % 2 == 0
        # independent check of the two grid conditions at stage 1
        with mp.workprec(200):
            assert 1004 > 4  # 2^2 * DH with DH = 1
            assert 1004 > mp.e ** (2 * mp.pi * mp.mpf("1.1"))
        assert isinstance(s1.q, TowerReal) and s1.q.height >= 4
        assert check_q_condition(s1.q, s1.l, 1) is True

    def test_recipe_q_clears_condition_at_every_stage(self, recipe5):
        stages, _ = recipe5
        for st in stages:
            assert check_q_condition(st.q, st.l, st.n) is True

    def test_recipe_width_chain(self, recipe5):
        stages, _ = recipe5
        for prev, cur in zip(stages, stages[1:]):
            assert cur.rho == prev.rho_prime
            assert TowerReal.from_number(cur.dh) > TowerReal.from_number(prev.dh)

    def test_undersized_final_gap_fails_final_link(self, recipe5):
        # the last certificate exp(-T_n) instead of exp(-exp(exp(T_n))) is
        # too large by two exponentials, so the final link fails
        stages, gaps = recipe5
        gaps = gaps[:-1] + (GapBound.from_neglog(stage_gap_threshold(stages[-1])),)
        with pytest.raises(LinkFailed) as exc:
            convergence_ledger(stages, gaps)
        assert exc.value.stage == 5
        assert exc.value.link == "L4"

    def test_zero_gap_trivially_passes(self, recipe5):
        stages, _ = recipe5
        verdict = convergence_ledger(stages, 0)
        assert verdict.stages == (1, 2, 3, 4, 5)
        assert "exact rational hit" in verdict.audit_text()

    def test_zero_gap_as_tower(self, recipe5):
        stages, _ = recipe5
        verdict = convergence_ledger(stages[0], TowerReal(0, 0))
        assert verdict.stages == (1,)

    def test_link1_failure(self):
        bad = StageBounds(n=1, l=4, q=tower(2, 9000), rho=F(1, 10), dh=2)
        with pytest.raises(LinkFailed) as exc:
            convergence_ledger(bad, 0)
        assert (exc.value.stage, exc.value.link) == (1, "L1")

    def test_link2_failure(self):
        bad = StageBounds(n=1, l=100, q=tower(2, 9000), rho=F(1, 10), dh=1)
        with pytest.raises(LinkFailed) as exc:
            convergence_ledger(bad, 0)
        assert (exc.value.stage, exc.value.link) == (1, "L2")

    def test_link3_failure(self):
        bad = StageBounds(n=1, l=1004, q=10**9, rho=F(1, 10), dh=1)
        with pytest.raises(LinkFailed) as exc:
            convergence_ledger(bad, 0)
        assert (exc.value.stage, exc.value.link) == (1, "L3")

    def test_link4_failure_with_literal_gap(self, recipe5):
        stages, _ = recipe5
        with pytest.raises(LinkFailed) as exc:
            convergence_ledger(stages[0], F(1, 2))
        assert (exc.value.stage, exc.value.link) == (1, "L4")

    def test_gap_threshold_monotone_with_stage(self, recipe5):
        stages, _ = recipe5
        t1 = stage_gap_threshold(stages[0])
        t2 = stage_gap_threshold(stages[1])
        assert t2 > t1

    def test_input_validation(self, recipe5):
        stages, gaps = recipe5
        with pytest.raises(ParamOutOfRange):
            convergence_ledger([], 0)
        with pytest.raises(ParamOutOfRange):
            convergence_ledger(list(stages), list(gaps[:2]))
        with pytest.raises(ParamOutOfRange):
            convergence_ledger([stages[1], stages[0]], 0)
        with pytest.raises(ParamOutOfRange):
            StageBounds(n=0, l=4, q=2, rho=F(1, 10), dh=1)
        with pytest.raises(ParamOutOfRange):
            StageBounds(n=1, l=1, q=2, rho=F(1, 10), dh=1)
        with pytest.raises(ParamOutOfRange):
            StageBounds(n=1, l=4, q=2, rho=0, dh=1)

    def test_non_consecutive_increasing_stages_allowed(self, recipe5):
        stages, gaps = recipe5
        verdict = convergence_ledger([stages[0], stages[2]], [gaps[0], gaps[2]])
        assert verdict.stages == (1, 3)


# ---------------------------------------------------------------------------
# Liouville-type recipes.
# ---------------------------------------------------------------------------


class TestLiouvilleGenerate:
    def test_k1_literal_chain_frozen(self):
        r = liouville_generate(3, 1)
        assert [lv.q for lv in r.levels] == [2, 32, 1024]
        assert [lv.p for lv in r.levels] == [1, 17, 545]
        assert [lv.tail for lv in r.levels] == [F(1, 16), F(1, 512), F(1, 524288)]
        # level-1 oracle: 1/16 < exp(-e) = 0.0659...
        assert F(1, 16) < F(659, 10000)
        for lvl in (1, 2, 3):
            assert liouville_verify(r, 1, lvl) is True

    def test_k2_literal_boundary_frozen(self):
        r = liouville_generate(4, 2)
        lv1, lv2, lv3, lv4 = r.levels
        # q2 = 4 * ceil(n_min/4) with n_min the first integer > 2 exp(exp(4))
        with mp.workprec(200):
            n_min = int(mpmath.floor(2 * mp.e ** (mp.e ** 4))) + 1
        q2 = 4 * ((n_min + 3) // 4)
        assert lv1.tail == F(2, q2)
        assert lv1.tail == F(1, 514843556263457213182266)
        assert lv2.q == q2 and len(str(lv2.q)) == 25
        assert lv2.tail is None and lv2.tail_neglog is not None
        assert lv3.q is None and lv3.q_log2 is not None
        assert lv4.q_log2 > lv3.q_log2
        for lvl in (1, 2, 3, 4):
            for k in (1, 2):
                assert liouville_verify(r, k, lvl) is True

    def test_k5_symbolic_from_start(self):
        r = liouville_generate(4, 5)
        assert r.levels[0].q == 2 and r.levels[0].tail_neglog is not None
        for lvl in (1, 2, 3, 4):
            for k in (1, 2, 3, 4, 5):
                assert liouville_verify(r, k, lvl) is True

    def test_deep_k1_rolls_into_symbolic(self):
        r = liouville_generate(16, 1)
        kinds = ["lit" if lv.q is not None else "sym" for lv in r.levels]
        assert kinds[0] == "lit" and kinds[-1] == "sym"
        for lvl in (1, len(r.levels) // 2, len(r.levels)):
            assert liouville_verify(r, 1, lvl) is True

    @pytest.mark.parametrize("levels", [1, 2, 3])
    @pytest.mark.parametrize("k_target", [1, 2, 3, 4, 5, 6])
    def test_every_level_verifies_up_to_k_target(self, levels, k_target):
        # k_target = 3 reaches a literal denominator of 3,520 digits at
        # level 2 (its k^q bound once overflowed a float), and level 1's
        # literal tail must clear its threshold by more than the
        # verifier's rounding
        r = liouville_generate(levels, k_target)
        for lvl in range(1, levels + 1):
            for k in range(1, k_target + 1):
                assert liouville_verify(r, k, lvl) is True

    # (index, p, q, q_log2, tail, tail_neglog) per level, towers as
    # (height, mantissa.man, mantissa.exp)
    _LEDGER_RECIPES = {
        1: [(1, 1, 2, None, F(1, 16), None),
            (2, 17, 32, None, F(1, 512), None),
            (3, 545, 1024, None, F(1, 524288), None)],
        2: [(1, 1, 2, None, F(1, 514843556263457213182266), None),
            (2, 514843556263457213182267, 1029687112526914426364532, None, None,
             (6, 1015336813317858642550727508407108362669579479827, -159)),
            (3, None, None, (7, 1015336813317858642550727508407108362669579479827, -159),
             None, (11, 1015336813317858642550727508407108362669579479827, -159))],
        5: [(1, 1, 2, None, None, (4, 854271219575720163961640975995468374450778345281, -159)),
            (2, None, None, (5, 854271219575720163961640975995468374450778345281, -159),
             None, (9, 854271219575720163961640975995468374450778345281, -159)),
            (3, None, None, (10, 854271219575720163961640975995468374450778345281, -159),
             None, (14, 854271219575720163961640975995468374450778345281, -159))],
    }

    @pytest.mark.parametrize("k_target", sorted(_LEDGER_RECIPES))
    def test_benchmark_recipes_are_pinned(self, k_target):
        def tower_key(t):
            return None if t is None else (t.height, int(t.mantissa.man), int(t.mantissa.exp))
        got = [(lv.index, lv.p, lv.q, tower_key(lv.q_log2), lv.tail, tower_key(lv.tail_neglog))
               for lv in liouville_generate(3, k_target).levels]
        assert got == self._LEDGER_RECIPES[k_target]

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfRange):
            liouville_generate(0, 2)
        with pytest.raises(ParamOutOfRange):
            liouville_generate(3, 0)

    def test_text_level_count_is_refused(self):
        with pytest.raises(ParamOutOfRange):
            liouville_generate("a", 1)


class TestLiouvilleVerify:
    def test_rational_point_negative_example(self):
        r = liouville_from_rational(F(1, 3), (2, 7, 50))
        assert [lv.tail for lv in r.levels] == [F(1, 6), F(1, 21), F(1, 150)]
        assert liouville_verify(r, 5, 3) is False
        assert liouville_verify(r, 2, 2) is False
        assert liouville_verify(r, 1, 1) is False

    def test_rational_point_exact_hit_admitted(self):
        r = liouville_from_rational(F(1, 3), (3, 9, 27))
        assert r.levels[0].tail == 0
        assert liouville_verify(r, 9, 1) is True
        assert liouville_verify(r, 9, 2) is False  # tail 1/9 is honest

    def test_boundary_strictness(self):
        # exp(-e) = 0.06598...: 1/16 clears it, 1/15 does not
        passing = LiouvilleRecipe(levels=(LiouvilleLevel(1, 1, 2, tail=F(1, 16)),))
        failing = LiouvilleRecipe(levels=(LiouvilleLevel(1, 1, 2, tail=F(1, 15)),))
        assert liouville_verify(passing, 1, 1) is True
        assert liouville_verify(failing, 1, 1) is False

    def test_shallow_symbolic_denominator(self):
        # q = 2^8: the bound multiplies e^8 >= 2^8 by ln 3, so the
        # threshold is exp(exp(e^8 ln 3)) = exp(exp(3274.9...))
        def recipe(neglog):
            return LiouvilleRecipe(levels=(
                LiouvilleLevel(1, None, None, q_log2=tower(0, 8), tail_neglog=neglog),))
        assert liouville_verify(recipe(tower(2, 3300)), 3, 1) is True
        assert liouville_verify(recipe(tower(2, 3270)), 3, 1) is False
        assert liouville_verify(recipe(tower(0, 10**6)), 3, 1) is False

    def test_verify_input_validation(self):
        r = liouville_generate(2, 1)
        with pytest.raises(ParamOutOfRange):
            liouville_verify(r, 0, 1)
        with pytest.raises(ParamOutOfRange):
            liouville_verify(r, 1, 3)

    def test_recipe_invariants(self):
        with pytest.raises(ParamOutOfRange):  # q must increase
            LiouvilleRecipe(levels=(
                LiouvilleLevel(1, 1, 5, tail=F(1, 100)),
                LiouvilleLevel(2, 1, 5, tail=F(1, 1000)),
            ))
        with pytest.raises(ParamOutOfRange):  # consecutive indices
            LiouvilleRecipe(levels=(LiouvilleLevel(2, 1, 5, tail=F(1, 10)),))
        with pytest.raises(ParamOutOfRange):  # gcd
            LiouvilleLevel(1, 2, 4, tail=F(1, 10))
        with pytest.raises(ParamOutOfRange):  # two tail forms
            LiouvilleLevel(1, 1, 2, tail=F(1, 10), tail_neglog=tower(1, 5))
        with pytest.raises(ParamOutOfRange):  # no denominator form
            LiouvilleLevel(1, 1, None)

    def test_from_rational_validation(self):
        with pytest.raises(ParamOutOfRange):
            liouville_from_rational(F(3, 2), (2, 3))
        with pytest.raises(ParamOutOfRange):
            liouville_from_rational(F(1, 3), ())
        with pytest.raises(ParamOutOfRange):
            liouville_from_rational(F(1, 3), (1,))


# ---------------------------------------------------------------------------
# Translation-vector parameters.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tp_h2():
    return translation_params(h=2, levels=3, gamma1=(1, 6), p1=1, q1=2)


class TestTranslationParams:
    def test_frozen_level_chain(self, tp_h2):
        lv1, lv2, lv3 = tp_h2.levels
        assert (lv1.gamma, lv1.p, lv1.q) == ((1, 6), 1, 2)
        assert (lv1.s, lv1.m, lv1.d, lv1.sigma) == (5, 6, F(1, 6), 2)
        assert (lv2.gamma, lv2.p, lv2.q, lv2.r) == ((7, 30), 61, 120, 20)
        assert (lv2.s, lv2.m) == (3845, 30)
        assert (lv3.gamma, lv3.p, lv3.q, lv3.r) == (
            (26887, 115350), 844362001, 1661040000, 55368000)
        assert lv3.s is None and lv3.m is None
        assert lv3.d == F(1, 115350)

    def test_verifier_clean(self, tp_h2):
        assert verify_translation_params(tp_h2) == ()

    def test_items_recomputed_independently(self, tp_h2):
        import math
        lv1, lv2, lv3 = tp_h2.levels
        # (1) primitive vectors
        assert math.gcd(1, 6) == math.gcd(7, 30) == math.gcd(26887, 115350) == 1
        # (2) reduced fractions
        assert math.gcd(61, 120) == 1 and math.gcd(844362001, 1661040000) == 1
        # (3) previous last component divides q
        assert 120 == 20 * 6 and 1661040000 == 55368000 * 30
        # (4) last component advances by s
        assert 30 == 5 * 6 and 115350 == 3845 * 30
        # (5) congruence mod q
        assert (7 - 1) % 2 == 0 and (26887 - 7) % 120 == 0
        # (6) exact alpha steps
        assert F(61, 120) - F(1, 2) == F(1, 6 * 5 * 4)
        assert F(844362001, 1661040000) - F(61, 120) == F(1, 30 * 3845 * 120 ** 2)
        # (7) diameter decay (sigma = 2)
        assert F(1, 30) < F(1, 2 * 6 * 2)
        assert F(1, 115350) < F(1, 4 * 30 * 2)
        # (8) direction drift
        assert abs(F(7, 30) - F(1, 6)) == F(1, 15) < F(1, 2 * 2 * 2)
        assert abs(F(26887, 115350) - F(7, 30)) == F(14, 57675) < F(1, 4 * 2 * 120)

    def test_h1_degenerate(self):
        tp = translation_params(h=1, levels=4)
        assert [lv.q for lv in tp.levels] == [2, 4, 16, 256]
        assert all(lv.gamma == (1,) for lv in tp.levels)
        assert all(lv.sigma == 0 and lv.d == 0 for lv in tp.levels)
        assert verify_translation_params(tp) == ()

    def test_h3_arithmetic_only(self):
        tp = translation_params(h=3, levels=3)
        assert [lv.gamma for lv in tp.levels] == [
            (1, 2, 8), (7, 10, 40), (10727, 15370, 61320)]
        assert tp.notes and "(7)-(8)" in tp.notes[0]
        assert verify_translation_params(tp) == ()
        assert all(lv.d is None and lv.sigma is None for lv in tp.levels)

    def test_mutation_gamma_cites_items(self, tp_h2):
        lv2 = tp_h2.levels[1]
        bad = dataclasses.replace(lv2, gamma=(lv2.gamma[0] + 1, lv2.gamma[1]))
        mut = TranslationParams(h=2, levels=(tp_h2.levels[0], bad, tp_h2.levels[2]))
        msgs = verify_translation_params(mut)
        cited = {m.split(":")[0] for m in msgs}
        assert "item (1)" in cited and "item (5)" in cited and "item (8)" in cited

    def test_mutation_r_cites_item3(self, tp_h2):
        bad = dataclasses.replace(tp_h2.levels[1], r=21)
        mut = TranslationParams(h=2, levels=(tp_h2.levels[0], bad, tp_h2.levels[2]))
        assert any(m.startswith("item (3)") for m in verify_translation_params(mut))

    def test_mutation_p_cites_items_2_and_6(self, tp_h2):
        bad = dataclasses.replace(tp_h2.levels[1], p=62)
        mut = TranslationParams(h=2, levels=(tp_h2.levels[0], bad, tp_h2.levels[2]))
        msgs = verify_translation_params(mut)
        assert any(m.startswith("item (2)") for m in msgs)
        assert any(m.startswith("item (6)") for m in msgs)

    def test_mutation_s_cites_items_4_and_6(self, tp_h2):
        bad = dataclasses.replace(tp_h2.levels[0], s=7)
        mut = TranslationParams(h=2, levels=(bad, tp_h2.levels[1], tp_h2.levels[2]))
        msgs = verify_translation_params(mut)
        assert any(m.startswith("item (4)") for m in msgs)
        assert any(m.startswith("item (6)") for m in msgs)

    def test_mutation_d_cites_item7(self, tp_h2):
        bad = dataclasses.replace(tp_h2.levels[2], d=F(1, 100))
        mut = TranslationParams(h=2, levels=(tp_h2.levels[0], tp_h2.levels[1], bad))
        assert any(m.startswith("item (7)") for m in verify_translation_params(mut))

    def test_search_exhaustion(self, monkeypatch):
        # the level-2 -> level-3 advance needs one escalation of s (gcd
        # failure at s = 1921), so a budget of one attempt must exhaust
        monkeypatch.setattr(bounds, "MAX_ESCALATIONS", 1)
        with pytest.raises(SearchExhausted) as exc:
            translation_params(h=2, levels=3, gamma1=(1, 6))
        assert "item" in str(exc.value)

    def test_domain_errors(self):
        with pytest.raises(ParamOutOfRange):
            translation_params(h=0, levels=2)
        with pytest.raises(ParamOutOfRange):
            translation_params(h=2, levels=0)
        with pytest.raises(ParamOutOfRange):
            translation_params(h=2, levels=2, gamma1=(2, 4))
        with pytest.raises(ParamOutOfRange):
            translation_params(h=2, levels=2, gamma1=(1, 2, 3))
        with pytest.raises(ParamOutOfRange):
            translation_params(h=2, levels=2, p1=2, q1=4)


# ---------------------------------------------------------------------------
# Grid-multiplier variant of the parameter chain (l_base).
# ---------------------------------------------------------------------------


class TestTranslationGridMultiplier:
    """translation_params(l_base=...) threads a per-level grid multiplier
    l = l_base * s through the chain so that the conjugation builder's
    column count k * q = s * gamma'^(h) * q divides q' = m * s * q^2
    (the quotient is l * q / s = l_base * q, an integer)."""

    def test_h2_toy_chain_frozen(self):
        tp = translation_params(h=2, levels=2, gamma1=(1, 4), p1=1, q1=2,
                                l_base=2)
        lv1, lv2 = tp.levels
        assert (lv1.gamma, lv1.p, lv1.q) == ((1, 4), 1, 2)
        assert (lv1.s, lv1.l, lv1.m) == (5, 10, 40)
        assert lv1.d == F(1, 4) and lv1.sigma == 2
        assert (lv2.gamma, lv2.p, lv2.q, lv2.r) == ((7, 20), 401, 800, 200)
        assert lv2.l is None and lv2.m is None
        assert verify_translation_params(tp) == ()

    def test_h2_divisibility(self):
        tp = translation_params(h=2, levels=3, gamma1=(1, 6), p1=1, q1=2,
                                l_base=4)
        for before, after in zip(tp.levels, tp.levels[1:]):
            k = before.s * after.gamma[-1]
            assert after.q % (k * before.q) == 0
            assert after.q % (k * before.q * before.q) == 0
            assert before.l == 4 * before.s
            assert before.m % before.l == 0

    def test_h1_replicates_circle_recursion(self):
        # with m = l^2 and s = 1 the advance collapses to the circle
        # scheme's q' = (l q)^2 * ... i.e. (1,3) -> (49,144) at l_base=4
        tp = translation_params(h=1, levels=3, gamma1=(1,), p1=1, q1=3,
                                l_base=4)
        lv1, lv2, lv3 = tp.levels
        assert (lv1.p, lv1.q, lv1.s, lv1.l, lv1.m) == (1, 3, 1, 4, 16)
        assert (lv2.p, lv2.q) == (49, 144)
        assert (lv3.p, lv3.q) == (112897, 331776)
        assert verify_translation_params(tp) == ()

    def test_default_chain_unchanged_without_l_base(self):
        tp = translation_params(h=2, levels=2, gamma1=(1, 6), p1=1, q1=2)
        lv1 = tp.levels[0]
        assert lv1.l is None and (lv1.s, lv1.m) == (5, 6)

    def test_l_base_validation(self):
        with pytest.raises(ParamOutOfRange):
            translation_params(h=2, levels=2, l_base=3)
        with pytest.raises(ParamOutOfRange):
            translation_params(h=2, levels=2, l_base=0)
        with pytest.raises(ParamOutOfRange):
            translation_params(h=1, levels=2, gamma1=(1,), q1=3, l_base=2)


# ---------------------------------------------------------------------------
# Tower comparisons used by the ledger (spot checks).
# ---------------------------------------------------------------------------


class TestTowerSpotChecks:
    def test_double_exponential_beats_single(self):
        assert tower(2, 10) > tower(1, 1000)

    def test_heights_dominate(self):
        assert tower(4, 1.01) > tower(3, 2.6)
