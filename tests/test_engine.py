"""Stage-assembly engine: parameter recursion, circle-scenario builds,
finite conjugacy verification, commutation, correspondences, defects,
the translation and minimality runners end to end, the conjugations'
box lattices and frozen exact stage-map images.

Frozen values were computed independently before implementation:
  * advance of (p, q) = (1, 3) with k = 2, l = 4, s = 1:
      p' = 1*2*4*3*1 + 1 = 25, q' = 1*2*4*3*3 = 72.
  * circle chain at l = k = 4, s = 1 from (1, 3):
      (1, 3) -> (49, 144) -> (112897, 331776)
      since 48*q*p + 1 and 48*q^2 with q = 3 then 144.
  * stage profiles at l = 4, q = 3 (widths 1/(l^2 q) = 1/48):
      beta1 = (0, 3/48, 2/48, 1/48)  N = 1
      beta2 = (0, 1/4, 2/4, 3/4)     N = l*q = 12
      beta3 = (0, 1/48, 2/48, 3/48)  N = 1
  * stage schedule: eps_n = 1/(3*2^(n+1)), delta_n = 1/2^(n+1),
      amplitude 2^(2n+5) * l^2 -> 2048 (n=1), 8192 (n=2) at l = 4.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from abctorus import engine
from abctorus.analytic import stage_delta, stage_epsilon
from abctorus.bounds import translation_params
from abctorus.engine import (
    ROTATION_POWER_CAP,
    AbCParams,
    StageMaps,
    advance_params,
    build_stage_circle,
    check_stage_commutation,
    circle_params,
    correspondence,
    correspondence_defect,
    eval_stage_map,
    eval_stage_map_rational,
    meets_strict_epsilon,
    run_circle_scenario,
    run_minimal_scenario,
    run_translation_scenario,
    stage_partition,
    verify_cyclic_permutation,
)
from abctorus.errors import ParamOutOfRange, UnsupportedDimension
from abctorus.exact import oracle
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove
from abctorus.exact.builders import build_abc_conjugation, build_grid_refine
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import sigma1_interchange
from abctorus.minimal import minimal_stage

F = Fraction


@pytest.fixture(scope="module")
def circle2() -> StageMaps:
    return run_circle_scenario(2)


@pytest.fixture(scope="module")
def circle3() -> StageMaps:
    return run_circle_scenario(3)


@pytest.fixture(scope="module")
def minimal1() -> StageMaps:
    return run_minimal_scenario(n=2, l=4, q=3, r=2)


@pytest.fixture(scope="module")
def translation_small() -> StageMaps:
    # from q = 1 the index function is trivial: a three-shear realization,
    # so the analytic model is built
    chain = translation_params(levels=2, gamma1=(1, 2), p1=1, q1=1, l_base=2)
    return run_translation_scenario(chain)


@pytest.fixture(scope="module")
def translation_oversized() -> StageMaps:
    # from q = 2 the index function is non-trivial: a 34,688-shear
    # realization, above AUTO_ANALYTIC_MOVE_CAP, so the stage stays exact-only
    chain = translation_params(levels=2, gamma1=(1, 4), p1=1, q1=2, l_base=2)
    return run_translation_scenario(chain, 1)


def _must_not_run(*args, **kwargs):
    raise AssertionError("a refused call reached the lattice")


# ---------------------------------------------------------------------------
# Parameter recursion.
# ---------------------------------------------------------------------------


class TestParams:
    def test_advance_frozen_small_example(self):
        base = AbCParams(n=1, p=1, q=3, k=2, l=4, s=1, a=(0, 0))
        nxt = advance_params(base)
        assert (nxt.p, nxt.q) == (25, 72)
        assert nxt.n == 2
        assert nxt.alpha - base.alpha == F(1, 1 * 2 * 4 * 3 * 3)

    def test_circle_chain_frozen(self, circle2):
        recs = circle2.records
        assert [(r.p, r.q) for r in recs] == [(1, 3), (49, 144), (112897, 331776)]
        assert [r.n for r in recs] == [1, 2, 3]
        assert all(r.k == r.l == 4 and r.s == 1 for r in recs)
        assert [r.eps for r in recs] == [F(1, 12), F(1, 24), F(1, 48)]
        # telescoping: alpha_{n+1} - alpha_n = 1/q_{n+1} exactly
        assert recs[1].alpha - recs[0].alpha == F(1, 144)
        assert recs[2].alpha - recs[1].alpha == F(1, 331776)

    def test_advance_coprimality_property(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q = int(rng.integers(1, 60))
            p = int(rng.integers(0, max(q, 2)))
            if gcd(p, q) != 1:
                continue
            k = int(rng.integers(1, 7))
            l = 2 * int(rng.integers(1, 5))
            s = int(rng.integers(1, 4))
            rec = AbCParams(n=1, p=p, q=q, k=k, l=l, s=s, a=(0,) * k)
            nxt = advance_params(rec)
            assert gcd(nxt.p, nxt.q) == 1
            assert nxt.q == s * k * l * q * q
            assert nxt.p == s * k * l * q * p + 1

    def test_advance_carries_multipliers_and_zeroes_index_function(self):
        base = AbCParams(n=1, p=1, q=3, k=2, l=6, s=3, a=(1, 0))
        nxt = advance_params(base)
        assert (nxt.k, nxt.l, nxt.s) == (2, 6, 3)
        assert nxt.a == (0, 0)
        assert nxt.q == 3 * 2 * 6 * 9

    def test_validation_errors(self):
        with pytest.raises(ParamOutOfRange):
            AbCParams(n=1, p=2, q=4, k=2, l=4, s=1, a=(0, 0))
        with pytest.raises(ParamOutOfRange):
            AbCParams(n=1, p=1, q=3, k=2, l=3, s=1, a=(0, 0))
        with pytest.raises(ParamOutOfRange):
            AbCParams(n=1, p=1, q=3, k=2, l=4, s=1, a=(0,))
        with pytest.raises(ParamOutOfRange):
            AbCParams(n=1, p=1, q=3, k=2, l=4, s=1, a=(0, 3))
        with pytest.raises(ParamOutOfRange):
            AbCParams(n=-1, p=1, q=3, k=2, l=4, s=1, a=(0, 0))

    def test_strict_epsilon_regime(self, circle2):
        # toy sizes: the schedule meets eps < 2^-q only at the start
        assert meets_strict_epsilon(circle2.records[0])       # 1/12 < 1/8
        assert not meets_strict_epsilon(circle2.records[1])   # 1/24 >= 2^-144

    @pytest.mark.parametrize("q", [101, 60013])
    def test_strict_epsilon_exact_at_the_boundary(self, q):
        # eps_n = 1/(3 2^(n+1)) against 2^-q on both sides of the
        # boundary; at n = q - 2 the bit lengths of 1/eps and 2^q tie
        at = AbCParams(n=q - 2, p=1, q=q, k=2, l=4, s=1, a=(0, 0))
        assert meets_strict_epsilon(at)         # 3 2^(q-1) > 2^q
        below = AbCParams(n=q - 3, p=1, q=q, k=2, l=4, s=1, a=(0, 0))
        assert not meets_strict_epsilon(below)  # 3 2^(q-2) < 2^q


# ---------------------------------------------------------------------------
# Circle-scenario stage builds.
# ---------------------------------------------------------------------------


class TestBuildCircle:
    def test_stage1_frozen_structure(self, circle2):
        h = circle2.conjugations_analytic[0]
        assert [(m.target, m.source, m.sign) for m in h.moves] == [
            (0, 1, 1), (1, 0, 1), (0, 1, -1)
        ]
        s1, s2, s3 = (m.step for m in h.moves)
        assert s1.beta == (0.0, float(F(3, 48)), float(F(2, 48)), float(F(1, 48)))
        assert s1.N == 1
        assert s2.beta == (0.0, 0.25, 0.5, 0.75)
        assert s2.N == 12
        assert s3.beta == (0.0, float(F(1, 48)), float(F(2, 48)), float(F(3, 48)))
        assert s3.N == 1
        assert {m.step.A for m in h.moves} == {2048}
        assert (h.eps, h.delta) == (F(1, 12), F(1, 4))

    def test_stage2_frozen_schedule(self, circle2):
        h = circle2.conjugations_analytic[1]
        assert {m.step.A for m in h.moves} == {8192}
        assert (h.eps, h.delta) == (F(1, 24), F(1, 8))
        assert (stage_epsilon(2), stage_delta(2)) == (F(1, 24), F(1, 8))
        # widths now 1/(l^2 q) = 1/2304 and N2 = l q = 576
        s1, s2, _ = (m.step for m in h.moves)
        assert s1.beta == (0.0, float(F(3, 2304)), float(F(2, 2304)), float(F(1, 2304)))
        assert s2.N == 576

    def test_build_rejections(self):
        uncoupled = AbCParams(n=1, p=1, q=3, k=2, l=4, s=1, a=(0, 0))
        with pytest.raises(ParamOutOfRange):
            build_stage_circle(uncoupled)
        small_l = AbCParams(n=1, p=1, q=3, k=2, l=2, s=1, a=(0, 0))
        with pytest.raises(ParamOutOfRange):
            build_stage_circle(small_l)

    def test_extend_requires_matching_record(self):
        maps = StageMaps.start("circle", circle_params())
        inc = build_stage_circle(maps.records[-1])
        maps = maps.extend(inc)
        with pytest.raises(ParamOutOfRange):
            maps.extend(inc)  # stale: built from the pre-advance record

    def test_exact_and_analytic_models_align(self, circle2):
        for h_ex, h_an in zip(circle2.conjugations_exact,
                              circle2.conjugations_analytic):
            assert h_an.exact is h_ex
            assert len(h_an.moves) == len(h_ex.moves) == 3


# ---------------------------------------------------------------------------
# Finite conjugacy verification.
# ---------------------------------------------------------------------------


class TestConjugacy:
    def test_exact_stage1_every_atom(self, circle2):
        rep = verify_cyclic_permutation(circle2, 1, "exact")
        assert (rep.q, rep.p) == (144, 49)
        assert rep.samples == 144 * 9
        assert rep.hits == rep.samples
        assert rep.threshold == 1 and rep.passed
        assert rep.fraction == 1

    def test_exact_stage2_sampled(self, circle2):
        rep = verify_cyclic_permutation(circle2, 2, "exact", samples=200, seed=5)
        assert (rep.q, rep.p) == (331776, 112897)
        assert rep.hits == rep.samples == 200

    def test_analytic_stage1_beats_threshold(self, circle2):
        rep = verify_cyclic_permutation(circle2, 1, "analytic",
                                        samples=1000, seed=7)
        assert rep.threshold == 1 - 2 * F(1, 12) == F(5, 6)
        assert rep.passed
        # measured on the frozen seed; collar misses only
        assert rep.hits == 998

    def test_analytic_stage2_beats_threshold(self, circle2):
        rep = verify_cyclic_permutation(circle2, 2, "analytic",
                                        samples=300, seed=7)
        assert rep.threshold == 1 - 2 * F(1, 24) == F(11, 12)
        assert rep.passed
        assert rep.hits == 297

    def test_every_atom_has_a_point_budget(self, circle2, monkeypatch):
        # stage 2 would visit 331,776 x 9 points; stage 1's 144 x 9 run in
        # test_exact_stage1_every_atom. The refusal comes before any
        # point is placed on the lattice.
        monkeypatch.setattr(engine, "_atom_lattice", _must_not_run)
        with pytest.raises(ParamOutOfRange, match="budget of 2000000"):
            verify_cyclic_permutation(circle2, 2, "exact")

    @pytest.mark.parametrize("stage", [4, 6])
    def test_atoms_beyond_int64_are_drawn(self, stage):
        # q_4 is about 5.0e25, beyond numpy's int64 draws
        maps = run_circle_scenario(stage)
        assert maps.records[stage].q >= 2**63
        rep = verify_cyclic_permutation(maps, stage, "exact", samples=16, seed=0)
        assert rep.hits == rep.samples == 16
        rep = verify_cyclic_permutation(maps, stage, "analytic", samples=16, seed=0)
        assert rep.samples == 16

    def test_rejections(self, circle2):
        with pytest.raises(ParamOutOfRange):
            verify_cyclic_permutation(circle2, 3, "exact")
        with pytest.raises(ParamOutOfRange):
            verify_cyclic_permutation(circle2, 1, "exact", samples=0)
        with pytest.raises(ParamOutOfRange):
            verify_cyclic_permutation(circle2, 1, "mixed", samples=5)


# ---------------------------------------------------------------------------
# Stage-map evaluation.
# ---------------------------------------------------------------------------


class TestStageMap:
    def test_exact_periodicity_T_pow_q_is_identity(self, circle2):
        x = TorusPoint((F(5, 37), F(3, 11)))
        assert eval_stage_map(circle2, x, "exact", 144, 1).coords == x.coords
        assert eval_stage_map(circle2, x, "exact", 331776, 2).coords == x.coords

    def test_exact_orbit_visits_cycle(self, circle2):
        # the atom track of the orbit steps by p mod q
        x = TorusPoint((F(1, 7), F(2, 7)))
        h = BlockSlideMap.compose(circle2.conjugations_exact[:1])
        start = int(h(x)[0] * 144)
        for j in (1, 2, 5):
            y = eval_stage_map(circle2, x, "exact", j, 1)
            assert int(h(y)[0] * 144) == (start + j * 49) % 144

    def test_power_guard(self, circle2):
        x = TorusPoint((F(1, 3), F(1, 3)))
        cap = 144 * ROTATION_POWER_CAP
        eval_stage_map(circle2, x, "exact", cap, 1)  # boundary passes
        with pytest.raises(ParamOutOfRange):
            eval_stage_map(circle2, x, "exact", cap + 1, 1)
        with pytest.raises(ParamOutOfRange):
            eval_stage_map_rational(circle2, (F(1, 3), F(1, 3)), cap + 1, 1)

    def test_analytic_float_vs_rational_paths_agree(self, circle2):
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = (F(int(rng.integers(0, 2**20)), 2**20),
                 F(int(rng.integers(0, 2**20)), 2**20))
            ys = eval_stage_map(circle2, [float(c) for c in x], "analytic", 1, 1)
            yr = eval_stage_map_rational(circle2, x, 1, 1)
            assert eval_stage_map(circle2, x, "rational", 1, 1) == yr
            for a, b in zip(ys, yr):
                d = abs(a - float(b))
                assert min(d, 1 - d) < 1e-9

    def test_analytic_array_shape(self, circle2):
        pts = np.random.default_rng(3).random((2, 8))
        out = eval_stage_map(circle2, pts, "analytic", 1, 1)
        assert out.shape == (2, 8)
        single = eval_stage_map(circle2, (0.3, 0.4), "analytic", 1, 1)
        assert isinstance(single, tuple) and len(single) == 2

    def test_model_rejection(self, circle2):
        with pytest.raises(ParamOutOfRange):
            eval_stage_map(circle2, (0.1, 0.2), "symbolic", 1, 1)


# ---------------------------------------------------------------------------
# Commutation with the previous rotation.
# ---------------------------------------------------------------------------


class TestCommutation:
    def test_stage1(self, circle2):
        rep = check_stage_commutation(circle2, 1, samples=100, seed=3)
        assert rep.alpha == F(1, 3)
        assert rep.exact_identity and rep.structural
        assert rep.analytic_residual == 0  # exact rational zero
        assert rep.passed

    def test_stage2(self, circle2):
        rep = check_stage_commutation(circle2, 2, samples=30, seed=3)
        assert rep.alpha == F(49, 144)
        assert rep.passed and rep.analytic_residual == 0


# ---------------------------------------------------------------------------
# Correspondences and defects.
# ---------------------------------------------------------------------------


class TestCorrespondence:
    def test_identity_level(self, circle2):
        c = correspondence(circle2, 1, 1)
        assert c.unions == tuple((i,) for i in range(144))

    def test_one_step_contiguous(self, circle2):
        # a == 0: atom i of T_3 maps onto fine atoms [48 i, 48 (i+1))
        c = correspondence(circle2, 0, 1)
        assert c.unions == tuple(tuple(range(48 * i, 48 * (i + 1)))
                                 for i in range(3))

    def test_composition_law(self, circle2):
        c01 = correspondence(circle2, 0, 1)
        c12 = correspondence(circle2, 1, 2)
        assert c01.compose(c12) == correspondence(circle2, 0, 2)
        assert {len(u) for u in correspondence(circle2, 0, 2).unions} == {110592}

    def test_rejections(self, circle2):
        with pytest.raises(ParamOutOfRange):
            correspondence(circle2, 2, 1)
        with pytest.raises(ParamOutOfRange):
            correspondence(circle2, 0, 3)
        c01 = correspondence(circle2, 0, 1)
        with pytest.raises(ParamOutOfRange):
            c01.compose(c01)

    def test_exact_defect_is_zero(self, circle2):
        for stage in (1, 2):
            d = correspondence_defect(circle2, stage, "exact")
            assert d.total == 0
            assert d.atoms == circle2.records[stage - 1].q and d.nonzero == ()

    def test_analytic_defect_below_budget(self, circle2):
        d = correspondence_defect(circle2, 1, "analytic", samples=2000, seed=11)
        assert d.total <= circle2.conjugations_analytic[0].delta
        assert d.total == 0  # frozen on this seed: no collar hits misplace

    def test_model_rejection(self, circle2):
        with pytest.raises(ParamOutOfRange):
            correspondence_defect(circle2, 1, "other")

    def test_exact_defect_on_minimal_stack_is_refused(self, minimal1):
        # 768 x 1048576 boxes: beyond the budget, and a typed refusal
        with pytest.raises(ParamOutOfRange):
            correspondence_defect(minimal1, 1, "exact")

    def test_exact_defect_on_circle_stage_3_is_certified(self, circle3):
        # 5308416 x 4 boxes, within the lattice oracle's budget
        d = correspondence_defect(circle3, 3, "exact")
        assert d.atoms == circle3.records[2].q and d.nonzero == () and d.total == 0

    def test_exact_defect_beyond_budget_is_refused(self, translation_oversized):
        # 2000000 x 1000 boxes; refused before any box is visited
        with pytest.raises(ParamOutOfRange, match="budget"):
            correspondence_defect(translation_oversized, 1, "exact")

    def test_exact_defect_beyond_the_work_budget_is_refused(self, translation_small,
                                                            monkeypatch):
        # 250,000 x 500 boxes fit the box count, but through the 4 ops of
        # the tower conjugation they are 500,000,000 box moves; the walk
        # used to take 15.9 s. It is refused before any box corner is made.
        monkeypatch.setattr(oracle, "_corners", _must_not_run)
        with pytest.raises(ParamOutOfRange, match="125,000,000 boxes.* 4 moves"):
            correspondence_defect(translation_small, 1, "exact")

    def test_exact_defect_is_refused_before_per_atom_arrays(self):
        # the per-atom counts of q_3 = 1,761,205,026,816 atoms (12.8 TiB)
        # used to be allocated before the box budget was checked, and the
        # allocation raised MemoryError
        with pytest.raises(ParamOutOfRange, match="budget"):
            correspondence_defect(run_circle_scenario(4), 4, "exact")

    def test_analytic_defect_needs_an_analytic_model(self, translation_oversized):
        assert translation_oversized.conjugations_analytic[0] is None
        with pytest.raises(ParamOutOfRange):
            correspondence_defect(translation_oversized, 1, "analytic")


# ---------------------------------------------------------------------------
# Stage partitions.
# ---------------------------------------------------------------------------


def _cloud_diameter(cloud) -> Fraction:
    """Sup-metric torus diameter of a sample cloud."""
    def gap(a, b):
        return min(abs(a - b), 1 - abs(a - b))
    return max((max(gap(u, v) for u, v in zip(a, b))
                for i, a in enumerate(cloud) for b in cloud[i + 1:]), default=F(0))


class TestStagePartition:
    def test_clouds_and_diameters(self, circle2):
        part = stage_partition(circle2, 1)
        assert (part.q, part.p, part.level) == (144, 49, 1)
        assert len(part.samples) == 144
        assert all(len(c) == 9 for c in part.samples)
        diams = [_cloud_diameter(c) for c in part.samples]
        assert max(diams) == F(13, 288)  # frozen; well under 1/2 = dim/l
        assert max(diams) <= F(1, 2)

    def test_atom_subset_and_rejection(self, circle2):
        part = stage_partition(circle2, 2, atoms=(0, 5, 331775))
        assert part.atoms == (0, 5, 331775)
        assert len(part.samples) == 3
        with pytest.raises(ParamOutOfRange):
            stage_partition(circle2, 2, atoms=(331776,))

    def test_cloud_points_return_to_atom(self, circle2):
        # H maps each cloud back into its labeled atom of T_q
        part = stage_partition(circle2, 1, atoms=(0, 71, 143))
        for label, cloud in zip(part.atoms, part.samples):
            for z in cloud:
                w = circle2.apply_exact(z, 1)
                assert int(w[0] * 144) == label


# ---------------------------------------------------------------------------
# Frozen exact images (platform independent: every value is a Fraction).
# ---------------------------------------------------------------------------

_FROZEN_POINTS = (
    (F(1, 7), F(2, 7)), (F(5, 37), F(3, 11)), (F(0), F(0)), (F(1, 2), F(1, 3)),
    (F(999, 1000), F(1, 1000)), (F(123457, 2**20), F(654321, 2**20)),
    (F(3, 4), F(5, 6)), (F(1, 144), F(143, 144)), (F(2, 3), F(1, 9)),
    (F(17, 19), F(11, 13)),
)


class TestFrozenImages:
    def test_circle_stage3(self, circle3):
        want = (
            (F(6726861914119, 12328435187712), F(1, 28)),
            (F(30980282056741, 65164585992192), F(3, 11)),
            (F(599304241153, 1761205026816), F(0)),
            (F(1479906754561, 1761205026816), F(1, 3)),
            (F(70106408091773, 220150628352000), F(751, 1000)),
            (F(806664593665, 1761205026816), F(654321, 1048576)),
            (F(159002984449, 1761205026816), F(5, 6)),
            (F(611534831617, 1761205026816), F(143, 144)),
            (F(12235898881, 1761205026816), F(1, 9)),
            (F(7167226871827, 33462895509504), F(31, 52)),
        )
        got = tuple(eval_stage_map(circle3, TorusPoint(x), "exact").coords
                    for x in _FROZEN_POINTS)
        assert got == want

    def test_minimal_stage1(self, minimal1):
        want = (
            (F(1927, 4032), F(2097159, 7340032)),
            (F(4955, 10656), F(4587509, 11534336)),
            (F(101, 288), F(262143, 1048576)),
            (F(481, 576), F(1048573, 3145728)),
            (F(11839, 36000), F(63, 500)),
            (F(4273225, 9437184), F(654321, 1048576)),
            (F(49, 576), F(2621437, 3145728)),
            (F(197, 576), F(9371657, 9437184)),
            (F(1, 576), F(1048567, 9437184)),
            (F(1229, 5472), F(101, 104)),
        )
        got = tuple(eval_stage_map(minimal1, TorusPoint(x), "exact").coords
                    for x in _FROZEN_POINTS)
        assert got == want


# ---------------------------------------------------------------------------
# Translation and minimality scenarios end to end.
# ---------------------------------------------------------------------------


class TestScenarioRunners:
    def test_translation_end_to_end(self, translation_small):
        maps = translation_small
        assert maps.scenario == "translation" and maps.stage_count == 1
        assert maps.conjugations_analytic[0] is not None
        assert (maps.records[1].p, maps.records[1].q) == (101, 100)
        rep = verify_cyclic_permutation(maps, 1, "exact", samples=8, seed=1)
        assert rep.hits == rep.samples == 8
        assert check_stage_commutation(maps, 1, samples=8, seed=1).passed
        part = stage_partition(maps, 1, atoms=(0, 99))
        assert part.atoms == (0, 99) and all(len(c) == 9 for c in part.samples)

    def test_translation_exact_only_stage(self, translation_oversized):
        maps = translation_oversized
        h, q = maps.conjugations_exact[0], maps.records[0].q
        assert len(h.moves) == 34688 and q == 2
        # with no analytic model, the structural verdict is the exact map's
        assert h.commutes_with_rotation(q)
        rep = check_stage_commutation(maps, 1, samples=1, seed=1)
        assert rep.passed and rep.analytic_residual == 0

    def test_translation_end_to_end_on_the_full_stack(self, translation_oversized):
        # the 34,688-shear stage through every exact verifier
        maps = translation_oversized
        rep = verify_cyclic_permutation(maps, 1, "exact", samples=2, seed=1)
        assert rep.hits == rep.samples == 2
        assert check_stage_commutation(maps, 1, samples=2, seed=1).passed
        part = stage_partition(maps, 1, atoms=(1,))
        assert part.atoms == (1,) and all(len(c) == 9 for c in part.samples)

    def test_translation_index_function_beyond_budget_is_refused(self):
        # the record after stage 1 would carry an index function of
        # 384,041 x 11,521,230 entries
        chain = translation_params(levels=3, gamma1=(1, 6), l_base=2)
        with pytest.raises(ParamOutOfRange, match="budget"):
            run_translation_scenario(chain, 1)

    def test_translation_needs_a_one_or_two_dimensional_factor(self):
        # the one-dimensional factor is built by run_circle_scenario; the
        # translation chain takes only a two-dimensional one
        for h in (1, 3):
            with pytest.raises(UnsupportedDimension):
                translation_params(h=h, levels=2, l_base=2)

    def test_minimal_end_to_end(self, minimal1):
        maps = minimal1
        assert maps.scenario == "minimal"
        assert (maps.records[1].p, maps.records[1].q) == (193, 576)
        rep = verify_cyclic_permutation(maps, 1, "exact", samples=4, seed=3)
        assert rep.hits == rep.samples == 4
        assert check_stage_commutation(maps, 1, samples=2, seed=3).passed
        part = stage_partition(maps, 1, atoms=(0, 7, 575))
        for label, cloud in zip(part.atoms, part.samples):
            assert all(int(maps.apply_exact(z, 1)[0] * 576) == label for z in cloud)


# ---------------------------------------------------------------------------
# Malformed and non-finite points.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("x", [(float("nan"), 0.5), (float("inf"), 0.5), ("abc", 0.5), 0.5],
                         ids=["nan", "inf", "text", "scalar"])
@pytest.mark.parametrize("call", ["minimal_conjugation", "minimal_combinatorics",
                                  "minimal_locate", "eval_exact", "eval_rational"])
def test_malformed_points_are_refused(circle2, call, x):
    st = minimal_stage(n=2, l=2, q=1, r=2)
    fn = {
        "minimal_conjugation": st.conjugation(),
        "minimal_combinatorics": st.comb,
        "minimal_locate": st.locate,
        "eval_exact": lambda y: eval_stage_map(circle2, y, "exact"),
        "eval_rational": lambda y: eval_stage_map(circle2, y, "rational"),
    }[call]
    with pytest.raises(ParamOutOfRange):
        fn(x)


def test_float_analytic_path_refuses_non_finite_coordinates(circle2):
    h1 = circle2.conjugations_analytic[0]
    with pytest.raises(ParamOutOfRange, match="finite"):
        h1((float("inf"), 0.5))
    pts = np.full((2, 4), 0.25)
    pts[1, 2] = np.nan
    with pytest.raises(ParamOutOfRange, match="finite"):
        h1.transform(pts)
    with pytest.raises(ParamOutOfRange, match="finite"):
        eval_stage_map(circle2, (float("nan"), 0.5), "analytic")


# ---------------------------------------------------------------------------
# The conjugation protocol's box lattice.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("h", [
    build_grid_refine(4, 3),
    build_abc_conjugation((1, 0), 2, 2, 2),
    # one shear read off x2 alone: its breakpoints set the row pitch
    BlockSlideMap((BlockSlideMove(0, 1, 1, sigma1_interchange(3, 4)),)),
    minimal_stage(n=2, l=2, q=3, r=2).conjugation(),
], ids=["grid_refine", "abc_conjugation", "single_shear", "minimal"])
def test_box_grid_translates_boxes_rigidly(h):
    # a box corner and an interior point of the same box move alike
    cols, rows = h.box_grid()
    rng = np.random.default_rng(8)
    for g in (h, h.inverse()):
        for _ in range(40):
            c, r = int(rng.integers(0, cols)), int(rng.integers(0, rows))
            corner = TorusPoint((F(c, cols), F(r, rows)))
            inner = TorusPoint((F(4 * c + 3, 4 * cols), F(4 * r + 3, 4 * rows)))
            shift = [(b - a) % 1 for a, b in zip(corner, g(corner))]
            assert [(b - a) % 1 for a, b in zip(inner, g(inner))] == shift
