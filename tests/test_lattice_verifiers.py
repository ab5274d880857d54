"""The sampled verifiers on lattice integers against their Fraction loops.

`verify_cyclic_permutation`, `check_stage_commutation`,
`correspondence_defect(..., "analytic")` and `stage_partition` carry every
sample as integer numerators over one modulus. The references below are
the per-sample loops they replaced: each sample a `TorusPoint` of
Fractions, moved through the exact conjugations by their Fraction
definitions (a block-slide map chains `BlockSlideMove.apply`; the
minimality conjugation runs `MinimalCombinatorics` and then the shear)
and through `transform_rational` stage by stage, rotated by a Fraction
and classified with `int(x * q)`; no reference runs
`StageMaps.apply_lattice`. The reference defect reads the source atom
exactly, as `int(Fraction(x) * q)`. Every report must equal its
reference field by field.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from abctorus import engine
from abctorus.analytic import (
    AnalyticBlockSlide,
    approximate_blockslide,
    stage_delta,
    stage_epsilon,
)
from abctorus.bounds import translation_params
from abctorus.engine import (
    CommutationReport,
    ConjugacyReport,
    CorrespondenceDefect,
    StageMaps,
    StagePartition,
    build_stage_circle,
    check_stage_commutation,
    circle_params,
    correspondence_defect,
    run_circle_scenario,
    run_minimal_scenario,
    run_translation_scenario,
    stage_partition,
    verify_cyclic_permutation,
)
from abctorus.errors import ParamOutOfRange
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint, mod1
from abctorus.exact.steps import StepFunction
from abctorus.minimal import MinimalConjugation

F = Fraction
_CLOUD_OFFSETS = tuple((F(u, 4), F(v, 4)) for u in (1, 2, 3) for v in (1, 2, 3))


# ---------------------------------------------------------------------------
# The Fraction references.
# ---------------------------------------------------------------------------


# (id(h), x) -> (h, h(x)); the entry keeps h alive, so its id is not
# reused. The translation references repeat their points across seeds.
_REF_IMAGES = {}


def ref_conjugation(h, x: TorusPoint) -> TorusPoint:
    """h(x) by the Fraction definition of the exact conjugation h."""
    key = (id(h), x)
    if key not in _REF_IMAGES:
        if isinstance(h, MinimalConjugation):
            if h.inverted:
                y = h.comb(x.shifted(1, -h.kappa(x[0])))
            else:
                y = h.comb(x)
                y = y.shifted(1, h.kappa(y[0]))
        else:
            y = x
            for mv in h.moves:
                y = mv.apply(y)
        _REF_IMAGES[key] = (h, y)
    return _REF_IMAGES[key][1]


def ref_stack(maps, x, stage, inverse=False, model="exact"):
    """H_stage (or its inverse) of x, one conjugation at a time: the exact
    model by `ref_conjugation`, the analytic one by `transform_rational`."""
    if model == "exact":
        hs, step = maps.conjugations_exact[:stage], ref_conjugation
    else:
        hs = maps.conjugations_analytic[:stage]

        def step(h, y):
            return TorusPoint(h.transform_rational(y.coords))
    if inverse:
        hs = [h.inverse() for h in reversed(hs)]
    for h in hs:
        x = step(h, x)
    return x


def ref_stage_map(maps, x, stage, model):
    """T_stage(x) = H^{-1}(rotation by alpha(H(x))) in one model."""
    y = ref_stack(maps, x, stage, model=model)
    return ref_stack(maps, y.shifted(0, maps.records[stage].alpha), stage, True, model)


def _classify(maps, x, stage, q):
    return int(ref_stack(maps, x, stage)[0] * q)


def ref_verify(maps, stage, model="exact", samples=None, seed=0):
    threshold = F(1) if model == "exact" else 1 - 2 * maps._analytic(stage).eps
    rec = maps.records[stage]
    q, p = rec.q, rec.p
    if samples is None:
        pairs = [(i, u, v) for i in range(q) for (u, v) in _CLOUD_OFFSETS]
    else:
        rng = np.random.default_rng(seed)
        pairs = []
        for _ in range(samples):
            i = int(rng.integers(0, q))
            u = F(2 * int(rng.integers(0, 2**16)) + 1, 2**17)
            v = F(2 * int(rng.integers(0, 2**16)) + 1, 2**17)
            pairs.append((i, u, v))
    hits = 0
    for (i, u, v) in pairs:
        w = TorusPoint((F(i + u, q) % 1, v))
        z = ref_stack(maps, w, stage, inverse=True)
        t = ref_stage_map(maps, z, stage, model)
        if _classify(maps, t, stage, q) == (i + p) % q:
            hits += 1
    return ConjugacyReport(maps.scenario, stage, model, q, p, len(pairs), hits, threshold)


def ref_commutation(maps, stage, samples=1000, seed=0):
    alpha = maps.records[stage - 1].alpha
    h_ex = maps.conjugations_exact[stage - 1]
    h_an = maps.conjugations_analytic[stage - 1]
    rng = np.random.default_rng(seed)
    exact_ok = True
    worst = F(0)
    for _ in range(samples):
        x = TorusPoint((F(int(rng.integers(0, 2**24)), 2**24),
                        F(int(rng.integers(0, 2**24)), 2**24)))
        if ref_conjugation(h_ex, x.shifted(0, alpha)) != ref_conjugation(h_ex, x).shifted(0, alpha):
            exact_ok = False
        if h_an is None:
            continue
        la = h_an.transform_rational((x[0] + alpha, x[1]))
        ra = h_an.transform_rational(x.coords)
        ra = (mod1(ra[0] + alpha),) + tuple(ra[1:])
        for a, b in zip(la, ra):
            d = abs(a - b)
            worst = max(worst, min(d, 1 - d))
    q_prev = maps.records[stage - 1].q
    structural = h_ex.commutes_with_rotation(q_prev) and (
        h_an is None or h_an.commutes_with_rotation(q_prev))
    return CommutationReport(stage, alpha, exact_ok, structural, worst, samples)


def ref_defect(maps, stage, samples=4096, seed=0):
    rec = maps.records[stage - 1]
    tower = PartitionSpec.tower(rec.a, rec.k, rec.q)
    defects = {}
    pts = np.random.default_rng(seed).random((2, samples))
    img = maps._analytic(stage).transform(pts)
    for j in range(samples):
        src = int(F(pts[0, j]) * rec.q)
        dst = tower.atom_index(TorusPoint((F(img[0, j]) % 1, F(img[1, j]) % 1)))
        if dst != src:
            defects[src] = defects.get(src, 0) + F(1, samples)
            defects[dst] = defects.get(dst, 0) + F(1, samples)
    return CorrespondenceDefect(stage, "analytic", rec.q, tuple(sorted(defects.items())))


def ref_partition(maps, stage, atoms):
    rec = maps.records[stage]
    clouds = tuple(
        tuple(ref_stack(maps, TorusPoint((F(i + u, rec.q) % 1, v)), stage, inverse=True)
              for (u, v) in _CLOUD_OFFSETS)
        for i in atoms)
    return StagePartition(stage, rec.q, rec.p, tuple(atoms), clouds)


def assert_same_report(got, want):
    assert type(got) is type(want)
    for f in dataclasses.fields(want):
        assert getattr(got, f.name) == getattr(want, f.name), f.name


# ---------------------------------------------------------------------------
# Stacks.
# ---------------------------------------------------------------------------


CIRCLE = run_circle_scenario(3)
MINIMAL = run_minimal_scenario(n=2, l=4, q=3, r=2)
# from q = 1 the index function is trivial and the analytic model is built
TRANSLATION_SMALL = run_translation_scenario(
    translation_params(levels=2, gamma1=(1, 2), p1=1, q1=1, l_base=2))
# perfbench's translation stack: 34,688 shears, exact only
TRANSLATION = run_translation_scenario(
    translation_params(levels=2, gamma1=(1, 4), p1=1, q1=2, l_base=2), 1)


def _non_commuting() -> StageMaps:
    """Circle stage 1 whose analytic conjugation is a period-1 shear of x2
    read off x1, which does not commute with the rotation by 1/3."""
    inc = build_stage_circle(circle_params())
    step = StepFunction.from_pieces(1, [(0, 0), (F(1, 2), F(1, 4))])
    shear = BlockSlideMap((BlockSlideMove(1, 0, 1, step),))
    h_an = approximate_blockslide(shear, stage_epsilon(1), stage_delta(1))
    return StageMaps.start("circle", inc.params_before).extend(
        dataclasses.replace(inc, analytic=h_an))


# ---------------------------------------------------------------------------
# Circle, stages 1-3, both models.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("stage", (1, 2, 3))
@pytest.mark.parametrize("model", ("exact", "analytic"))
def test_circle_conjugacy(stage, model):
    got = verify_cyclic_permutation(CIRCLE, stage, model, 64, 11)
    assert_same_report(got, ref_verify(CIRCLE, stage, model, 64, 11))


@pytest.mark.parametrize("stage", (1, 2, 3))
def test_circle_commutation(stage):
    got = check_stage_commutation(CIRCLE, stage, 40, 11)
    assert_same_report(got, ref_commutation(CIRCLE, stage, 40, 11))
    assert got.passed


@pytest.mark.parametrize("stage", (1, 2, 3))
def test_circle_analytic_defect(stage):
    got = correspondence_defect(CIRCLE, stage, "analytic", 1024, 11)
    assert_same_report(got, ref_defect(CIRCLE, stage, 1024, 11))


@pytest.mark.parametrize("stage", (1, 2, 3))
def test_circle_partition(stage):
    atoms = (0, 1, CIRCLE.records[stage].q - 1)
    assert_same_report(stage_partition(CIRCLE, stage, atoms),
                       ref_partition(CIRCLE, stage, atoms))


@pytest.mark.parametrize("model", ("exact", "analytic"))
def test_every_atom_at_circle_stage_1(model):
    got = verify_cyclic_permutation(CIRCLE, 1, model)
    assert got.samples == 9 * 144
    assert_same_report(got, ref_verify(CIRCLE, 1, model))


def test_every_atom_partition_at_circle_stage_1():
    assert_same_report(stage_partition(CIRCLE, 1), ref_partition(CIRCLE, 1, range(144)))


# ---------------------------------------------------------------------------
# Minimal and translation, seeds 1, 2 and 7.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", (1, 2, 7))
def test_minimal(seed):
    for model, samples in (("exact", 12), ("analytic", 4)):
        assert_same_report(verify_cyclic_permutation(MINIMAL, 1, model, samples, seed),
                           ref_verify(MINIMAL, 1, model, samples, seed))
    assert_same_report(check_stage_commutation(MINIMAL, 1, 2, seed),
                       ref_commutation(MINIMAL, 1, 2, seed))
    assert_same_report(correspondence_defect(MINIMAL, 1, "analytic", 64, seed),
                       ref_defect(MINIMAL, 1, 64, seed))
    assert_same_report(stage_partition(MINIMAL, 1, (0, 5, 47)),
                       ref_partition(MINIMAL, 1, (0, 5, 47)))


@pytest.mark.parametrize("seed", (1, 2, 7))
def test_translation(seed):
    for model in ("exact", "analytic"):
        assert_same_report(verify_cyclic_permutation(TRANSLATION_SMALL, 1, model, 32, seed),
                           ref_verify(TRANSLATION_SMALL, 1, model, 32, seed))
    assert_same_report(check_stage_commutation(TRANSLATION_SMALL, 1, 32, seed),
                       ref_commutation(TRANSLATION_SMALL, 1, 32, seed))
    assert_same_report(correspondence_defect(TRANSLATION_SMALL, 1, "analytic", 512, seed),
                       ref_defect(TRANSLATION_SMALL, 1, 512, seed))
    assert_same_report(verify_cyclic_permutation(TRANSLATION, 1, "exact", 2, seed),
                       ref_verify(TRANSLATION, 1, "exact", 2, seed))
    assert_same_report(check_stage_commutation(TRANSLATION, 1, 2, seed),
                       ref_commutation(TRANSLATION, 1, 2, seed))
    assert_same_report(stage_partition(TRANSLATION, 1, (0, 399, 799)),
                       ref_partition(TRANSLATION, 1, (0, 399, 799)))


# ---------------------------------------------------------------------------
# A map that does not commute, and the float source atom.
# ---------------------------------------------------------------------------


def test_non_commuting_analytic_map_reports_the_reference_residual():
    maps = _non_commuting()
    got = check_stage_commutation(maps, 1, 24, 3)
    assert_same_report(got, ref_commutation(maps, 1, 24, 3))
    assert got.exact_identity and got.analytic_residual > 0
    assert not got.passed


def test_on_lattice_refuses_a_modulus_off_the_lattice():
    for h in (CIRCLE.conjugations_exact[0], MINIMAL.conjugations_exact[0]):
        L = h.denominator_lcm()
        assert h.on_lattice([0, 0], 3 * L) == ([0, 0], 3 * L)
        with pytest.raises(ParamOutOfRange):
            h.on_lattice([0, 0], L + 1)


def test_float_source_atom_is_exact(monkeypatch):
    # float(1/3) lies just below 1/3, so it sits in atom 0 of three, but
    # int(x * 3) rounds the product up to 1.0 and reads atom 1. Under an
    # identity analytic conjugation every sample stays in its atom, so the
    # defect of samples drawn at (x, x) is zero only if the source atom is
    # read exactly.
    x = float(F(1, 3))
    assert int(x * 3) == 1 and F(x) < F(1, 3)
    inc = build_stage_circle(circle_params())
    identity = AnalyticBlockSlide((), BlockSlideMap(), inc.analytic.eps,
                                  inc.analytic.delta)
    maps = StageMaps.start("circle", inc.params_before).extend(
        dataclasses.replace(inc, analytic=identity))

    class Draws:
        def random(self, shape):
            return np.full(shape, x)

    monkeypatch.setattr(engine.np.random, "default_rng", lambda seed: Draws())
    assert correspondence_defect(maps, 1, "analytic", 4).total == 0
