"""Constant-time minimality-stage evaluators vs the block-slide route."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abctorus.errors import ParamOutOfRange
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove
from abctorus.exact.builders import build_minimal_combinatorics
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import build_trapping_step
from abctorus.minimal import (
    MinimalCombinatorics,
    MinimalConjugation,
    minimal_stage,
    trapping_exponent,
)

F = Fraction


def random_points(count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        TorusPoint((
            F(int(rng.integers(0, 2 ** 16)), 2 ** 16),
            F(int(rng.integers(0, 2 ** 16)), 2 ** 16),
        ))
        for _ in range(count)
    ]


# (n, l, q, r) of the minimality stages the integer program is checked on
PARAMETER_SETS = [(2, 2, 1, 2), (2, 4, 3, 2), (3, 2, 3, 3), (2, 4, 576, 2), (4, 6, 5, 3)]


def reference_conjugation(st, x: TorusPoint, inverse: bool = False) -> TorusPoint:
    """h = h1 o h2 (or its inverse) by its Fraction definition:
    `MinimalCombinatorics` and the trapping shear as one
    `BlockSlideMove`."""
    if inverse:
        return st.comb(BlockSlideMove(1, 0, -1, st.kappa).apply(x))
    return BlockSlideMove(1, 0, 1, st.kappa).apply(st.comb(x))


# ---------------------------------------------------------------------------
# The cell involution.
# ---------------------------------------------------------------------------


class TestMinimalCombinatorics:
    def test_cell_image_reference_values(self):
        comb = MinimalCombinatorics(l=3, q=2, r=4)
        # block s = 3 (cols 27..35), stripe class 2, row 5 = 1*4 + 1
        assert comb.cell_image(3 * 9 + 2, 5) == (3 * 9 + 1, 9)
        assert comb.cell_image(3 * 9 + 1, 9) == (3 * 9 + 2, 5)
        # band-local class u=1, v=1 (c=4), row 2 = 0*3 + 2
        assert comb.cell_image(3 * 9 + 4, 2) == (3 * 9 + 5, 1)

    def test_cell_image_is_involution(self):
        comb = MinimalCombinatorics(l=3, q=2, r=2)
        for col in range(comb.cols):
            for row in range(comb.rows):
                assert comb.cell_image(*comb.cell_image(col, row)) == (col, row)

    def test_pointwise_involution(self):
        comb = MinimalCombinatorics(l=3, q=1, r=2)
        for x in random_points(100, seed=1):
            assert comb(comb(x)).coords == x.coords

    def test_block_equivariance(self):
        comb = MinimalCombinatorics(l=2, q=3, r=2)
        step = F(1, comb.l * comb.q)
        for x in random_points(50, seed=2):
            assert comb(x.shifted(0, step)).coords == comb(x).shifted(0, step).coords

    @pytest.mark.parametrize("l,q,r", [(2, 1, 2), (2, 2, 3), (3, 1, 2)])
    def test_matches_blockslide_realization(self, l, q, r):
        comb = MinimalCombinatorics(l=l, q=q, r=r)
        bs = build_minimal_combinatorics(l, q, r)
        # all cell centres plus random interior points
        pts = [
            TorusPoint((F(2 * c + 1, 2 * comb.cols), F(2 * y + 1, 2 * comb.rows)))
            for c in range(comb.cols)
            for y in range(comb.rows)
        ]
        pts += random_points(60, seed=3)
        for x in pts:
            assert comb(x).coords == bs(x).coords

    def test_cell_bounds_checked(self):
        comb = MinimalCombinatorics(l=2, q=1, r=2)
        with pytest.raises(ParamOutOfRange):
            comb.cell_image(comb.cols, 0)
        with pytest.raises(ParamOutOfRange):
            comb.cell_image(0, -1)

    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            MinimalCombinatorics(l=1, q=1, r=1)
        with pytest.raises(ParamOutOfRange):
            MinimalCombinatorics(l=2, q=0, r=1)


# ---------------------------------------------------------------------------
# The full conjugation h = h1 o h2.
# ---------------------------------------------------------------------------


class TestMinimalConjugation:
    def stage(self):
        return minimal_stage(n=2, l=2, q=1, r=2)

    def test_matches_layer_composition(self):
        st = self.stage()
        h = st.conjugation()
        for x in random_points(50, seed=4):
            y = st.comb(x)
            want = y.shifted(1, st.kappa(y[0]))
            assert h(x).coords == want.coords

    def test_inverse_roundtrip(self):
        h = self.stage().conjugation()
        hinv = h.inverse()
        for x in random_points(50, seed=5):
            assert hinv(h(x)).coords == x.coords
            assert h(hinv(x)).coords == x.coords
        assert hinv.inverse() == h

    def test_matches_blockslide_realization_with_shear(self):
        st = self.stage()
        shear = BlockSlideMap((BlockSlideMove(1, 0, 1, st.kappa),))
        bs = build_minimal_combinatorics(st.l, st.q, st.r).then(shear)
        h = st.conjugation()
        for x in random_points(60, seed=6):
            assert h(x).coords == bs(x).coords

    @pytest.mark.parametrize("n,l,q,r", PARAMETER_SETS)
    @pytest.mark.parametrize("inverse", (False, True), ids=("forward", "inverse"))
    def test_integer_program_matches_the_layers(self, n, l, q, r, inverse):
        # on_lattice at M = L and 3 L and compiled(M).apply at M = L
        # against MinimalCombinatorics and the shear as a Fraction move,
        # on every cell corner of one column period and random points
        st = minimal_stage(n, l, q, r)
        h = st.conjugation()
        h = h.inverse() if inverse else h
        L = h.denominator_lcm()
        cols, rows = st.comb.cols, st.comb.rows
        for M in (L, 3 * L):
            draw = random.Random(M).randrange
            pts = [[c * (M // cols), y * (M // rows)]
                   for c in range(l * l + 1) for y in range(rows)]
            pts += [[draw(M), draw(M)] for _ in range(40)]
            want = [reference_conjugation(st, TorusPoint((F(a, M), F(b, M))), inverse)
                    for a, b in pts]
            got = [h.on_lattice(list(p), M) for p in pts]
            assert [TorusPoint((F(a, M), F(b, M))) for (a, b), _ in got] == want
            if M < 2**62:
                out = h.compiled(M).apply(np.array(pts, dtype=np.int64).T)
                assert [TorusPoint((F(int(a), M), F(int(b), M))) for a, b in out.T] == want

    def test_box_grid_and_lcm_are_pinned(self):
        h = minimal_stage(2, 4, 3, 2).conjugation()
        assert h.box_grid() == (768, 1048576)
        assert h.denominator_lcm() == 3145728
        assert h.inverse().box_grid() == (768, 1048576)
        assert h.inverse().denominator_lcm() == 3145728

    def test_commutes_with_stage_rotations(self):
        st = minimal_stage(n=2, l=2, q=3, r=2)
        h = st.conjugation()
        assert h.commutes_with_rotation(3)
        assert h.commutes_with_rotation(6)
        assert not h.commutes_with_rotation(4)
        alpha = F(2, 3)
        for x in random_points(30, seed=7):
            assert h(x.shifted(0, alpha)).coords == h(x).shifted(0, alpha).coords


# ---------------------------------------------------------------------------
# Stage geometry: collar exponent, zones, classification.
# ---------------------------------------------------------------------------


class TestStageGeometry:
    def test_trapping_exponent_frozen(self):
        assert trapping_exponent(4, 12, 2) == 24 + 8 + 1
        assert trapping_exponent(3, 60, 3) == 180 + 7 + 1
        assert trapping_exponent(2, 2, 1) == 2 + 4 + 1
        with pytest.raises(ParamOutOfRange):
            trapping_exponent(1, 4, 1)

    def test_zone_counts(self):
        # the cell centres, sheared by kappa, meet every zone: l q blocks
        # x l stripes of A-zones and r bands x l q blocks x (l^2 - l)
        # columns of B-zones
        st = minimal_stage(n=2, l=3, q=2, r=2)
        cols, rows = st.comb.cols, st.comb.rows
        zones = set()
        for c in range(cols):
            x1 = F(2 * c + 1, 2 * cols)
            for y in range(rows):
                zones.add(st.locate(TorusPoint((x1, F(2 * y + 1, 2 * rows) + st.kappa(x1)))))
        assert sum(z[0] == "A" for z in zones) == 3 * 2 * 3
        assert sum(z[0] == "B" for z in zones) == 2 * 6 * (9 - 3)
        assert None not in zones

    def test_locate_reference_points(self):
        st = minimal_stage(n=2, l=2, q=1, r=2)  # delta = 2^-7
        d = st.delta
        assert d == F(1, 128)
        # centre of column 0 (stripe class 0), row 1: an A-zone point
        assert st.locate(TorusPoint((F(1, 16), F(3, 8)))) == ("A", 0, 0)
        # column 3 (class 3 >= l), row 3 -> band t = 1
        assert st.locate(TorusPoint((F(7, 16), F(7, 8)))) == ("B", 1, 0, 3)
        # a sheared point: kappa = delta/(l r) on the second staircase piece
        y1 = F(3, 64)
        assert st.kappa(y1) == d / 4
        assert st.locate(TorusPoint((y1, F(3, 8) + d / 4))) == ("A", 0, 0)
        # collar on the first axis: within-cell offset delta/4 < delta/2
        assert st.locate(TorusPoint((d / 32, F(3, 8)))) is None
        # exactly delta/2 into the cell counts as core (closed collar edge)
        assert st.locate(TorusPoint((d / 16, F(3, 8)))) == ("A", 0, 0)
        # collar on the second axis
        assert st.locate(TorusPoint((F(1, 16), F(1, 4) + d / 16))) is None

    def test_zero_delta_collapses_collars(self):
        st = replace(minimal_stage(n=2, l=2, q=1, r=2), delta=F(0),
                     kappa=build_trapping_step(2, 2, 1, 2, F(0)))
        assert all(v == 0 for v in st.kappa.values)
        for x in random_points(20, seed=8):
            assert st.locate(x) is not None

    def test_locate_agrees_with_conjugation_cells(self):
        # an A-zone point pulls back into the advertised 1/(lq) x 1/l cell
        st = minimal_stage(n=2, l=2, q=2, r=2)
        hinv = st.conjugation().inverse()
        hits = 0
        for y in random_points(200, seed=9):
            zone = st.locate(y)
            if zone is None or zone[0] != "A":
                continue
            hits += 1
            _, s, i = zone
            x = hinv(y)
            assert F(s, st.l * st.q) <= x[0] < F(s + 1, st.l * st.q)
            assert F(i, st.l) <= x[1] < F(i + 1, st.l)
        assert hits > 20  # the A-columns carry 1/l of the measure

    def test_validation(self):
        with pytest.raises(ParamOutOfRange):
            minimal_stage(n=1, l=2, q=1, r=2)
        with pytest.raises(ParamOutOfRange):
            minimal_stage(n=2, l=1, q=1, r=2)
        with pytest.raises(ParamOutOfRange):
            minimal_stage(n=2, l=2, q=1, r=0)
