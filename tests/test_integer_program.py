"""Exact block-slide evaluation against the per-move Fraction chain.

`BlockSlideMove.apply` is the reference definition of one move. A whole
map, its inverse and its compiled lattice form must agree with running
`apply` move by move, bit for bit, on lattice points and on points whose
denominators share nothing with the map's own.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abctorus.engine import run_circle_scenario
from abctorus.errors import ParamOutOfRange
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove, CompiledMap
from abctorus.exact.builders import build_abc_conjugation, build_interchange
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import StepFunction

F = Fraction


def fraction_chain(m: BlockSlideMap, x: TorusPoint) -> TorusPoint:
    for mv in m.moves:
        x = mv.apply(x)
    return x


_CIRCLE = run_circle_scenario(3)

NAMED_MAPS = {
    **{f"circle_h{i + 1}": h for i, h in enumerate(_CIRCLE.conjugations_exact)},
    # translation stacks: grid refinement then an inverse unstack with a
    # non-trivial index function
    "translation_k3_q3": build_abc_conjugation((2, 0, 1), 3, 2, 3),
    "interchange": build_interchange(4, 3),
}


def sampled_points(m: BlockSlideMap, seed: int, n: int = 12):
    """Points on the map's own 1/L lattice and points over denominators
    coprime to L (7, 11, 13 and 2^20 + 7), so the integer program runs
    at a modulus M = c L with c > 1."""
    rng = np.random.default_rng(seed)
    L = m.denominator_lcm()
    dens = [L, 7, 11, 13, 2**20 + 7, 4 * L]
    out = []
    for i in range(n):
        ds = [dens[(i + j) % len(dens)] for j in range(2)]
        out.append(TorusPoint(F(int(rng.integers(0, d)), d) for d in ds))
    return out


@pytest.mark.parametrize("name", sorted(NAMED_MAPS))
def test_named_map_matches_fraction_chain(name):
    m = NAMED_MAPS[name]
    inv = m.inverse()
    for x in sampled_points(m, seed=len(name)):
        y = m(x)
        assert y == fraction_chain(m, x)
        assert inv(y) == x
        assert inv(x) == fraction_chain(inv, x)


@pytest.mark.parametrize("name", ["circle_h1", "circle_h2", "translation_k3_q3",
                                  "interchange"])
@pytest.mark.parametrize("factor", [1, 4])
def test_compiled_map_matches_fraction_chain(name, factor):
    m = NAMED_MAPS[name]
    M = factor * m.denominator_lcm()
    rng = np.random.default_rng(factor)
    pts = rng.integers(0, M, size=(2, 60), dtype=np.int64)
    out = m.compiled(M).apply(pts)
    for col, img in zip(pts.T, out.T):
        x = TorusPoint(F(int(v), M) for v in col)
        assert fraction_chain(m, x) == TorusPoint(F(int(v), M) for v in img)


# -- random maps: negative signs, constant steps, periods below 1 ----------

@st.composite
def step_functions(draw, max_period=4, max_cells=6, max_denominator=12):
    """Steps of period 1/p (p <= max_period) with up to 4 pieces on a
    1/(p n) grid (n <= max_cells) and values of either sign, some of them
    above 1 in size."""
    p = draw(st.integers(1, max_period))
    n = draw(st.integers(1, max_cells))
    cuts = draw(st.lists(st.integers(1, n - 1), max_size=3, unique=True)) if n > 1 else []
    bps = [F(0)] + [F(c, p * n) for c in sorted(cuts)]
    vals = draw(st.lists(
        st.fractions(min_value=-2, max_value=2, max_denominator=max_denominator),
        min_size=len(bps), max_size=len(bps)))
    return StepFunction(F(1, p), tuple(bps), tuple(vals))


@st.composite
def block_slide_maps(draw, max_moves=6, **step_caps):
    """Maps on the 2-torus of up to `max_moves` moves; `step_caps` go to
    `step_functions`."""
    moves = []
    for _ in range(draw(st.integers(0, max_moves))):
        target = draw(st.integers(0, 1))
        step = draw(step_functions(**step_caps))
        if draw(st.booleans()):
            step = StepFunction.constant(step.values[-1], step.period)
        sources = [s for s in (0, 1) if s != target or len(step.values) == 1]
        source = draw(st.sampled_from(sources))
        moves.append(BlockSlideMove(target, source, draw(st.sampled_from((1, -1))), step))
    return BlockSlideMap(tuple(moves))


@given(m=block_slide_maps(), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_random_map_matches_fraction_chain(m, seed):
    inv = m.inverse()
    for x in sampled_points(m, seed, n=6):
        y = m(x)
        assert y == fraction_chain(m, x)
        assert inv(y) == x


@given(m=block_slide_maps(), factor=st.sampled_from((1, 4)), seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_random_compiled_map_matches_fraction_chain(m, factor, seed):
    M = factor * m.denominator_lcm()
    pts = np.random.default_rng(seed).integers(0, M, size=(2, 8), dtype=np.int64)
    out = CompiledMap.build(m, M).apply(pts)
    for col, img in zip(pts.T, out.T):
        x = TorusPoint(F(int(v), M) for v in col)
        assert fraction_chain(m, x) == TorusPoint(F(int(v), M) for v in img)


def test_point_denominators_coprime_to_the_map():
    # L = 12 here; a point over 35 runs at M = 420
    m = BlockSlideMap((
        BlockSlideMove(1, 0, -1, StepFunction(F(1, 2), (F(0), F(1, 4)), (F(1, 3), F(-5, 4)))),
        BlockSlideMove(0, 1, 1, StepFunction.constant(F(7, 6))),
    ))
    assert m.denominator_lcm() == 12
    x = TorusPoint((F(3, 5), F(2, 7)))
    y = m(x)
    assert y == fraction_chain(m, x)
    assert y == TorusPoint((F(23, 30), F(20, 21)))
    assert m.inverse()(y) == x


def test_compiled_map_refuses_moduli_beyond_int64_headroom():
    m = NAMED_MAPS["interchange"]
    L = m.denominator_lcm()
    top = L * ((2**62 - 1) // L)  # the largest accepted modulus
    pts = np.array([[0, 1, top - 1, top // 2 + 5], [top - 1, 7, 0, top // 3]], dtype=np.int64)
    out = CompiledMap.build(m, top).apply(pts)
    for col, img in zip(pts.T, out.T):
        x = TorusPoint(F(int(v), top) for v in col)
        assert fraction_chain(m, x) == TorusPoint(F(int(v), top) for v in img)
    for M in (top + L, L * 2**62):
        with pytest.raises(ParamOutOfRange, match="2\\^62"):
            CompiledMap.build(m, M)
