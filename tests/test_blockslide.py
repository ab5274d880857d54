from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abctorus.errors import ParamOutOfRange
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove, CompiledMap, rotation_map
from abctorus.exact.builders import build_interchange
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import StepFunction, sigma1_interchange, sigma3_interchange

F = Fraction


def test_move_shifts_target_by_step_of_source():
    step = StepFunction(F(1), (F(0), F(1, 2)), (F(0), F(1, 4)))
    mv = BlockSlideMove(target=0, source=1, sign=+1, step=step)
    assert mv.apply(TorusPoint((F(0), F(3, 4)))) == TorusPoint((F(1, 4), F(3, 4)))
    assert mv.apply(TorusPoint((F(0), F(1, 4)))) == TorusPoint((F(0), F(1, 4)))


def test_move_rejects_reading_its_own_target():
    step = StepFunction(F(1), (F(0), F(1, 2)), (F(0), F(1, 4)))
    with pytest.raises(ParamOutOfRange):
        BlockSlideMove(target=1, source=1, sign=+1, step=step)
    # a constant step never reads its source, so self-indexing is harmless
    BlockSlideMove(target=1, source=1, sign=+1, step=StepFunction.constant(F(1, 3)))


def test_move_inverse_flips_sign():
    step = sigma1_interchange(2, 1)
    mv = BlockSlideMove(target=0, source=1, sign=+1, step=step)
    x = TorusPoint((F(1, 3), F(2, 3)))
    assert mv.inverse().apply(mv.apply(x)) == x


def test_map_applies_moves_in_listed_order():
    # move A: x1 += 1/4;  move B: x2 += step(x1) which sees the updated x1
    a = BlockSlideMove(0, 1, +1, StepFunction.constant(F(1, 4)))
    b = BlockSlideMove(1, 0, +1, StepFunction(F(1), (F(0), F(1, 2)), (F(0), F(1, 2))))
    m = BlockSlideMap((a, b))
    got = m(TorusPoint((F(3, 8), F(0))))
    assert got == TorusPoint((F(5, 8), F(1, 2)))
    # reversed listing reads the original x1 instead
    m_rev = BlockSlideMap((b, a))
    assert m_rev(TorusPoint((F(3, 8), F(0)))) == TorusPoint((F(5, 8), F(0)))


def test_map_inverse_and_then():
    m1 = rotation_map(F(1, 3))
    m2 = BlockSlideMap((BlockSlideMove(1, 0, +1, sigma3_interchange(2, 1)),))
    comp = m1.then(m2)
    x = TorusPoint((F(1, 5), F(4, 5)))
    assert comp(x) == m2(m1(x))
    assert comp.inverse()(comp(x)) == x


def test_compose_order_matches_application_order():
    m1 = rotation_map(F(1, 4))
    m2 = rotation_map(F(1, 3))
    comp = BlockSlideMap.compose([m1, m2])
    assert comp(TorusPoint((F(0), F(0))))[0] == F(7, 12)


def test_compose_keeps_the_move_objects_of_a_then_fold():
    # phi^{-m/kq} o f o phi^{m/kq} for m < k, as the one-block slide builds them
    k, q = 4, 3
    f = build_interchange(k, q)
    parts = [rotation_map(F(-m, k * q)).then(f).then(rotation_map(F(m, k * q)))
             for m in range(k)]
    folded = reduce(BlockSlideMap.then, parts)
    composed = BlockSlideMap.compose(parts)
    assert len(composed.moves) == len(folded.moves) == sum(len(p.moves) for p in parts)
    assert all(a is b for a, b in zip(composed.moves, folded.moves))


def test_compose_refuses_what_it_cannot_build():
    # every list of 2-torus maps composes, the empty one to the identity;
    # a move outside the 2-torus is refused before any map holds it
    ident = BlockSlideMap.compose([])
    assert ident.moves == () and ident == BlockSlideMap()
    x = TorusPoint((F(1, 7), F(2, 7)))
    assert ident(x) == x
    for target, source in ((2, 0), (0, 2), (-1, 0), ("0", 1)):
        with pytest.raises(ParamOutOfRange, match="coordinate 0 or 1"):
            BlockSlideMove(target, source, 1, sigma1_interchange(2, 1))


def test_identity_map():
    ident = BlockSlideMap()
    x = TorusPoint((F(1, 7), F(2, 7)))
    assert ident(x) == x
    assert rotation_map(F(0))(TorusPoint((F(1, 2), F(0)))) == TorusPoint((F(1, 2), F(0)))


def test_compiled_map_agrees_with_exact_on_lattice():
    m = build_interchange(4, 3)
    M = m.denominator_lcm() * 4
    cm = m.compiled(M)
    rng = np.random.default_rng(5)
    pts = rng.integers(0, M, size=(2, 200), dtype=np.int64)
    out = cm.apply(pts)
    for (a, b), (c, d) in zip(pts.T[:50], out.T[:50]):
        x = TorusPoint((F(int(a), M), F(int(b), M)))
        y = m(x)
        assert y == TorusPoint((F(int(c), M), F(int(d), M)))


def test_compiled_map_requires_compatible_modulus():
    m = rotation_map(F(1, 3))
    with pytest.raises(ParamOutOfRange):
        m.compiled(4)  # 4 is not a multiple of 3


@given(
    t=st.fractions(min_value=0, max_value=1, max_denominator=24),
    x=st.fractions(min_value=0, max_value=1, max_denominator=24),
    y=st.fractions(min_value=0, max_value=1, max_denominator=24),
)
@settings(max_examples=60)
def test_rotation_roundtrip_property(t, x, y):
    m = rotation_map(t)
    p = TorusPoint((x, y))
    assert m.inverse()(m(p)) == p
    assert m(p)[1] == p[1]
