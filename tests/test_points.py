from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from abctorus.errors import ParamOutOfRange
from abctorus.exact.points import TorusPoint, mod1, rotate


def test_mod1_reduces_into_unit_interval():
    assert mod1(Fraction(5, 4)) == Fraction(1, 4)
    assert mod1(Fraction(-1, 4)) == Fraction(3, 4)
    assert mod1(Fraction(0)) == 0
    assert mod1(3) == 0
    assert mod1(Fraction(-7, 3)) == Fraction(2, 3)


def test_point_coords_are_reduced():
    p = TorusPoint((Fraction(3, 2), Fraction(-1, 3)))
    assert p[0] == Fraction(1, 2)
    assert p[1] == Fraction(2, 3)


def test_rotate_moves_first_coordinate_only():
    p = TorusPoint((Fraction(1, 12), Fraction(1, 4)))
    q = rotate(p, Fraction(1, 3))
    assert q == TorusPoint((Fraction(5, 12), Fraction(1, 4)))


def test_rotate_wraps():
    p = TorusPoint((Fraction(11, 12), Fraction(0)))
    assert rotate(p, Fraction(1, 6))[0] == Fraction(1, 12)


def test_shifted_single_axis():
    p = TorusPoint((Fraction(1, 2), Fraction(1, 3)))
    q = p.shifted(1, Fraction(5, 6))
    assert q == TorusPoint((Fraction(1, 2), Fraction(1, 6)))


def test_empty_point_is_refused_with_a_typed_error():
    with pytest.raises(ParamOutOfRange, match="two coordinates"):
        TorusPoint(())


@pytest.mark.parametrize("coords", [(Fraction(1, 3),), (Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))])
def test_point_needs_exactly_two_coordinates(coords):
    with pytest.raises(ParamOutOfRange, match="two coordinates, got"):
        TorusPoint(coords)


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=64)


@given(x=fractions, y=fractions, t=fractions)
def test_rotate_roundtrip(x, y, t):
    p = TorusPoint((x, y))
    assert rotate(rotate(p, t), -t) == p


@given(x=fractions)
def test_mod1_is_idempotent_and_in_range(x):
    r = mod1(x)
    assert 0 <= r < 1
    assert mod1(r) == r
    assert (x - r).denominator == 1
