"""Exact points on the 2-torus.

A point is a tuple of `fractions.Fraction` coordinates, each reduced to
the fundamental domain [0, 1). Arithmetic never leaves the rationals.
The integer programs take a point as numerators over one modulus:
`to_lattice` and `from_lattice` convert a point to that form and back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, List, Tuple, Union

from ..errors import ParamOutOfRange

Rat = Union[Fraction, int, str]


def as_fraction(c) -> Fraction:
    """Fraction(c), refusing a non-finite or malformed coordinate (inf,
    nan, "abc", None) with ParamOutOfRange; a Fraction comes back
    unchanged."""
    if type(c) is Fraction:
        return c
    try:
        return Fraction(c)
    except (ValueError, OverflowError, TypeError) as exc:
        raise ParamOutOfRange(f"coordinate {c!r} is not a finite rational") from exc


def as_fractions(coords) -> Tuple[Fraction, ...]:
    """`as_fraction` of every coordinate of a point, refusing a point that
    is not a sequence of coordinates (0.5, None) with ParamOutOfRange."""
    try:
        it = iter(coords)
    except TypeError as exc:
        raise ParamOutOfRange(f"point {coords!r} is not a sequence of coordinates") from exc
    return tuple(as_fraction(c) for c in it)


def mod1(x: Fraction | int) -> Fraction:
    """Reduce a rational to [0, 1); a Fraction already there comes back
    unchanged."""
    f = x if type(x) is Fraction else Fraction(x)
    if 0 <= f.numerator < f.denominator:
        return f
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class TorusPoint:
    """A torus point with exact rational coordinates.

    Coordinates are stored reduced to [0, 1); the first coordinate plays
    the distinguished role (rotations act on it). A point of the 2-torus
    has exactly two coordinates; any other number is refused with
    ParamOutOfRange.
    """

    coords: Tuple[Fraction, Fraction]

    def __init__(self, coords: Iterable[Rat]):
        cs = tuple(mod1(c) for c in as_fractions(coords))
        if len(cs) != 2:
            raise ParamOutOfRange(f"a point of the 2-torus has two coordinates, got {len(cs)}")
        object.__setattr__(self, "coords", cs)

    def __getitem__(self, i: int) -> Fraction:
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def shifted(self, axis: int, amount: Fraction) -> "TorusPoint":
        """Return the point with coordinate `axis` translated by `amount`."""
        cs = list(self.coords)
        cs[axis] = mod1(cs[axis] + amount)
        return TorusPoint(cs)

    def __repr__(self) -> str:  # compact, test-friendly
        inner = ", ".join(str(c) for c in self.coords)
        return f"TorusPoint(({inner}))"


def rotate(x: TorusPoint, t: Rat) -> TorusPoint:
    """Rigid rotation of the first coordinate by t (mod 1).

    >>> rotate(TorusPoint([Fraction(1, 12), Fraction(1, 4)]), Fraction(1, 3))
    TorusPoint((5/12, 1/4))
    """
    return x.shifted(0, Fraction(t))


def to_lattice(x, L: int = 1) -> Tuple[List[int], int]:
    """(ys, M): the 2-torus point x (a `TorusPoint` or a sequence of two
    rationals) as numerators ys in [0, M) over M = lcm(L, its
    denominators), the coordinates taken mod 1. A point with another
    number of coordinates is refused with ParamOutOfRange."""
    cs = x.coords if isinstance(x, TorusPoint) else as_fractions(x)
    if len(cs) != 2:
        raise ParamOutOfRange(f"expected a point of the 2-torus, got {len(cs)} coordinates")
    M = lcm(L, *(c.denominator for c in cs))
    return [c.numerator * (M // c.denominator) % M for c in cs], M


def from_lattice(ys, M: int) -> TorusPoint:
    """The point ys/M of numerators ys over the modulus M."""
    return TorusPoint(Fraction(y, M) for y in ys)
