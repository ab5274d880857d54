"""Exact points on the d-torus.

A point is a tuple of `fractions.Fraction` coordinates, each reduced to
the fundamental domain [0, 1). Arithmetic never leaves the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Tuple, Union

from ..errors import ParamOutOfRange

Rat = Union[Fraction, int, str]


def mod1(x: Fraction | int) -> Fraction:
    """Reduce a rational to [0, 1)."""
    f = Fraction(x)
    return f - (f.numerator // f.denominator)


@dataclass(frozen=True)
class TorusPoint:
    """A point of the d-dimensional torus with exact rational coordinates.

    Coordinates are stored reduced to [0, 1); the first coordinate plays
    the distinguished role (rotations act on it).
    """

    coords: Tuple[Fraction, ...]

    def __init__(self, coords: Iterable[Rat]):
        cs = tuple(mod1(Fraction(c)) for c in coords)
        if not cs:
            raise ParamOutOfRange("a torus point needs at least one coordinate")
        object.__setattr__(self, "coords", cs)

    @property
    def dim(self) -> int:
        return len(self.coords)

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
