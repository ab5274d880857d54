"""Arithmetic on iterated-exponential magnitudes.

The convergence ledger manipulates numbers of the form exp(exp(...)) far
beyond IEEE range, compares them, and occasionally adds or multiplies
them. `TowerReal` stores such a number in the normal form

    value = exp^height(mantissa),

with `height >= 1` forcing `mantissa` in [1, e) and `height == 0`
allowing any real mantissa below e. Distinct heights then occupy
disjoint value ranges, so comparison is lexicographic in
(height, mantissa).

All mantissa arithmetic runs through mpmath at a fixed working precision
(`WORK_PREC` bits). Values of height <= 3 still materialise as mpf
numbers (the exponent of an mpf is a plain integer, so exp(3.8e6) is
representable), and all arithmetic on them is done numerically. Beyond
that, addition falls back to log-space: `exp(L + log1p(exp(-gap)))`
where `L = ln(max)` is materialisable, or to a sound absorption rule
when even the logarithms are towers. Absorption drops the smaller
summand only when a conservative criterion proves the sum rounds back
to the larger one at working precision; if neither route applies, the
operation raises `AmbiguousComparison` instead of guessing.

Most towers are made from towers already in normal form, and those skip
the normalising constructor (`_normal`). ln of exp^h(m) with h >= 1 is
exp^(h-1)(m): m is still in [1, e), so the pair is normal as it stands;
ln at height 0 gives a value below 1, normal at height 0. exp of
exp^h(m) is exp^(h+1)(m), normal unless h = 0 and m < 1, the one case
the constructor still climbs down. No mantissa ever reaches e from
below: exp of the largest 160-bit value below 1 rounds to one ulp under
the 160-bit e. The deep sum needs depth = h_a - 3 iterated logarithms
of both summands; since ln only lowers the height of a tower, they are
exp^3(m_a) and exp^(h_b - depth)(m_b) in closed form. When h_b < depth
the smaller summand's logarithms fall below height 0, where each one
only lowers a value already below e, far under exp^3(m_a) >= exp^3(1):
it is absorbed without computing them. Every result is bit for bit the
one the normalising constructor and step-by-step logarithms would give.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Optional, Union

import mpmath
from mpmath import mp

from .errors import AmbiguousComparison, ParamOutOfRange, RangeOverflow

WORK_PREC = 160  # bits of mantissa precision for all tower arithmetic

# e at working precision, the normal form's mantissa bound; mpmath would
# re-evaluate its constant `mp.e` on every comparison.
with mp.workprec(WORK_PREC):
    _E = +mp.e

# exp(m) for m below this takes time growing with the bits of m (about
# 2 s at -2^300000, hours at -exp^3(2.7), a mantissa that a power of a
# height-4 tower with a negative exponent produces); the constructor
# refuses it.
_EXP_FLOOR = -mpmath.mpf(2) ** 4096

# Largest height whose value still materialises as a single mpf.
# exp^3(m) <= exp(3.82e6); the mpf exponent stays a small integer.
_NUMERIC_HEIGHT = 3

# Sound absorption threshold: if ln(a) - ln(b) >= this, then b/a < 2^-161
# and a + b rounds to a at WORK_PREC bits.
_ABSORB_LOG_GAP = WORK_PREC * mpmath.log(2) + 1

Number = Union[int, float, Fraction, "TowerReal"]


def require_real(value, what: str) -> None:
    """Refuse anything but a finite int, float or Fraction, naming `what`."""
    if not isinstance(value, (int, float, Fraction)) or (
            isinstance(value, float) and not math.isfinite(value)):
        raise ParamOutOfRange(f"{what} must be a finite real number, got {value!r}")


def require_int(value, low: Optional[int], what: str) -> None:
    """Refuse anything but an integer >= low (any integer when low is
    None), naming `what`; a bool is not a count and is refused too."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or (low is not None and value < low)):
        bound = "" if low is None else f" >= {low}"
        raise ParamOutOfRange(f"{what} must be an integer{bound}, got {value!r}")


def exact_mpf(x) -> mpmath.mpf:
    """x as an mpf at the current precision; Fractions via one rounded
    division of their exact numerator and denominator."""
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


class TowerReal:
    """A real number exp^height(mantissa) in normal form."""

    __slots__ = ("height", "mantissa")

    def __init__(self, height: int, mantissa) -> None:
        try:
            h = operator.index(height)
        except TypeError:
            raise ParamOutOfRange(
                f"tower height must be an integer, got {height!r}"
            ) from None
        if h < 0:
            raise ParamOutOfRange("tower height must be non-negative")
        with mp.workprec(WORK_PREC):
            try:
                m = exact_mpf(mantissa)
            except (TypeError, ValueError):
                raise ParamOutOfRange(
                    f"tower mantissa must be a real number, got {mantissa!r}"
                ) from None
            if mpmath.isnan(m) or mpmath.isinf(m):
                raise ParamOutOfRange("tower mantissa must be finite")
            # climb up while the mantissa is at or above e
            while m >= _E:
                m = mpmath.ln(m)
                h += 1
            # climb down while a positive height holds a mantissa below 1
            while h >= 1 and m < 1:
                if m < _EXP_FLOOR:
                    raise RangeOverflow(
                        "exp of a mantissa below -2^4096 is too small to materialise"
                    )
                m = mpmath.exp(m)
                h -= 1
        object.__setattr__(self, "height", h)
        object.__setattr__(self, "mantissa", m)

    @classmethod
    def _normal(cls, height: int, mantissa: mpmath.mpf) -> "TowerReal":
        """A tower from a pair already in normal form, taken as it is."""
        t = object.__new__(cls)
        object.__setattr__(t, "height", height)
        object.__setattr__(t, "mantissa", mantissa)
        return t

    def __setattr__(self, *a):  # immutable
        raise AttributeError("TowerReal is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_number(cls, x: Number) -> "TowerReal":
        if isinstance(x, TowerReal):
            return x
        return cls(0, x)

    @classmethod
    def from_pow2(cls, exponent: int) -> "TowerReal":
        """The value 2**exponent for integer exponents of any size."""
        with mp.workprec(WORK_PREC):
            return cls(1, mpmath.mpf(exponent) * mpmath.ln(2))

    # -- materialisation ----------------------------------------------------

    def to_mpf(self) -> mpmath.mpf:
        """The value as an mpf; only heights <= 3 are representable."""
        if self.height > _NUMERIC_HEIGHT:
            raise RangeOverflow(
                f"height-{self.height} tower exceeds mpf range"
            )
        with mp.workprec(WORK_PREC):
            v = self.mantissa
            for _ in range(self.height):
                v = mpmath.exp(v)
            return v

    def to_float(self) -> float:
        """The value as an IEEE double; only heights <= 2 always fit."""
        v = self.to_mpf() if self.height <= _NUMERIC_HEIGHT else None
        if v is None or abs(v) > mpmath.mpf("1.7e308"):
            raise RangeOverflow("tower value exceeds IEEE double range")
        return float(v)

    # -- basic queries ------------------------------------------------------

    def is_positive(self) -> bool:
        return self.height >= 1 or self.mantissa > 0

    def __repr__(self) -> str:
        return f"TowerReal(exp^{self.height}({mpmath.nstr(self.mantissa, 10)}))"

    # -- comparison ---------------------------------------------------------

    def compare(self, other: Number) -> int:
        """-1, 0 or +1; exact in the normal form at working precision."""
        o = TowerReal.from_number(other)
        if self.height != o.height:
            return -1 if self.height < o.height else 1
        if self.mantissa == o.mantissa:
            return 0
        return -1 if self.mantissa < o.mantissa else 1

    def __lt__(self, other: Number) -> bool:
        return self.compare(other) < 0

    def __le__(self, other: Number) -> bool:
        return self.compare(other) <= 0

    def __gt__(self, other: Number) -> bool:
        return self.compare(other) > 0

    def __ge__(self, other: Number) -> bool:
        return self.compare(other) >= 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, float, Fraction, TowerReal)):
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self) -> int:
        return hash((self.height, self.mantissa))

    # -- exp / ln -----------------------------------------------------------

    def exp(self) -> "TowerReal":
        if self.height >= 1 or self.mantissa >= 1:
            return TowerReal._normal(self.height + 1, self.mantissa)
        return TowerReal(1, self.mantissa)

    def ln(self) -> "TowerReal":
        if self.height >= 1:
            return TowerReal._normal(self.height - 1, self.mantissa)
        if self.mantissa <= 0:
            raise ParamOutOfRange("ln of a non-positive tower value")
        with mp.workprec(WORK_PREC):
            return TowerReal._normal(0, mpmath.ln(self.mantissa))

    # -- addition -----------------------------------------------------------

    def __add__(self, other: Number) -> "TowerReal":
        b = TowerReal.from_number(other)
        a = self
        if a.height <= _NUMERIC_HEIGHT and b.height <= _NUMERIC_HEIGHT:
            with mp.workprec(WORK_PREC):
                return TowerReal(0, a.to_mpf() + b.to_mpf())
        # at least one summand is a genuine tower (height >= 4, so huge
        # and positive); order the two by value
        if a.compare(b) < 0:
            a, b = b, a
        if not b.is_positive():
            raise ParamOutOfRange(
                "subtracting from a deep tower is not supported"
            )
        la, lb = a.ln(), b.ln()
        if la.height <= _NUMERIC_HEIGHT and lb.height <= _NUMERIC_HEIGHT:
            # log-space addition: a+b = exp(ln a + log1p(exp(lb - la)))
            with mp.workprec(WORK_PREC):
                va, vb = la.to_mpf(), lb.to_mpf()
                gap = va - vb
                if gap >= _ABSORB_LOG_GAP:
                    return a
                return TowerReal(1, va + mpmath.log1p(mpmath.exp(-gap)))
        # both logarithms are still towers; absorb the smaller summand if
        # an iterated-ln comparison proves it negligible. Taking
        # depth = height-3 logs of the larger value leaves an mpf >= exp^3(1),
        # and a gap of ln 2 at that depth implies ln(a)/ln(b) >= 2, hence
        # ln(a) - ln(b) >= exp^3(1)/2, far beyond the absorption threshold.
        # The logs of a tower only lower its height, so they are taken in
        # closed form. A smaller summand of height below depth ends below e
        # (or leaves the positive axis) after them: it is absorbed.
        depth = a.height - _NUMERIC_HEIGHT
        if b.height < depth:
            return a
        ta = TowerReal._normal(_NUMERIC_HEIGHT, a.mantissa)
        tb = TowerReal._normal(b.height - depth, b.mantissa)
        with mp.workprec(WORK_PREC):
            if ta.to_mpf() - tb.to_mpf() >= mpmath.ln(2):
                return a
        raise AmbiguousComparison(
            "sum of towers of comparable depth cannot be rounded soundly"
        )

    def __radd__(self, other: Number) -> "TowerReal":
        return self.__add__(other)

    # -- multiplication and powers -------------------------------------------

    def __mul__(self, other: Number) -> "TowerReal":
        b = TowerReal.from_number(other)
        a = self
        if a.height <= _NUMERIC_HEIGHT and b.height <= _NUMERIC_HEIGHT:
            # products of materialisable values stay materialisable:
            # the mpf exponent simply adds
            with mp.workprec(WORK_PREC):
                return TowerReal(0, a.to_mpf() * b.to_mpf())
        if not (a.is_positive() and b.is_positive()):
            raise ParamOutOfRange(
                "multiplying a deep tower by a non-positive factor"
            )
        return (a.ln() + b.ln()).exp()

    def __rmul__(self, other: Number) -> "TowerReal":
        return self.__mul__(other)

    def __pow__(self, exponent: Number) -> "TowerReal":
        e = TowerReal.from_number(exponent)
        if e.height == 0 and e.mantissa == 0:
            return TowerReal(0, 1)
        if not self.is_positive():
            raise ParamOutOfRange("powers of non-positive tower values")
        return (self.ln() * e).exp()

    def neglog(self) -> "TowerReal":
        """-ln(x) for x in (0, 1), returned as a (positive) tower.

        Heights >= 1 mean x >= e, so only height-0 values below 1 qualify.
        """
        if self.height != 0 or not (0 < self.mantissa < 1):
            raise ParamOutOfRange("neglog needs a value strictly in (0, 1)")
        with mp.workprec(WORK_PREC):
            return TowerReal(0, -mpmath.ln(self.mantissa))


def tower(height: int, mantissa) -> TowerReal:
    """Shorthand constructor used in ledgers and tests."""
    return TowerReal(height, mantissa)


def tower_max(a: Number, b: Number) -> TowerReal:
    ta, tb = TowerReal.from_number(a), TowerReal.from_number(b)
    return ta if ta.compare(tb) >= 0 else tb


__all__ = [
    "TowerReal",
    "WORK_PREC",
    "exact_mpf",
    "require_int",
    "require_real",
    "tower",
    "tower_max",
]
