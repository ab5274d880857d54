"""Rational step functions on the circle.

A `StepFunction` is a periodic, piecewise-constant function with rational
period, breakpoints and values. Pieces are left-closed right-open, the
pieces tile one full period, and the first breakpoint is 0. These are
the only one-dimensional objects the exact maps are made of: every shear
adds (a multiple of) a step function of one coordinate to another.

The module also provides the named step functions used by the torus
builders: the four interchange profiles, the top-band profile,
the three grid-refinement profiles and the trapping staircase.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence, Tuple

from ..errors import ParamOutOfRange
from ..towers import require_int
from .points import as_fraction, as_fractions


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant periodic function with rational data.

    piece i is [breakpoints[i], breakpoints[i+1]) (the last piece ends at
    `period`), and the function takes `values[i]` there. breakpoints[0]
    must be 0 and the sequence strictly increasing inside [0, period).
    """

    period: Fraction
    breakpoints: Tuple[Fraction, ...]
    values: Tuple[Fraction, ...]

    def __post_init__(self):
        if self.period <= 0:
            raise ParamOutOfRange("step function period must be positive")
        if len(self.breakpoints) != len(self.values) or not self.breakpoints:
            raise ParamOutOfRange("breakpoints/values length mismatch")
        if self.breakpoints[0] != 0:
            raise ParamOutOfRange("first breakpoint must be 0")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not (0 <= a < b < self.period):
                raise ParamOutOfRange("breakpoints must increase inside one period")

    @staticmethod
    def constant(value: Fraction, period: Fraction = Fraction(1)) -> "StepFunction":
        """The constant `value`; a value or period that is not a finite
        rational is refused with ParamOutOfRange."""
        return StepFunction(as_fraction(period), (Fraction(0),), (as_fraction(value),))

    @staticmethod
    def from_pieces(period, pairs: Sequence[Tuple[Fraction, Fraction]]) -> "StepFunction":
        """Build from (left endpoint, value) pairs; endpoints must start at 0."""
        bps = tuple(as_fraction(a) for a, _ in pairs)
        vals = tuple(as_fraction(v) for _, v in pairs)
        return StepFunction(as_fraction(period), bps, vals)

    def __call__(self, x) -> Fraction:
        """Exact value at x (any rational; reduced modulo the period)."""
        t = Fraction(x) % self.period
        i = bisect_right(self.breakpoints, t) - 1
        return self.values[i]

    def denominator_lcm(self) -> int:
        """lcm of all denominators appearing in the data (period included).

        Any map built from moves whose step data lie on the 1/L lattice
        takes the 1/L coordinate lattice to itself, which is what makes
        integer-grid evaluation exact.
        """
        # Reduction modulo the period keeps the 1/L lattice invariant iff
        # L * period is an integer, i.e. L is a multiple of the period's
        # denominator.
        L = self.period.denominator
        for b in self.breakpoints:
            L = lcm(L, b.denominator)
        for v in self.values:
            L = lcm(L, v.denominator)
        return L

    def is_periodic_with(self, p: Fraction) -> bool:
        """True if the function is p-periodic (constant, or p a multiple
        of the stored period; checked structurally)."""
        p = Fraction(p)
        if p <= 0:
            return False
        if len(self.values) == 1:
            return True  # constant functions have every period
        ratio = p / self.period
        return ratio.denominator == 1


# ---------------------------------------------------------------------------
# Named profiles for the interchange map (colliding historical names are
# split: `sigma4_rearrange` is the 1/q-periodic half-turn profile used by
# the interchange; `sigma4_band` is the top-band profile used by the
# two-cycle gadget).
# ---------------------------------------------------------------------------


def _check_kq(k: int, q: int):
    require_int(k, 2, "k")
    require_int(q, 1, "q")


def sigma1_interchange(k: int, q: int) -> StepFunction:
    """1/(kq) on the upper half circle [1/2, 1), else 0.

    >>> sigma1_interchange(3, 4)(Fraction(3, 4))
    Fraction(1, 12)
    >>> sigma1_interchange(3, 4)(Fraction(1, 4))
    Fraction(0, 1)
    """
    _check_kq(k, q)
    return StepFunction.from_pieces(1, [(0, 0), (Fraction(1, 2), Fraction(1, k * q))])


def sigma2_interchange(k: int, q: int) -> StepFunction:
    """1/(kq) on the lower half circle [0, 1/2), else 0."""
    _check_kq(k, q)
    return StepFunction.from_pieces(1, [(0, Fraction(1, k * q)), (Fraction(1, 2), 0)])


def sigma3_interchange(k: int, q: int) -> StepFunction:
    """1/2 once the q-fold fractional part passes 1/k: value 1/2 on
    {t : frac(q t) in [1/k, 1)}, else 0; 1/q-periodic."""
    _check_kq(k, q)
    return StepFunction.from_pieces(
        Fraction(1, q), [(0, 0), (Fraction(1, k * q), Fraction(1, 2))]
    )


def sigma4_rearrange(k: int, q: int) -> StepFunction:
    """1/2 on {t : frac(q t) in [2/k, 1)}, else 0; 1/q-periodic.

    For k = 2 the carrier set is empty and the profile is identically 0.
    """
    _check_kq(k, q)
    if k == 2:
        return StepFunction.constant(Fraction(0), Fraction(1, q))
    return StepFunction.from_pieces(
        Fraction(1, q), [(0, 0), (Fraction(2, k * q), Fraction(1, 2))]
    )


def sigma4_band(k: int, q: int, l: int) -> StepFunction:
    """2/(kq) on the top band [ (l-1)/l, 1 ), else 0."""
    _check_kq(k, q)
    require_int(l, 2, "l")
    return StepFunction.from_pieces(
        1, [(0, 0), (Fraction(l - 1, l), Fraction(2, k * q))]
    )


# ---------------------------------------------------------------------------
# Grid-refinement profiles.
# ---------------------------------------------------------------------------


def _check_lq(l: int, q: int):
    require_int(l, 2, "l")
    require_int(q, 1, "q")


def psi1_refine(l: int, q: int) -> StepFunction:
    """(l-i)/(l^2 q) on [i/l, (i+1)/l) for i = 1..l-1, and 0 on [0, 1/l)."""
    _check_lq(l, q)
    pieces = [(Fraction(0), Fraction(0))]
    pieces += [(Fraction(i, l), Fraction(l - i, l * l * q)) for i in range(1, l)]
    return StepFunction.from_pieces(1, pieces)


def psi2_refine(l: int, q: int) -> StepFunction:
    """(i mod l)/l on [i/(l^2 q), (i+1)/(l^2 q)); equals the 1/(lq)-periodic
    sawtooth with l micro-steps of height 1/l."""
    _check_lq(l, q)
    pieces = [(Fraction(j, l * l * q), Fraction(j, l)) for j in range(l)]
    return StepFunction.from_pieces(Fraction(1, l * q), pieces)


def psi3_refine(l: int, q: int) -> StepFunction:
    """i/(l^2 q) on [i/l, (i+1)/l) for i = 0..l-1."""
    _check_lq(l, q)
    pieces = [(Fraction(i, l), Fraction(i, l * l * q)) for i in range(l)]
    return StepFunction.from_pieces(1, pieces)


# ---------------------------------------------------------------------------
# Trapping staircase.
# ---------------------------------------------------------------------------


def staircase_profile(n: int) -> Tuple[int, ...]:
    """Integer heights m(p) = max(0, min(p, n^2 - 2 - p)) for p < n^2.

    Monotone ascent to the peak floor(n^2/2) - 1 followed by the mirrored
    descent, with the first and the last pieces at height 0.

    >>> staircase_profile(2)
    (0, 1, 0, 0)
    """
    require_int(n, 2, "n")
    nn = n * n
    return tuple(max(0, min(p, nn - 2 - p)) for p in range(nn))


def build_trapping_step(n: int, l: int, q: int, r: int, delta: Fraction) -> StepFunction:
    """The 1/(l^3 q)-periodic trapping staircase with n^2 pieces per period.

    Piece p of width 1/(n^2 l^3 q) carries the value m(p) * delta / (l r),
    where m is the monotone-staircase normalization of the ascent/descent
    profile (peak (floor(n^2/2) - 1) * delta / (l r)).
    """
    _check_lq(l, q)
    require_int(r, 1, "r")
    delta = as_fraction(delta)
    if delta < 0:
        raise ParamOutOfRange("delta must be >= 0")
    profile = staircase_profile(n)
    nn = n * n
    period = Fraction(1, l**3 * q)
    unit = Fraction(delta, l * r)
    pieces = [(Fraction(p, nn) * period, profile[p] * unit) for p in range(nn)]
    # collapse equal-valued neighbours so the breakpoint list stays minimal
    collapsed = [pieces[0]]
    for left, val in pieces[1:]:
        if val != collapsed[-1][1]:
            collapsed.append((left, val))
    return StepFunction.from_pieces(period, collapsed)


# ---------------------------------------------------------------------------
# Plateau targets for the entire approximation: l equal pieces repeated
# with period 1/N.
# ---------------------------------------------------------------------------


def plateau_target(beta: Sequence[Fraction], N: int) -> StepFunction:
    """Step function with value beta[i] on [i/(lN), (i+1)/(lN)), repeated
    1/N-periodically (l = len(beta))."""
    require_int(N, 1, "N")
    beta = as_fractions(beta)
    l = len(beta)
    if l < 1:
        raise ParamOutOfRange("beta must be non-empty")
    pieces = [(Fraction(i, l * N), b) for i, b in enumerate(beta)]
    # collapse equal neighbours (keeps StepFunction minimal and hashable-friendly)
    collapsed = [pieces[0]]
    for left, val in pieces[1:]:
        if val != collapsed[-1][1]:
            collapsed.append((left, val))
    return StepFunction.from_pieces(Fraction(1, N), collapsed)


__all__ = [
    "StepFunction",
    "sigma1_interchange",
    "sigma2_interchange",
    "sigma3_interchange",
    "sigma4_rearrange",
    "sigma4_band",
    "psi1_refine",
    "psi2_refine",
    "psi3_refine",
    "staircase_profile",
    "build_trapping_step",
    "plateau_target",
]
