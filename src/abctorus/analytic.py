"""Entire approximations of step functions and of block-slide maps.

The exact torus maps are compositions of shears: each move adds a
rational step function of one coordinate to another. This module
replaces every step by a real entire function that is uniformly close
to it away from small collars around the jump points, which turns a
block-slide map into a measure-preserving real-analytic diffeomorphism
that is (eps, delta)-close to it.

The approximation of a plateau profile ``beta = (b_0, ..., b_{l-1})``
(values on the ``l`` equal cells of each ``1/N``-period, ``l`` even) is

    s(z) = [sum_{i < l/2} b_i (E_i - E_{i+1})] * Wp(N z)
         + [sum_{i >= l/2} b_i (E_i - E_{i+1})] * Wm(N z)

with the sigmoid windows

    Wp(w) = exp(-exp(-A sin(2 pi w)))       ~ indicator of (0, 1/2) mod 1
    Wm(w) = exp(-exp(+A sin(2 pi w)))       ~ indicator of (1/2, 1) mod 1
    E_i   = Wp(N z - i/l).

For a large amplitude ``A`` each window is a sharp double-exponential
sigmoid; ``E_i - E_{i+1}`` cuts out cell ``i`` and its mirror image half
a period away, and the trailing ``Wp``/``Wm`` factor kills the mirror.
The amplitude conditions

    (A1)  A > -(2l / (pi delta)) * ln(-ln(1 - eps/8))
    (A2)  A >  (2l / (pi delta)) * ln(-ln(eps / (2l)))

guarantee that the deviation from the plateau profile is below ``eps``
outside the union of collars of width ``delta/(l N)`` centred at the
cell boundaries ``i/(l N)`` (total measure ``delta``).

Everything here evaluates in ordinary floats with saturating envelopes:
``exp(-exp(y))`` is monotone in ``y``, so clamping ``y`` to the IEEE
exponent range changes the value by less than 1e-300. Supremum and
Lipschitz bounds on complex strips grow doubly exponentially in the
strip width; they live in tower arithmetic in `bounds`
(`bounds.sup_increment_bound`, `bounds.lip_increment_bound`).

The real evaluation paths skip the sine and both exponentials of a
window whose phase p is saturated, and this shortcut is exact, not a
further approximation. Let m = asin(1418/A)/(2 pi). For p in
(m, 1/2 - m) the true A sin(2 pi p) exceeds 1418 = 2 * 709. The float
pipeline errs by less than 2e-15 absolutely in sin(2 pi p): the float
2 pi, the rounded product, the sine itself, and the rounded edges m and
1/2 - m. Times A <= 2^53 that is at most 18, so the computed exponent
-A sin(2 pi p) is below -709, the clamp holds it at -709, and
exp(-exp(-709)) is exactly 1.0. Likewise, for p in (1/2 + m, 1 - m) the
computed exponent is above 709, and the window is exactly
exp(-exp(709)) = 0.0. The trailing Wp/Wm factor is the same window and
its mirror. So a saturated lane returns the float that the full formula
returns, bit for bit. Only lanes inside the collars are computed in
full. For A <= 1418 every phase is computed in full (m = 1/4 leaves
both intervals empty), and likewise above 2^53. The complex path always
evaluates the full formula.

Most arguments skip the lanes altogether. Since l is even, 0 and 1/2
are cell boundaries, so a phase more than m inside one of the l cells of
a period is saturated, at 1.0 in the first half and at 0.0 in the
second. Let w be the reduced phase and j = floor(w l) its cell. If
frac(w l) lies in the plateau band (m l + g, 1 - m l - g), with the guard
g = 1e-9, then w sits more than m + g/l inside cell j, and so every
phase w - i/l mod 1 sits as far inside cell j - i mod l, and w itself
inside cell j. Every lane and both trailing factors are then saturated,
with the same pattern of 1.0 and 0.0 as at the middle of cell j, so the
step value is the one `_window_sum` returns there. Each step keeps these
l values as its plateau table and returns entry j for any w in the band.
The guard absorbs the float error. Measured in w, rounding w l moves the
band test by at most 2^-53 (not at all for l a power of two), and the
kernel's float phases are off by a few ulps of 1 (the float offset i/l,
the subtraction, the reduction mod 1): all below 1e-15, while g/l is
above 1e-13 for l < 10^4. So a w that passes the band test has every
float phase strictly inside its saturated interval, where the kernel
returns exactly what the table holds, bit for bit. On the rational path w = r/d is one correctly rounded division and
its phases are correctly rounded too, so the same test applies. The band
is empty when m l + g >= 1/2, that is for A outside (1418, 2^53], where
m = 1/4, or when the collars fill the cell; such a step has no table.

Arguments outside the band go through the lane kernel unchanged, and
there the saturation masks still pay: a collar point usually has one or
two unsaturated lanes of l. A variant that computed every lane of a
collar point in full was also exact, but it cost circle's analytic ops
0.584 -> 0.638 s and its rational ops 0.18 -> 0.24 s.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from mpmath import mp

from .errors import ParamOutOfRange, RangeOverflow
from .exact.blockslide import BlockSlideMap
from .exact.points import TorusPoint, as_fraction, from_lattice, mod1, to_lattice
from .exact.steps import StepFunction
from .towers import WORK_PREC, exact_mpf, require_int, require_real

# exp() overflows IEEE doubles just past 709.78; the envelope
# exp(-exp(y)) is flat to <1e-300 beyond |y| = 709.
_CLAMP = 709.0
_TWO_PI = 2.0 * math.pi
# a window whose exponent exceeds 2 * _CLAMP in exact arithmetic is
# saturated in floats too; the shortcut is used for A up to _SHORTCUT_MAX_A
# (see the module docstring)
_SATURATED = 2 * _CLAMP
_SHORTCUT_MAX_A = 2.0**53
# frac(w l) must clear the collars by this margin before a phase is read
# off its plateau: far above the float error of w l and of the kernel's
# phases, far below the gap between collars (module docstring)
_PLATEAU_GUARD = 1e-9


# ---------------------------------------------------------------------------
# Amplitude selection.
# ---------------------------------------------------------------------------


def amplitude_lower_bounds(l: int, eps, delta) -> Tuple[mp.mpf, mp.mpf]:
    """Right-hand sides of the amplitude conditions (A1) and (A2).

    Computed in mpmath (unbounded exponent range), so arbitrarily small
    eps/delta never overflow. The bounds depend on (l, eps, delta) alone
    and a realization shares one budget over all its moves, so they are
    cached. The arguments are checked before the cache is keyed on them,
    so an unhashable one is refused like any other.
    """
    _check_profile_params(l, eps, delta)
    return _amplitude_bounds(l, eps, delta)


@lru_cache(maxsize=256, typed=True)
def _amplitude_bounds(l: int, eps, delta) -> Tuple[mp.mpf, mp.mpf]:
    with mp.workprec(WORK_PREC):
        e = exact_mpf(eps)
        d = exact_mpf(delta)
        scale = 2 * l / (mp.pi * d)
        a1 = -scale * mp.log(-mp.log1p(-e / 8))
        a2 = scale * mp.log(-mp.log(e / (2 * l)))
        return a1, a2


def amplitude_conditions_hold(l: int, eps, delta, A) -> bool:
    """True if A strictly satisfies both amplitude conditions; an A that
    is not a finite int, float or Fraction is refused with
    ParamOutOfRange, as in `bounds.check_amplitude`."""
    a1, a2 = amplitude_lower_bounds(l, eps, delta)
    require_real(A, "amplitude")
    with mp.workprec(WORK_PREC):
        a = exact_mpf(A)
        return a > a1 and a > a2


def _check_profile_params(l: int, eps, delta) -> None:
    if not isinstance(l, int) or l < 2 or l % 2:
        raise ParamOutOfRange(f"cell count l must be an even integer >= 2, got {l!r}")
    require_real(eps, "eps")
    require_real(delta, "delta")
    eps = Fraction(eps)
    delta = Fraction(delta)
    if not (0 < eps < Fraction(1, 8)):
        raise ParamOutOfRange(f"eps must lie in (0, 1/8), got {eps}")
    if not (0 < delta < 1):
        raise ParamOutOfRange(f"delta must lie in (0, 1), got {delta}")


def stage_epsilon(n: int) -> Fraction:
    """Stage-n proximity budget 1/(3 * 2^(n+1)) of the stage schedule."""
    require_int(n, 1, "stage index")
    return Fraction(1, 3 * 2 ** (n + 1))


def stage_delta(n: int) -> Fraction:
    """Stage-n error-set budget 1/2^(n+1) of the stage schedule."""
    require_int(n, 1, "stage index")
    return Fraction(1, 2 ** (n + 1))


def stage_amplitude(n: int, l: int) -> int:
    """Stage-n amplitude 2^(2n+5) * l^2 of the stage schedule, for an even
    cell count l >= 4. It clears the amplitude conditions at the stage
    budgets split over a circle stage's three shears, (eps_n/4, delta_n/4);
    `EntireStep` checks that for every step built from it."""
    require_int(n, 1, "stage index")
    require_int(l, 4, "stage cell count l")
    if l % 2:
        raise ParamOutOfRange(f"stage cell count l must be even, got {l}")
    return 2 ** (2 * n + 5) * l * l


def choose_amplitude(l: int, eps, delta) -> int:
    """The smallest power of two strictly exceeding both amplitude lower
    bounds for (l, eps, delta). The stage schedule's fixed amplitude is
    `stage_amplitude`."""
    # checked before the cached bounds, whose key must be hashable
    _check_profile_params(l, eps, delta)
    a1, a2 = amplitude_lower_bounds(l, eps, delta)
    with mp.workprec(WORK_PREC):
        bound = max(a1, a2)
        A = 1
        if bound >= 1:
            A = 1 << (int(mp.floor(mp.log(bound, 2))) + 1)
    while not amplitude_conditions_hold(l, eps, delta, A):
        A <<= 1
    return A


# ---------------------------------------------------------------------------
# The entire step and its evaluation.
# ---------------------------------------------------------------------------


def _envelope(y: np.ndarray) -> np.ndarray:
    """exp(-exp(y)) with the exponent clamped to the IEEE range.

    Monotone decreasing from 1 to 0; beyond |y| = 709 the true value
    differs from the saturated branch by less than 1e-300.
    """
    return np.exp(-np.exp(np.clip(y, -_CLAMP, _CLAMP)))


def _clamped_envelope(y: float) -> float:
    """Scalar counterpart of _envelope on plain floats."""
    return math.exp(-math.exp(min(max(y, -_CLAMP), _CLAMP)))


def _envelope_c(y: complex) -> complex:
    """Complex exp(-exp(y)) with the real-axis saturation branches."""
    if y.real > _CLAMP:
        return 0j
    if y.real < -_CLAMP:
        return 1 + 0j
    u = cmath.exp(y)
    if -u.real > _CLAMP:
        raise RangeOverflow(
            "inner exponential leaves the float range "
            "(oscillatory blow-up off the real axis)"
        )
    return cmath.exp(-u)


def _window(A, p, sin, env):
    """Wp at phase p, env(-A sin(2 pi p)), computed in full in the math
    backend sin/env (numpy, math or cmath)."""
    return env(-A * sin(_TWO_PI * p))


def _window_pair(A, w, sin, env):
    """The trailing factors (Wp(w), Wm(w)), computed in full from one sine."""
    s = sin(_TWO_PI * w)
    return env(-A * s), env(A * s)


def _window_sum(beta, windows, wp, wm):
    """The entire step of the module docstring from its window values.

    windows[i] is E_i (a float, or an array of lanes) and wp, wm are the
    trailing Wp/Wm factors at the reduced phase, so all evaluation paths
    share this one summation formula.
    """
    l = len(beta)
    half = l // 2
    low = high = 0
    # E_l == E_0 (full-period shift)
    for i in range(half):
        low = low + beta[i] * (windows[i] - windows[(i + 1) % l])
    for i in range(half, l):
        high = high + beta[i] * (windows[i] - windows[(i + 1) % l])
    return low * wp + high * wm


def _saturation_edges(A: float) -> Tuple[float, float, float, float]:
    """(m, 1/2 - m, 1/2 + m, 1 - m), m = asin(1418/A)/(2 pi): a window
    phase strictly inside the first pair evaluates to exactly 1.0, one
    strictly inside the second pair to exactly 0.0 (module docstring).
    Outside the shortcut range m = 1/4 leaves both intervals empty."""
    m = math.asin(_SATURATED / A) / _TWO_PI if _SATURATED < A <= _SHORTCUT_MAX_A else 0.25
    return m, 0.5 - m, 0.5 + m, 1.0 - m


def _saturation(p: np.ndarray, edges):
    """Masks of the lanes of p saturated at 1.0 and at 0.0, and the flat
    indices of the remaining (collar) lanes."""
    lo, hi, lo2, hi2 = edges
    one = (p > lo) & (p < hi)
    zero = (p > lo2) & (p < hi2)
    return one, zero, np.flatnonzero(~(one | zero))


def _windows(A: float, edges, p: np.ndarray) -> np.ndarray:
    """Wp lane by lane on an array of phases: exactly 1.0 or 0.0 on the
    saturated lanes, the full formula on the collar lanes."""
    one, _, collar = _saturation(p, edges)
    out = one.astype(float)
    if collar.size:
        out.reshape(-1)[collar] = _window(A, p.reshape(-1)[collar], np.sin, _envelope)
    return out


def _windows_pair(A: float, edges, w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(Wp(w), Wm(w)) lane by lane on an array, the saturated lanes
    skipped as in `_windows`."""
    one, zero, collar = _saturation(w, edges)
    wp, wm = one.astype(float), zero.astype(float)
    if collar.size:
        wp.reshape(-1)[collar], wm.reshape(-1)[collar] = _window_pair(
            A, w.reshape(-1)[collar], np.sin, _envelope)
    return wp, wm


@dataclass(frozen=True)
class EntireStep:
    """Parameter record (beta, N, eps, delta, A) of one entire step.

    The callable value is the 1/N-periodic entire function described in
    the module docstring; it stays within eps of the plateau profile
    beta outside the collar set `error_set(self)` of measure delta.
    """

    beta: Tuple[float, ...]
    N: int
    eps: Fraction
    delta: Fraction
    A: Union[int, float]

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        object.__setattr__(self, "eps", Fraction(self.eps))
        object.__setattr__(self, "delta", Fraction(self.delta))
        _check_profile_params(len(self.beta), self.eps, self.delta)
        for b in self.beta:
            if not (0.0 <= b <= 1.0):
                raise ParamOutOfRange(f"plateau values must lie in [0, 1], got {b}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ParamOutOfRange(f"N must be a positive integer, got {self.N}")
        if not amplitude_conditions_hold(len(self.beta), self.eps, self.delta, self.A):
            raise ParamOutOfRange(
                f"amplitude {self.A} violates the amplitude conditions for "
                f"l={len(self.beta)}, eps={self.eps}, delta={self.delta}"
            )

    @property
    def l(self) -> int:
        return len(self.beta)

    # -- real evaluation ----------------------------------------------------

    @cached_property
    def _kernel(self) -> Tuple[float, Tuple[float, float, float, float], np.ndarray]:
        """float(A), the saturation edges and the column of offsets i/l of
        the window phases, computed on first use and kept on this step."""
        A = float(self.A)
        return A, _saturation_edges(A), (np.arange(self.l) / self.l)[:, None]

    @cached_property
    def _plateau(self) -> Optional[Tuple[np.ndarray, float, float]]:
        """The kernel's value at the middle of each of the l cells and the
        band (lo, hi) of frac(w l) on which every lane of the phase w is
        saturated (module docstring); None when the band is empty."""
        ml = self._kernel[1][0] * self.l
        lo, hi = ml + _PLATEAU_GUARD, 1.0 - ml - _PLATEAU_GUARD
        if not lo < hi:
            return None
        return self._lanes((np.arange(self.l) + 0.5) / self.l), lo, hi

    def _lanes(self, w: np.ndarray) -> np.ndarray:
        """The kernel on a 1-d array of reduced phases w, lane by lane."""
        A, edges, offsets = self._kernel
        # row i of the (l, n) block is the phase of E_i
        windows = _windows(A, edges, np.mod(w - offsets, 1.0))
        return _window_sum(self.beta, windows, *_windows_pair(A, edges, w))

    def __call__(self, x):
        """Value at x (scalar or ndarray; scalars come back as float).

        A lane whose phase lies in a plateau band is read from the table,
        every other lane goes through the kernel. A non-finite argument
        (or one whose product with N overflows) is refused with
        ParamOutOfRange.
        """
        arr = np.asarray(x, dtype=float)
        y = arr.reshape(-1) * self.N
        if not np.isfinite(y).all():
            raise ParamOutOfRange("an entire-step argument is not finite")
        w = np.mod(y, 1.0)
        plateau = self._plateau
        if plateau is None:
            out = self._lanes(w)
        else:
            values, lo, hi = plateau
            t = w * self.l
            cell = t.astype(np.intp)
            f = t - cell
            out = values.take(cell, mode="clip")
            collar = np.flatnonzero((f <= lo) | (f >= hi))
            if collar.size:
                out[collar] = self._lanes(w[collar])
        return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)

    def eval_at_rational(self, x, d: int = 1) -> float:
        """Value at the exact rational x/d (d a positive int), with every
        window phase reduced in integer arithmetic before any float
        touches it.

        For x/d = n/e, in lowest or in any other terms, the reduced phase
        is w = r/e with r = n N mod e, and the phase of E_i is
        ((r l - i e) mod (l e)) / (l e). Python's int true division is
        correctly rounded, so each phase is the float nearest to its exact
        value whatever the terms, and a caller may pass an unreduced
        integer numerator over a common denominator. Shifting x by an exact
        multiple of the period 1/N leaves r unchanged and so reproduces
        the same float bit for bit: commutation and conjugacy checks are
        not polluted by slope-amplified argument rounding. A phase in a
        plateau band returns its table entry. A non-finite or malformed x
        or d is refused with ParamOutOfRange.
        """
        if not isinstance(d, int) or d < 1:
            raise ParamOutOfRange(f"denominator must be a positive integer, got {d!r}")
        if not isinstance(x, int):
            x = as_fraction(x)
            x, d = x.numerator, x.denominator * d
        r = x * self.N % d
        w = r / d
        l = self.l
        plateau = self._plateau
        if plateau is not None:
            values, band_lo, band_hi = plateau
            t = w * l
            cell = int(t)
            if band_lo < t - cell < band_hi:
                return values.item(cell)
        ld = l * d
        rl = r * l
        A, (lo, hi, lo2, hi2), _ = self._kernel
        windows = []
        for i in range(l):
            p = (rl - i * d) % ld / ld
            if lo < p < hi:
                windows.append(1.0)
            elif lo2 < p < hi2:
                windows.append(0.0)
            else:
                windows.append(_window(A, p, math.sin, _clamped_envelope))
        if lo < w < hi:
            wp, wm = 1.0, 0.0
        elif lo2 < w < hi2:
            wp, wm = 0.0, 1.0
        else:
            wp, wm = _window_pair(A, w, math.sin, _clamped_envelope)
        return _window_sum(self.beta, windows, wp, wm)

    # -- complex evaluation -------------------------------------------------

    def eval_complex(self, z: complex) -> complex:
        """Value at a complex point, with the same saturating envelopes.

        The inner exponent of each window picks up an oscillating part
        of size up to A*sinh(2 pi N |Im z|) off the real axis; once that
        excursion passes the IEEE exponent range the doubly exponential
        envelopes leave the float range somewhere on the line and the
        symbolic strip bound `bounds.sup_increment_bound` must be used
        instead, which is signalled by RangeOverflow.
        """
        z = complex(z)
        if z.imag == 0.0:
            return complex(self(z.real), 0.0)
        A = float(self.A)
        b = _TWO_PI * self.N * abs(z.imag)
        try:
            excursion = A * math.sinh(b)
        except OverflowError:
            excursion = math.inf
        if excursion > _CLAMP:
            raise RangeOverflow(
                f"imaginary part {z.imag} too large for float evaluation "
                f"(phase excursion {excursion:.3g} > {_CLAMP:g}); "
                "use the symbolic strip bounds instead"
            )
        l = self.l
        w = complex((self.N * z.real) % 1.0, self.N * z.imag)
        windows = [_window(A, w - i / l, cmath.sin, _envelope_c) for i in range(l)]
        out = _window_sum(self.beta, windows, *_window_pair(A, w, cmath.sin, _envelope_c))
        if not (math.isfinite(out.real) and math.isfinite(out.imag)):
            raise RangeOverflow(
                f"entire step exceeds the float range at {z}; "
                "use the symbolic strip bounds instead"
            )
        return out


# ---------------------------------------------------------------------------
# Collars (the error set of one entire step).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorSet:
    """Union of the l N closed collars of half-width delta/(2 l N)
    centred at the cell boundaries i/(l N); the collar at 0 wraps round
    1. The set is kept as arithmetic: `contains` reduces x modulo the
    spacing, so the record's size does not grow with l N. Total measure
    is exactly delta."""

    cell_count: int          # l * N collars
    spacing: Fraction        # 1/(l N)
    halfwidth: Fraction      # delta/(2 l N)

    def total_measure(self) -> Fraction:
        return 2 * self.halfwidth * self.cell_count

    def contains(self, x) -> bool:
        """Collar membership, exact for rational x (floats convert by
        their exact binary value)."""
        require_real(x, "point")
        r = Fraction(x) % self.spacing
        return r <= self.halfwidth or self.spacing - r <= self.halfwidth


def error_set(s: EntireStep) -> ErrorSet:
    """The collar set outside of which s is within eps of its plateaus."""
    ln = s.l * s.N
    return ErrorSet(ln, Fraction(1, ln), s.delta / (2 * ln))


# ---------------------------------------------------------------------------
# Proximity verification.
# ---------------------------------------------------------------------------


def verify_proximity(s: EntireStep, target: StepFunction, samples: int = 10**4) -> float:
    """Max |s(x) - target(x)| over a uniform mid-point grid with the
    collar points skipped. The approximation contract is that this stays
    below s.eps."""
    if samples < 1:
        raise ParamOutOfRange(f"need at least one sample, got {samples}")
    collars = error_set(s)
    xs = [Fraction(2 * j + 1, 2 * samples) for j in range(samples)]
    kept = [x for x in xs if not collars.contains(x)]
    if not kept:
        return 0.0
    vals = s(np.array([float(x) for x in kept]))
    ref = np.array([float(target(x)) for x in kept])
    return float(np.max(np.abs(vals - ref)))


# ---------------------------------------------------------------------------
# Whole block-slide maps.
# ---------------------------------------------------------------------------


def step_to_plateau(step: StepFunction) -> Tuple[Tuple[Fraction, ...], int, int]:
    """Equal-cell plateau form (beta, N, l) of a step function.

    N is the number of periods per unit (the period must be 1/N), l the
    smallest even cell count per period resolving every breakpoint, and
    beta the cell values read at cell centres.
    """
    period = step.period
    if period.numerator != 1:
        raise ParamOutOfRange(
            f"step period must be a unit fraction 1/N, got {period}"
        )
    N = period.denominator
    l = 1
    for b in step.breakpoints:
        l = l * (b * N).denominator // gcd(l, (b * N).denominator)
    if l % 2:
        l *= 2
    if l < 2:
        l = 2
    beta = tuple(step(Fraction(2 * i + 1, 2 * l) * period) for i in range(l))
    return beta, N, l


@dataclass(frozen=True)
class AnalyticMove:
    """One analytic shear: x[target] += sign * step(x[source]) with an
    entire step, or an exact constant shift (already entire) when the
    profile is constant."""

    target: int
    source: int
    sign: int
    step: Optional[EntireStep]
    constant: Fraction = Fraction(0)

    @property
    def is_constant(self) -> bool:
        return self.step is None


@dataclass(frozen=True)
class AnalyticBlockSlide:
    """Entire approximation of a block-slide map.

    Moves mirror the exact map one for one (constant shears stay exact);
    outside the pulled-back collar set — membership is decided by
    running the exact intermediate orbit and testing each move's source
    coordinate against its collars — every point moves within eps of the
    exact image. The exact moves preserve measure, so that set measures
    at most `error_measure_bound()`, the sum of the moves' own collar
    measures. For the maps of `approximate_blockslide` and of the circle
    stages that sum is below delta: both give each move one share of
    delta, with one share to spare.
    """

    moves: Tuple[AnalyticMove, ...]
    exact: BlockSlideMap
    eps: Fraction
    delta: Fraction

    def transform(self, pts: np.ndarray) -> np.ndarray:
        """Apply to a (2, n) float array of points (mod 1); another shape
        or a non-finite coordinate is refused with ParamOutOfRange."""
        out = np.array(pts, dtype=float, copy=True)
        if out.ndim != 2 or out.shape[0] != 2:
            raise ParamOutOfRange(f"expected a (2, n) coordinate array, got shape {out.shape}")
        if not np.isfinite(out).all():
            raise ParamOutOfRange("a coordinate is not finite")
        out %= 1.0
        for mv in self.moves:
            if mv.is_constant:
                shift = mv.sign * float(mv.constant)
                out[mv.target] = (out[mv.target] + shift) % 1.0
            else:
                out[mv.target] = (out[mv.target] + mv.sign * mv.step(out[mv.source])) % 1.0
        return out

    def __call__(self, x) -> Tuple[float, ...]:
        try:
            coords = [float(c) for c in x]
        except (TypeError, ValueError, OverflowError):
            raise ParamOutOfRange(f"point {x!r} is not a sequence of reals") from None
        if len(coords) != 2:
            raise ParamOutOfRange(f"expected a point of the 2-torus, got {len(coords)} coordinates")
        col = self.transform(np.array(coords, dtype=float).reshape(2, 1))
        return tuple(float(v) for v in col[:, 0])

    def transform_rational(self, coords: Sequence) -> Tuple[Fraction, ...]:
        """Apply to an exact rational point, keeping coordinates rational:
        the point goes over the lcm of its coordinates' denominators and
        through `on_lattice`. A non-finite or malformed coordinate is
        refused with ParamOutOfRange.
        """
        return from_lattice(*self.on_lattice(*to_lattice(coords))).coords

    def on_lattice(self, ys, D: int):
        """The rational analytic path in place on the numerators ys
        (Python ints in [0, D)) of one point ys/D; returns (ys, D) with
        the image over its possibly larger common denominator.

        Each entire-step value is evaluated through eval_at_rational on
        the unreduced source numerator over D and taken back as the exact
        rational of its binary float; D grows only when a shift's
        denominator does not divide it. So the image is a well-defined
        rational point whatever the terms of the input, and shifts by
        exact periods of the step profiles commute with this map bit for
        bit.
        """
        for mv in self.moves:
            if mv.is_constant:
                num, den = mv.constant.numerator, mv.constant.denominator
            else:
                val = mv.step.eval_at_rational(ys[mv.source], D)
                num, den = val.as_integer_ratio()
            if D % den:
                grow = den // gcd(D, den)
                D *= grow
                ys[:] = [y * grow for y in ys]
            ys[mv.target] = (ys[mv.target] + mv.sign * num * (D // den)) % D
        return ys, D

    def in_error_set(self, x) -> bool:
        """True if the exact intermediate orbit of x feeds a collar point
        into any non-constant move."""
        pt = x if isinstance(x, TorusPoint) else TorusPoint(x)
        for exact_move, mv in zip(self.exact.moves, self.moves):
            if mv.step is not None and error_set(mv.step).contains(pt[mv.source]):
                return True
            pt = exact_move.apply(pt)
        return False

    def error_measure_bound(self) -> Fraction:
        """Sum of the per-move collar measures, >= the measure of the
        pulled-back error set. Below delta for the maps of
        `approximate_blockslide` and of the circle stages, which give each
        move one share of delta with one share to spare."""
        return sum(
            (error_set(mv.step).total_measure() for mv in self.moves if mv.step is not None),
            Fraction(0),
        )

    def commutes_with_rotation(self, q: int) -> bool:
        """Structural commutation with the rotation by 1/q of the first
        coordinate: every non-constant move fed by coordinate 0 must have
        a period dividing 1/q (N a multiple of q)."""
        if q < 1:
            raise ParamOutOfRange(f"q must be >= 1, got {q}")
        return all(
            mv.is_constant or mv.source != 0 or mv.step.N % q == 0
            for mv in self.moves
        )

    def inverse(self) -> "AnalyticBlockSlide":
        """Exact inverse: shears invert by flipping their sign (the source
        coordinate is untouched by the move), applied in reverse order.
        Built on the first call and kept on this map."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            moves = tuple(
                AnalyticMove(mv.target, mv.source, -mv.sign, mv.step, mv.constant)
                for mv in reversed(self.moves)
            )
            inv = AnalyticBlockSlide(
                moves=moves,
                exact=self.exact.inverse(),
                eps=self.eps,
                delta=self.delta,
            )
            # kept here for the next call; the inverse holds no link back,
            # so the two never form a reference cycle
            object.__setattr__(self, "_inverse", inv)
        return inv


def approximate_blockslide(m: BlockSlideMap, eps, delta) -> AnalyticBlockSlide:
    """(eps, delta)-close entire approximation of a block-slide map.

    The budgets are split evenly over the non-constant moves, with one
    spare share so the summed collar measure stays strictly below delta
    (per-move budgets are also capped at the admissible ranges; smaller
    budgets only sharpen the result). Constant shears are kept exact —
    they are already entire — so rotations survive unchanged.
    """
    require_real(eps, "eps")
    require_real(delta, "delta")
    eps_total = Fraction(eps)
    delta_total = Fraction(delta)
    if eps_total <= 0:
        raise ParamOutOfRange(f"eps must be positive, got {eps}")
    if delta_total <= 0:
        raise ParamOutOfRange(f"delta must be positive, got {delta}")
    nonconstant = sum(1 for mv in m.moves if len(mv.step.values) > 1)
    if nonconstant:
        # one spare share keeps the summed budgets strictly below the
        # requested totals, as the proximity contract demands
        eps_i = min(eps_total / (nonconstant + 1), Fraction(1, 9))
        delta_i = min(delta_total / (nonconstant + 1), Fraction(1, 2))

    def approximate(step: StepFunction) -> Tuple[Optional[EntireStep], Fraction]:
        """(entire step, 0) for a non-constant step, (None, the exact
        constant) for a constant one."""
        if len(step.values) == 1:
            return None, mod1(step.values[0])
        beta, N, l = step_to_plateau(step)
        # a shear by v and one by v mod 1 are the same torus map, so the
        # plateau values are reduced to [0, 1) before approximation
        beta = tuple(mod1(b) for b in beta)
        A = choose_amplitude(l, eps_i, delta_i)
        return EntireStep(tuple(float(b) for b in beta), N, eps_i, delta_i, A), Fraction(0)

    # every move has the same budget, so equal steps share one approximation
    built = {}
    moves = []
    for mv in m.moves:
        approx = built.get(mv.step)
        if approx is None:
            approx = built[mv.step] = approximate(mv.step)
        moves.append(AnalyticMove(mv.target, mv.source, mv.sign, *approx))
    return AnalyticBlockSlide(
        moves=tuple(moves),
        exact=m,
        eps=eps_total,
        delta=delta_total,
    )


__all__ = [
    "AnalyticBlockSlide",
    "AnalyticMove",
    "EntireStep",
    "ErrorSet",
    "amplitude_conditions_hold",
    "amplitude_lower_bounds",
    "approximate_blockslide",
    "choose_amplitude",
    "error_set",
    "step_to_plateau",
    "stage_amplitude",
    "stage_delta",
    "stage_epsilon",
    "verify_proximity",
]
