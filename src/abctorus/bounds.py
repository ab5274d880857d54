"""Certified inequality checks for the convergence of conjugated rotations.

The iterative construction produces maps T_n = H_n^{-1} . R_{alpha_n} . H_n
whose convergence in an analytic norm hinges on a chain of inequalities
between quantities that grow as iterated exponentials ("towers").  Floating
point cannot even denote most of them, so every check in this module is
carried out on :class:`~abctorus.towers.TowerReal` certificates and must be
*provably* correct before it reports success.  Comparisons of towers are
lexicographic on their normal forms and always decide; the one operation
that can refuse is a sum of towers of comparable depth, whose
:class:`~abctorus.errors.AmbiguousComparison` reaches the caller rather
than being read as a verdict.

The module provides four groups of operations.

Amplitude and grid-size gates
    ``check_amplitude`` re-derives the two lower bounds that the amplitude
    of an entire approximation step must exceed, in a 200-bit context with
    outward rounding, independent of the evaluation code in
    :mod:`abctorus.analytic`.  ``check_q_condition`` tests the growth
    condition ``q_n >= 2 C^2 l_n exp(4 exp(2^(2n+5) l_n^3))`` that the
    rotation denominators must satisfy; C is the window products'
    Lipschitz constant ``DEFAULT_LIP_CONSTANT`` = 6 pi, a constant of the
    construction.

Convergence ledger
    ``convergence_ledger`` takes per-stage data (grid size ``l_n``,
    denominator ``q_n``, analytic widths, a derivative bound) together with
    a certificate for the gap ``|alpha - alpha_n|`` and verifies, link by
    link, the inequalities that force ``d_rho(T_{n+1}, T_n) < 1/2^n``:

    ``L1``  ``l_n > 2^(n+1) ||DH_n||``          (grid beats the derivative)
    ``L2``  ``l_n > exp(2 pi (rho_n + 1))``     (grid beats the strip width)
    ``L3``  the ``q`` growth condition above
    ``L4``  ``|alpha - alpha_n| < exp(-exp(T_n))`` with
            ``T_n = (2^(2n+6) l_n^3 exp(2 pi rho'_n))^{q_n}``

    The width ``rho'_n`` after composing one more block-slide stage is
    bounded by ``rho_prime_bound``.  The first violated link raises
    :class:`~abctorus.errors.LinkFailed` naming the stage and the link; a
    passing run returns a verdict whose audit trail shows every comparison
    in tower notation.  ``ledger_recipe`` generates stage data that passes
    the ledger for any requested number of stages (the deep stages use
    symbolic towers with whole-height margins, which survive the sound
    absorption rules of tower arithmetic), or data whose final gap is
    deliberately undersized.

Liouville-type gap recipes
    ``liouville_generate`` builds a sequence of rational convergents
    ``p_j/q_j`` whose tails decay fast enough that, for every ``k`` up to a
    target, some convergent satisfies ``|alpha - p/q| < exp(-exp(k^q))``.
    The membership form used is the permissive one: a point with an exact
    rational hit (gap 0) qualifies, and the audit notes record this.
    Denominators are literal integers while they fit in 10^4 digits and
    symbolic powers of two ``q = 2^M`` beyond, with ``M`` carried as a
    tower.  ``liouville_verify`` checks one (k, level) claim from the
    stored certificates alone, strictly and soundly (ties report False).

Translation-vector parameters
    ``translation_params`` searches for integer data attached to a
    direction ``gamma_n = (gamma_1, gamma_2)`` on the two-torus —
    numerators ``p_n``, denominators ``q_n``, multipliers ``r_n, s_n,
    m_n`` — satisfying the eight arithmetic and geometric compatibility
    items (1)-(8) that let a translation flow be approximated by periodic
    flows; ``verify_translation_params`` re-checks every item from scratch
    and cites the violated item on failure.  The translation factor is
    two-dimensional: the quotient flow's fundamental domain is a segment
    of length 1/gamma_2 with a two-point boundary, which is what items
    (7)-(8) measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd
from typing import List, Optional, Sequence, Tuple, Union

import mpmath
from mpmath import mp

from .errors import LinkFailed, ParamOutOfRange, SearchExhausted, UnsupportedDimension
from .towers import WORK_PREC, TowerReal, exact_mpf, require_int, require_real, tower_max

Number = Union[int, float, Fraction, TowerReal]

#: Working precision (bits) for the direct numeric checks in this module.
#: Deliberately different from the tower arithmetic precision so that the
#: two evaluation routes stay independent.
CHECK_PREC = 200

#: Lipschitz constant of one window product on a strip, read off the
#: derivative chain for the window products (a plain positive real, not a
#: derived quantity; the analytic layer's strip bounds use the same one).
DEFAULT_LIP_CONSTANT = 6.0 * math.pi

#: A generated Liouville recipe stores literal integer denominators only
#: while they have at most this many decimal digits.
LITERAL_DIGIT_LIMIT = 10**4

# 2 pi to tower precision; a float 2 pi sits 2.45e-16 below it, which
# would pull every upper bound built from it below the true value.
with mp.workprec(WORK_PREC):
    _TWO_PI = TowerReal(0, 2 * mp.pi)


# ---------------------------------------------------------------------------
# Directed numeric helpers (200-bit, outward rounding by a safe margin).
# ---------------------------------------------------------------------------


def _nudge_up(x: mpmath.mpf) -> mpmath.mpf:
    """A value certainly >= the exact quantity x approximates (x >= 0)."""
    return x * (1 + mp.mpf(2) ** (10 - CHECK_PREC))


def _nudge_down(x: mpmath.mpf) -> mpmath.mpf:
    """A value certainly <= the exact quantity x approximates (x >= 0)."""
    return x * (1 - mp.mpf(2) ** (10 - CHECK_PREC))


def _fmt(x) -> str:
    """Compact audit formatting: towers as exp^h(m), rationals as num/den."""
    if isinstance(x, TowerReal):
        if x.height == 0:
            return mpmath.nstr(x.mantissa, 8)
        return f"exp^{x.height}({mpmath.nstr(x.mantissa, 8)})"
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _product(*factors) -> TowerReal:
    """Upper-bound product of positive factors, safe for deep towers.

    Numeric factors (tower height <= 3) are folded first into one exact
    mpf product; deep towers are multiplied in afterwards.  A numeric
    residue <= 1 next to a deep tower has no normal form (its logarithm
    is non-positive), so it is rounded up to 1 and skipped — the result
    then *over*-states the product by less than its reciprocal, which is
    the sound direction for every certificate built in this module
    (thresholds and growth bounds that the checked quantities must beat
    with whole-height margins).  Without deep factors the product is the
    exact directed mpf value, sub-unit factors included.
    """
    numeric: Optional[TowerReal] = None
    deep: List[TowerReal] = []
    for f in factors:
        t = TowerReal.from_number(f)
        if not t.is_positive():
            raise ParamOutOfRange("product factors must be positive")
        if t.height <= 3:
            numeric = t if numeric is None else numeric * t
        else:
            deep.append(t)
    if not deep:
        if numeric is None:
            raise ParamOutOfRange("empty product")
        return numeric
    acc = deep[0]
    for t in deep[1:]:
        acc = acc * t
    if numeric is not None and not (numeric.height == 0 and numeric.mantissa <= 1):
        acc = acc * numeric
    return acc


# ---------------------------------------------------------------------------
# Amplitude gate (independent 200-bit route).
# ---------------------------------------------------------------------------


def check_amplitude(A: Number, l: int, eps, delta) -> bool:
    """True if amplitude A strictly clears both plateau conditions.

    The entire step with l cells, proximity budget eps and error-set budget
    delta needs its amplitude to exceed

        (A1)  -(2l / (pi delta)) * ln(-ln(1 - eps/8))
        (A2)   (2l / (pi delta)) * ln(-ln(eps / (2l)))

    Both right-hand sides are evaluated here from scratch in a 200-bit
    context and rounded *up* before the comparison, so a True answer is a
    certificate; values at or below the rounded thresholds (in particular
    A <= 0) report False.
    """
    if not isinstance(l, int) or l < 2 or l % 2:
        raise ParamOutOfRange(f"cell count l must be an even integer >= 2, got {l}")
    try:
        eps = Fraction(eps)
        delta = Fraction(delta)
    except (TypeError, ValueError, OverflowError):
        raise ParamOutOfRange(
            f"eps and delta must be finite rationals, got {eps!r} and {delta!r}"
        ) from None
    if not (0 < eps < Fraction(1, 8)):
        raise ParamOutOfRange(f"eps must lie in (0, 1/8), got {eps}")
    if not (0 < delta < 1):
        raise ParamOutOfRange(f"delta must lie in (0, 1), got {delta}")
    if isinstance(A, TowerReal):
        if not A.is_positive():
            return False
        if A.height > 3:
            # deeper than any threshold the parameter domain can produce
            return True
        with mp.workprec(CHECK_PREC):
            a_val = A.to_mpf()
    else:
        require_real(A, "amplitude")
        a_val = None
    with mp.workprec(CHECK_PREC):
        if a_val is None:
            a_val = exact_mpf(A)
        if a_val <= 0:
            return False
        e = exact_mpf(eps)
        d = exact_mpf(delta)
        scale = 2 * l / (mp.pi * d)
        t1 = -scale * mp.log(-mp.log1p(-e / 8))
        t2 = scale * mp.log(-mp.log(e / (2 * l)))
        return a_val > _nudge_up(t1) and a_val > _nudge_up(t2)


# ---------------------------------------------------------------------------
# Denominator growth gate.
# ---------------------------------------------------------------------------


def _condq_rhs(l_n: Number, n: int) -> TowerReal:
    """The tower 2 C^2 l_n exp(4 exp(2^(2n+5) l_n^3)), C = DEFAULT_LIP_CONSTANT."""
    l_t = TowerReal.from_number(l_n)
    x = _product(TowerReal.from_pow2(2 * n + 5), l_t ** 3)
    C = DEFAULT_LIP_CONSTANT
    return _product((_product(x.exp(), 4)).exp(), l_t, 2.0 * C * C)


def check_q_condition(q_n: Number, l_n: Number, n: int) -> bool:
    """True if q_n >= 2 C^2 l_n exp(4 exp(2^(2n+5) l_n^3)), C = 6 pi.

    The right-hand side is assembled in tower arithmetic, so the check
    works equally for literal integers and for symbolic towers.
    """
    require_int(n, 1, "stage index")
    q_t = TowerReal.from_number(q_n)
    if not q_t.is_positive():
        raise ParamOutOfRange("denominator certificate must be positive")
    l_t = TowerReal.from_number(l_n)
    if not (l_t.is_positive() and l_t >= 2):
        raise ParamOutOfRange("grid size certificate must be >= 2")
    return q_t >= _condq_rhs(l_n, n)


# ---------------------------------------------------------------------------
# Analytic-width and derivative growth bounds in tower arithmetic.
# ---------------------------------------------------------------------------


def _strip_phase(rho: Number, n_t: TowerReal) -> TowerReal:
    """The phase 2 pi N rho of a strip of width rho >= 0 (0 for rho = 0)."""
    r_t = TowerReal.from_number(rho)
    if r_t.height == 0 and r_t.mantissa == 0:
        return r_t
    if not r_t.is_positive():
        raise ParamOutOfRange("width must be non-negative")
    return _product(r_t, n_t, _TWO_PI)


def sup_increment_bound(A: Number, N: Number, rho: Number) -> TowerReal:
    """Tower bound 2 pi N A exp(2 exp(X) + X + 2 pi N rho), X = A exp(2 pi N rho).

    Majorates the supremum of one entire shear profile with amplitude A and
    frequency multiplier N on the strip |Im z| <= rho.  Unlike the float
    evaluation route, the inputs may be towers of any height.
    """
    a_t = TowerReal.from_number(A)
    n_t = TowerReal.from_number(N)
    for name, t in (("amplitude", a_t), ("frequency", n_t)):
        if not t.is_positive():
            raise ParamOutOfRange(f"{name} must be positive")
    phase = _strip_phase(rho, n_t)
    x = _product(phase.exp(), a_t)
    expo = _product(x.exp(), 2) + x
    if phase.is_positive():
        # a zero summand next to a deep tower has no log-space form
        expo = expo + phase
    return _product(expo.exp(), n_t, a_t, _TWO_PI)


def lip_increment_bound(A: Number, N: Number, l: Number, rho: Number) -> TowerReal:
    """Tower bound C A l N exp(4 exp(X)), X = A exp(2 pi N rho), on the
    strip |Im z| <= rho, with C = DEFAULT_LIP_CONSTANT = 6 pi."""
    a_t = TowerReal.from_number(A)
    n_t = TowerReal.from_number(N)
    l_t = TowerReal.from_number(l)
    for name, t in (("amplitude", a_t), ("frequency", n_t), ("grid size", l_t)):
        if not t.is_positive():
            raise ParamOutOfRange(f"{name} must be positive")
    x = _product(_strip_phase(rho, n_t).exp(), a_t)
    return _product(_product(x.exp(), 4).exp(), a_t, l_t, n_t, DEFAULT_LIP_CONSTANT)


def rho_prime_bound(rho: Number, A1: Number) -> TowerReal:
    """Analytic width after one more conjugation stage.

    A stage built with leading amplitude A1 maps the strip of width rho
    into a strip of width at most

        rho' = rho + 2 pi A1 exp(2 exp(X) + X + 2 pi rho),  X = A1 exp(2 pi rho),

    i.e. rho plus the supremum bound of the leading shear at frequency 1.
    """
    r_t = TowerReal.from_number(rho)
    if not r_t.is_positive():
        raise ParamOutOfRange("width must be positive")
    return r_t + sup_increment_bound(A1, 1, rho)


# ---------------------------------------------------------------------------
# Gap certificates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapBound:
    """Certified upper bound for a gap |alpha - p/q| in [0, 1).

    Exactly one representation is active:

    * ``zero``: the gap is exactly 0 (alpha hits the rational point);
    * ``literal``: an exact rational upper bound in (0, 1);
    * ``neglog``: a tower X certifying gap <= exp(-X).
    """

    zero: bool = False
    literal: Optional[Fraction] = None
    neglog: Optional[TowerReal] = None

    def __post_init__(self):
        forms = int(self.zero) + int(self.literal is not None) + int(self.neglog is not None)
        if forms != 1:
            raise ParamOutOfRange("a gap bound needs exactly one representation")
        if self.literal is not None and not (0 < self.literal < 1):
            raise ParamOutOfRange(f"literal gap bound must lie in (0, 1), got {self.literal}")
        if self.neglog is not None and not self.neglog.is_positive():
            raise ParamOutOfRange("neglog gap certificate must be positive")

    @classmethod
    def from_fraction(cls, f) -> "GapBound":
        f = Fraction(f)
        if f == 0:
            return cls(zero=True)
        return cls(literal=f)

    @classmethod
    def from_neglog(cls, t: TowerReal) -> "GapBound":
        return cls(neglog=TowerReal.from_number(t))

    @classmethod
    def from_number(cls, x) -> "GapBound":
        """Coerce 0, a rational/float bound, a height-0 tower, or a GapBound."""
        if isinstance(x, GapBound):
            return x
        if isinstance(x, TowerReal):
            if x.height != 0 or not (0 <= x.mantissa < 1):
                raise ParamOutOfRange(
                    "a tower used directly as a gap bound must have height 0 "
                    "and mantissa in [0, 1); wrap a tiny gap as "
                    "GapBound.from_neglog(X) meaning gap <= exp(-X)"
                )
            if x.mantissa == 0:
                return cls(zero=True)
            return cls(neglog=x.neglog())
        if isinstance(x, float):
            x = Fraction(x)
        return cls.from_fraction(x)

    def neglog_lower(self) -> Optional[TowerReal]:
        """Certified lower bound of -ln(gap); None means the gap is 0."""
        if self.zero:
            return None
        if self.neglog is not None:
            return self.neglog
        with mp.workprec(CHECK_PREC):
            val = -mp.log(exact_mpf(self.literal))
            return TowerReal(0, _nudge_down(val))

    def below_exp_neg(self, threshold: Number) -> bool:
        """True if the gap is certified < exp(-threshold)."""
        nl = self.neglog_lower()
        if nl is None:
            return True
        return nl > TowerReal.from_number(threshold)

    def describe(self) -> str:
        if self.zero:
            return "0 (exact rational hit)"
        if self.literal is not None:
            return f"<= {_fmt(self.literal)}"
        return f"<= exp(-{_fmt(self.neglog)})"


# ---------------------------------------------------------------------------
# The convergence ledger.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageBounds:
    """Per-stage data entering the convergence ledger.

    Attributes
    ----------
    n : int
        Stage index (>= 1).
    l : int | TowerReal
        Grid size used to build stage n+1.
    q : int | TowerReal
        Rotation denominator at stage n.
    rho : number | TowerReal
        Analytic width certificate for the stage-n conjugation stack.
    dh : number | TowerReal
        Upper bound for the derivative norm of the stack on that strip.
    rho_prime : TowerReal, optional
        Width certificate after composing the next stage; computed from
        ``rho`` and the stage amplitude when omitted.
    """

    n: int
    l: Number
    q: Number
    rho: Number
    dh: Number
    rho_prime: Optional[TowerReal] = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParamOutOfRange(f"stage index must be an integer >= 1, got {self.n}")
        for name, value, low in (("l", self.l, 2), ("q", self.q, 1)):
            t = TowerReal.from_number(value)
            if not t.is_positive() or t < low:
                raise ParamOutOfRange(f"stage {self.n}: {name} must be >= {low}")
        for name, value in (("rho", self.rho), ("dh", self.dh)):
            if not TowerReal.from_number(value).is_positive():
                raise ParamOutOfRange(f"stage {self.n}: {name} must be positive")


@dataclass(frozen=True)
class LedgerVerdict:
    """Successful ledger run: per-stage audit lines and distance bounds."""

    stages: Tuple[int, ...]
    lines: Tuple[str, ...]
    distance_bounds: Tuple[Fraction, ...]

    def audit_text(self) -> str:
        return "\n".join(self.lines)


def _stage_amplitude(n: int, l_t: TowerReal) -> TowerReal:
    """Leading amplitude 2^(2n+5) l^2 of the stage-(n+1) construction."""
    return _product(TowerReal.from_pow2(2 * n + 5), l_t ** 2)


def stage_gap_threshold(stage: StageBounds) -> TowerReal:
    """The tower T_n = (2^(2n+6) l^3 exp(2 pi rho'))^q for one stage.

    The stage's link L4 requires |alpha - alpha_n| < exp(-exp(T_n)).
    """
    l_t = TowerReal.from_number(stage.l)
    rho_p = stage.rho_prime
    if rho_p is None:
        rho_p = rho_prime_bound(stage.rho, _stage_amplitude(stage.n, l_t))
    base = _product(TowerReal.from_pow2(2 * stage.n + 6), l_t ** 3,
                    _product(rho_p, _TWO_PI).exp())
    return base ** TowerReal.from_number(stage.q)


def convergence_ledger(
    stages: Union[StageBounds, Sequence[StageBounds]],
    alpha_gap,
) -> LedgerVerdict:
    """Verify the full inequality chain for a run of stages.

    Parameters
    ----------
    stages : StageBounds or sequence of StageBounds
        Per-stage data with strictly increasing stage indices.
    alpha_gap : GapBound | TowerReal | Fraction | float | int | sequence
        Certificate(s) for |alpha - alpha_n|.  A single certificate is
        applied to every stage (useful for the exact-hit case gap = 0);
        a sequence must match the stages one for one.

    Link L3 uses the Lipschitz constant C = DEFAULT_LIP_CONSTANT.
    Returns a :class:`LedgerVerdict` whose audit trail shows each link in
    tower notation; raises :class:`LinkFailed` naming the first violated
    link.  A passing run certifies d_rho(T_{n+1}, T_n) < 1/2^n for every
    listed stage, hence summable convergence of the stage maps.
    """
    if isinstance(stages, StageBounds):
        stages = [stages]
    stages = list(stages)
    if not stages:
        raise ParamOutOfRange("ledger needs at least one stage")
    for prev, cur in zip(stages, stages[1:]):
        if cur.n <= prev.n:
            raise ParamOutOfRange("stage indices must be strictly increasing")

    if isinstance(alpha_gap, (list, tuple)):
        if len(alpha_gap) != len(stages):
            raise ParamOutOfRange(
                f"got {len(alpha_gap)} gap certificates for {len(stages)} stages"
            )
        gaps = [GapBound.from_number(g) for g in alpha_gap]
    else:
        gaps = [GapBound.from_number(alpha_gap)] * len(stages)

    lines: List[str] = []
    dist: List[Fraction] = []
    for stage, gap in zip(stages, gaps):
        n = stage.n
        l_t = TowerReal.from_number(stage.l)
        q_t = TowerReal.from_number(stage.q)
        dh_t = TowerReal.from_number(stage.dh)
        rho_t = TowerReal.from_number(stage.rho)
        lines.append(f"stage {n}:")

        # L1: grid size beats the accumulated derivative bound
        rhs1 = _product(TowerReal.from_pow2(n + 1), dh_t)
        if not l_t > rhs1:
            raise LinkFailed(n, "L1", f"l={_fmt(l_t)} <= 2^{n+1}*DH={_fmt(rhs1)}")
        lines.append(f"  [L1] l = {_fmt(l_t)} > 2^{n + 1} * DH = {_fmt(rhs1)} : ok")

        # L2: grid size beats the strip width
        rhs2 = _product(rho_t + 1, _TWO_PI).exp()
        if not l_t > rhs2:
            raise LinkFailed(n, "L2", f"l={_fmt(l_t)} <= exp(2pi(rho+1))={_fmt(rhs2)}")
        lines.append(f"  [L2] l = {_fmt(l_t)} > exp(2pi(rho+1)) = {_fmt(rhs2)} : ok")

        # L3: denominator growth
        rhs3 = _condq_rhs(stage.l, n)
        if not q_t >= rhs3:
            raise LinkFailed(n, "L3", f"q={_fmt(q_t)} < {_fmt(rhs3)}")
        lines.append(f"  [L3] q = {_fmt(q_t)} >= 2C^2*l*exp(4e^X) = {_fmt(rhs3)} : ok")

        # L4: the rotation number gap is small enough
        t_n = stage_gap_threshold(stage)
        if not gap.below_exp_neg(t_n.exp()):
            raise LinkFailed(
                n, "L4",
                f"gap {gap.describe()} not certified < exp(-exp(T)), T={_fmt(t_n)}",
            )
        lines.append(
            f"  [L4] |alpha - alpha_{n}| {gap.describe()} < exp(-exp(T)), "
            f"T = {_fmt(t_n)} : ok"
        )
        if gap.zero:
            lines.append(
                "       note: gap certificate is exactly 0; the membership form "
                "used here admits exact rational hits"
            )
        dn = Fraction(1, 2 ** n)
        dist.append(dn)
        lines.append(f"  [=>] d_rho(T_{n + 1}, T_{n}) < {_fmt(dn)}")

    return LedgerVerdict(
        stages=tuple(s.n for s in stages),
        lines=tuple(lines),
        distance_bounds=tuple(dist),
    )


def ledger_recipe(
    stages: int = 5, rho: float = 0.1
) -> Tuple[Tuple[StageBounds, ...], Tuple[GapBound, ...]]:
    """Generate stage data and gap certificates that drive the ledger.

    Stage 1 starts on a strip of width ``rho`` with derivative bound 1; each
    subsequent stage inherits the certified width ``rho'`` and a derivative
    bound grown by the Lipschitz bounds of the three shears of one stage.
    Grid sizes are the smallest even integers clearing links L1/L2 while
    that is numerically possible and whole-height tower margins afterwards;
    denominators exceed the L3 right-hand side by one exponential, and the
    gap certificates exceed the L4 threshold by one more exponential — the
    margins survive the absorption rules of deep tower sums, so the ledger
    can certify every link soundly.
    """
    require_int(stages, 1, "stage count")
    require_real(rho, "initial width")
    if not (0 < rho < 10):
        raise ParamOutOfRange(f"initial width must lie in (0, 10), got {rho}")
    rho_t: TowerReal = TowerReal(0, rho)
    dh_t: TowerReal = TowerReal(0, 1)
    out_stages: List[StageBounds] = []
    out_gaps: List[GapBound] = []
    for n in range(1, stages + 1):
        need = tower_max(_product(TowerReal.from_pow2(n + 1), dh_t),
                         _product(rho_t + 1, _TWO_PI).exp())
        if need.height <= 2 and need.to_float() < 1e6:
            l_n: Number = int(mpmath.floor(need.to_mpf())) + 2
            l_n -= l_n % 2  # even, and still > need since the slack was >= 1
            if not TowerReal.from_number(l_n) > need:
                l_n += 2
        else:
            l_n = need.exp()  # one full height above both lower bounds
        l_t = TowerReal.from_number(l_n)
        q_n = _condq_rhs(l_n, n).exp()
        a1 = _stage_amplitude(n, l_t)
        rho_next = rho_prime_bound(rho_t, a1)
        stage = StageBounds(n=n, l=l_n, q=q_n, rho=rho_t, dh=dh_t, rho_prime=rho_next)
        out_stages.append(stage)
        out_gaps.append(GapBound.from_neglog(stage_gap_threshold(stage).exp().exp()))
        # grow the derivative bound through the three shears of stage n+1
        a2 = a1
        nq = _product(l_t, q_n)
        lip = _product(lip_increment_bound(a1, 1, l_n, rho_t),
                       lip_increment_bound(a2, nq, l_n, rho_t),
                       lip_increment_bound(a1, 1, l_n, rho_t))
        dh_t = _product(dh_t, lip + 1)
        rho_t = rho_next
    return tuple(out_stages), tuple(out_gaps)


# ---------------------------------------------------------------------------
# Liouville-type gap recipes.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LiouvilleLevel:
    """One convergent of a Liouville-type recipe with its tail certificate.

    The denominator is either the literal integer ``q`` or the symbolic
    power of two ``2^q_log2``.  The tail |alpha - p_j/q_j| is certified
    either exactly (``tail``, a rational upper bound, 0 for an exact hit)
    or in log form (``tail_neglog``: tail <= exp(-tail_neglog)).
    """

    index: int
    p: Optional[int]
    q: Optional[int]
    q_log2: Optional[TowerReal] = None
    tail: Optional[Fraction] = None
    tail_neglog: Optional[TowerReal] = None

    def __post_init__(self):
        if self.index < 1:
            raise ParamOutOfRange("level index must be >= 1")
        if (self.q is None) == (self.q_log2 is None):
            raise ParamOutOfRange("exactly one of q / q_log2 must be given")
        if self.q is not None:
            if self.q < 2:
                raise ParamOutOfRange(f"literal denominator must be >= 2, got {self.q}")
            if self.p is None:
                raise ParamOutOfRange("a literal level needs its numerator")
            if gcd(self.p, self.q) != 1:
                raise ParamOutOfRange(
                    f"level {self.index}: gcd({self.p}, {self.q}) != 1"
                )
        if (self.tail is None) == (self.tail_neglog is None):
            raise ParamOutOfRange("exactly one of tail / tail_neglog must be given")
        if self.tail is not None and not (0 <= self.tail < 1):
            raise ParamOutOfRange("literal tail must lie in [0, 1)")
        if self.tail_neglog is not None and not self.tail_neglog.is_positive():
            raise ParamOutOfRange("tail_neglog certificate must be positive")

    def q_value_upper(self) -> TowerReal:
        """A certified upper bound for the denominator as a tower."""
        if self.q is not None:
            with mp.workprec(CHECK_PREC):
                return TowerReal(0, _nudge_up(mp.mpf(self.q)))
        # 2^M <= e^M
        return self.q_log2.exp()

    def q_value_lower(self) -> TowerReal:
        """A certified lower bound for the denominator as a tower."""
        if self.q is not None:
            with mp.workprec(CHECK_PREC):
                return TowerReal(0, _nudge_down(mp.mpf(self.q)))
        if self.q_log2.height <= 3:
            # 2^M >= e^(M/2), computable exactly at numeric heights
            return (self.q_log2 * 0.5).exp()
        # at deep heights the halving would be absorbed; drop one full
        # height instead: 2^M >= M for M >= 1
        return self.q_log2


@dataclass(frozen=True)
class LiouvilleRecipe:
    """A chain of convergents with certified tails, ready for verification."""

    levels: Tuple[LiouvilleLevel, ...]
    note: str = ""

    def __post_init__(self):
        if not self.levels:
            raise ParamOutOfRange("a recipe needs at least one level")
        for j, lv in enumerate(self.levels, start=1):
            if lv.index != j:
                raise ParamOutOfRange("levels must be indexed consecutively from 1")
        for a, b in zip(self.levels, self.levels[1:]):
            if not b.q_value_lower() > a.q_value_upper():
                raise ParamOutOfRange(
                    f"denominators must increase strictly: level {a.index} -> {b.index}"
                )

    def level(self, index: int) -> LiouvilleLevel:
        if not 1 <= index <= len(self.levels):
            raise ParamOutOfRange(
                f"level must lie in 1..{len(self.levels)}, got {index}"
            )
        return self.levels[index - 1]


def _k_power_upper(k: int, q: Optional[int] = None,
                   q_log2: Optional[TowerReal] = None) -> TowerReal:
    """A certified upper bound X >= k^q (k >= 1) as a tower, for a literal
    denominator `q` or a symbolic one q = 2^`q_log2`.

    - Exact, k**q, while (k - 1).bit_length() * q <= 64: k is at most
      2^bit_length(k - 1), so k^q stays within 2^64, and the test needs no
      float for a literal q of any size.
    - Otherwise exp(q * max(1, ln k)), rounded up; for a symbolic q the
      factor q is replaced by e^M >= 2^M.
    - Once e^M is a tower too deep to multiply soundly by ln k, exp(e^M):
      2^M ln k <= e^M for every k below exp((e/2)^M), astronomically
      beyond any honest k.

    `liouville_generate` and `liouville_verify` both call this bound, so
    a generated level is checked against the bound it was built from.
    """
    if q is None:
        e_m = q_log2.exp()  # 2^M <= e^M
        if e_m.height > 3:
            return e_m.exp()
        q = e_m.to_mpf()
    elif (k - 1).bit_length() * q <= 64:
        return TowerReal(0, k**q)
    with mp.workprec(CHECK_PREC):
        lnk = max(mp.mpf(1), _nudge_up(mp.log(k)))
        return TowerReal(0, _nudge_up(mp.mpf(q) * lnk)).exp()


def liouville_verify(recipe: LiouvilleRecipe, k: int, level: int) -> bool:
    """Certify |alpha - p_j/q_j| < exp(-exp(k^(q_j))) for one level.

    Works from the recipe's stored certificates alone, read as a
    :class:`GapBound`.  All roundings are outward (tail up, threshold up)
    and the comparison is strict; comparisons of normal forms always
    decide, so a tie reports False.  A zero tail passes every threshold,
    and is accepted before the threshold is built: the membership form in
    use admits exact rational hits.
    """
    require_int(k, 1, "k")
    lv = recipe.level(level)
    if lv.tail is None:
        gap = GapBound.from_neglog(lv.tail_neglog)
    else:
        gap = GapBound.from_fraction(lv.tail)
    if gap.zero:
        return True
    # threshold: exp(k^q), from an upper bound of k^q
    return gap.below_exp_neg(_k_power_upper(k, lv.q, lv.q_log2).exp())


def liouville_generate(levels: int, k_target: int) -> LiouvilleRecipe:
    """Build a recipe whose level j certifies every k <= k_target.

    Literal regime: denominators follow q_{j+1} = b_j q_j^2 with the
    smallest multiplier b_j making

        q_{j+1} >= 2 exp((1 + 2^-128) exp(k_target^{q_j})),

    and numerators p_{j+1} = b_j q_j p_j + 1 (automatically coprime).  The
    remaining tail alpha - p_j/q_j = sum_{m>j} 1/q_m is at most 2/q_{j+1}
    because the denominators at least double.  Once a denominator would
    exceed 10^4 digits the recipe switches to symbolic levels q = 2^M with

        M_j = exp(exp(exp(X_j))),   X_j >= k_target^{q_j},

    with X_j from `_k_power_upper`, the bound `liouville_verify` uses,
    and stores the tail certificate exp(exp(X_j)), which is a valid lower
    bound for (M_j - 1) ln 2 = -ln(2 / 2^{M_j}) with room to spare.  The
    whole-height margins keep every verification comparison strict at any
    tower depth.
    """
    require_int(levels, 1, "level count")
    require_int(k_target, 1, "k_target")
    out: List[LiouvilleLevel] = []
    p, q = 1, 2
    q_log2: Optional[TowerReal] = None  # set once symbolic
    for j in range(1, levels + 1):
        if q_log2 is None:
            # current level is literal; decide the next denominator
            x = _k_power_upper(k_target, q)
            if x <= 10:
                with mp.workprec(CHECK_PREC):
                    # ln(q_next / 2) clears exp(x) by a relative 2^-128, far
                    # above the verifier's outward rounding
                    need = _nudge_up(2 * mp.exp(mp.exp(x.to_mpf()) * (1 + mp.mpf(2) ** -128)))
                    n_min = int(mpmath.floor(need)) + 1
                b = max(1, -(-n_min // (q * q)))  # ceil division
                q_next = b * q * q
                p_next = b * q * p + 1
                if _decimal_digits(q_next) <= LITERAL_DIGIT_LIMIT:
                    out.append(LiouvilleLevel(
                        index=j, p=p, q=q, tail=Fraction(2, q_next),
                    ))
                    p, q = p_next, q_next
                    continue
            # switch to symbolic: tail of the current literal level
            out.append(LiouvilleLevel(index=j, p=p, q=q, tail_neglog=x.exp().exp()))
        else:
            x = _k_power_upper(k_target, q_log2=q_log2)
            out.append(LiouvilleLevel(
                index=j, p=None, q=None, q_log2=q_log2, tail_neglog=x.exp().exp(),
            ))
        q_log2 = x.exp().exp().exp()
    return LiouvilleRecipe(
        levels=tuple(out),
        note=f"generated for k <= {k_target}; permissive membership form "
             f"(exact rational hits admitted)",
    )


def _decimal_digits(n: int) -> int:
    """Decimal length of a positive int without a str() conversion.

    Avoids the interpreter's int-to-str digit limit; the off-by-one of the
    bit-length estimate near exact powers of ten is irrelevant for a size
    policy.
    """
    return int(n.bit_length() * 0.30102999566398120) + 1


def liouville_from_rational(alpha, denominators: Sequence[int]) -> LiouvilleRecipe:
    """Recipe of best rational approximations to a *rational* alpha.

    The tails are exact |alpha - p_j/q_j|, so this is the canonical
    negative example: away from exact hits the tails only decay like
    1/q_j and deep verification thresholds fail.  (A denominator that hits
    alpha exactly yields a zero tail, which the permissive membership form
    admits; choose denominators avoiding that to build a failing witness.)
    """
    alpha = Fraction(alpha)
    if not (0 <= alpha < 1):
        raise ParamOutOfRange(f"alpha must lie in [0, 1), got {alpha}")
    if not denominators:
        raise ParamOutOfRange("need at least one denominator")
    levels: List[LiouvilleLevel] = []
    for j, q in enumerate(denominators, start=1):
        if not isinstance(q, int) or q < 2:
            raise ParamOutOfRange(f"denominators must be integers >= 2, got {q}")
        p = _nearest_coprime_numerator(alpha, q)
        levels.append(LiouvilleLevel(
            index=j, p=p, q=q, tail=abs(alpha - Fraction(p, q)),
        ))
    return LiouvilleRecipe(
        levels=tuple(levels),
        note=f"exact tails of the rational point {_fmt(alpha)}",
    )


def _nearest_coprime_numerator(alpha: Fraction, q: int) -> int:
    center = round(alpha * q)
    for offset in range(q + 1):
        for cand in (center - offset, center + offset):
            if gcd(cand, q) == 1:
                return cand
    raise SearchExhausted(f"no numerator coprime to {q}")  # unreachable for q >= 2


# ---------------------------------------------------------------------------
# Translation-vector parameters on the two-torus.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TranslationLevel:
    """Integer data of one approximation level for a translation vector.

    ``gamma`` = (gamma_1, gamma_2) is the (primitive) integer direction
    vector; the level's rotation parameter is alpha_n = (p/q) * gamma.
    ``r`` divides the previous level's gamma_2 out of q (absent at level
    1); ``s`` and ``m`` are the multipliers producing the next level
    (absent at the last level).  ``d`` = 1/gamma_2 is the diameter of the
    quotient flow's fundamental domain, a segment with a two-point
    boundary.

    ``l`` is the optional grid multiplier a conjugation builder consumes
    at this level.  When present it divides m (the chain was generated
    with the builder-friendly multiplier, see ``translation_params``);
    chains generated without it carry l = None and remain valid parameter
    sets, but cannot feed the stage-map builder, whose column count
    s * gamma'_2 must divide m * q.
    """

    gamma: Tuple[int, int]
    p: int
    q: int
    r: Optional[int] = None
    s: Optional[int] = None
    m: Optional[int] = None
    l: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.gamma, tuple) or len(self.gamma) != 2:
            raise ParamOutOfRange(f"gamma must be two positive integers, got {self.gamma!r}")
        for g in self.gamma:
            require_int(g, 1, "every component of gamma")
        require_int(self.p, 1, "p")
        require_int(self.q, 1, "q")

    @property
    def alpha(self) -> Tuple[Fraction, ...]:
        return tuple(Fraction(self.p * g, self.q) for g in self.gamma)

    @property
    def d(self) -> Fraction:
        return Fraction(1, self.gamma[1])


@dataclass(frozen=True)
class TranslationParams:
    """A chain of translation-approximation levels."""

    levels: Tuple[TranslationLevel, ...]

    def __post_init__(self):
        if not self.levels:
            raise ParamOutOfRange("need at least one level")
        if not all(isinstance(lv, TranslationLevel) for lv in self.levels):
            raise ParamOutOfRange("every level must be a TranslationLevel")


def verify_translation_params(tp: TranslationParams) -> Tuple[str, ...]:
    """Re-check items (1)-(8) from scratch; returns violation messages.

    An empty tuple means every item holds.  Messages cite the item
    number, the level, and the failing quantity.  Items (7)-(8) use the
    quotient geometry of the two-torus: the fundamental domain is a
    segment of length d = 1/gamma_2 with a two-point boundary, sigma = 2.
    """
    bad: List[str] = []
    levels = tp.levels
    for n, lv in enumerate(levels, start=1):
        if math.gcd(*lv.gamma) != 1:
            bad.append(f"item (1): level {n}: gcd{lv.gamma} != 1")
        if gcd(lv.p, lv.q) != 1:
            bad.append(f"item (2): level {n}: gcd({lv.p}, {lv.q}) != 1")
        if n >= 2:
            prev = levels[n - 2]
            if lv.r is None or lv.q != lv.r * prev.gamma[1]:
                bad.append(
                    f"item (3): level {n}: q = {lv.q} is not r * {prev.gamma[1]}"
                    f" with r = {lv.r}"
                )
    sigma = 2  # boundary points of the fundamental domain
    for n in range(1, len(levels)):
        cur, nxt = levels[n - 1], levels[n]
        s_n, m_n = cur.s, cur.m
        if s_n is None or nxt.gamma[1] != s_n * cur.gamma[1]:
            bad.append(
                f"item (4): level {n}: gamma_2 advance "
                f"{cur.gamma[1]} -> {nxt.gamma[1]} is not by s = {s_n}"
            )
        for i in range(2):
            if (nxt.gamma[i] - cur.gamma[i]) % cur.q != 0:
                bad.append(
                    f"item (5): level {n}: component {i}: "
                    f"{nxt.gamma[i]} != {cur.gamma[i]} mod {cur.q}"
                )
        if m_n is None or s_n is None:
            bad.append(f"item (6): level {n}: missing multiplier s/m")
        else:
            step = Fraction(nxt.p, nxt.q) - Fraction(cur.p, cur.q)
            if step != Fraction(1, m_n * s_n * cur.q * cur.q):
                bad.append(
                    f"item (6): level {n}: p/q step {_fmt(step)} != "
                    f"1/(m s q^2) = 1/{m_n * s_n * cur.q ** 2}"
                )
        if not nxt.d < Fraction(1, 2 ** n * cur.gamma[1] * sigma):
            bad.append(
                f"item (7): level {n}: diameter {nxt.d} not < "
                f"1/(2^{n} gamma_2 sigma)"
            )
        drift = abs(Fraction(nxt.gamma[0], nxt.gamma[1])
                    - Fraction(cur.gamma[0], cur.gamma[1]))
        if not drift < Fraction(1, 2 ** n * sigma * cur.q):
            bad.append(
                f"item (8): level {n}: direction drift {_fmt(drift)} not < "
                f"1/(2^{n} sigma q) = {_fmt(Fraction(1, 2 ** n * sigma * cur.q))}"
            )
    return tuple(bad)


#: How often `translation_params` doubles s (within its congruence class)
#: before it gives up on a level.
MAX_ESCALATIONS = 64


def translation_params(
    h: int = 2,
    levels: int = 3,
    gamma1: Optional[Sequence[int]] = None,
    p1: int = 1,
    q1: int = 2,
    l_base: Optional[int] = None,
) -> TranslationParams:
    """Search integer parameters satisfying items (1)-(8) for `levels` levels.

    The translation factor is two-dimensional: `h` is the factor's
    dimension, and any value but 2 is refused with UnsupportedDimension.
    gamma1 defaults to (1, 6).

    The step n -> n+1 works as follows.  The congruence of item (5) for
    gamma_2 forces s = 1 mod q/gcd(q, gamma_2); item (7) needs s > 2^(n+1)
    and item (8) becomes feasible once s gamma_2 > 2^n q^2, so s starts at
    the smallest admissible value above both.  gamma_1 advances by
    gamma'_1 - gamma_1 = e q with e chosen to round (s-1) gamma_1 / q to
    the nearest integer, which keeps the direction drift of item (8)
    inside its window; if the resulting vector is not primitive (item
    (1)) the rounding is perturbed within the window, and when no
    perturbation works s is escalated (staying in its congruence class).
    The multiplier m = gamma_2 then determines the next level:
    q' = m s q^2, p' = m s q p + 1 (coprime automatically), r' = s q^2.

    `l_base` switches the chain to the builder-friendly multiplier: each
    level stores the grid size l = l_base * s and uses m = gamma_2 * l.
    The multiplier may be chosen freely as long as it grows, so this only
    rescales q'; its point is the divisibility s * gamma'_2 * q | q', which
    lets the stage builder nest the next fine partition inside the level's
    tower columns.  l_base must be even (grid builders need even l).

    Raises SearchExhausted if no admissible vector appears within
    `MAX_ESCALATIONS` escalations of s.
    """
    if h != 2:
        raise UnsupportedDimension(
            f"the translation factor is two-dimensional, got h = {h!r}"
        )
    require_int(levels, 1, "level count")
    if l_base is not None and (not isinstance(l_base, int) or l_base < 2 or l_base % 2):
        raise ParamOutOfRange(f"l_base must be even and >= 2, got {l_base}")
    if gamma1 is None:
        gamma1 = (1, 6)
    if not isinstance(gamma1, (tuple, list)):
        raise ParamOutOfRange(f"gamma1 must be a tuple of integers, got {gamma1!r}")
    chain = [TranslationLevel(gamma=tuple(gamma1), p=p1, q=q1)]
    if math.gcd(*gamma1) != 1:
        raise ParamOutOfRange(f"gamma1 = {tuple(gamma1)} is not primitive")
    if gcd(p1, q1) != 1:
        raise ParamOutOfRange(f"p1/q1 = {p1}/{q1} is not reduced")

    for n in range(1, levels):
        cur = chain[-1]
        gamma, p, q = cur.gamma, cur.p, cur.q
        g2 = gamma[1]
        mod = q // gcd(q, g2)
        s = _next_in_class(max(2 ** (n + 1), 2 ** n * q * q // g2) + 1, mod)
        for _ in range(MAX_ESCALATIONS):
            gamma_next = _advance_gamma(gamma, q, s, n)
            if gamma_next is not None:
                break
            s = _next_in_class(2 * s, mod)
        else:
            raise SearchExhausted(
                f"level {n}: no primitive advance of gamma within the "
                f"item-(8) window after {MAX_ESCALATIONS} escalations of s "
                f"(items (1)/(8))"
            )
        l_n = None if l_base is None else l_base * s
        m = g2 if l_n is None else g2 * l_n
        q_next = m * s * q * q
        chain[-1] = replace(cur, s=s, m=m, l=l_n)
        chain.append(TranslationLevel(gamma=gamma_next, p=m * s * q * p + 1,
                                      q=q_next, r=q_next // g2))
    tp = TranslationParams(levels=tuple(chain))
    bad = verify_translation_params(tp)
    if bad:  # pragma: no cover - the search only commits verified data
        raise SearchExhausted("; ".join(bad))
    return tp


def _next_in_class(lower: int, mod: int) -> int:
    """Smallest integer >= lower congruent to 1 mod `mod` (mod >= 1)."""
    if mod <= 1:
        return max(lower, 2)
    k = -(-(lower - 1) // mod)  # ceil((lower-1)/mod)
    return 1 + mod * max(k, 1)


def _advance_gamma(gamma: Tuple[int, int], q: int, s: int,
                   n: int) -> Optional[Tuple[int, int]]:
    """The next direction (gamma_1 + e q, s gamma_2) for multiplier s, or
    None if no primitive choice fits the item-(8) drift window."""
    g1, g2 = gamma
    center = (s - 1) * g1
    base = round(center / q)
    # item (8): the drift |gamma'_1/gamma'_2 - gamma_1/gamma_2| is
    # |e q - (s-1) gamma_1| / (s gamma_2), so the window
    # |e q - (s-1) gamma_1| 2^(n+1) q < s gamma_2 is item (8) itself
    window = s * g2
    offsets = [0]
    spread = 1
    while spread * q * 2 ** (n + 1) * q < window:
        offsets.extend((spread, -spread))
        spread += 1
    for off in offsets:
        e = base + off
        if abs(e * q - center) * 2 ** (n + 1) * q >= window:
            continue
        cand = (g1 + e * q, s * g2)
        if cand[0] >= 1 and math.gcd(*cand) == 1:
            return cand
    return None


__all__ = [
    "CHECK_PREC",
    "DEFAULT_LIP_CONSTANT",
    "LITERAL_DIGIT_LIMIT",
    "GapBound",
    "LedgerVerdict",
    "LiouvilleLevel",
    "LiouvilleRecipe",
    "StageBounds",
    "TranslationLevel",
    "TranslationParams",
    "check_amplitude",
    "check_q_condition",
    "convergence_ledger",
    "ledger_recipe",
    "lip_increment_bound",
    "liouville_from_rational",
    "liouville_generate",
    "liouville_verify",
    "rho_prime_bound",
    "stage_gap_threshold",
    "sup_increment_bound",
    "translation_params",
    "verify_translation_params",
]
