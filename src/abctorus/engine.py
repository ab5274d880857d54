"""Finite-stage assembly of conjugated-rotation torus maps.

The maps under study have the form

    T_n = H_n^{-1} o phi^{alpha_n} o H_n,        H_n = h_n o H_{n-1},

where phi^t rotates the first coordinate by t and each conjugation h_m is
an exact map (any `Conjugation`: a block-slide map, the closed-form
tower map of the translation stages or the O(1) minimality evaluator)
together with an entire approximation.  Because h_m
commutes with phi^{alpha_{m-1}} and alpha advances by

    p_{n+1} = s_n k_n l_n q_n p_n + 1,       q_{n+1} = s_n k_n l_n q_n^2,

(equivalently alpha_{n+1} = alpha_n + 1/(s_n k_n l_n q_n^2)), the stage
maps form a telescoping family: T_n permutes the pulled-back partition
F_{q_n} = H_n^{-1} T_{q_n} cyclically with step p_n.  Everything here is
finite and verifiable — the exact model in rational arithmetic and the
analytic model up to the collar sets of its entire steps.

Stage schedules pair eps_n = 1/(3*2^{n+1}) and delta_n = 1/2^{n+1} with
the amplitude 2^{2n+5} l_n^2 (`analytic.stage_epsilon`, `stage_delta` and
`stage_amplitude`).
Parameters are deliberately toy-sized: the inequalities that force the
true construction's astronomically large l_n, q_n live in the symbolic
ledger (bounds module), not here.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Protocol, Sequence, Tuple

import numpy as np

from .analytic import (
    AnalyticBlockSlide,
    AnalyticMove,
    EntireStep,
    approximate_blockslide,
    stage_amplitude,
    stage_delta,
    stage_epsilon,
    step_to_plateau,
)
from .bounds import TranslationParams
from .errors import InvalidIndexFunction, ParamOutOfRange, UnsupportedDimension
from .exact.blockslide import BlockSlideMap, BlockSlideMove
from .exact.builders import (
    TowerConjugation,
    build_grid_refine,
    build_minimal_combinatorics,
)
from .exact.oracle import _GRID_POINT_BUDGET, misplaced_boxes
from .exact.partitions import PartitionSpec
from .exact.points import TorusPoint, from_lattice, mod1, to_lattice
from .minimal import minimal_stage
from .towers import require_int

ROTATION_POWER_CAP = 10**3  # |power| <= q_n * this in eval_stage_map


# ---------------------------------------------------------------------------
# Stage parameters.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbCParams:
    """Stage-n parameter record.

    n >= 1 is the stage index, p/q the rotation number alpha_n (always in
    lowest terms), k, l, s the stage multipliers feeding the recursion,
    and a the tower index function {0..k-1} -> {0..q-1} of the stage's
    column combinatorics (identically zero when the scenario does not
    rearrange columns). The proximity budget eps is not a setting: it is
    the stage schedule's eps_n = 1/(3 * 2^(n+1)), read off n.
    """

    n: int
    p: int
    q: int
    k: int
    l: int
    s: int
    a: Tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "a", tuple(self.a))
        except TypeError:
            raise ParamOutOfRange(f"index function must be a sequence, got {self.a!r}") from None
        require_int(self.n, 1, "stage index n")
        require_int(self.p, 0, "numerator p")
        require_int(self.q, 1, "denominator q")
        for name, v in (("k", self.k), ("l", self.l), ("s", self.s)):
            require_int(v, 1, name)
        if gcd(self.p, self.q) != 1:
            raise ParamOutOfRange(
                f"p and q must be coprime, got gcd({self.p}, {self.q}) = "
                f"{gcd(self.p, self.q)}"
            )
        if self.l % 2:
            raise ParamOutOfRange(f"l must be even, got {self.l}")
        if len(self.a) != self.k:
            raise ParamOutOfRange(
                f"index function must have k={self.k} entries, got {len(self.a)}"
            )
        for v in self.a:
            require_int(v, 0, "index function value")
            if v >= self.q:
                raise ParamOutOfRange(
                    f"index function values must lie in [0, {self.q}), got {v}"
                )

    @property
    def eps(self) -> Fraction:
        return stage_epsilon(self.n)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.p, self.q)


def advance_params(params: AbCParams) -> AbCParams:
    """Next-stage record under p' = s k l q p + 1, q' = s k l q^2.

    k, l and s carry over from the input record, and the next index
    function starts at zero (a stage builder fills it in).  The new
    rotation number is alpha + 1/(s k l q^2) exactly, automatically in
    lowest terms since p' = 1 mod every prime factor of q'.
    """
    k, l, s = params.k, params.l, params.s
    step = s * k * l * params.q
    return AbCParams(n=params.n + 1, p=step * params.p + 1, q=step * params.q,
                     k=k, l=l, s=s, a=(0,) * k)


def circle_params(q0: int = 3, l: int = 4) -> AbCParams:
    """Starting record 1/q0 of the two-torus circle-factor scenario: k is
    coupled to l, s = 1 and the column combinatorics are trivial."""
    require_int(l, 1, "l")
    return AbCParams(n=1, p=1, q=q0, k=l, l=l, s=1, a=(0,) * l)


def meets_strict_epsilon(params: AbCParams) -> bool:
    """Whether eps_n < 2^{-q_n}, the strict smallness regime.

    With eps = a/b the test is b > a 2^q. Bit lengths decide it unless
    b and a 2^q have the same length, d = 0 below; only then are the two
    compared, and a 2^q is then no larger than b.
    """
    a, b = params.eps.numerator, params.eps.denominator
    d = b.bit_length() - a.bit_length() - params.q
    return d > 0 or (d == 0 and b > a << params.q)


# ---------------------------------------------------------------------------
# Stage maps.
# ---------------------------------------------------------------------------


class Conjugation(Protocol):
    """An exact stage conjugation h_n: a rigid permutation of lattice
    boxes of the 2-torus that commutes with the previous rotation.

    Implemented by `BlockSlideMap`, by the translation-stage tower
    conjugation `TowerConjugation` and by the minimality-stage
    conjugation `MinimalConjugation`. All are one kind of integer
    program (`exact.blockslide._Program`) at a modulus M, a multiple of
    `denominator_lcm()`, whose one entry point on Python ints is
    `on_lattice(ys, M)`: the program run in place on one point's
    numerators. `__call__` is "to ints, `on_lattice`, back to a
    `TorusPoint`", the verifiers carry their samples through
    `on_lattice` from draw to atom index, and `compiled(M)` (a
    `CompiledMap`) runs the same program on int64 arrays, which is what
    the lattice oracle walks. The engine needs nothing else of a
    conjugation.

    Rigidity is also what makes the programs cheap. A map that
    translates every box of a lattice rigidly onto a box moves each
    point by the displacement of its box's corner, so one lookup of the
    box k = x1 // pitch1 % cols * rows + x2 // pitch2 % rows in a table
    of signed per-box offsets replaces it, a table that may repeat along
    an axis. `MinimalConjugation` runs its involution as one such table
    on the l^2 x l r class grid, repeating with period 1/(l q) along x1;
    `TowerConjugation` runs its three refinement shears as moves and its
    column permutation as one table on the kq x 1 column grid, never
    building its 34,688-move block-slide realization unless its `moves`
    are read; and a `BlockSlideMap` runs each run of moves whose joint
    lattice has at most 2^16 boxes as one. `move_count()` counts a
    `BlockSlideMap`'s moves and the other two's program ops.
    """

    def __call__(self, x: TorusPoint) -> TorusPoint: ...

    def on_lattice(self, ys: List[int], M: int) -> Tuple[List[int], int]:
        """The integer rule in place on the numerators ys (Python ints in
        [0, M)) of one point ys/M, M a multiple of `denominator_lcm()`;
        returns (ys, M)."""
        ...

    def inverse(self) -> "Conjugation": ...

    def commutes_with_rotation(self, q: int) -> bool:
        """Whether h commutes with the rotation by 1/q of the first
        coordinate, read off the map's structure."""
        ...

    def box_grid(self) -> Tuple[int, int]:
        """(cols, rows): pitches 1/cols on x1 and 1/rows on x2 of a box
        lattice that h translates rigidly, box onto box."""
        ...

    def denominator_lcm(self) -> int:
        """The modulus L of the integer rule: h maps the 1/L lattice
        onto itself."""
        ...

    def move_count(self) -> int:
        """The moves the integer rule runs per point, the unit of the
        lattice oracle's work budget."""
        ...

    def compiled(self, M: int):
        """The integer rule at modulus M (a multiple of L, below 2^62)
        as an object whose `apply` maps a (2, n) int64 array of
        lattice points j/M to their images."""
        ...


@dataclass(frozen=True)
class StageIncrement:
    """One built conjugation plus the parameter advance it entails.

    exact is the stage conjugation in the exact model (a block-slide map,
    the translation stage's `TowerConjugation`, or the minimality-stage
    conjugation).  analytic may be None for
    stages whose entire counterpart was not built (oversized
    realizations); exact-model workflows are unaffected.
    """

    scenario: str
    params_before: AbCParams
    params_after: AbCParams
    exact: Conjugation
    analytic: Optional[AnalyticBlockSlide]


@dataclass(frozen=True)
class StageMaps:
    """Immutable stack of built stages.

    records[0] is the initial parameter record; records[m] the record
    after m advances (so records[m].alpha is the rotation number of the
    stage-m map T_m).  conjugations_*[m-1] hold h_m in both models.
    """

    scenario: str
    records: Tuple[AbCParams, ...]
    conjugations_exact: Tuple[Conjugation, ...]
    conjugations_analytic: Tuple[Optional[AnalyticBlockSlide], ...]

    @staticmethod
    def start(scenario: str, params: AbCParams) -> "StageMaps":
        """An empty stack on the 2-torus, headed by `params`."""
        return StageMaps(scenario, (params,), (), ())

    @property
    def stage_count(self) -> int:
        return len(self.conjugations_exact)

    def extend(self, inc: StageIncrement) -> "StageMaps":
        head = self.records[-1]
        records = self.records
        if inc.params_before != head:
            # stage builders may fill in the head's column combinatorics
            # (the index function a) while constructing the conjugation;
            # accept the refreshed head as long as nothing else changed
            if replace(head, a=inc.params_before.a) != inc.params_before:
                raise ParamOutOfRange(
                    "increment was built from a different parameter record "
                    "than the current head of this stack"
                )
            records = records[:-1] + (inc.params_before,)
        return StageMaps(
            scenario=self.scenario,
            records=records + (inc.params_after,),
            conjugations_exact=self.conjugations_exact + (inc.exact,),
            conjugations_analytic=self.conjugations_analytic + (inc.analytic,),
        )

    def _check_stage(self, stage: int) -> int:
        if not (isinstance(stage, int) and 1 <= stage <= self.stage_count):
            raise ParamOutOfRange(
                f"stage must be an integer in 1..{self.stage_count}, got {stage!r}"
            )
        return stage

    def _analytic(self, stage: int) -> AnalyticBlockSlide:
        """h_stage in the analytic model; refused for stages built
        without one."""
        h = self.conjugations_analytic[self._check_stage(stage) - 1]
        if h is None:
            raise ParamOutOfRange(
                f"stage {stage} carries no analytic conjugation; only the "
                "exact model is available"
            )
        return h

    def _apply(self, conjugations, x, stage: int, inverse: bool, step):
        """Run x through h_1, ..., h_stage of one model (or through their
        inverses in reverse order), advancing it with step(h, x)."""
        hs = conjugations[:self._check_stage(stage)]
        if any(h is None for h in hs):
            raise ParamOutOfRange(
                f"a stage in 1..{stage} carries no analytic conjugation; "
                "only the exact model is available for this stack"
            )
        if inverse:
            hs = [h.inverse() for h in reversed(hs)]
        for h in hs:
            x = step(h, x)
        return x

    def _lattice_lcm(self, stage: int) -> int:
        """The lcm of h_1, ..., h_stage's exact `denominator_lcm()`: the
        smallest modulus at which the exact H_stage runs."""
        return lcm(*(h.denominator_lcm() for h in self.conjugations_exact[:stage]))

    def apply_exact(self, x: TorusPoint, stage: int) -> TorusPoint:
        """H_stage on an exact point, through `apply_lattice` over M = lcm
        of the point's denominators and the stack's `_lattice_lcm`."""
        ys, M = to_lattice(x, self._lattice_lcm(self._check_stage(stage)))
        return from_lattice(*self.apply_lattice(ys, M, stage))

    def apply_analytic(
        self, pts: np.ndarray, stage: int, inverse: bool = False
    ) -> np.ndarray:
        """H_stage (or its inverse) on a (2, n) float array."""
        return self._apply(self.conjugations_analytic, pts, stage, inverse,
                           lambda h, y: h.transform(y))

    def apply_analytic_rational(self, coords: Sequence, stage: int) -> Tuple[Fraction, ...]:
        """H_stage through the exact-rational analytic path (entire-step
        values frozen to their float rationals), through `apply_lattice`
        over the lcm of the point's denominators."""
        ys, D = to_lattice(coords)
        return from_lattice(*self.apply_lattice(ys, D, stage, "analytic")).coords

    def apply_lattice(
        self, ys: List[int], M: int, stage: int, model: str = "exact", inverse: bool = False
    ) -> Tuple[List[int], int]:
        """H_stage (or its inverse) in place on the numerators ys of one
        lattice point ys/M, through each conjugation's `on_lattice`;
        returns (ys, M). The exact model keeps M, which must be a multiple
        of every exact h_m's `denominator_lcm()`; the analytic model runs
        the rational analytic path, which may grow M by the denominators
        of its step values."""
        if model == "exact":
            hs = self.conjugations_exact
        elif model == "analytic":
            hs = self.conjugations_analytic
        else:
            raise ParamOutOfRange(f"model must be 'exact' or 'analytic', got {model!r}")
        return self._apply(hs, (ys, M), stage, inverse, lambda h, y: h.on_lattice(*y))


# ---------------------------------------------------------------------------
# Circle-factor scenario.
# ---------------------------------------------------------------------------


def build_stage_circle(params: AbCParams) -> StageIncrement:
    """One stage of the two-torus circle-factor scenario.

    The conjugation is the grid refinement: three shears

        h_1(x) = (x_1 + psi_1(x_2), x_2)
        h_2(x) = (x_1, x_2 + psi_2(x_1))
        h_3(x) = (x_1 - psi_3(x_2), x_2)

    applied in that order, with plateau profiles

        beta^(1) = (0, (l-1)/(l^2 q), ..., 1/(l^2 q)),      N = 1
        beta^(2) = (0, 1/l, ..., (l-1)/l),                  N = l q
        beta^(3) = (0, 1/(l^2 q), ..., (l-1)/(l^2 q)),      N = 1

    read off the exact step functions.  The analytic counterparts use
    the amplitude 2^{2n+5} l^2 of the stage schedule and split its budget
    (eps_n, delta_n) as `approximate_blockslide` does for three shears:
    each step gets (eps_n/4, delta_n/4), so the summed collar measure
    3 delta_n/4 stays below delta_n.  All three commute with phi^{alpha}
    for every alpha with denominator q because their x_1-sourced profile
    has period 1/(l q).
    """
    n, l, q = params.n, params.l, params.q
    if params.k != params.l:
        raise ParamOutOfRange(
            f"the circle scenario couples k to l, got k={params.k}, l={params.l}"
        )
    eps, delta = stage_epsilon(n), stage_delta(n)
    A = stage_amplitude(n, l)  # refuses an l below 4 (the amplitude lemma)

    exact = build_grid_refine(l, q)
    moves = []
    for mv in exact.moves:
        beta, N, cells = step_to_plateau(mv.step)
        if cells != l:
            raise ParamOutOfRange(
                f"refinement profile has {cells} cells, expected l={l}"
            )
        estep = EntireStep(tuple(float(b) for b in beta), N, eps / 4, delta / 4, A)
        moves.append(AnalyticMove(mv.target, mv.source, mv.sign, estep))
    analytic = AnalyticBlockSlide(moves=tuple(moves), exact=exact, eps=eps, delta=delta)
    return StageIncrement(
        scenario="circle",
        params_before=params,
        params_after=advance_params(params),
        exact=exact,
        analytic=analytic,
    )


def run_circle_scenario(stages: int, q0: int = 3, l: int = 4) -> StageMaps:
    """Build the circle-factor scenario for the given number of stages."""
    require_int(stages, 1, "stage count")
    maps = StageMaps.start("circle", circle_params(q0=q0, l=l))
    for _ in range(stages):
        maps = maps.extend(build_stage_circle(maps.records[-1]))
    return maps


# ---------------------------------------------------------------------------
# Translation-factor scenario.
# ---------------------------------------------------------------------------

# move-count cap under which a stage builder builds the entire
# approximation of a stage conjugation (the realizations grow quickly;
# oversized stages keep analytic=None and stay exact-only)
AUTO_ANALYTIC_MOVE_CAP = 4096


def _capped_analytic(realization: BlockSlideMap, n: int) -> Optional[AnalyticBlockSlide]:
    """The stage-n entire approximation of a block-slide realization, or
    None when the realization has more than AUTO_ANALYTIC_MOVE_CAP moves."""
    if len(realization.moves) > AUTO_ANALYTIC_MOVE_CAP:
        return None
    return approximate_blockslide(realization, stage_epsilon(n), stage_delta(n))


def translation_index_function(
    gamma: Sequence[int], gamma_next: Sequence[int], k: int, q: int
) -> Tuple[int, ...]:
    """Index function a of a translation-scenario conjugation.

    a[i] = -o(i) mod q with o(c) = floor(q * tau(P_c)), where
    P_c = (c/(k q)) * gamma_next mod 1 walks the next-stage translation
    direction across the k q tower columns and tau is the flow-time
    coordinate of the current direction gamma: tau(y) = (y2 + j)/gamma2
    for the one j in [0, gamma2) with y1 - (y2 + j) gamma1/gamma2 mod 1
    in [0, 1/gamma2), so that y is the flow for time tau of a point of
    the section [0, 1/gamma2) x {0}, and tau(y + t gamma) = tau(y) + t
    mod 1.  The congruence gamma_next = gamma mod q makes o advance by
    exactly 1 mod q between the same column of consecutive 1/q-blocks,
    so each residue class meets every index exactly once; both facts are
    checked before the function returns.

    All in integers over N = k q: with Y = c gamma_next mod N, P_c = Y/N,
    and the window condition reads (R - j N gamma1) mod N gamma2 < N for
    R = (Y1 gamma2 - Y2 gamma1) mod N gamma2, which holds exactly for
    j = (R // N) gamma1^-1 mod gamma2.  Then o(c) = q (Y2 + j N) // (N
    gamma2), O(1) per column.

    One-dimensional factors have tau(y) = y, hence o(c) = c // k and a
    identically zero (the circle scenario's trivial combinatorics).
    """
    gamma = tuple(int(g) for g in gamma)
    gamma_next = tuple(int(g) for g in gamma_next)
    if k < 1 or q < 1:
        raise ParamOutOfRange(f"need k >= 1 and q >= 1, got k={k}, q={q}")
    if len(gamma_next) != len(gamma):
        raise ParamOutOfRange(
            f"direction lengths differ: {len(gamma)} vs {len(gamma_next)}"
        )
    if len(gamma) == 1:
        return (0,) * k
    if len(gamma) != 2:
        raise UnsupportedDimension(
            f"index functions are implemented for 1- and 2-dimensional "
            f"translation factors, got h={len(gamma)}"
        )
    for g in (gamma, gamma_next):
        if g[1] < 1 or g[0] < 1 or gcd(g[0], g[1]) != 1:
            raise ParamOutOfRange(f"direction {g} must be positive and primitive")
    if any((gn - g) % q for gn, g in zip(gamma_next, gamma)):
        raise InvalidIndexFunction(
            f"the congruence gamma' = gamma mod q fails: {gamma_next} vs "
            f"{gamma} mod {q}"
        )
    (g1, g2), (h1, h2), N = gamma, gamma_next, k * q
    g1_inv = pow(g1, -1, g2)
    o = []
    for c in range(N):
        y1, y2 = c * h1 % N, c * h2 % N
        j = (y1 * g2 - y2 * g1) % (N * g2) // N * g1_inv % g2
        o.append(q * (y2 + j * N) // (N * g2))
    for i in range(k):
        vals = [o[i + a * k] for a in range(q)]
        if sorted(vals) != list(range(q)) or any(
            v != (vals[0] + a) % q for a, v in enumerate(vals)
        ):
            raise InvalidIndexFunction(
                f"column class {i} does not meet every index exactly once: {vals}"
            )
    return tuple((-o[i]) % q for i in range(k))


def _chain_k(chain: TranslationParams, i: int) -> int:
    """k of the stage built from chain level i: l for a one-dimensional
    factor, s * gamma'_2 for a two-dimensional one, with gamma' the next
    level's direction."""
    lv = chain.levels[i]
    if chain.h == 1:
        return lv.l
    if chain.h != 2:
        raise UnsupportedDimension(
            f"stage maps are implemented for 1- and 2-dimensional "
            f"translation factors, got h={chain.h}"
        )
    return lv.s * chain.levels[i + 1].gamma[-1]


def build_stage_translation(params: AbCParams, chain: TranslationParams) -> StageIncrement:
    """One stage of the translation-factor scenario along a parameter chain.

    The record must match a non-final chain level by (p, q), and the
    chain must have been generated with a grid multiplier (l_base) so
    every level carries the l its conjugation consumes.  For a
    two-dimensional factor the stage couples k = s * gamma'_2, computes
    the index function from the flow-time coordinate, and takes as the
    exact conjugation the closed-form tower map `TowerConjugation(a, k,
    l, q)`, a program of 4 ops; the advance is the chain's own
    (q' = m s q^2), whose ratio q'/(k q) = l q is integral by
    construction.  One-dimensional factors delegate to the circle
    scenario (k = l, trivial index function) and re-check that the
    chain's advance coincides with the circle advance.

    The entire approximation is built from the block-slide realization
    (`build_abc_conjugation`), and only when it stays within
    AUTO_ANALYTIC_MOVE_CAP moves. The realization is not even built
    when its `realization_floor()` lower bound exceeds the cap; such
    stages carry analytic=None and stay exact-only.
    """
    idx = next(
        (
            i
            for i in range(len(chain.levels) - 1)
            if chain.levels[i].p == params.p and chain.levels[i].q == params.q
        ),
        None,
    )
    if idx is None:
        raise ParamOutOfRange(
            f"record alpha = {params.p}/{params.q} does not match any "
            "non-final level of the chain"
        )
    lv, nxt = chain.levels[idx], chain.levels[idx + 1]
    if lv.l is None:
        raise ParamOutOfRange(
            "chain level carries no grid multiplier; generate the chain "
            "with l_base set to feed the stage builder"
        )
    k = _chain_k(chain, idx)
    if chain.h == 1:
        if params.k != k or params.l != lv.l or params.s != lv.s:
            raise ParamOutOfRange(
                f"one-dimensional factors couple k = l = {lv.l}, s = {lv.s}; "
                f"got k={params.k}, l={params.l}, s={params.s}"
            )
        inc = build_stage_circle(params)
        if (inc.params_after.p, inc.params_after.q) != (nxt.p, nxt.q):
            raise ParamOutOfRange(
                f"chain advance ({nxt.p}, {nxt.q}) does not match the circle "
                f"advance ({inc.params_after.p}, {inc.params_after.q})"
            )
        return StageIncrement(
            scenario="translation",
            params_before=inc.params_before,
            params_after=inc.params_after,
            exact=inc.exact,
            analytic=inc.analytic,
        )
    n, q = params.n, params.q
    l, s = lv.l, lv.s
    if params.k != k or params.l != l or params.s != s:
        raise ParamOutOfRange(
            f"record multipliers (k={params.k}, l={params.l}, s={params.s}) "
            f"do not match the chain level (k={k}, l={l}, s={s})"
        )
    ratio, rem = divmod(nxt.q, k * q)
    if rem:
        raise ParamOutOfRange(
            f"k q = {k * q} does not divide the next denominator {nxt.q}"
        )
    # the multipliers carried forward are the next level's own when the
    # chain still prescribes them (so the following build can re-check
    # its record against the chain); the terminal record keeps this
    # stage's multipliers as information only
    if idx + 2 < len(chain.levels) and nxt.l is not None:
        k_fwd = _chain_k(chain, idx + 1)
        l_fwd, s_fwd = nxt.l, nxt.s
    else:
        k_fwd, l_fwd, s_fwd = k, l, s
    if k_fwd > _GRID_POINT_BUDGET:
        raise ParamOutOfRange(
            f"the next record's index function has k = {k_fwd} entries, beyond "
            f"the budget of {_GRID_POINT_BUDGET}"
        )
    a = translation_index_function(lv.gamma, nxt.gamma, k, q)
    before = replace(params, a=a)
    exact = TowerConjugation(a, k, l, q)
    after = AbCParams(n=n + 1, p=nxt.p, q=nxt.q, k=k_fwd, l=l_fwd, s=s_fwd,
                      a=(0,) * k_fwd)
    return StageIncrement(
        scenario="translation",
        params_before=before,
        params_after=after,
        exact=exact,
        analytic=(_capped_analytic(BlockSlideMap(exact.moves), n)
                  if exact.realization_floor() <= AUTO_ANALYTIC_MOVE_CAP else None),
    )


def run_translation_scenario(
    chain: TranslationParams, stages: Optional[int] = None
) -> StageMaps:
    """Build the translation-factor scenario along a parameter chain.

    stages defaults to every buildable level (len(levels) - 1); the
    chain must carry grid multipliers (l_base).
    """
    if not isinstance(chain, TranslationParams):
        raise ParamOutOfRange(f"chain must be a TranslationParams, got {chain!r}")
    max_stages = len(chain.levels) - 1
    stages = max_stages if stages is None else stages
    require_int(stages, 1, "stage count")
    if stages > max_stages:
        raise ParamOutOfRange(f"stages must be in 1..{max_stages}, got {stages}")
    lv1 = chain.levels[0]
    if lv1.l is None:
        raise ParamOutOfRange(
            "chain carries no grid multipliers; generate it with l_base set"
        )
    k1 = _chain_k(chain, 0)
    start = AbCParams(n=1, p=lv1.p, q=lv1.q, k=k1, l=lv1.l, s=lv1.s, a=(0,) * k1)
    maps = StageMaps.start("translation", start)
    for _ in range(stages):
        maps = maps.extend(build_stage_translation(maps.records[-1], chain))
    return maps


# ---------------------------------------------------------------------------
# Minimality scenario.
# ---------------------------------------------------------------------------


def build_stage_minimal(params: AbCParams, r: int) -> StageIncrement:
    """One stage of the minimality scenario: k couples to l^2 and the
    conjugation composes the trapping shear with the stripe-squeezing
    involution (see the minimal module).

    The exact model is the O(1) evaluator; the entire approximation is
    built from the block-slide realization, which grows quickly with l —
    it is attempted only for l <= 4 (larger realizations are not even
    assembled) and kept only within AUTO_ANALYTIC_MOVE_CAP moves.  The
    advance is the generic one with k = l^2, i.e. q' = s l^3 q^2.
    """
    n, l, q = params.n, params.l, params.q
    if params.k != l * l:
        raise ParamOutOfRange(
            f"the minimality scenario couples k to l^2, got k={params.k}, l={l}"
        )
    stage = minimal_stage(n, l, q, r)
    exact = stage.conjugation()
    built_analytic = None
    if l <= 4:
        shear = BlockSlideMap((BlockSlideMove(1, 0, 1, stage.kappa),))
        realization = build_minimal_combinatorics(l, q, r).then(shear)
        built_analytic = _capped_analytic(realization, n)
    return StageIncrement(
        scenario="minimal",
        params_before=params,
        params_after=advance_params(params),
        exact=exact,
        analytic=built_analytic,
    )


def run_minimal_scenario(n: int, l: int, q: int, r: int, stages: int = 1) -> StageMaps:
    """Build the minimality scenario at a prescribed toy scale.

    n sets the staircase sharpness (n^2 micro-steps per column), l the
    grid multiplier, 1/q the starting rotation number (s = 1), r the
    number of ergodic-limit bands.  The stage index starts at n directly
    — the scenario is studied one stage at a time at a chosen sharpness,
    not accumulated from stage 1.
    """
    require_int(stages, 1, "stage count")
    require_int(l, 1, "grid multiplier l")
    start = AbCParams(n=n, p=1, q=q, k=l * l, l=l, s=1, a=(0,) * (l * l))
    maps = StageMaps.start("minimal", start)
    for _ in range(stages):
        maps = maps.extend(build_stage_minimal(maps.records[-1], r))
    return maps


# ---------------------------------------------------------------------------
# Stage-map evaluation.
# ---------------------------------------------------------------------------


def eval_stage_map(
    maps: StageMaps,
    x,
    model: str = "exact",
    power: int = 1,
    stage: Optional[int] = None,
):
    """T_stage^power(x) — conjugate, rotate by power*alpha, unconjugate.

    The exact model takes and returns TorusPoint (rational); the
    analytic model takes a coordinate sequence or (2, n) array of
    floats and returns the matching shape; the rational model runs the
    exact-rational analytic path on a coordinate sequence and returns a
    tuple of Fractions.  The exact and rational models carry the point
    as lattice integers through `StageMaps.apply_lattice`, with one
    conversion in and one out.  The rotation is applied as one exact
    multiple power*alpha mod 1, so the guard on |power| only protects
    against meaninglessly large requests.
    """
    stage = maps.stage_count if stage is None else stage
    maps._check_stage(stage)
    rec = maps.records[stage]
    if not isinstance(power, int) or abs(power) > rec.q * ROTATION_POWER_CAP:
        raise ParamOutOfRange(
            f"power must be an integer with |power| <= q_n * {ROTATION_POWER_CAP}, "
            f"got {power!r}"
        )
    if model in ("exact", "rational"):
        # one conversion in and one out, at a modulus M that q divides
        # (the rational path only grows M by factors), so the rotation is
        # the integer power p (M/q)
        exact = model == "exact"
        lattice = "exact" if exact else "analytic"
        ys, M = to_lattice(x, lcm(rec.q, maps._lattice_lcm(stage)) if exact else rec.q)
        ys, M = maps.apply_lattice(ys, M, stage, lattice)
        ys[0] = (ys[0] + power * rec.p * (M // rec.q)) % M
        y = from_lattice(*maps.apply_lattice(ys, M, stage, lattice, inverse=True))
        return y if exact else y.coords
    if model == "analytic":
        try:
            arr = np.asarray(x, dtype=float)
        except (TypeError, ValueError):
            raise ParamOutOfRange(f"point {x!r} is not an array of floats") from None
        single = arr.ndim == 1
        pts = arr.reshape(-1, 1) if single else arr
        out = maps.apply_analytic(pts, stage).copy()
        out[0] = (out[0] + float(mod1(power * rec.alpha))) % 1.0
        out = maps.apply_analytic(out, stage, inverse=True)
        return tuple(float(v) for v in out[:, 0]) if single else out
    raise ParamOutOfRange(
        f"model must be 'exact', 'analytic' or 'rational', got {model!r}"
    )


def eval_stage_map_rational(
    maps: StageMaps, coords: Sequence, power: int = 1, stage: Optional[int] = None
) -> Tuple[Fraction, ...]:
    """T_stage^power through the exact-rational analytic path."""
    return eval_stage_map(maps, coords, "rational", power, stage)


# ---------------------------------------------------------------------------
# Stage partitions and the finite conjugacy check.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StagePartition:
    """Pulled-back sample clouds of the level-n partition F_{q_n}.

    samples[j] holds the exact H_n-preimages of a 3x3 interior grid of
    atom atoms[j] of T_{q_n}; the stage map permutes these clouds by
    i -> i + p_n mod q_n.
    """

    level: int
    q: int
    p: int
    atoms: Tuple[int, ...]
    samples: Tuple[Tuple[TorusPoint, ...], ...]


# the 3x3 interior grid of an atom, in quarters of the atom's width and
# of the torus's height
_CLOUD_QUARTERS = tuple((u, v) for u in (1, 2, 3) for v in (1, 2, 3))


def _every_atom(q: int, instead: str) -> range:
    """The indices of all q atoms, for a walk of one 3x3 cloud per atom;
    refused with ParamOutOfRange above `_GRID_POINT_BUDGET` points,
    naming the argument that picks fewer (`instead`)."""
    points = q * len(_CLOUD_QUARTERS)
    if points > _GRID_POINT_BUDGET:
        raise ParamOutOfRange(
            f"visiting every atom takes {q} x {len(_CLOUD_QUARTERS)} = {points} "
            f"points, beyond the budget of {_GRID_POINT_BUDGET}; pass {instead}"
        )
    return range(q)


def _atom_lattice(maps: StageMaps, stage: int, draws, grain: int):
    """(M, points): for each (i, u, v) of `draws`, the point
    ((i grain + u)/(q grain), v/grain) of atom i of T_q (q = q_stage) as
    numerators over one modulus M at which the exact H_stage runs."""
    q = maps.records[stage].q
    M = lcm(q * grain, maps._lattice_lcm(stage))
    col, row = M // (q * grain), M // grain
    return M, [[(i * grain + u) * col, v * row] for i, u, v in draws]


def stage_partition(
    maps: StageMaps, stage: int, atoms: Optional[Sequence[int]] = None
) -> StagePartition:
    """Exact sample clouds of F_{q_stage} for the given atoms (all by
    default, which is refused with ParamOutOfRange above
    `_GRID_POINT_BUDGET` points, 9 q; pass a subset when q is large).
    The cloud points are pulled back as lattice integers and become
    `TorusPoint`s only in the report."""
    maps._check_stage(stage)
    rec = maps.records[stage]
    try:
        chosen = tuple(_every_atom(rec.q, "atoms") if atoms is None else atoms)
    except TypeError:
        raise ParamOutOfRange(f"atoms must be a sequence of atom indices, got {atoms!r}") from None
    for i in chosen:
        if not (isinstance(i, int) and 0 <= i < rec.q):
            raise ParamOutOfRange(f"atom index {i!r} is not an integer in [0, {rec.q})")
    M, pts = _atom_lattice(maps, stage, ((i, u, v) for i in chosen for u, v in _CLOUD_QUARTERS), 4)
    images = [from_lattice(*maps.apply_lattice(ys, M, stage, inverse=True)) for ys in pts]
    n = len(_CLOUD_QUARTERS)
    clouds = tuple(tuple(images[j:j + n]) for j in range(0, len(images), n))
    return StagePartition(level=stage, q=rec.q, p=rec.p, atoms=chosen, samples=clouds)


@dataclass(frozen=True)
class ConjugacyReport:
    """Outcome of the finite conjugacy check at one stage.

    T_stage should move the atom of F_{q} holding each sample to the
    atom p steps further (mod q); fraction records how many samples did,
    threshold what the model promises (1 exactly; 1 - 2 eps analytically).
    """

    scenario: str
    stage: int
    model: str
    q: int
    p: int
    samples: int
    hits: int
    threshold: Fraction

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.hits, self.samples) if self.samples else Fraction(0)

    @property
    def passed(self) -> bool:
        return self.fraction >= self.threshold


def verify_cyclic_permutation(
    maps: StageMaps,
    stage: int,
    model: str = "exact",
    samples: Optional[int] = None,
    seed: int = 0,
) -> ConjugacyReport:
    """Check that T_stage permutes F_{q} cyclically with step p.

    With samples=None every atom is visited with a 3x3 interior cloud,
    which is refused with ParamOutOfRange above `_GRID_POINT_BUDGET`
    points (9 q); otherwise the given number of seeded random
    (atom, interior point) pairs is drawn. Each sample is a lattice point
    of T_q's atom i, carried as integer numerators over one modulus M
    from the draw to its atom index: pulled back by the exact H^{-1},
    moved by T_stage (H, the rotation by p/q as p (M/q), H^{-1}), pushed
    forward by the exact H and read off as atom y_1 // (M/q). Exact
    model: T_stage is exact and membership must be perfect. Analytic
    model: T_stage runs the rational analytic path, which may grow M, and
    the fraction must reach 1 - 2 eps_n, the rest being attributable to
    the collar sets; the verdict is deterministic.
    """
    maps._check_stage(stage)
    if model == "exact":
        threshold = Fraction(1)
    elif model == "analytic":
        threshold = 1 - 2 * maps._analytic(stage).eps
    else:
        raise ParamOutOfRange(f"model must be 'exact' or 'analytic', got {model!r}")
    rec = maps.records[stage]
    q, p = rec.q, rec.p
    if samples is None:
        grain = 4
        draws = [(i, u, v) for i in _every_atom(q, "samples") for u, v in _CLOUD_QUARTERS]
    else:
        require_int(samples, 1, "samples")
        require_int(seed, 0, "seed")
        grain = 2**17
        rng = np.random.default_rng(seed)
        draws = []
        for _ in range(samples):
            i = int(rng.integers(0, q))
            u = 2 * int(rng.integers(0, 2**16)) + 1
            v = 2 * int(rng.integers(0, 2**16)) + 1
            draws.append((i, u, v))
    M, pts = _atom_lattice(maps, stage, draws, grain)
    hits = 0
    for (i, _, _), ys in zip(draws, pts):
        ys, _ = maps.apply_lattice(ys, M, stage, inverse=True)
        ys, D = maps.apply_lattice(ys, M, stage, model)
        ys[0] = (ys[0] + p * (D // q)) % D
        ys, D = maps.apply_lattice(ys, D, stage, model, inverse=True)
        # D is a multiple of M, so the exact H_stage runs at D too
        ys, D = maps.apply_lattice(ys, D, stage)
        if ys[0] // (D // q) == (i + p) % q:
            hits += 1
    return ConjugacyReport(
        scenario=maps.scenario, stage=stage, model=model, q=q, p=p,
        samples=len(draws), hits=hits, threshold=threshold,
    )


# ---------------------------------------------------------------------------
# Commutation of the conjugations with the previous rotation.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CommutationReport:
    """h_stage o phi^{alpha_{stage-1}} vs phi^{alpha_{stage-1}} o h_stage."""

    stage: int
    alpha: Fraction
    exact_identity: bool
    structural: bool
    analytic_residual: Fraction
    samples: int

    @property
    def passed(self) -> bool:
        return self.exact_identity and self.structural and self.analytic_residual == 0


def check_stage_commutation(
    maps: StageMaps, stage: int, samples: int = 1000, seed: int = 0
) -> CommutationReport:
    """Verify the commutation h_n o phi^{alpha_{n-1}} = phi^{alpha_{n-1}} o h_n
    in all three senses: exact rational identity on random points,
    structural periodicity of the conjugation in both models, and
    pointwise equality through the rational analytic path (an exact
    zero, not a tolerance). The samples are lattice integers over one
    modulus M, a multiple of 2^24, of q_{stage-1} and of h's
    `denominator_lcm()`, and the rotation adds p (M/q); both sides run
    through `on_lattice`.

    Stages without an analytic conjugation are checked in the exact and
    structural senses only (the structural check then reads the exact
    map alone; the analytic residual is reported as zero because there
    is nothing to deviate)."""
    maps._check_stage(stage)
    require_int(samples, 1, "samples")
    require_int(seed, 0, "seed")
    prev = maps.records[stage - 1]
    h_ex = maps.conjugations_exact[stage - 1]
    h_an = maps.conjugations_analytic[stage - 1]
    M = lcm(2**24, prev.q, h_ex.denominator_lcm())
    unit, shift = M // 2**24, prev.p * (M // prev.q) % M
    rng = np.random.default_rng(seed)
    exact_ok = True
    worst = Fraction(0)
    for _ in range(samples):
        x = [int(rng.integers(0, 2**24)) * unit, int(rng.integers(0, 2**24)) * unit]
        lhs, _ = h_ex.on_lattice([(x[0] + shift) % M, x[1]], M)
        rhs, _ = h_ex.on_lattice(x[:], M)
        rhs[0] = (rhs[0] + shift) % M
        if lhs != rhs:
            exact_ok = False
        if h_an is None:
            continue
        la, Dl = h_an.on_lattice([(x[0] + shift) % M, x[1]], M)
        ra, Dr = h_an.on_lattice(x, M)
        ra[0] = (ra[0] + prev.p * (Dr // prev.q)) % Dr
        D = lcm(Dl, Dr)
        for a, b in zip(la, ra):
            d = abs(a * (D // Dl) - b * (D // Dr))
            if d:
                worst = max(worst, Fraction(min(d, D - d), D))
    structural = h_ex.commutes_with_rotation(prev.q) and (
        h_an is None or h_an.commutes_with_rotation(prev.q)
    )
    return CommutationReport(
        stage=stage,
        alpha=prev.alpha,
        exact_identity=exact_ok,
        structural=structural,
        analytic_residual=worst,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Correspondences between partition levels.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Correspondence:
    """Atom-index unions taking level-`level_from` atoms to unions of
    level-`level_to` atoms (both T_q partitions, pulled back by the
    respective H when read on the torus)."""

    level_from: int
    level_to: int
    unions: Tuple[Tuple[int, ...], ...]

    def compose(self, finer: "Correspondence") -> "Correspondence":
        if finer.level_from != self.level_to:
            raise ParamOutOfRange(
                f"cannot compose levels {self.level_from}->{self.level_to} "
                f"with {finer.level_from}->{finer.level_to}"
            )
        unions = tuple(
            tuple(sorted(j for i in u for j in finer.unions[i]))
            for u in self.unions
        )
        return Correspondence(self.level_from, finer.level_to, unions)


def correspondence(maps: StageMaps, level_from: int, level_to: int) -> Correspondence:
    """The finite correspondence between partition levels.

    One step (t -> t+1) sends atom i of T_{q_t} to the fine atoms of
    T_{q_{t+1}} filling the tower atom R_i of R_{a_t, k_t, q_t}; columns
    have width 1/(k_t q_t), each holding q_{t+1}/(k_t q_t) fine atoms.
    Multi-level correspondences compose the steps; the composition law
    holds by construction and is re-checked in tests.
    """
    if not (0 <= level_from <= level_to <= maps.stage_count):
        raise ParamOutOfRange(
            f"need 0 <= from <= to <= {maps.stage_count}, got "
            f"{level_from}, {level_to}"
        )
    q_from = maps.records[level_from].q
    out = Correspondence(
        level_from, level_from, tuple((i,) for i in range(q_from))
    )
    for t in range(level_from, level_to):
        rec = maps.records[t]
        tower = PartitionSpec.tower(rec.a, rec.k, rec.q)
        ratio = maps.records[t + 1].q // (rec.k * rec.q)
        step_unions = tuple(
            tuple(sorted(c * ratio + u for c in tower.tower_columns(i)
                         for u in range(ratio)))
            for i in range(rec.q)
        )
        out = out.compose(Correspondence(t, t + 1, step_unions))
    return out


def _float_atom(part: PartitionSpec, x: float) -> int:
    """The atom of a column partition (blocks or a tower: unions of
    full-height columns, so an atom reads x1 alone) that holds the points
    with first coordinate x, a float in [0, 1], read exactly as n/d from
    `float.as_integer_ratio`; 1.0, which a float reduction mod 1 can
    round up to, is read as 0."""
    n, d = x.as_integer_ratio()
    return part.lattice_atom((n % d,), d)


@dataclass(frozen=True)
class CorrespondenceDefect:
    """Symmetric-difference bookkeeping for one conjugation step: how
    much of h^{-1} R_i differs from the coarse atom Delta_i, for each of
    the `atoms` atoms. `nonzero` holds the (i, defect) pairs of the atoms
    with a nonzero defect, in increasing i; every other atom's is 0."""

    stage: int
    model: str
    atoms: int
    nonzero: Tuple[Tuple[int, Fraction], ...]

    @property
    def total(self) -> Fraction:
        return sum((d for _, d in self.nonzero), Fraction(0))


def correspondence_defect(
    maps: StageMaps, stage: int, model: str = "exact",
    samples: int = 4096, seed: int = 0,
) -> CorrespondenceDefect:
    """Measure mu(h_stage^{-1} R_i symdiff Delta_i) for every atom i.

    Exact model: h translates the boxes of its box lattice rigidly, so
    `oracle.misplaced_boxes` certifies the defect from one corner per
    box, the lattice refined by the coarse blocks (pitch 1/q) and the
    tower columns (pitch 1/(kq)); the defect is exactly zero for the
    built scenarios.  Lattices beyond the oracle's budget are refused
    with ParamOutOfRange.  Analytic model: seeded Monte Carlo over the
    torus; each sample charges 1/samples to the source atom it leaves
    and the image atom it wrongly enters; refused for stages built
    without an analytic conjugation. Both atoms are read exactly off the
    float point and its float image, as lattice integers from
    `float.as_integer_ratio`.
    """
    maps._check_stage(stage)
    rec = maps.records[stage - 1]
    tower = PartitionSpec.tower(rec.a, rec.k, rec.q)
    if model == "exact":
        h = maps.conjugations_exact[stage - 1]
        misplaced, boxes = misplaced_boxes(h, PartitionSpec.blocks(rec.q), tower)
        return CorrespondenceDefect(stage, model, rec.q, tuple(
            (int(i), Fraction(int(misplaced[i]), boxes)) for i in np.flatnonzero(misplaced)))
    if model == "analytic":
        h_an = maps._analytic(stage)
        require_int(samples, 1, "samples")
        require_int(seed, 0, "seed")
        blocks = PartitionSpec.blocks(rec.q)
        misses = Counter()
        rng = np.random.default_rng(seed)
        pts = rng.random((2, samples))
        img = h_an.transform(pts)
        for x, y in zip(pts[0], img[0]):
            src, dst = _float_atom(blocks, x), _float_atom(tower, y)
            if dst != src:
                misses[src] += 1
                misses[dst] += 1
        return CorrespondenceDefect(stage, model, rec.q, tuple(
            (i, Fraction(c, samples)) for i, c in sorted(misses.items())))
    raise ParamOutOfRange(f"model must be 'exact' or 'analytic', got {model!r}")


__all__ = [
    "AUTO_ANALYTIC_MOVE_CAP",
    "ROTATION_POWER_CAP",
    "AbCParams",
    "CommutationReport",
    "ConjugacyReport",
    "Correspondence",
    "CorrespondenceDefect",
    "StageIncrement",
    "StageMaps",
    "StagePartition",
    "advance_params",
    "build_stage_circle",
    "build_stage_minimal",
    "build_stage_translation",
    "check_stage_commutation",
    "circle_params",
    "correspondence",
    "correspondence_defect",
    "eval_stage_map",
    "eval_stage_map_rational",
    "meets_strict_epsilon",
    "run_circle_scenario",
    "run_minimal_scenario",
    "run_translation_scenario",
    "stage_partition",
    "translation_index_function",
    "verify_cyclic_permutation",
]
