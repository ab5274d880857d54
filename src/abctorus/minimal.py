"""Constant-time evaluators and zone geometry for minimality stages.

One stage of the minimality scenario conjugates the rotation with

    h  =  h1 o h2          (h2 acts first),

where both layers are measure-preserving torus maps built over the grid
of l^3 q columns (pitch 1/(l^3 q)) by l r rows (pitch 1/(l r)):

* h2 — the stripe-squeezing involution.  Column classes are taken mod
  l^2, so the map commutes with the rotation by 1/(l q) and therefore
  with every rotation it needs to commute with.  Writing a cell as
  (class c, row y):

      c = v < l:            (v, J*r + rho) <-> (J, v*r + rho)
      c = u*l + v, u >= 1:  (u*l + v, t*l + w) <-> (u*l + w, t*l + v)

  The first family folds each full-height stripe onto a horizontal band
  of its block — the mechanism that drags orbits across every height.
  The second family transposes digits inside each band
  N_t = T^1 x [t/r, (t+1)/r), so the r band measures survive the stage.
  Every cell translates rigidly onto its partner, and the map is its own
  inverse pointwise, not merely on cell indices.

* h1 — the trapping shear x2 += kappa(x1), with kappa the 1/(l^3 q)-
  periodic staircase of n^2 micro-steps of pitch delta/(l r) built by
  `build_trapping_step`.  A rotation orbit crossing one column period
  samples all n^2 staircase sections, so its pulled-back height takes
  n^2 nearby but distinct values — at most a bounded number of which
  can hide in any one collar.  That traps a definite fraction of every
  long orbit inside every zone.

`build_minimal_combinatorics` (exact.builders) realizes h2 as an
explicit block-slide composition; that route grows quickly with l and
exists for cross-validation.  The evaluators here act in O(1) per point
and are the production route for orbit-scale diagnostics:
`MinimalCombinatorics` is h2's Fraction definition, and
`MinimalConjugation` runs h as a two-op integer program of
`exact.blockslide`, h2's cell permutation as one cell table on the
l^2 x l r class grid and h1 as one shear move (Anosov-Katok 1970 and
Fayad-Katok 2004 describe both conjugations as permutations of lattice
cells).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Tuple, Union

from .errors import ParamOutOfRange
from .exact.blockslide import (
    _CellTable,
    _memo_inverse,
    _move_pitches,
    _Program,
    _ProgramMap,
    _step_entry,
)
from .exact.builders import minimal_cell_image, minimal_quotient_perm
from .exact.points import TorusPoint, from_lattice, to_lattice
from .exact.steps import StepFunction, build_trapping_step
from .towers import require_int

Zone = Union[Tuple[str, int, int], Tuple[str, int, int, int]]


# ---------------------------------------------------------------------------
# The stripe-squeezing involution as a constant-time cell map.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalCombinatorics:
    """The stripe-squeezing involution h2 evaluated in O(1) per point.

    Pointwise equal to ``build_minimal_combinatorics(l, q, r)`` (the
    block-slide realization; cross-validated in tests) but independent
    of l: each of the l^3 q x l r grid cells translates rigidly onto its
    partner cell, and applying the map twice returns every point.
    """

    l: int
    q: int
    r: int

    def __post_init__(self):
        if self.l < 2 or self.q < 1 or self.r < 1:
            raise ParamOutOfRange(
                f"need l >= 2, q >= 1, r >= 1, got l={self.l}, q={self.q}, "
                f"r={self.r}"
            )

    @property
    def cols(self) -> int:
        return self.l ** 3 * self.q

    @property
    def rows(self) -> int:
        return self.l * self.r

    def cell_image(self, col: int, row: int) -> Tuple[int, int]:
        """Image cell of grid cell (col, row); an involution on cells.

        col indexes the l^3 q columns, row the l r rows.  The block
        s = col // l^2 is preserved (1/(l q)-equivariance); inside the
        block the class c = col mod l^2 trades digits with the row as in
        the module docstring.
        """
        l, r = self.l, self.r
        if not (0 <= col < self.cols and 0 <= row < self.rows):
            raise ParamOutOfRange(
                f"cell ({col}, {row}) outside the {self.cols} x {self.rows} grid"
            )
        s, c = divmod(col, l * l)
        c2, row2 = minimal_cell_image(c, row, l, r)
        return s * l * l + c2, row2

    def __call__(self, x: TorusPoint) -> TorusPoint:
        if not isinstance(x, TorusPoint):
            x = TorusPoint(x)
        cols, rows = self.cols, self.rows
        col = int(x[0] * cols)
        row = int(x[1] * rows)
        col2, row2 = self.cell_image(col, row)
        return TorusPoint((
            x[0] + Fraction(col2 - col, cols),
            x[1] + Fraction(row2 - row, rows),
        ))


# ---------------------------------------------------------------------------
# The full stage conjugation h = h1 o h2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MinimalConjugation(_ProgramMap):
    """One minimality-stage conjugation, h = h1 o h2 with h2 first.

    Implements the engine's `Conjugation` protocol at O(1) cost per
    point, as a two-op integer program on the 1/L lattice,
    L = `denominator_lcm()`, the same kind of program a `BlockSlideMap`
    runs. h2 is one cell table (`exact.blockslide._CellTable`) on the
    l^2 x l r class grid of `minimal_quotient_perm`, pitches 1/(l^3 q)
    and 1/(l r), repeating along x1 with period 1/(l q); h1 is the
    trapping shear's one move. The inverse program runs the inverse
    shear first, then the same involution. `on_lattice(ys, M)` runs the
    program on Python ints, `__call__` through it at M = lcm(L, the
    point's denominators), and `compiled(M)` on int64 arrays.
    """

    comb: MinimalCombinatorics
    kappa: StepFunction
    inverted: bool = False

    def __call__(self, x: TorusPoint) -> TorusPoint:
        return from_lattice(*self.on_lattice(*to_lattice(x, self._program.L)))

    def _build_program(self) -> _Program:
        comb = self.comb
        L = lcm(self.kappa.denominator_lcm(), comb.cols, comb.rows)
        cells = (L // comb.cols, L // comb.rows)
        table = _CellTable.from_image(cells, (comb.l * comb.l, comb.rows),
                                      minimal_quotient_perm(comb.l, comb.r))
        shear = _step_entry(self.kappa, 1, L)
        pitches = tuple(map(gcd, cells, _move_pitches(L, 1, 0, shear)))
        prog = _Program(L, pitches, array("i", (-1, 1)), array("i", (0, 0)),
                        array("i", (1, 0)), (shear, table))
        return prog.inverse() if self.inverted else prog

    def inverse(self) -> "MinimalConjugation":
        return _memo_inverse(self, lambda: replace(self, inverted=not self.inverted))

    def move_count(self) -> int:
        """The involution's one cell lookup and the shear's one move."""
        return 2

    def commutes_with_rotation(self, q: int) -> bool:
        """Structural commutation with the rotation by 1/q of x1.

        Both layers are 1/(l q_s)-periodic in x1, with q_s = comb.q the
        stage denominator (the staircase is even 1/(l^3 q_s)-periodic),
        so h commutes with the rotation whenever q divides l q_s — in
        particular with every rotation number of denominator q_s.
        """
        if q < 1:
            raise ParamOutOfRange(f"q must be >= 1, got {q}")
        return (self.comb.l * self.comb.q) % q == 0


# ---------------------------------------------------------------------------
# Stage geometry: collar resolution, zones, classification.
# ---------------------------------------------------------------------------


def trapping_exponent(n: int, l: int, q: int) -> int:
    """Resolution exponent e of the stage's staircase: delta = 2^-e.

    e = l q + bitlength(n^4 - 1) + 1 makes the accumulated shear of all
    n^2 micro-steps — at most n^4 * delta / (l r) — smaller than
    2^{-l q - 1} of one row, far inside every collar the zone
    bookkeeping uses.  Any smaller delta works equally well; a fixed
    deterministic choice keeps reports reproducible.
    """
    require_int(n, 2, "staircase sharpness n")
    require_int(l, 2, "grid multiplier l")
    require_int(q, 1, "denominator q")
    return l * q + (n ** 4 - 1).bit_length() + 1


@dataclass(frozen=True)
class MinimalStage:
    """Geometry bundle of one minimality stage.

    Zones live upstairs, in the coordinates where the stage map is the
    plain rotation: a point y is first unsheared, z = (y1, y2 - kappa(y1)),
    then located on the l^3 q x l r grid.  Writing the column as
    I = s*l^2 + i:

      * i <  l  — zone A_{s,i}: the full-height stripes, one zone per
        (block, stripe); the conjugation folds A_{s,i} into the cell
        [s/(lq), (s+1)/(lq)) x [i/l, (i+1)/l), so visiting every A-zone
        makes the pulled-back orbit 1/l-dense (the minimality mechanism).
      * i >= l — zone B^t_{s,i} with t = row // l: band-local zones; the
        per-band visit frequencies estimate the band measures that
        survive to the limit.

    Points whose within-cell offset falls outside [delta/2, 1 - delta/2]
    on either axis sit in a collar and are reported uncaptured.
    """

    n: int
    l: int
    q: int
    r: int
    delta: Fraction
    comb: MinimalCombinatorics
    kappa: StepFunction

    def conjugation(self) -> MinimalConjugation:
        return MinimalConjugation(comb=self.comb, kappa=self.kappa)

    def locate(self, y: TorusPoint) -> Optional[Zone]:
        """Zone of y — ('A', s, i), ('B', t, s, i) — or None in a collar."""
        if not isinstance(y, TorusPoint):
            y = TorusPoint(y)
        l = self.l
        z2 = (y[1] - self.kappa(y[0])) % 1
        c_scaled = y[0] * self.comb.cols
        r_scaled = z2 * self.comb.rows
        col, f1 = int(c_scaled), c_scaled % 1
        row, f2 = int(r_scaled), r_scaled % 1
        half = self.delta / 2
        if not (half <= f1 <= 1 - half and half <= f2 <= 1 - half):
            return None
        s, i = divmod(col, l * l)
        if i < l:
            return ("A", s, i)
        return ("B", row // l, s, i)


def minimal_stage(n: int, l: int, q: int, r: int) -> MinimalStage:
    """Assemble the geometry of one minimality stage, with the collar
    width delta = 2^-trapping_exponent(n, l, q)."""
    delta = Fraction(1, 2 ** trapping_exponent(n, l, q))
    require_int(r, 1, "band count r")
    kappa = build_trapping_step(n, l, q, r, delta)
    comb = MinimalCombinatorics(l=l, q=q, r=r)
    return MinimalStage(n=n, l=l, q=q, r=r, delta=delta, comb=comb, kappa=kappa)


__all__ = [
    "MinimalCombinatorics",
    "MinimalConjugation",
    "MinimalStage",
    "minimal_stage",
    "trapping_exponent",
]
