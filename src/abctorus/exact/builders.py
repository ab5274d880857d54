"""Builders for the named exact torus maps.

All constructions return `BlockSlideMap`s over the 2-torus (first
coordinate distinguished). The non-obvious ones:

- `build_interchange(k, q)`: the measure-preserving map that swaps the
  vertical blocks ik <-> ik+1 (mod kq) for i < q and fixes the rest,
  assembled from eight coordinate shears. On the swapped pair the map
  is the rigid translation by -+1/(kq); on fixed columns it is the
  identity pointwise, which is why it stays rigid at every finer scale.

- `build_rearrange(shift, column, k, q)`: conjugates the interchange by
  rotations to slide the columns congruent to `column` (mod k) forward
  `shift` blocks of size k, fixing all other columns.

- `build_grid_refine(l, q)`: three shears fold the l digits of x2 into
  the subdivision of x1, turning the product grid into the fine
  vertical partition into l^2 q columns.

- `build_abc_conjugation(a, k, l, q)`: grid refinement for parameter
  k*l followed by the inverse of the unstacking map; sends the block
  partition to the tower partition prescribed by the index function a
  and commutes with the rotation by p/q. `TowerConjugation(a, k, l, q)`
  is the same map in closed form: the three refinement shears, then the
  column permutation c + k b -> c + k (b + a(c) mod q) as one cell
  table, a program of 4 ops where the realization has
  O(k^2 sum a) moves.

- `build_two_cycle` / `build_transposition` / `decompose_permutation`:
  generators for arbitrary rotation-equivariant permutations of the
  k x l strip classes, via a pivot-transposition factorization.

- `build_minimal_combinatorics(l, q, r)`: the involution that squeezes
  full-height stripes into single bands and transposes the band-local
  digit pairs, extended 1/(lq)-equivariantly.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import InvalidTarget, NotEquivariant, ParamOutOfRange
from ..towers import require_int
from .blockslide import (
    BlockSlideMap,
    BlockSlideMove,
    _CellTable,
    _memo_inverse,
    _move_pitches,
    _Program,
    _ProgramMap,
    _step_entry,
    rotation_map,
)
from .partitions import check_index_function, tower_level
from .points import TorusPoint, from_lattice, to_lattice
from .permutations import is_permutation, star_factorization
from .steps import (
    StepFunction,
    plateau_target,
    psi1_refine,
    psi2_refine,
    psi3_refine,
    sigma1_interchange,
    sigma2_interchange,
    sigma3_interchange,
    sigma4_band,
    sigma4_rearrange,
)


# ---------------------------------------------------------------------------
# Interchange.
# ---------------------------------------------------------------------------


def build_interchange(k: int, q: int) -> BlockSlideMap:
    """Interchange of neighbouring vertical blocks: on the block partition
    into kq columns, swaps ik <-> ik+1 for 0 <= i < q and fixes every
    other column (pointwise). Commutes with the rotation by 1/q.

    Requires k >= 2, q >= 1.
    """
    require_int(k, 2, "k")
    require_int(q, 1, "q")
    s1 = sigma1_interchange(k, q)
    s2 = sigma2_interchange(k, q)
    s3 = sigma3_interchange(k, q)
    s4 = sigma4_rearrange(k, q)
    half = StepFunction.constant(Fraction(1, 2))
    moves = (
        BlockSlideMove(0, 1, -1, s1),
        BlockSlideMove(1, 0, +1, s3),
        BlockSlideMove(0, 1, +1, s2),
        BlockSlideMove(1, 0, +1, half),
        BlockSlideMove(0, 1, -1, s2),
        BlockSlideMove(1, 0, +1, s3),
        BlockSlideMove(0, 1, +1, s1),
        BlockSlideMove(1, 0, +1, s4),
    )
    return BlockSlideMap(moves)


# ---------------------------------------------------------------------------
# Rearrangement (column sliding).
# ---------------------------------------------------------------------------


def build_rearrange(shift: int, column: int, k: int, q: int) -> BlockSlideMap:
    """Slide the columns congruent to `column` (mod k) forward by `shift`
    blocks: on the kq-column partition, column c + k*b goes to
    c + k*(b + shift mod q) for c = column mod k; all other columns are
    fixed. shift = 0 gives the identity map.
    """
    require_int(shift, 0, "shift")
    require_int(column, None, "column")
    require_int(k, 2, "k")
    require_int(q, 1, "q")
    if shift >= q:
        raise ParamOutOfRange(f"shift must lie in [0, {q}), got {shift}")
    if shift == 0:
        return BlockSlideMap()
    kq = k * q
    # One-block slide: k-1 neighbour interchanges walk the chosen class up
    # one full block while every other column is bumped down exactly once;
    # the closing rotation by 1/(kq) restores the bystanders and completes
    # the block step. Larger shifts iterate the one-block slide (the
    # bystander bookkeeping only cancels one block at a time).
    parts: List[BlockSlideMap] = []
    f = build_interchange(k, q)
    for m in range(column, column + k - 1):
        parts.append(rotation_map(Fraction(-m, kq)).then(f).then(rotation_map(Fraction(m, kq))))
    parts.append(rotation_map(Fraction(1, kq)))
    one_block = BlockSlideMap.compose(parts)
    return BlockSlideMap.compose([one_block] * shift)


# ---------------------------------------------------------------------------
# Grid refinement.
# ---------------------------------------------------------------------------


def build_grid_refine(l: int, q: int) -> BlockSlideMap:
    """The map taking the product grid (x1 at pitch 1/(lq), x2 at pitch
    1/l) to the fine vertical partition into l^2 q columns, one atom onto
    one atom: three shears between x1 and x2 that fold the l digits of x2
    into the subdivision of x1."""
    require_int(l, 2, "l")
    require_int(q, 1, "q")
    return BlockSlideMap((
        BlockSlideMove(0, 1, +1, psi1_refine(l, q)),
        BlockSlideMove(1, 0, +1, psi2_refine(l, q)),
        BlockSlideMove(0, 1, -1, psi3_refine(l, q)),
    ))


# ---------------------------------------------------------------------------
# Unstacking and the block/tower conjugation.
# ---------------------------------------------------------------------------


def build_unstack(a: Sequence[int], k: int, q: int) -> BlockSlideMap:
    """The unstacking map: sends tower atom m of the partition prescribed
    by the index function a onto the block [m/q, (m+1)/q) x T^1.

    Column c + k*b slides back by a(c) blocks (b -> b - a(c) mod q), so
    the tower level m = (b - a(c)) mod q becomes the block index.
    """
    a = check_index_function(a, k, q)
    return BlockSlideMap.compose([build_rearrange((q - a[c]) % q, c, k, q) for c in range(k)])


def build_abc_conjugation(a: Sequence[int], k: int, l: int, q: int) -> BlockSlideMap:
    """The stage conjugation map h as a block-slide realization: grid
    refinement at parameter k*l followed by the inverse of the
    unstacking map.

    Its inverse pulls the tower partition back to the block partition
    (atom m onto atom m), pulls the fine partition into (kl)^2 q columns
    back to the product grid at parameter kl, and the map commutes with
    the rotation by 1/q. The unstacking alone takes O(k^2 sum a) moves
    (34,685 on the translation workload), so the translation stage runs
    the closed form `TowerConjugation` and builds this map only for the
    analytic model and for tests.
    """
    a = check_index_function(a, k, q)
    require_int(k, 2, "k")
    require_int(l, 1, "l")
    refine = build_grid_refine(k * l, q)
    unstack = build_unstack(a, k, q)
    return refine.then(unstack.inverse())


@dataclass(frozen=True)
class TowerConjugation(_ProgramMap):
    """The map of `build_abc_conjugation(a, k, l, q)` in closed form.

    A program of 4 ops on the realization's 1/L lattice: the three
    `build_grid_refine(k l, q)` shears as moves, then the inverse
    unstacking as one cell table on the kq x 1 column grid (pitches
    1/(kq) and 1), which sends column c + k b to c + k (b + a(c) mod q),
    the column whose tower level (`partitions.tower_level`) is b. The
    inverse program runs the inverse table first, then the inverse
    shears. Pointwise, L and `box_grid()` equal to the realization
    (checked in tests), which `moves` builds on first read, for the
    analytic model and for tests; the integer program never reads it.
    """

    a: Tuple[int, ...]
    k: int
    l: int
    q: int
    inverted: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", check_index_function(self.a, self.k, self.q))
        require_int(self.k, 2, "k")
        require_int(self.l, 1, "l")

    def __call__(self, x: TorusPoint) -> TorusPoint:
        return from_lattice(*self.on_lattice(*to_lattice(x, self._program.L)))

    @cached_property
    def _refine(self) -> BlockSlideMap:
        return build_grid_refine(self.k * self.l, self.q)

    def _build_program(self) -> _Program:
        k, q, refine = self.k, self.q, self._refine.moves
        L = lcm(k * q, *(mv.step.denominator_lcm() for mv in refine))
        entries = tuple(_step_entry(mv.step, mv.sign, L) for mv in refine)
        cols = np.arange(k * q)
        unstack = cols % k + k * tower_level(cols, np.array(self.a, dtype=np.int64), k, q)
        table = _CellTable.from_image((L // (k * q), L), (k * q, 1), unstack).inverse()
        pitches = tuple(map(gcd, table.pitches, *(
            _move_pitches(L, mv.target, mv.source, e) for mv, e in zip(refine, entries))))
        prog = _Program(L, pitches, array("i", [mv.target for mv in refine] + [-1]),
                        array("i", [mv.source for mv in refine] + [0]),
                        array("i", range(4)), entries + (table,))
        return prog.inverse() if self.inverted else prog

    def inverse(self) -> "TowerConjugation":
        return _memo_inverse(self, lambda: replace(self, inverted=not self.inverted))

    @cached_property
    def moves(self) -> Tuple[BlockSlideMove, ...]:
        """The moves of the block-slide realization, this map's inverse's
        when `inverted`, built on first read."""
        m = build_abc_conjugation(self.a, self.k, self.l, self.q)
        return (m.inverse() if self.inverted else m).moves

    def realization_floor(self) -> int:
        """A lower bound on len(moves) that builds nothing: the three
        refinement shears, and for each block column c slides
        (`build_unstack` slides it (q - a(c)) mod q blocks) the k - 1
        eight-shear interchanges and the closing rotation of
        `build_rearrange`."""
        q = self.q
        return 3 + sum((q - v) % q for v in self.a) * (8 * (self.k - 1) + 1)

    def move_count(self) -> int:
        """The three shears and the one column lookup."""
        return 4

    def commutes_with_rotation(self, q: int) -> bool:
        """Structural commutation with the rotation by 1/q of x1: the
        refinement's structural verdict, and q divides this map's q. The
        rotation by 1/q moves column c + k b to c + k (b + 1), and the
        column op shifts a column by a(c) blocks, which depends on c
        alone."""
        if q < 1:
            raise ParamOutOfRange(f"q must be >= 1, got {q}")
        return self.q % q == 0 and self._refine.commutes_with_rotation(q)


# ---------------------------------------------------------------------------
# Two-cycles, transpositions, and arbitrary equivariant permutations on
# the strip partitions.
# ---------------------------------------------------------------------------


def build_two_cycle(k: int, q: int, l: int) -> BlockSlideMap:
    """The double swap of top-band strip atoms: on the kq x l strip
    partition, swaps (0, l-1) <-> (1, l-1) and (2, l-1) <-> (3, l-1)
    per block (classes mod k), fixing everything else. Requires k >= 4,
    l >= 2; commutes with the rotation by 1/q.
    """
    require_int(k, 4, "two-cycle k")
    require_int(q, 1, "q")
    require_int(l, 2, "two-cycle l")
    f = build_interchange(k, q)
    band = sigma4_band(k, q, l)
    down = BlockSlideMap((BlockSlideMove(0, 1, -1, band),))
    up = BlockSlideMap((BlockSlideMove(0, 1, +1, band),))
    return f.then(down).then(f).then(up)


def _row_shear(rows: Sequence[int], m: int, k: int, q: int, l2: int) -> BlockSlideMap:
    """x1 += m/(kq) exactly on the listed rows of height 1/l2."""
    if m % (k * q) == 0:
        return BlockSlideMap()
    values = [Fraction(m, k * q) if r in set(rows) else Fraction(0) for r in range(l2)]
    step = plateau_target(values, 1)
    return BlockSlideMap((BlockSlideMove(0, 1, +1, step),))


def _class_shear(classes: Sequence[int], m: int, k: int, q: int, l2: int) -> BlockSlideMap:
    """x2 += m/l2 exactly on the listed column classes (mod k);
    1/q-periodic in the first coordinate."""
    if m % l2 == 0:
        return BlockSlideMap()
    values = [Fraction(m, l2) if c in set(classes) else Fraction(0) for c in range(k)]
    step = plateau_target(values, q)
    return BlockSlideMap((BlockSlideMove(1, 0, +1, step),))


def build_transposition(i: int, j: int, k: int, q: int, l: int) -> BlockSlideMap:
    """Swap the strip class (i, j) with the pivot class (0, l-1) on the
    kq x l strip partition (blockwise, fixing all other atoms).

    Implemented as a conjugated two-cycle on the half-height refinement:
    explicit row/class shears park the pivot and target halves in the
    two-cycle's four swap slots and retrieve them afterwards. Requires
    k >= 4 and l >= 2; (i, j) = (0, l-1) is the pivot itself and is
    rejected.
    """
    require_int(k, 4, "transposition k")
    require_int(q, 1, "q")
    require_int(l, 2, "transposition l")
    require_int(i, 0, "target column class i")
    require_int(j, 0, "target row j")
    if i >= k or j >= l:
        raise ParamOutOfRange(f"target ({i}, {j}) outside [0,{k}) x [0,{l})")
    if (i, j) == (0, l - 1):
        raise InvalidTarget("target coincides with the pivot class (0, l-1)")
    l2 = 2 * l  # half-height refinement

    inner: List[BlockSlideMap] = []
    if j < l - 1:
        inner.append(_row_shear((2 * j, 2 * j + 1), 1 - i, k, q, l2))
        inner.append(_class_shear((1,), 2 * (l - 1 - j), k, q, l2))
    elif i >= 2:  # j == l-1
        inner.append(_class_shear((i,), -2, k, q, l2))
        inner.append(_row_shear((l2 - 4, l2 - 3), 1 - i, k, q, l2))
        inner.append(_class_shear((1,), 2, k, q, l2))
    # i == 1, j == l-1: no inner part
    outer = [
        _row_shear((l2 - 2,), 2, k, q, l2),
        _class_shear((2, 3), 1, k, q, l2),
    ]
    conj = BlockSlideMap.compose(inner + outer)
    core = build_two_cycle(k, q, l2)
    return conj.then(core).then(conj.inverse())


def decompose_permutation(
    perm: "np.ndarray", k: int, q: int, l: int
) -> Tuple[Tuple[Tuple[int, int], ...], BlockSlideMap]:
    """Realize a rotation-equivariant permutation of the kq x l strip
    atoms as an explicit block-slide map.

    `perm` is the permutation's quotient on the k*l strip classes (its
    blockwise lift permutes the kq*l atoms); anything else is refused
    with NotEquivariant. Returns the pivot-transposition targets in
    application order together with the composed map. Requires k >= 4
    and l >= 2.
    """
    require_int(k, 4, "decomposition k")
    require_int(q, 1, "q")
    require_int(l, 2, "decomposition l")
    quot = np.asarray(perm, dtype=np.int64)
    if len(quot) != k * l:
        raise NotEquivariant(
            f"a quotient permutation has k*l={k*l} entries, got {len(quot)}"
        )
    if not is_permutation(quot):
        raise NotEquivariant("input is not a permutation")
    targets = star_factorization(quot, l)
    cache: Dict[Tuple[int, int], BlockSlideMap] = {}
    maps: List[BlockSlideMap] = []
    for t in targets:
        if t not in cache:
            cache[t] = build_transposition(t[0], t[1], k, q, l)
        maps.append(cache[t])
    return targets, BlockSlideMap.compose(maps)


# ---------------------------------------------------------------------------
# Stripe-squeezing involution for the minimality construction.
# ---------------------------------------------------------------------------


def minimal_cell_image(c: int, y: int, l: int, r: int) -> Tuple[int, int]:
    """Image (c', y') of the strip class (c, y) under the stripe-squeezing
    involution, with column class c < l^2 and row y < l*r.

    For c = v < l (full-height stripes): (v, J*r + rho) <-> (J, v*r + rho)
    — the stripe squeezes into the horizontal band [v/l, (v+1)/l) of the
    first l columns. For c = u*l + v with u >= 1 (band-internal columns):
    within each band t the digit pair transposes, (u*l + v, t*l + w) <->
    (u*l + w, t*l + v).
    """
    if c < l:
        J, rho = divmod(y, r)
        return J, c * r + rho
    u, v = divmod(c, l)
    t, w = divmod(y, l)
    return u * l + w, t * l + v


def minimal_quotient_perm(l: int, r: int) -> "np.ndarray":
    """The involution of the l^2 x (l r) strip classes behind the
    minimality construction (`minimal_cell_image`), with class (c, y)
    indexed c*(l*r) + y.
    """
    if l < 2 or r < 1:
        raise ParamOutOfRange("need l >= 2 and r >= 1")
    lr = l * r
    n = l * l * lr
    perm = np.empty(n, dtype=np.int64)
    for c in range(l * l):
        for y in range(lr):
            c2, y2 = minimal_cell_image(c, y, l, r)
            perm[c * lr + y] = c2 * lr + y2
    return perm


def build_minimal_combinatorics(l: int, q: int, r: int) -> BlockSlideMap:
    """Block-slide realization of the stripe-squeezing involution,
    extended 1/(lq)-equivariantly: the strip partition is l^3 q columns
    by l*r rows, with column classes taken mod l^2.

    For orbit-scale work use the O(1) evaluator in `minimal.py`; this
    explicit map is intended for small l and for cross-validation.
    """
    require_int(l, 2, "l")
    require_int(q, 1, "q")
    require_int(r, 1, "r")
    quot = minimal_quotient_perm(l, r)
    _, composed = decompose_permutation(quot, l * l, l * q, l * r)
    return composed
