"""Builders for the named exact torus maps.

All constructions return `BlockSlideMap`s over the d-torus (d >= 2,
first coordinate distinguished). The non-obvious ones:

- `build_interchange(k, q)`: the measure-preserving map that swaps the
  vertical blocks ik <-> ik+1 (mod kq) for i < q and fixes the rest,
  assembled from eight coordinate shears. On the swapped pair the map
  is the rigid translation by -+1/(kq); on fixed columns it is the
  identity pointwise, which is why it stays rigid at every finer scale.

- `build_rearrange(shift, column, k, q)`: conjugates the interchange by
  rotations to slide the columns congruent to `column` (mod k) forward
  `shift` blocks of size k, fixing all other columns.

- `build_grid_refine(l, q, d)`: three shears per consumed coordinate
  turn the product grid into the fine vertical partition, one
  coordinate at a time (last coordinate first). Stage j uses profile
  parameters (l, l^{j-1} q) because the first coordinate's pitch has
  already been refined j-1 times.

- `build_abc_conjugation(a, k, l, q, d)`: grid refinement for parameter
  k*l followed by the inverse of the unstacking map; sends the block
  partition to the tower partition prescribed by the index function a
  and commutes with the rotation by p/q.

- `build_two_cycle` / `build_transposition` / `decompose_permutation`:
  generators for arbitrary rotation-equivariant permutations of the
  k x l strip classes, via a pivot-transposition factorization.

- `build_minimal_combinatorics(l, q, r)`: the involution that squeezes
  full-height stripes into single bands and transposes the band-local
  digit pairs, extended 1/(lq)-equivariantly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..errors import (
    InvalidIndexFunction,
    InvalidTarget,
    NotEquivariant,
    ParamOutOfRange,
)
from .blockslide import BlockSlideMap, BlockSlideMove, rotation_map
from .oracle import induced_atom_permutation
from .partitions import PartitionSpec
from .permutations import (
    chain,
    identity_perm,
    is_permutation,
    quotient_of,
    star_factorization,
)
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


def _check_dim(d: int, minimum: int = 2):
    if d < minimum:
        raise ParamOutOfRange(f"need dimension >= {minimum}, got {d}")


# ---------------------------------------------------------------------------
# Interchange.
# ---------------------------------------------------------------------------


def _interchange_variant(
    k: int, q: int, d: int, f7_sign: int, f8_source: int
) -> BlockSlideMap:
    """The eight-shear interchange with the two historically ambiguous
    readings exposed: the sign of the seventh move and the source
    coordinate of the eighth. The published selection is (+1, 0); see
    `build_interchange`. Other readings exist only for the fixture test
    that pins the selection."""
    _check_dim(d)
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
        BlockSlideMove(0, 1, f7_sign, s1),
        BlockSlideMove(1, f8_source, +1, s4),
    )
    return BlockSlideMap(d, moves)


def build_interchange(k: int, q: int, d: int = 2) -> BlockSlideMap:
    """Interchange of neighbouring vertical blocks: on the block partition
    into kq columns, swaps ik <-> ik+1 for 0 <= i < q and fixes every
    other column (pointwise). Commutes with the rotation by 1/q.

    Requires k >= 2, q >= 1.
    """
    return _interchange_variant(k, q, d, +1, 0)


# ---------------------------------------------------------------------------
# Rearrangement (column sliding).
# ---------------------------------------------------------------------------


def build_rearrange(shift: int, column: int, k: int, q: int, d: int = 2) -> BlockSlideMap:
    """Slide the columns congruent to `column` (mod k) forward by `shift`
    blocks: on the kq-column partition, column c + k*b goes to
    c + k*(b + shift mod q) for c = column mod k; all other columns are
    fixed. shift = 0 gives the identity map.
    """
    if not (0 <= shift < q):
        raise ParamOutOfRange(f"shift must lie in [0, {q}), got {shift}")
    if k < 2 or q < 1:
        raise ParamOutOfRange("need k >= 2 and q >= 1")
    _check_dim(d)
    if shift == 0:
        return BlockSlideMap.identity(d)
    kq = k * q
    # One-block slide: k-1 neighbour interchanges walk the chosen class up
    # one full block while every other column is bumped down exactly once;
    # the closing rotation by 1/(kq) restores the bystanders and completes
    # the block step. Larger shifts iterate the one-block slide (the
    # bystander bookkeeping only cancels one block at a time).
    parts: List[BlockSlideMap] = []
    f = build_interchange(k, q, d)
    for m in range(column, column + k - 1):
        conj = rotation_map(Fraction(-m, kq), d).then(f).then(
            rotation_map(Fraction(m, kq), d)
        )
        parts.append(conj)
    parts.append(rotation_map(Fraction(1, kq), d))
    one_block = BlockSlideMap.compose(parts)
    return BlockSlideMap.compose([one_block] * shift)


# ---------------------------------------------------------------------------
# Grid refinement.
# ---------------------------------------------------------------------------


def refine_stage(source_coord: int, l: int, q: int, d: int = 2) -> BlockSlideMap:
    """One stage of grid refinement: three shears between the first
    coordinate and `source_coord` (0-based, must be >= 1) that fold that
    coordinate's l digits into the first coordinate's subdivision."""
    _check_dim(d)
    if not (1 <= source_coord < d):
        raise ParamOutOfRange("source coordinate out of range")
    moves = (
        BlockSlideMove(0, source_coord, +1, psi1_refine(l, q)),
        BlockSlideMove(source_coord, 0, +1, psi2_refine(l, q)),
        BlockSlideMove(0, source_coord, -1, psi3_refine(l, q)),
    )
    return BlockSlideMap(d, moves)


def build_grid_refine(l: int, q: int, d: int = 2) -> BlockSlideMap:
    """The map taking the product grid (first coordinate at pitch 1/(lq),
    others at pitch 1/l) to the fine vertical partition into l^d q
    columns, one atom onto one atom.

    Consumes the last coordinate first; inner stage j (1-based) uses
    profile parameters (l, l^(j-1) q) since the first coordinate has
    been refined j-1 times already.
    """
    _check_dim(d)
    if l < 2 or q < 1:
        raise ParamOutOfRange("need l >= 2 and q >= 1")
    stages = []
    for j in range(1, d):
        source = d - j  # 0-based index of coordinate x_{d-j+1}
        stages.append(refine_stage(source, l, l ** (j - 1) * q, d))
    return BlockSlideMap.compose(stages)


# ---------------------------------------------------------------------------
# Unstacking and the block/tower conjugation.
# ---------------------------------------------------------------------------


def _validate_index_function(a: Sequence[int], k: int, q: int) -> Tuple[int, ...]:
    a = tuple(int(v) for v in a)
    if len(a) != k:
        raise InvalidIndexFunction(f"index function has length {len(a)}, expected {k}")
    if any(not (0 <= v < q) for v in a):
        raise InvalidIndexFunction("index function values must lie in [0, q)")
    return a


def build_unstack(a: Sequence[int], k: int, q: int, d: int = 2) -> BlockSlideMap:
    """The unstacking map: sends tower atom m of the partition prescribed
    by the index function a onto the block [m/q, (m+1)/q) x T^{d-1}.

    Column c + k*b slides back by a(c) blocks (b -> b - a(c) mod q), so
    the tower level m = (b - a(c)) mod q becomes the block index.
    """
    a = _validate_index_function(a, k, q)
    _check_dim(d)
    parts = [
        build_rearrange((q - a[c]) % q, c, k, q, d) for c in range(k)
    ]
    return BlockSlideMap.compose(parts) if parts else BlockSlideMap.identity(d)


def build_abc_conjugation(
    a: Sequence[int], k: int, l: int, q: int, d: int = 2
) -> BlockSlideMap:
    """The stage conjugation map h: grid refinement at parameter k*l
    followed by the inverse of the unstacking map.

    Its inverse pulls the tower partition back to the block partition
    (atom m onto atom m), pulls the fine partition into (kl)^d q columns
    back to the product grid at parameter kl, and the map commutes with
    the rotation by 1/q.
    """
    a = _validate_index_function(a, k, q)
    if k < 2 or l < 1:
        raise ParamOutOfRange("need k >= 2 and l >= 1")
    refine = build_grid_refine(k * l, q, d)
    unstack = build_unstack(a, k, q, d)
    return refine.then(unstack.inverse())


# ---------------------------------------------------------------------------
# Two-cycles, transpositions, and arbitrary equivariant permutations on
# the strip partitions.
# ---------------------------------------------------------------------------


def build_two_cycle(k: int, q: int, l: int, d: int = 2) -> BlockSlideMap:
    """The double swap of top-band strip atoms: on the kq x l strip
    partition, swaps (0, l-1) <-> (1, l-1) and (2, l-1) <-> (3, l-1)
    per block (classes mod k), fixing everything else. Requires k >= 4,
    l >= 2; commutes with the rotation by 1/q.
    """
    if k < 4:
        raise ParamOutOfRange(f"two-cycle needs k >= 4, got {k}")
    if l < 2:
        raise ParamOutOfRange(f"two-cycle needs l >= 2, got {l}")
    _check_dim(d)
    f = build_interchange(k, q, d)
    band = sigma4_band(k, q, l)
    down = BlockSlideMap(d, (BlockSlideMove(0, 1, -1, band),))
    up = BlockSlideMap(d, (BlockSlideMove(0, 1, +1, band),))
    return f.then(down).then(f).then(up)


def _row_shear(rows: Sequence[int], m: int, k: int, q: int, l2: int, d: int) -> BlockSlideMap:
    """x1 += m/(kq) exactly on the listed rows of height 1/l2."""
    if m % (k * q) == 0:
        return BlockSlideMap.identity(d)
    values = [Fraction(m, k * q) if r in set(rows) else Fraction(0) for r in range(l2)]
    step = plateau_target(values, 1)
    return BlockSlideMap(d, (BlockSlideMove(0, 1, +1, step),))


def _class_shear(classes: Sequence[int], m: int, k: int, q: int, l2: int, d: int) -> BlockSlideMap:
    """x2 += m/l2 exactly on the listed column classes (mod k);
    1/q-periodic in the first coordinate."""
    if m % l2 == 0:
        return BlockSlideMap.identity(d)
    values = [Fraction(m, l2) if c in set(classes) else Fraction(0) for c in range(k)]
    step = plateau_target(values, q)
    return BlockSlideMap(d, (BlockSlideMove(1, 0, +1, step),))


def build_transposition(i: int, j: int, k: int, q: int, l: int, d: int = 2) -> BlockSlideMap:
    """Swap the strip class (i, j) with the pivot class (0, l-1) on the
    kq x l strip partition (blockwise, fixing all other atoms).

    Implemented as a conjugated two-cycle on the half-height refinement:
    explicit row/class shears park the pivot and target halves in the
    two-cycle's four swap slots and retrieve them afterwards. Requires
    k >= 4 and l >= 2; (i, j) = (0, l-1) is the pivot itself and is
    rejected.
    """
    if k < 4:
        raise ParamOutOfRange(f"transpositions need k >= 4, got {k}")
    if l < 2:
        raise ParamOutOfRange(f"transpositions need l >= 2, got {l}")
    if not (0 <= i < k) or not (0 <= j < l):
        raise ParamOutOfRange(f"target ({i}, {j}) outside [0,{k}) x [0,{l})")
    if (i, j) == (0, l - 1):
        raise InvalidTarget("target coincides with the pivot class (0, l-1)")
    _check_dim(d)
    l2 = 2 * l  # half-height refinement

    inner: List[BlockSlideMap] = []
    if j < l - 1:
        inner.append(_row_shear((2 * j, 2 * j + 1), 1 - i, k, q, l2, d))
        inner.append(_class_shear((1,), 2 * (l - 1 - j), k, q, l2, d))
    elif i >= 2:  # j == l-1
        inner.append(_class_shear((i,), -2, k, q, l2, d))
        inner.append(_row_shear((l2 - 4, l2 - 3), 1 - i, k, q, l2, d))
        inner.append(_class_shear((1,), 2, k, q, l2, d))
    # i == 1, j == l-1: no inner part
    outer = [
        _row_shear((l2 - 2,), 2, k, q, l2, d),
        _class_shear((2, 3), 1, k, q, l2, d),
    ]
    conj = BlockSlideMap.compose(inner + outer) if inner else BlockSlideMap.compose(outer)
    core = build_two_cycle(k, q, l2, d)
    return conj.then(core).then(conj.inverse())


def decompose_permutation(
    perm: "np.ndarray", k: int, q: int, l: int, d: int = 2
) -> Tuple[Tuple[Tuple[int, int], ...], BlockSlideMap]:
    """Realize a rotation-equivariant permutation of the kq x l strip
    atoms as an explicit block-slide map.

    `perm` is either a permutation of the k*l column classes or a full
    permutation of the kq*l strip atoms, which must then be the
    blockwise lift of its quotient (NotEquivariant otherwise). Returns
    the pivot-transposition targets in application order together with
    the composed map. Requires k >= 4 and l >= 2.
    """
    if k < 4:
        raise ParamOutOfRange(f"decomposition needs k >= 4, got {k}")
    if l < 2:
        raise ParamOutOfRange(f"decomposition needs l >= 2, got {l}")
    perm = np.asarray(perm, dtype=np.int64)
    if len(perm) == k * l:
        quot = perm  # quotient input (for q = 1 this is also the full strip)
    elif len(perm) == k * q * l:
        quot = quotient_of(perm, k, q, l)
    else:
        raise NotEquivariant(
            f"permutation length {len(perm)} matches neither k*l={k*l} nor kq*l={k*q*l}"
        )
    if not is_permutation(quot):
        raise NotEquivariant("input is not a permutation")
    targets = star_factorization(quot, l)
    cache: Dict[Tuple[int, int], BlockSlideMap] = {}
    maps: List[BlockSlideMap] = []
    for t in targets:
        if t not in cache:
            cache[t] = build_transposition(t[0], t[1], k, q, l, d)
        maps.append(cache[t])
    composed = BlockSlideMap.compose(maps) if maps else BlockSlideMap.identity(d)
    return targets, composed


def realized_strip_permutation(
    targets: Sequence[Tuple[int, int]], k: int, q: int, l: int, d: int = 2
) -> "np.ndarray":
    """Predicted full strip permutation of a pivot-transposition product,
    computed by verifying each distinct transposition once with the exact
    box oracle and composing the induced permutations (valid because
    every gadget maps strip atoms rigidly onto strip atoms)."""
    strips = PartitionSpec.strips(k, q, l)
    cache: Dict[Tuple[int, int], "np.ndarray"] = {}
    out = identity_perm(k * q * l)
    for t in targets:
        t = (int(t[0]), int(t[1]))
        if t not in cache:
            gadget = build_transposition(t[0], t[1], k, q, l, d)
            cache[t] = induced_atom_permutation(gadget, strips)
        out = chain(out, cache[t])
    return out


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


def build_minimal_combinatorics(l: int, q: int, r: int, d: int = 2) -> BlockSlideMap:
    """Block-slide realization of the stripe-squeezing involution,
    extended 1/(lq)-equivariantly: the strip partition is l^3 q columns
    by l*r rows, with column classes taken mod l^2.

    For orbit-scale work use the O(1) evaluator in `minimal.py`; this
    explicit map is intended for small l and for cross-validation.
    """
    _check_dim(d)
    if l < 2 or q < 1 or r < 1:
        raise ParamOutOfRange("need l >= 2, q >= 1, r >= 1")
    quot = minimal_quotient_perm(l, r)
    _, composed = decompose_permutation(quot, l * l, l * q, l * r, d)
    return composed
