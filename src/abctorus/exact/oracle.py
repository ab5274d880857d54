"""Exact verification oracles for block-slide maps.

Both oracles walk one lattice of boxes. `BlockSlideMap.box_grid()` gives
(cols, rows), pitches 1/cols on the first coordinate and 1/rows on every
other one, fine enough that each move's step is constant across every
box (its breakpoints and period lie on the source axis's pitch) and
shifts by a whole number of pitches of the target axis. So each move,
and with it the whole map, translates every box rigidly onto a box.
Refining the lattice by the partitions' cell counts makes every atom a
union of boxes as well. A rigid translation of a box is fixed by the
image of any one of its points, so pushing one point per box, its
lower-left corner, through the map is a certificate, not a sample:

- `induced_atom_permutation` reads off, box by box, the source atom the
  box lies in and the target atom its image lies in;
- `commutes_with_rotation` compares m o phi^{1/q} with phi^{1/q} o m on
  the boxes of `m.then(phi).box_grid()`. Both compositions are made of
  the same moves, so both translate those boxes rigidly, and they agree
  on a box as soon as they agree on its corner.

The corners are integers at the modulus M = lcm(L, box counts), where L
is the map's denominator lcm, and they go through the map's
`CompiledMap` `_CHUNK_POINTS` at a time, so memory stays
O(chunk * dim + atoms) however many boxes there are. More than
64 * `_GRID_POINT_BUDGET` boxes are refused, which bounds the time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from ..errors import NotAtomPermutation, ParamOutOfRange
from .blockslide import BlockSlideMap, rotation_map
from .partitions import PartitionSpec

_GRID_POINT_BUDGET = 2_000_000
_CHUNK_POINTS = 1 << 16


def full_lattice(counts: Sequence[int], start: int = 0,
                 stop: Optional[int] = None) -> "np.ndarray":
    """Indices of the cells of a grid with counts[c] cells along axis c,
    as an array (dim, n) in row-major order (last coordinate fastest);
    `start` and `stop` select the flat indices [start, stop) of that
    order (default: every cell)."""
    stop = prod(counts) if stop is None else stop
    flat = np.arange(start, stop, dtype=np.int64)
    return np.stack(np.unravel_index(flat, tuple(counts))).astype(np.int64, copy=False)


def _box_lattice(m: BlockSlideMap,
                 parts: Iterable[PartitionSpec] = ()) -> Tuple[int, Tuple[int, ...]]:
    """(M, counts): boxes per axis of `m`'s box grid refined by the cell
    counts of `parts`, and the modulus at which their corners are
    integers and `m`'s program runs."""
    cols, rows = m.box_grid()
    counts = (cols,) + (rows,) * (m.dim - 1)
    for p in parts:
        counts = tuple(lcm(n, c) for n, c in zip(counts, p.counts))
    if prod(counts) > 64 * _GRID_POINT_BUDGET:
        raise ParamOutOfRange(
            f"box lattice {' x '.join(map(str, counts))} is beyond the exact-oracle budget"
        )
    return lcm(m.denominator_lcm(), *counts), counts


def _corners(M: int, counts: Tuple[int, ...]):
    """The lower-left box corners at modulus M, `_CHUNK_POINTS` boxes at a time."""
    pitch = np.array([M // n for n in counts], dtype=np.int64)[:, None]
    n = prod(counts)
    for start in range(0, n, _CHUNK_POINTS):
        yield full_lattice(counts, start, min(start + _CHUNK_POINTS, n)) * pitch


def induced_atom_permutation(
    m: BlockSlideMap,
    part: PartitionSpec,
    target: Optional[PartitionSpec] = None,
) -> "np.ndarray":
    """The permutation `m` induces from `part`'s atoms to `target`'s.

    Returns an int64 array `perm` with perm[i] = index of the target atom
    containing the image of atom i. `target` defaults to `part`. Raises
    `NotAtomPermutation` if the map does not send atoms onto atoms
    bijectively.
    """
    if target is None:
        target = part
    if part.dim != m.dim or target.dim != m.dim:
        raise ParamOutOfRange("partition/map dimension mismatch")
    if part.atom_count != target.atom_count:
        raise NotAtomPermutation(
            f"atom counts differ: {part.atom_count} vs {target.atom_count}"
        )
    M, counts = _box_lattice(m, (part, target))
    cm = m.compiled(M)
    n = part.atom_count
    perm = np.full(n, -1, dtype=np.int64)  # first target seen per source atom
    split = np.zeros(n, dtype=bool)
    for pts in _corners(M, counts):
        src = part.atom_index_grid(pts, M)
        dst = target.atom_index_grid(cm.apply(pts), M)
        fresh = perm[src] < 0
        perm[src[fresh]] = dst[fresh]
        split[src[perm[src] != dst]] = True
    if np.any(perm < 0):
        raise NotAtomPermutation(f"atom {int(np.argmax(perm < 0))} received no samples")
    if np.any(split):
        raise NotAtomPermutation(
            f"atom {int(np.argmax(split))} is split across several target atoms"
        )
    if np.unique(perm).size != n:
        raise NotAtomPermutation("two atoms map into the same target atom")
    return perm


def commutes_with_rotation(m: BlockSlideMap, q: int) -> bool:
    """Check m o phi^{1/q} == phi^{1/q} o m, structurally and on the boxes.

    The structural part verifies that every move reading the first
    coordinate has a 1/q-periodic step (each such move then commutes with
    the rotation individually). The box part compares both compositions
    on one corner per box, which decides equality everywhere.
    """
    structural = m.commutes_with_rotation(q)
    phi = rotation_map(Fraction(1, q), m.dim)
    m_phi = m.then(phi)
    M, counts = _box_lattice(m_phi)
    a, b = m_phi.compiled(M), phi.then(m).compiled(M)
    boxes_ok = all(np.array_equal(a.apply(pts), b.apply(pts)) for pts in _corners(M, counts))
    return structural and boxes_ok
