"""Exact verification oracles: the one box-lattice walk.

Every exact conjugation (`engine.Conjugation`: a block-slide map, the
closed-form tower map or the O(1) minimality map) comes with a lattice of boxes. `box_grid()` gives
(cols, rows), pitches 1/cols on the first coordinate and 1/rows on the
second, fine enough that the map translates every box rigidly onto a
box: for a block-slide map each move's step is constant across every
box (its breakpoints and period lie on the source axis's pitch) and
shifts by a whole number of pitches of the target axis. Refining the
lattice by the partitions' cell counts makes every atom a union of boxes
as well. A rigid translation of a box is fixed by the image of any one
of its points, so pushing one point per box, its lower-left corner,
through the map is a certificate, not a sample:

- `induced_atom_permutation` reads off, box by box, the source atom the
  box lies in and the target atom its image lies in;
- `misplaced_boxes` counts, per source atom, the boxes whose image
  leaves the target atom with the same index (the exact correspondence
  defect of the engine).

`commutes_with_rotation` walks no boxes: the map's structural verdict
already decides it, since a move that reads the first coordinate
through a 1/q-periodic step, or reads any other coordinate, commutes
with the rotation by 1/q on its own.

The corners are integers at the modulus M = lcm(L, box counts), where L
is the map's denominator lcm, and they go through the map's compiled
integer rule `_CHUNK_POINTS` at a time, so memory stays
O(chunk + atoms) however many boxes there are. The time grows
with boxes x moves, the map's `move_count()`: above
64 * `_GRID_POINT_BUDGET` box moves `_box_lattice` refuses the walk. It
is the only lattice budget of the package.
"""

from __future__ import annotations

from math import lcm, prod
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..errors import NotAtomPermutation, ParamOutOfRange
from .blockslide import BlockSlideMap
from .partitions import PartitionSpec

if TYPE_CHECKING:
    from ..engine import Conjugation

_GRID_POINT_BUDGET = 2_000_000
_CHUNK_POINTS = 1 << 16


def full_lattice(counts: Sequence[int], start: int = 0,
                 stop: Optional[int] = None) -> "np.ndarray":
    """Indices of the cells of a grid with counts[c] cells along axis c,
    as an array (len(counts), n) in row-major order (last coordinate fastest);
    `start` and `stop` select the flat indices [start, stop) of that
    order (default: every cell)."""
    stop = prod(counts) if stop is None else stop
    flat = np.arange(start, stop, dtype=np.int64)
    return np.stack(np.unravel_index(flat, tuple(counts))).astype(np.int64, copy=False)


def _box_lattice(m: "Conjugation",
                 parts: Iterable[PartitionSpec] = ()) -> Tuple[int, Tuple[int, ...]]:
    """(M, counts): boxes per axis of `m`'s box grid refined by the cell
    counts of `parts`, and the modulus at which their corners are
    integers and `m`'s program runs."""
    counts = m.box_grid()
    for p in parts:
        counts = tuple(lcm(n, c) for n, c in zip(counts, p.counts))
    boxes, moves = prod(counts), m.move_count()
    if boxes * max(moves, 1) > 64 * _GRID_POINT_BUDGET:
        raise ParamOutOfRange(
            f"box lattice {' x '.join(map(str, counts))} ({boxes:,} boxes) through "
            f"{moves:,} moves is beyond the exact-oracle budget of "
            f"{64 * _GRID_POINT_BUDGET:,} box moves"
        )
    return lcm(m.denominator_lcm(), *counts), counts


def _corners(M: int, counts: Tuple[int, ...]):
    """The lower-left box corners at modulus M, `_CHUNK_POINTS` boxes at a time."""
    pitch = np.array([M // n for n in counts], dtype=np.int64)[:, None]
    n = prod(counts)
    for start in range(0, n, _CHUNK_POINTS):
        yield full_lattice(counts, start, min(start + _CHUNK_POINTS, n)) * pitch


def _atom_pairs(m: "Conjugation", part: PartitionSpec,
                target: PartitionSpec) -> Iterator[Tuple["np.ndarray", "np.ndarray"]]:
    """(source atoms, target atoms) of the box corners and of their images
    under `m`, as two int64 arrays per chunk of `_CHUNK_POINTS` boxes."""
    M, counts = _box_lattice(m, (part, target))
    cm = m.compiled(M)
    for pts in _corners(M, counts):
        yield part.atom_index_grid(pts, M), target.atom_index_grid(cm.apply(pts), M)


def induced_atom_permutation(
    m: "Conjugation",
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
    if part.atom_count != target.atom_count:
        raise NotAtomPermutation(
            f"atom counts differ: {part.atom_count} vs {target.atom_count}"
        )
    n = part.atom_count
    perm = np.full(n, -1, dtype=np.int64)  # first target seen per source atom
    split = np.zeros(n, dtype=bool)
    for src, dst in _atom_pairs(m, part, target):
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


def misplaced_boxes(m: "Conjugation", part: PartitionSpec,
                    target: PartitionSpec) -> Tuple["np.ndarray", int]:
    """(misplaced, boxes): misplaced[i] counts the boxes of `part`'s atom
    i whose image under `m` lies outside `target`'s atom i, and `boxes`
    is the number of boxes of the whole lattice, each of measure
    1/boxes."""
    misplaced = np.zeros(part.atom_count, dtype=np.int64)
    boxes = 0
    for src, dst in _atom_pairs(m, part, target):
        misplaced += np.bincount(src[src != dst], minlength=misplaced.size)
        boxes += src.size
    return misplaced, boxes


def commutes_with_rotation(m: BlockSlideMap, q: int) -> bool:
    """Whether m o phi^{1/q} == phi^{1/q} o m, by the structural verdict
    `m.commutes_with_rotation(q)`. True is a proof: every move reading
    the first coordinate has a 1/q-periodic step, so it commutes with
    the rotation on its own, and so does every move reading another
    coordinate. False means some move reads the first coordinate through
    a step that is not 1/q-periodic. No box is walked."""
    return m.commutes_with_rotation(q)
