"""Named rational partitions of the 2-torus and exact atom indexing.

Every partition the constructions use has one of two shapes:

- a product grid: `counts = (cols, rows)` equal cells along x1 and x2
  (1 means the coordinate is free); atom index is mixed-radix over the
  axes with more than one cell, x1 most significant;
- a tower R_{a,k,q}: `counts = (k q, 1)` together with the index
  function `a` of length k; atom m is the union over residues i in [0, k)
  of the columns [c/(kq), (c+1)/(kq)) x T^1 with
  c = a(i)*k + i + m*k (mod kq); index = m.

Each `PartitionSpec` provides an exact point -> atom index map (on a
`TorusPoint`, on one lattice point's Python-int numerators, and
vectorized on int64 lattice arrays), all through one atom rule.

Grid layouts of the named constructors (documented so permutations are
reproducible):

- `blocks(q)`: vertical blocks [i/q, (i+1)/q) x T^1; index = i.
- `grid(l, q)`: x1 at pitch 1/(l q), x2 at pitch 1/l;
  index = i1 * l + i2.
- `strips(k, q, l)`: cells [i/(kq), ...) x [j/l, ...); index = i * l + j.
- `grid_min(l, q, r)`: cells at pitches 1/(l^3 q) horizontally and
  1/(l r) vertically; index = col * (l r) + row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import InvalidIndexFunction, ParamOutOfRange
from ..towers import require_int
from .points import TorusPoint, to_lattice


def check_index_function(a: Sequence[int], k: int, q: int) -> Tuple[int, ...]:
    """The index function a: {0..k-1} -> {0..q-1} of a tower as a tuple of
    ints; sizes below 1 and non-integers are refused with ParamOutOfRange,
    a sequence of the wrong length or with values outside [0, q) with
    InvalidIndexFunction."""
    require_int(k, 1, "k")
    require_int(q, 1, "q")
    try:
        a = tuple(a)
    except TypeError:
        raise InvalidIndexFunction(f"index function must be a sequence, got {a!r}") from None
    for v in a:
        require_int(v, None, "index function value")
    if len(a) != k:
        raise InvalidIndexFunction(f"index function has length {len(a)}, expected {k}")
    if any(not (0 <= v < q) for v in a):
        raise InvalidIndexFunction("index function values must lie in [0, q)")
    return a


def tower_level(col, a, k: int, q: int):
    """The tower level m = (b - a(c)) mod q of column col = c + k b (c < k)
    of the kq-column grid, the atom of R_{a,k,q} that holds it. `col` and
    `a` are an int and a tuple, or int64 arrays."""
    return (col // k - a[col % k]) % q


@dataclass(frozen=True)
class PartitionSpec:
    counts: Tuple[int, int]
    a: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if len(self.counts) != 2:
            raise ParamOutOfRange(
                f"a partition of the 2-torus has two cell counts, got {self.counts!r}")
        for n in self.counts:
            require_int(n, 1, "cell count")

    # -- constructors -------------------------------------------------------

    @staticmethod
    def blocks(q: int) -> "PartitionSpec":
        require_int(q, 1, "q")
        return PartitionSpec((q, 1))

    @staticmethod
    def grid(l: int, q: int) -> "PartitionSpec":
        require_int(l, 1, "l")
        require_int(q, 1, "q")
        return PartitionSpec((l * q, l))

    @staticmethod
    def tower(a: Sequence[int], k: int, q: int) -> "PartitionSpec":
        a = check_index_function(a, k, q)
        return PartitionSpec((k * q, 1), a)

    @staticmethod
    def strips(k: int, q: int, l: int) -> "PartitionSpec":
        for name, v in (("k", k), ("q", q), ("l", l)):
            require_int(v, 1, name)
        return PartitionSpec((k * q, l))

    @staticmethod
    def grid_min(l: int, q: int, r: int) -> "PartitionSpec":
        require_int(l, 2, "l")
        require_int(q, 1, "q")
        require_int(r, 1, "r")
        return PartitionSpec((l**3 * q, l * r))

    # -- basic data ----------------------------------------------------------

    @property
    def atom_count(self) -> int:
        if self.a is not None:
            return self.counts[0] // len(self.a)
        return prod(self.counts)

    # -- exact indexing ------------------------------------------------------

    def atom_index(self, x: TorusPoint) -> int:
        return self.lattice_atom(*to_lattice(x))

    def lattice_atom(self, ys, M: int) -> int:
        """Atom index of the lattice point ys/M, given by its numerators
        ys (Python ints in [0, M)) over any positive modulus M. On a
        partition with one row, x2 is not read and may be left out."""
        return self._atom(ys, M, self.a)

    def atom_index_grid(self, pts: "np.ndarray", M: int) -> "np.ndarray":
        """Vectorized atom indices for integer lattice points (2, n) mod M."""
        return self._atom(pts, M, None if self.a is None else np.array(self.a, dtype=np.int64))

    def _atom(self, ys, M: int, a):
        """The atom rule on numerators ys over M, one point's Python ints
        or the rows of an int64 array; `a` is the tower's index function,
        as a tuple or as its int64 array, so both paths share one
        formula. An x2 with one row adds nothing, which keeps the block
        partitions at a single array expression on large lattices."""
        counts = self.counts
        idx = ys[0] * counts[0] // M
        if self.a is not None:
            k = len(self.a)
            return tower_level(idx, a, k, counts[0] // k)
        rows = counts[1]
        if rows > 1:
            idx = idx * rows + ys[1] * rows // M
        return idx

    # -- geometry helpers ----------------------------------------------------

    def tower_columns(self, index: int) -> Tuple[int, ...]:
        """For a tower: the sorted fine-column indices (at pitch 1/(kq))
        making up atom `index`."""
        if self.a is None:
            raise ParamOutOfRange("tower_columns only applies to towers")
        k, n = len(self.a), self.counts[0]
        return tuple(sorted((v * k + i + index * k) % n for i, v in enumerate(self.a)))
