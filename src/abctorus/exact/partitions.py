"""Named rational partitions of the torus and exact atom indexing.

Every partition the constructions use has one of two shapes:

- a product grid: `counts[c]` equal cells along coordinate c (1 means
  the coordinate is free); atom index is mixed-radix over the axes with
  more than one cell, x1 most significant;
- a tower R_{a,k,q}: `counts = (k q, 1, ...)` together with the index
  function `a` of length k; atom m is the union over residues i in [0, k)
  of the columns [c/(kq), (c+1)/(kq)) x T^{d-1} with
  c = a(i)*k + i + m*k (mod kq); index = m.

Each `PartitionSpec` provides an exact point -> atom index map (on a
`TorusPoint`, on one lattice point's Python-int numerators, and
vectorized on int64 lattice arrays), all through one atom rule.

Grid layouts of the named constructors (documented so permutations are
reproducible):

- `blocks(q, d)`: vertical blocks [i/q, (i+1)/q) x T^{d-1}; index = i.
  `circle(q)` is the same with d = 1.
- `grid_stage(j, l, q, d)`: x1 at pitch 1/(l^j q), the next d-j
  coordinates at pitch 1/l, the last j-1 coordinates free.
  `grid(l, q, d)` is stage j = 1:
  index = i1 * l^(d-1) + i2 * l^(d-2) + ... + i_d.
- `strips(k, q, l)`: d = 2 cells [i/(kq), ...) x [j/l, ...);
  index = i * l + j.
- `grid_min(l, q, r)`: d = 2 cells at pitches 1/(l^3 q) horizontally and
  1/(l r) vertically; index = col * (l r) + row.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Tuple

import numpy as np

from ..errors import InvalidIndexFunction, ParamOutOfRange
from .points import TorusPoint, to_lattice


@dataclass(frozen=True)
class PartitionSpec:
    counts: Tuple[int, ...]
    a: Optional[Tuple[int, ...]] = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def blocks(q: int, dim: int = 2) -> "PartitionSpec":
        if q < 1:
            raise ParamOutOfRange("q must be >= 1")
        if dim < 1:
            raise ParamOutOfRange("dim must be >= 1")
        return PartitionSpec((q,) + (1,) * (dim - 1))

    @staticmethod
    def circle(q: int) -> "PartitionSpec":
        return PartitionSpec.blocks(q, 1)

    @staticmethod
    def grid(l: int, q: int, dim: int = 2) -> "PartitionSpec":
        return PartitionSpec.grid_stage(1, l, q, dim)

    @staticmethod
    def grid_stage(j: int, l: int, q: int, dim: int = 2) -> "PartitionSpec":
        if not (1 <= j <= dim):
            raise ParamOutOfRange("need 1 <= j <= dim")
        if l < 1 or q < 1:
            raise ParamOutOfRange("need l, q >= 1")
        return PartitionSpec((l**j * q,) + (l,) * (dim - j) + (1,) * (j - 1))

    @staticmethod
    def tower(a: Tuple[int, ...], k: int, q: int, dim: int = 2) -> "PartitionSpec":
        a = tuple(int(v) for v in a)
        if len(a) != k:
            raise InvalidIndexFunction(f"index function has length {len(a)}, expected k={k}")
        if any(not (0 <= v < q) for v in a):
            raise InvalidIndexFunction("index function values must lie in [0, q)")
        if k < 1 or dim < 1:
            raise ParamOutOfRange("need k, dim >= 1")
        return PartitionSpec((k * q,) + (1,) * (dim - 1), a)

    @staticmethod
    def strips(k: int, q: int, l: int) -> "PartitionSpec":
        if k < 1 or q < 1 or l < 1:
            raise ParamOutOfRange("need k, q, l >= 1")
        return PartitionSpec((k * q, l))

    @staticmethod
    def grid_min(l: int, q: int, r: int) -> "PartitionSpec":
        if l < 2 or q < 1 or r < 1:
            raise ParamOutOfRange("need l >= 2, q >= 1, r >= 1")
        return PartitionSpec((l**3 * q, l * r))

    # -- basic data ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def atom_count(self) -> int:
        if self.a is not None:
            return self.counts[0] // len(self.a)
        return prod(self.counts)

    # -- exact indexing ------------------------------------------------------

    def atom_index(self, x: TorusPoint) -> int:
        return self.lattice_atom(*to_lattice(x, self.dim))

    def lattice_atom(self, ys, M: int) -> int:
        """Atom index of the lattice point ys/M, given by its numerators
        ys (Python ints in [0, M)) over any positive modulus M. Trailing
        coordinates on which the partition has one cell are not read and
        may be left out."""
        return self._atom(ys, M, self.a)

    def atom_index_grid(self, pts: "np.ndarray", M: int) -> "np.ndarray":
        """Vectorized atom indices for integer lattice points (dim, n) mod M."""
        return self._atom(pts, M, None if self.a is None else np.array(self.a, dtype=np.int64))

    def _atom(self, ys, M: int, a):
        """The atom rule on numerators ys over M, one point's Python ints
        or the rows of an int64 array; `a` is the tower's index function,
        as a tuple or as its int64 array, so both paths share one
        formula. Axes with one cell add nothing, which keeps the block
        partitions at a single array expression on large lattices."""
        counts = self.counts
        idx = ys[0] * counts[0] // M
        if self.a is not None:
            k = len(self.a)
            return (idx // k - a[idx % k]) % (counts[0] // k)
        for y, n in zip(ys[1:], counts[1:]):
            if n > 1:
                idx = idx * n + y * n // M
        return idx

    # -- geometry helpers ----------------------------------------------------

    def tower_columns(self, index: int) -> Tuple[int, ...]:
        """For a tower: the sorted fine-column indices (at pitch 1/(kq))
        making up atom `index`."""
        if self.a is None:
            raise ParamOutOfRange("tower_columns only applies to towers")
        k, n = len(self.a), self.counts[0]
        return tuple(sorted((v * k + i + index * k) % n for i, v in enumerate(self.a)))
