"""Exact verification oracles for block-slide maps.

Two interchangeable methods compute the permutation a map induces on a
partition's atoms:

- "grid": every lattice point at pitch 1/(4L) is pushed through the map
  (L = lcm of all step and partition denominators, so at least four
  samples per piece and per atom per axis, and images stay on the
  lattice). If any atom's samples scatter over several target atoms, or
  two atoms collide, `NotAtomPermutation` is raised.

- "cells": the same computation on the pitch-1/L lattice of cell
  corners. Because every breakpoint, value and period of every move is
  a multiple of 1/L, each move translates each 1/L cell rigidly onto
  another cell, so corner tracking covers every point of the torus, not
  just samples. This is the method of choice when (4L)^dim lattice
  points would be slow; results agree with "grid" (cross-checked in the
  test suite).

Both methods are exact integer computations. The lattice is walked in
chunks of `_CHUNK_POINTS` consecutive flat indices, each pushed through
the map's `CompiledMap`, so memory stays O(chunk * dim + atoms) however
large the lattice; `_GRID_POINT_BUDGET` bounds the lattice, and with it
the time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

import numpy as np

from ..errors import NotAtomPermutation, ParamOutOfRange
from .blockslide import BlockSlideMap, rotation_map
from .partitions import PartitionSpec

_GRID_POINT_BUDGET = 2_000_000
_CHUNK_POINTS = 1 << 16


def full_lattice(dim: int, M: int, start: int = 0, stop: Optional[int] = None) -> "np.ndarray":
    """Integer lattice points of [0, M)^dim as an array (dim, n), in
    row-major order (last coordinate fastest); `start` and `stop` select
    the flat indices [start, stop) of that order (default: all M^dim)."""
    stop = M**dim if stop is None else stop
    flat = np.arange(start, stop, dtype=np.int64)
    return np.stack(np.unravel_index(flat, (M,) * dim)).astype(np.int64, copy=False)


def _chunks(dim: int, M: int):
    """The lattice of `full_lattice(dim, M)`, `_CHUNK_POINTS` at a time."""
    n = M**dim
    for start in range(0, n, _CHUNK_POINTS):
        yield full_lattice(dim, M, start, min(start + _CHUNK_POINTS, n))


def _lattice_modulus(m: BlockSlideMap, parts, factor: int) -> int:
    L = m.denominator_lcm(extra=[p.boundary_denominator_lcm() for p in parts])
    return factor * L


def induced_atom_permutation(
    m: BlockSlideMap,
    part: PartitionSpec,
    target: Optional[PartitionSpec] = None,
    method: str = "auto",
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
    if method not in ("auto", "grid", "cells"):
        raise ParamOutOfRange(f"unknown method {method!r}")
    if method == "auto":
        M4 = _lattice_modulus(m, (part, target), 4)
        method = "grid" if M4**m.dim <= _GRID_POINT_BUDGET else "cells"
    factor = 4 if method == "grid" else 1
    M = _lattice_modulus(m, (part, target), factor)
    if M**m.dim > 64 * _GRID_POINT_BUDGET:
        raise ParamOutOfRange(
            f"lattice of {M}^{m.dim} points is beyond the exact-oracle budget"
        )
    cm = m.compiled(M)
    n = part.atom_count
    perm = np.full(n, -1, dtype=np.int64)  # first target seen per source atom
    split = np.zeros(n, dtype=bool)
    for pts in _chunks(m.dim, M):
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
    """Check m o phi^{1/q} == phi^{1/q} o m, structurally and on the lattice.

    The structural part verifies that every move reading the first
    coordinate has a 1/q-periodic step (each such move then commutes with
    the rotation individually). The lattice part compares both
    compositions pointwise at a pitch where all maps are exact; for
    rigid maps equality on cell corners is equality everywhere.
    """
    structural = m.commutes_with_rotation(q)
    phi = rotation_map(Fraction(1, q), m.dim)
    L = lcm(m.denominator_lcm(), q)
    M = L if L**m.dim > _GRID_POINT_BUDGET else 4 * L
    if M**m.dim > 64 * _GRID_POINT_BUDGET:
        raise ParamOutOfRange("lattice beyond the exact-oracle budget")
    a, b = m.then(phi).compiled(M), phi.then(m).compiled(M)
    lattice_ok = all(np.array_equal(a.apply(pts), b.apply(pts)) for pts in _chunks(m.dim, M))
    return structural and lattice_ok
