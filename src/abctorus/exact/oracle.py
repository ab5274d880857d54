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

Both methods are exact integer computations.
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


def full_lattice(dim: int, M: int) -> "np.ndarray":
    """All integer lattice points of [0, M)^dim as an array (dim, M^dim)."""
    axes = [np.arange(M, dtype=np.int64)] * dim
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh])


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
    pts = full_lattice(m.dim, M)
    src = part.atom_index_grid(pts, M)
    img = m.compiled(M).apply(pts)
    dst = target.atom_index_grid(img, M)

    n = part.atom_count
    perm = np.full(n, -1, dtype=np.int64)
    # first-seen target per source atom, then consistency check in bulk
    order = np.argsort(src, kind="stable")
    s_sorted = src[order]
    d_sorted = dst[order]
    first = np.searchsorted(s_sorted, np.arange(n), side="left")
    last = np.searchsorted(s_sorted, np.arange(n), side="right")
    if np.any(first == last):
        missing = int(np.argmax(first == last))
        raise NotAtomPermutation(f"atom {missing} received no samples")
    perm = d_sorted[first]
    expanded = perm[s_sorted]
    if not np.array_equal(expanded, d_sorted):
        bad = int(s_sorted[np.argmax(expanded != d_sorted)])
        raise NotAtomPermutation(
            f"atom {bad} is split across several target atoms"
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
    pts = full_lattice(m.dim, M)
    a = m.then(phi).compiled(M).apply(pts)
    b = phi.then(m).compiled(M).apply(pts)
    lattice_ok = bool(np.array_equal(a, b))
    return structural and lattice_ok
