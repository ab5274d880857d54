"""Array permutations, cycle notation, and rotation-equivariant lifts.

Permutations are numpy int64 arrays p with p[i] = image of i. The
composition helper `chain(first, then_)` applies `first` first, so
chain(f, g) is the function g o f.

For the strip partitions S_{kq,l} (columns of width 1/(kq), rows of
height 1/l), atom (i, j) has index i*l + j. The rotation by 1/q shifts
columns by k; a permutation commuting with it is determined by its
action on the k*l column classes. `lift_quotient` produces the
blockwise lift (block offsets preserved), which is exactly what products
of the pivot transpositions realize.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import NotEquivariant, ParamOutOfRange


def identity_perm(n: int) -> "np.ndarray":
    return np.arange(n, dtype=np.int64)


def chain(first: "np.ndarray", then_: "np.ndarray") -> "np.ndarray":
    """Composite permutation: apply `first`, then `then_`."""
    return then_[first]


def is_permutation(p: "np.ndarray") -> bool:
    p = np.asarray(p)
    return p.ndim == 1 and np.array_equal(np.sort(p), np.arange(len(p)))


def cycles(p: "np.ndarray") -> Tuple[Tuple[int, ...], ...]:
    """Disjoint cycles, fixed points omitted; each cycle starts at its
    smallest element, cycles sorted by first element."""
    p = np.asarray(p)
    seen = np.zeros(len(p), dtype=bool)
    out: List[Tuple[int, ...]] = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        j = int(p[start])
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = int(p[j])
        out.append(tuple(cyc))
    return tuple(out)


def format_cycles(p: "np.ndarray") -> str:
    cs = cycles(p)
    if not cs:
        return "()"
    return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cs)


# ---------------------------------------------------------------------------
# Equivariant strip permutations.
# ---------------------------------------------------------------------------


def rotation_shift_perm(k: int, q: int, l: int) -> "np.ndarray":
    """The permutation of the kq*l strip atoms induced by the rotation
    phi^{1/q} (columns shift by k)."""
    n = k * q * l
    idx = np.arange(n, dtype=np.int64)
    i, j = idx // l, idx % l
    return ((i + k) % (k * q)) * l + j


def lift_quotient(quot: "np.ndarray", k: int, q: int, l: int) -> "np.ndarray":
    """Blockwise lift of a permutation of the k*l column classes to the
    kq*l strip atoms (block offsets preserved)."""
    quot = np.asarray(quot, dtype=np.int64)
    if len(quot) != k * l or not is_permutation(quot):
        raise NotEquivariant("quotient input is not a permutation of k*l classes")
    n = k * q * l
    idx = np.arange(n, dtype=np.int64)
    i, j = idx // l, idx % l
    c, b = i % k, i // k
    img = quot[c * l + j]
    c2, j2 = img // l, img % l
    return (c2 + k * b) * l + j2


def quotient_of(full: "np.ndarray", k: int, q: int, l: int) -> "np.ndarray":
    """Quotient class permutation of a full strip permutation that must be
    a blockwise lift; raises NotEquivariant otherwise."""
    full = np.asarray(full, dtype=np.int64)
    if len(full) != k * q * l or not is_permutation(full):
        raise NotEquivariant("input is not a permutation of the kq*l strip atoms")
    rot = rotation_shift_perm(k, q, l)
    if not np.array_equal(chain(rot, full), chain(full, rot)):
        raise NotEquivariant("permutation does not commute with the 1/q rotation")
    quot = np.empty(k * l, dtype=np.int64)
    for c in range(k):
        for j in range(l):
            img = int(full[c * l + j])
            i2, j2 = img // l, img % l
            quot[c * l + j] = (i2 % k) * l + j2
    if not np.array_equal(lift_quotient(quot, k, q, l), full):
        raise NotEquivariant(
            "equivariant permutation is not the blockwise lift of its quotient"
        )
    return quot


def star_factorization(quot: "np.ndarray", l: int) -> Tuple[Tuple[int, int], ...]:
    """Factor a permutation of the k*l classes into transpositions
    through the pivot class (0, l-1).

    Returns the (class, row) targets in application order: composing the
    pivot transpositions (pivot target_1), (pivot target_2), ... first to
    last realizes the input permutation. A cycle (c1 c2 ... cr) avoiding
    the pivot contributes [c1, c2, ..., cr, c1]; a cycle through the
    pivot contributes its successive images [c2, ..., cr].
    """
    quot = np.asarray(quot, dtype=np.int64)
    if not is_permutation(quot):
        raise NotEquivariant("input is not a permutation")
    if len(quot) % l != 0:
        raise ParamOutOfRange("length of quotient not a multiple of l")
    pivot = l - 1  # class 0, top row
    order: List[int] = []
    for cyc in cycles(quot):
        if pivot in cyc:
            i = cyc.index(pivot)
            rotated = cyc[i:] + cyc[:i]  # starts at the pivot
            order.extend(rotated[1:])
        else:
            order.extend(cyc)
            order.append(cyc[0])
    return tuple((int(t) // l, int(t) % l) for t in order)
