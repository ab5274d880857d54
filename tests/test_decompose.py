import random

import numpy as np
import pytest

from abctorus.errors import NotEquivariant
from abctorus.exact.builders import build_transposition, decompose_permutation
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.permutations import (
    chain,
    identity_perm,
    lift_quotient,
    quotient_of,
    rotation_shift_perm,
    star_factorization,
)


def apply_star(targets, k: int, l: int) -> "np.ndarray":
    """Reference: the pivot transpositions composed on the k*l classes,
    by array arithmetic alone."""
    p = identity_perm(k * l)
    pivot = l - 1
    for (c, j) in targets:
        t = c * l + j
        swap = identity_perm(k * l)
        swap[pivot], swap[t] = t, pivot
        p = chain(p, swap)
    return p


def realized_strip_permutation(targets, k: int, q: int, l: int) -> "np.ndarray":
    """Reference: the strip permutation of a pivot-transposition product,
    each distinct transposition verified once with the exact box oracle
    and the induced permutations composed (every gadget maps strip atoms
    rigidly onto strip atoms)."""
    strips = PartitionSpec.strips(k, q, l)
    cache = {}
    out = identity_perm(k * q * l)
    for t in targets:
        t = (int(t[0]), int(t[1]))
        if t not in cache:
            cache[t] = induced_atom_permutation(build_transposition(t[0], t[1], k, q, l), strips)
        out = chain(out, cache[t])
    return out


def test_lift_and_quotient_are_inverse():
    rng = random.Random(1)
    k, q, l = 4, 3, 2
    quot = list(range(k * l))
    rng.shuffle(quot)
    full = lift_quotient(quot, k, q, l)
    back = quotient_of(full, k, q, l)
    assert list(back) == quot


def test_quotient_of_rejects_non_equivariant():
    k, q, l = 4, 2, 2
    full = list(range(k * q * l))
    # swap two cells in one block only: breaks equivariance
    full[0], full[1] = full[1], full[0]
    with pytest.raises(NotEquivariant):
        quotient_of(full, k, q, l)


def test_rotation_shift_perm_moves_columns_forward():
    p = rotation_shift_perm(2, 2, 2)
    # column c -> c+2 (mod 4), rows kept: cell (c, r) at index c*2+r
    assert list(p) == [4, 5, 6, 7, 0, 1, 2, 3]


def test_star_factorization_reconstructs_permutation():
    rng = random.Random(2)
    for l, k in [(2, 4), (3, 4), (2, 6)]:
        n = k * l
        for _ in range(10):
            quot = list(range(n))
            rng.shuffle(quot)
            targets = star_factorization(quot, l)
            assert all(t != (0, l - 1) for t in targets)
            got = apply_star(targets, k, l)
            assert list(got) == quot


def test_star_factorization_of_identity_is_empty():
    assert star_factorization(list(range(8)), 2) == ()


@pytest.mark.parametrize("k,q,l,seed", [(4, 1, 2, 0), (4, 2, 2, 1), (4, 1, 3, 2), (6, 1, 2, 3)])
def test_decomposition_realizes_quotient_exactly(k, q, l, seed):
    rng = random.Random(seed)
    quot = list(range(k * l))
    rng.shuffle(quot)
    targets, m = decompose_permutation(quot, k, q, l)
    S = PartitionSpec.strips(k, q, l)
    got = induced_atom_permutation(m, S)
    assert list(got) == list(lift_quotient(quot, k, q, l))
    if q > 1:
        assert commutes_with_rotation(m, q)
        assert m.commutes_with_rotation(q)


def test_decomposition_rejects_bad_lengths_and_shears():
    k, q, l = 4, 2, 2
    with pytest.raises(NotEquivariant):
        decompose_permutation(list(range(5)), k, q, l)
    # a permutation of all kq*l atoms is not a quotient
    with pytest.raises(NotEquivariant):
        decompose_permutation(list(range(k * q * l)), k, q, l)
    quot = list(range(k * l))
    quot[0] = 1
    with pytest.raises(NotEquivariant):
        decompose_permutation(quot, k, q, l)


def test_fast_realization_route_matches_lift():
    rng = random.Random(5)
    k, q, l = 6, 2, 8
    quot = list(range(k * l))
    rng.shuffle(quot)
    targets, _ = decompose_permutation(quot, k, q, l)
    fast = realized_strip_permutation(targets, k, q, l)
    assert list(fast) == list(lift_quotient(quot, k, q, l))


def test_identity_decomposes_to_no_targets():
    targets, m = decompose_permutation(list(range(8)), 4, 1, 2)
    assert targets == ()
    assert list(realized_strip_permutation((), 4, 1, 2)) == list(identity_perm(8))
