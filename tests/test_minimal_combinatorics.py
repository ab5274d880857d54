from fractions import Fraction

import numpy as np
import pytest

from abctorus.errors import ParamOutOfRange
from abctorus.exact.builders import (
    build_minimal_combinatorics,
    minimal_quotient_perm,
)
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.permutations import lift_quotient
from abctorus.exact.steps import build_trapping_step
from abctorus.minimal import MinimalCombinatorics, MinimalConjugation

F = Fraction


def cell(perm, l, r, col, row):
    lr = l * r
    return divmod(int(perm[col * lr + row]), lr)


def test_quotient_exchange_reference_values():
    # l = 3, r = 4: column classes 0..8, row classes 0..11
    perm = minimal_quotient_perm(3, 4)
    assert cell(perm, 3, 4, 2, 5) == (1, 9)
    assert cell(perm, 3, 4, 1, 9) == (2, 5)
    assert cell(perm, 3, 4, 4, 2) == (5, 1)
    assert cell(perm, 3, 4, 5, 1) == (4, 2)


def test_quotient_is_an_involution():
    for (l, r) in [(2, 2), (3, 4), (4, 3)]:
        perm = minimal_quotient_perm(l, r)
        n = len(perm)
        assert n == l * l * l * r
        assert all(perm[perm[i]] == i for i in range(n))


def test_low_columns_swap_block_and_row_digits():
    # for column class v < l, cell (v, J*r + rho) trades v with J
    perm = minimal_quotient_perm(3, 2)
    assert cell(perm, 3, 2, 0, 5) == (2, 1)  # J=2, rho=1 -> (J, v*r+rho)
    assert cell(perm, 3, 2, 1, 2) == (1, 2)  # J=1 fixed point of the trade


def test_high_columns_swap_row_digit_with_column_digit():
    # for column class u*l+v with u >= 1, cell swaps v and the row's low digit
    perm = minimal_quotient_perm(3, 2)
    # u=1, v=0, row = t*l + w with t=1, w=2 -> (u*l+w, t*l+v)
    assert cell(perm, 3, 2, 3, 5) == (5, 3)


def test_realized_map_matches_quotient():
    l, q, r = 2, 1, 2
    m = build_minimal_combinatorics(l, q, r)
    k_hat, q_hat, l_hat = l * l, l * q, l * r
    S = PartitionSpec.strips(k_hat, q_hat, l_hat)
    got = induced_atom_permutation(m, S)
    want = lift_quotient(list(minimal_quotient_perm(l, r)), k_hat, q_hat, l_hat)
    assert list(got) == list(want)
    assert commutes_with_rotation(m, l * q)
    assert m.commutes_with_rotation(l * q)


@pytest.mark.parametrize("n,l,q,r", [(2, 2, 1, 1), (2, 2, 3, 2), (3, 4, 1, 2)])
def test_minimal_conjugation_induces_the_lifted_quotient(n, l, q, r):
    # with delta = 0 the trapping shear is the identity, so the O(1)
    # conjugation permutes the grid cells exactly as the quotient does
    h = MinimalConjugation(comb=MinimalCombinatorics(l, q, r),
                           kappa=build_trapping_step(n, l, q, r, 0))
    got = induced_atom_permutation(h, PartitionSpec.grid_min(l, q, r))
    want = lift_quotient(minimal_quotient_perm(l, r), l * l, l * q, l * r)
    assert np.array_equal(got, want)


def test_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRange):
        minimal_quotient_perm(1, 2)
    with pytest.raises(ParamOutOfRange):
        minimal_quotient_perm(2, 0)
