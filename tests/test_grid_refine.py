from fractions import Fraction

import pytest

from abctorus.errors import ParamOutOfRange
from abctorus.exact.builders import build_grid_refine, refine_stage
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint

F = Fraction


def test_point_example_l2_q1():
    g = build_grid_refine(2, 1, 2)
    assert g(TorusPoint((F(1, 10), F(3, 5)))) == TorusPoint((F(7, 20), F(1, 10)))


def test_l2_q1_d2_digit_map():
    g = build_grid_refine(2, 1, 2)
    G = PartitionSpec.grid(2, 1, 2)
    T = PartitionSpec.blocks(4, 2)
    perm = induced_atom_permutation(g, G, T)
    assert list(perm) == [0, 1, 2, 3]


def test_d3_digit_map_is_frozen():
    g = build_grid_refine(2, 1, 3)
    G = PartitionSpec.grid(2, 1, 3)
    T = PartitionSpec.blocks(8, 3)
    perm = induced_atom_permutation(g, G, T)
    assert list(perm) == [0, 2, 1, 3, 4, 6, 5, 7]


@pytest.mark.parametrize("l,q,d", [(2, 1, 2), (2, 3, 2), (4, 1, 2), (4, 3, 2), (2, 1, 3)])
def test_refine_carries_grid_onto_columns(l, q, d):
    g = build_grid_refine(l, q, d)
    G = PartitionSpec.grid(l, q, d)
    T = PartitionSpec.blocks(l**d * q, d)
    # raises NotAtomPermutation unless every grid atom lands exactly on a column
    induced_atom_permutation(g, G, T)


@pytest.mark.parametrize("l,q", [(2, 3), (4, 3), (3, 2)])
def test_refine_preserves_coarse_blocks(l, q):
    g = build_grid_refine(l, q, 2)
    T = PartitionSpec.blocks(q, 2)
    perm = induced_atom_permutation(g, T, T)
    assert list(perm) == list(range(q))


@pytest.mark.parametrize("l,q", [(2, 3), (4, 3)])
def test_refine_commutes_with_block_rotation(l, q):
    assert commutes_with_rotation(build_grid_refine(l, q, 2), q)
    assert build_grid_refine(l, q, 2).commutes_with_rotation(q)


def test_single_stage_moves_one_coordinate_pair():
    # one stage consumes the named source coordinate into x1 and leaves
    # the others untouched
    s = refine_stage(1, 2, 1, 3)
    x = TorusPoint((F(1, 10), F(3, 5), F(1, 7)))
    y = s(x)
    assert y[2] == F(1, 7)
    assert (y[0], y[1]) == (F(7, 20), F(1, 10))


def test_refine_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRange):
        build_grid_refine(1, 1, 2)
    with pytest.raises(ParamOutOfRange):
        build_grid_refine(2, 0, 2)
    with pytest.raises(ParamOutOfRange):
        build_grid_refine(2, 1, 1)
