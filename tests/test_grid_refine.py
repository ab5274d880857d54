from fractions import Fraction

import pytest

from abctorus.errors import ParamOutOfRange
from abctorus.exact.builders import build_grid_refine
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint

F = Fraction


def test_point_example_l2_q1():
    g = build_grid_refine(2, 1)
    assert g(TorusPoint((F(1, 10), F(3, 5)))) == TorusPoint((F(7, 20), F(1, 10)))


def test_l2_q1_d2_digit_map():
    g = build_grid_refine(2, 1)
    G = PartitionSpec.grid(2, 1)
    T = PartitionSpec.blocks(4)
    perm = induced_atom_permutation(g, G, T)
    assert list(perm) == [0, 1, 2, 3]


@pytest.mark.parametrize("l,q", [(2, 1), (2, 3), (4, 1), (4, 3)])
def test_refine_carries_grid_onto_columns(l, q):
    g = build_grid_refine(l, q)
    G = PartitionSpec.grid(l, q)
    T = PartitionSpec.blocks(l**2 * q)
    # raises NotAtomPermutation unless every grid atom lands exactly on a column
    induced_atom_permutation(g, G, T)


@pytest.mark.parametrize("l,q", [(2, 3), (4, 3), (3, 2)])
def test_refine_preserves_coarse_blocks(l, q):
    g = build_grid_refine(l, q)
    T = PartitionSpec.blocks(q)
    perm = induced_atom_permutation(g, T, T)
    assert list(perm) == list(range(q))


@pytest.mark.parametrize("l,q", [(2, 3), (4, 3)])
def test_refine_commutes_with_block_rotation(l, q):
    assert commutes_with_rotation(build_grid_refine(l, q), q)
    assert build_grid_refine(l, q).commutes_with_rotation(q)


def test_single_stage_moves_one_coordinate_pair():
    # the refinement is one stage of three shears between x1 and x2:
    # x1 += psi1(x2), x2 += psi2(x1), x1 -= psi3(x2)
    g = build_grid_refine(2, 1)
    assert [(mv.target, mv.source, mv.sign) for mv in g.moves] == [
        (0, 1, 1), (1, 0, 1), (0, 1, -1)]
    y = g.moves[0].apply(TorusPoint((F(1, 10), F(3, 5))))
    assert y == TorusPoint((F(7, 20), F(3, 5)))


def test_refine_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRange):
        build_grid_refine(1, 1)
    with pytest.raises(ParamOutOfRange):
        build_grid_refine(2, 0)
