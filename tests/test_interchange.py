from fractions import Fraction

import pytest

from abctorus.errors import NotAtomPermutation, ParamOutOfRange
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove
from abctorus.exact.builders import build_interchange
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import (
    StepFunction,
    sigma1_interchange,
    sigma2_interchange,
    sigma3_interchange,
    sigma4_rearrange,
)

F = Fraction


def interchange_reading(k, q, f7_sign, f8_source):
    """The eight-shear interchange with its two historically ambiguous
    readings left open: the sign of the seventh move and the source
    coordinate of the eighth. `build_interchange` is the reading (+1, 0)."""
    s1, s2, s3 = sigma1_interchange(k, q), sigma2_interchange(k, q), sigma3_interchange(k, q)
    half = StepFunction.constant(F(1, 2))
    return BlockSlideMap((
        BlockSlideMove(0, 1, -1, s1),
        BlockSlideMove(1, 0, +1, s3),
        BlockSlideMove(0, 1, +1, s2),
        BlockSlideMove(1, 0, +1, half),
        BlockSlideMove(0, 1, -1, s2),
        BlockSlideMove(1, 0, +1, s3),
        BlockSlideMove(0, 1, f7_sign, s1),
        BlockSlideMove(1, f8_source, +1, sigma4_rearrange(k, q)),
    ))


def expected_pair_swap(k, q):
    """The canonical action on the kq columns: swap (ik, ik+1) for i < q."""
    perm = list(range(k * q))
    for i in range(q):
        perm[i * k], perm[i * k + 1] = perm[i * k + 1], perm[i * k]
    return perm


@pytest.mark.parametrize("k,q", [(2, 1), (2, 2), (3, 2), (4, 1), (4, 3), (6, 3)])
def test_interchange_swaps_leading_column_pairs(k, q):
    m = build_interchange(k, q)
    part = PartitionSpec.blocks(k * q)
    perm = induced_atom_permutation(m, part)
    assert list(perm) == expected_pair_swap(k, q)


@pytest.mark.parametrize("k,q", [(2, 1), (2, 2), (4, 3), (6, 3)])
def test_interchange_commutes_with_block_rotation(k, q):
    m = build_interchange(k, q)
    assert commutes_with_rotation(m, q)
    assert m.commutes_with_rotation(q)


def test_interchange_is_rigid_on_columns():
    # On swapped columns the map is a pure horizontal translation by
    # 1/(kq); on the remaining columns it is the pointwise identity.
    f = build_interchange(4, 1)
    assert f(TorusPoint((F(1, 8), F(1, 3)))) == TorusPoint((F(3, 8), F(1, 3)))
    assert f(TorusPoint((F(3, 8), F(2, 3)))) == TorusPoint((F(1, 8), F(2, 3)))
    assert f(TorusPoint((F(5, 8), F(9, 10)))) == TorusPoint((F(5, 8), F(9, 10)))
    assert f(TorusPoint((F(7, 8), F(1, 5)))) == TorusPoint((F(7, 8), F(1, 5)))


def test_interchange_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRange):
        build_interchange(1, 1)
    with pytest.raises(ParamOutOfRange):
        build_interchange(2, 0)


def test_published_reading_is_the_builder():
    assert interchange_reading(4, 3, +1, 0).moves == build_interchange(4, 3).moves


def test_variant_with_flipped_last_slide_sign_breaks_atoms():
    # The final x1 slide must undo the first one; with the opposite sign
    # the composite shears column atoms apart instead of permuting them.
    m = interchange_reading(4, 3, f7_sign=-1, f8_source=0)
    part = PartitionSpec.blocks(12)
    with pytest.raises(NotAtomPermutation):
        induced_atom_permutation(m, part)


@pytest.mark.parametrize("sign", [+1, -1])
def test_variant_reading_its_own_target_is_unconstructible(sign):
    # The closing vertical slide must read x1; reading x2 would mean a
    # move that consumes the coordinate it shifts.
    with pytest.raises(ParamOutOfRange):
        interchange_reading(4, 3, f7_sign=sign, f8_source=1)
