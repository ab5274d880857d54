import random
from fractions import Fraction

import pytest

from abctorus.errors import NotAtomPermutation, ParamOutOfRange
from abctorus.exact.blockslide import BlockSlideMap
from abctorus.exact.builders import (
    build_abc_conjugation,
    build_rearrange,
    build_unstack,
)
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.permutations import format_cycles

F = Fraction


def column_perm(m, kq):
    return induced_atom_permutation(m, PartitionSpec.blocks(kq))


def test_single_block_shift():
    p = column_perm(build_rearrange(1, 1, 4, 3), 12)
    assert format_cycles(p) == "(1 5 9)"


def test_double_block_shift_fixes_bystanders():
    p = column_perm(build_rearrange(2, 0, 4, 3), 12)
    assert format_cycles(p) == "(0 8 4)"
    p2 = column_perm(build_rearrange(2, 2, 4, 3), 12)
    assert format_cycles(p2) == "(2 10 6)"


def test_zero_shift_is_identity():
    m = build_rearrange(0, 1, 4, 3)
    assert m.moves == ()


def test_rearrange_commutes_with_block_rotation():
    assert commutes_with_rotation(build_rearrange(2, 0, 4, 3), 3)
    assert commutes_with_rotation(build_rearrange(1, 1, 2, 2), 2)
    assert build_rearrange(2, 0, 4, 3).commutes_with_rotation(3)
    assert build_rearrange(1, 1, 2, 2).commutes_with_rotation(2)


def test_rearrange_rejects_out_of_range_shift():
    with pytest.raises(ParamOutOfRange):
        build_rearrange(3, 0, 4, 3)
    with pytest.raises(ParamOutOfRange):
        build_rearrange(-1, 0, 4, 3)


@pytest.mark.parametrize(
    "k,q,a",
    [
        (2, 2, (1, 0)),
        (2, 3, (2, 1)),
        (4, 3, (1, 2, 0, 2)),
        (2, 3, (0, 0)),
    ],
)
def test_unstack_aligns_tower_levels_with_blocks(k, q, a):
    m = build_unstack(a, k, q)
    tower = PartitionSpec.tower(a, k, q)
    blocks = PartitionSpec.blocks(q)
    perm = induced_atom_permutation(m, tower, blocks)
    assert list(perm) == list(range(q))


def test_unstack_direction_matters():
    # Shifting each class forward by a(i) blocks (instead of backward)
    # shears the tower levels apart: level m of the tower is no longer
    # sent onto a single block.
    k, q, a = 2, 3, (1, 0)
    forward = BlockSlideMap.compose(
        [build_rearrange(a[c] % q, c, k, q) for c in range(k)]
    )
    tower = PartitionSpec.tower(a, k, q)
    blocks = PartitionSpec.blocks(q)
    with pytest.raises(NotAtomPermutation):
        induced_atom_permutation(forward, tower, blocks)


@pytest.mark.parametrize("k,l,q", [(2, 2, 2), (4, 2, 3)])
def test_conjugation_properties(k, l, q):
    rng = random.Random(20 * k + q)
    for _ in range(5):
        a = tuple(rng.randrange(q) for _ in range(k))
        h = build_abc_conjugation(a, k, l, q)
        blocks = PartitionSpec.blocks(q)
        tower = PartitionSpec.tower(a, k, q)
        # (i) block m is carried onto tower level m
        p1 = induced_atom_permutation(h, blocks, tower)
        assert list(p1) == list(range(q))
        # (ii) the (lk)-grid is carried bijectively onto the fine columns
        grid = PartitionSpec.grid(l * k, q)
        fine = PartitionSpec.blocks((l * k) ** 2 * q)
        induced_atom_permutation(h, grid, fine)
        # (iii) equivariance under the block rotation
        assert commutes_with_rotation(h, q)
        assert h.commutes_with_rotation(q)


def test_conjugation_rejects_bad_index_function():
    from abctorus.errors import InvalidIndexFunction

    with pytest.raises(InvalidIndexFunction):
        build_abc_conjugation((0, 3), 2, 2, 2)  # entry out of [0, q)
    with pytest.raises(InvalidIndexFunction):
        build_abc_conjugation((0,), 2, 2, 2)  # wrong length
