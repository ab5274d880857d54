from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from abctorus.errors import InvalidIndexFunction, ParamOutOfRange
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint

F = Fraction


def P(*coords):
    return TorusPoint(tuple(F(c) if not isinstance(c, Fraction) else c for c in coords))


def test_atom_counts():
    assert PartitionSpec.blocks(5).atom_count == 5
    assert PartitionSpec.grid(3, 2).atom_count == 18  # q * l^2
    assert PartitionSpec.tower((0, 1), 2, 3).atom_count == 3
    assert PartitionSpec.strips(4, 2, 3).atom_count == 24  # kq * l
    assert PartitionSpec.grid_min(3, 2, 4).atom_count == 54 * 12  # l^3 q * l r


def test_blocks_index_uses_first_coordinate():
    part = PartitionSpec.blocks(4)
    assert part.atom_index(P(F(1, 8), F(9, 10))) == 0
    assert part.atom_index(P(F(3, 4), F(0))) == 3


def test_grid_index_layout():
    # index = i1 * l + i2 with x1 read at pitch 1/(l q)
    part = PartitionSpec.grid(2, 3)
    assert part.atom_index(P(F(0), F(0))) == 0
    assert part.atom_index(P(F(1, 6), F(0))) == 2
    assert part.atom_index(P(F(1, 6), F(1, 2))) == 3
    assert part.atom_index(P(F(5, 6), F(1, 2))) == 11


def test_tower_membership():
    # columns c = a(i) k + i + m k (mod kq) belong to atom m
    a = (1, 0)
    part = PartitionSpec.tower(a, 2, 3)
    # class 0: a(0) = 1 -> column 1*2+0 = 2 is in atom 0
    assert part.atom_index(P(F(2, 6) + F(1, 12), F(1, 3))) == 0
    # its next block neighbour c = 4 is atom 1
    assert part.atom_index(P(F(4, 6), F(0))) == 1
    # class 1: a(1) = 0 -> column 1 in atom 0
    assert part.atom_index(P(F(1, 6), F(0))) == 0
    assert part.tower_columns(0) == (1, 2)
    assert part.tower_columns(1) == (3, 4)
    assert part.tower_columns(2) == (0, 5)


def test_strips_layout():
    part = PartitionSpec.strips(4, 1, 2)
    assert part.atom_index(P(F(0), F(0))) == 0
    assert part.atom_index(P(F(0), F(1, 2))) == 1
    assert part.atom_index(P(F(3, 4), F(1, 2))) == 7


def test_grid_min_layout():
    # columns at pitch 1/(l^3 q), rows at pitch 1/(l r), index col*(l r) + row
    part = PartitionSpec.grid_min(2, 1, 2)
    assert part.atom_index(P(F(0), F(0))) == 0
    assert part.atom_index(P(F(1, 8), F(3, 4))) == 7
    assert part.atom_index(P(F(7, 8), F(1, 4))) == 29


def _atom_box(part, index):
    """The bounding box of a grid atom: per coordinate (lo, hi), or None
    for a coordinate with a single cell (mixed radix, last axis fastest)."""
    box = []
    for n in reversed(part.counts):
        if n == 1:
            box.append(None)
        else:
            index, cell = divmod(index, n)
            box.append((F(cell, n), F(cell + 1, n)))
    return tuple(reversed(box))


def test_atom_box_roundtrip():
    for part in [
        PartitionSpec.blocks(5),
        PartitionSpec.grid(2, 3),
        PartitionSpec.strips(4, 2, 3),
        PartitionSpec.grid_min(2, 1, 2),
    ]:
        for idx in range(part.atom_count):
            box = _atom_box(part, idx)
            centre = []
            for rng in box:
                if rng is None:
                    centre.append(F(1, 2))
                else:
                    lo, hi = rng
                    centre.append((lo + hi) / 2)
            assert part.atom_index(TorusPoint(tuple(centre))) == idx


def test_single_cell_axes_are_free():
    # an axis with one cell is the whole circle, whatever built it:
    # atom 2 of grid(1, 3, 2) is [2/3, 1) x T^1; blocks(1, 2) is one atom
    for y in (F(0), F(1, 3), F(5, 7)):
        assert PartitionSpec.grid(1, 3).atom_index(TorusPoint((F(2, 3), y))) == 2
        assert PartitionSpec.grid(1, 3).atom_index(TorusPoint((F(2, 3) - F(1, 99), y))) == 1
        assert PartitionSpec.blocks(1).atom_index(TorusPoint((F(8, 9), y))) == 0


def test_grid_index_matches_vectorised_indexer():
    for part in [
        PartitionSpec.blocks(3),
        PartitionSpec.grid(2, 2),
        PartitionSpec.tower((1, 0), 2, 2),
        PartitionSpec.strips(4, 1, 2),
        PartitionSpec.grid_min(2, 1, 2),
    ]:
        M = lcm(*part.counts) * 4
        rng = np.random.default_rng(11)
        pts = rng.integers(0, M, size=(2, 300), dtype=np.int64)
        fast = part.atom_index_grid(pts, M)
        for col in range(0, 300, 17):
            x = TorusPoint((F(int(pts[0, col]), M), F(int(pts[1, col]), M)))
            assert part.atom_index(x) == fast[col]


@pytest.mark.parametrize(
    "build, error",
    [
        pytest.param(lambda: PartitionSpec.blocks(0), ParamOutOfRange, id="blocks-q0"),
        pytest.param(lambda: PartitionSpec.grid(0, 3), ParamOutOfRange, id="grid-l0"),
        pytest.param(lambda: PartitionSpec.grid(2, 0), ParamOutOfRange, id="grid-q0"),
        pytest.param(lambda: PartitionSpec.tower((0,), 2, 3), InvalidIndexFunction, id="tower-short-a"),
        pytest.param(lambda: PartitionSpec.tower((0, 3), 2, 3), InvalidIndexFunction, id="tower-a-out-of-range"),
        pytest.param(lambda: PartitionSpec.tower((), 0, 3), ParamOutOfRange, id="tower-k0"),
        pytest.param(lambda: PartitionSpec.strips(0, 1, 1), ParamOutOfRange, id="strips-k0"),
        pytest.param(lambda: PartitionSpec.strips(1, 1, 0), ParamOutOfRange, id="strips-l0"),
        pytest.param(lambda: PartitionSpec.grid_min(1, 1, 1), ParamOutOfRange, id="grid_min-l1"),
        pytest.param(lambda: PartitionSpec.grid_min(2, 1, 0), ParamOutOfRange, id="grid_min-r0"),
        pytest.param(lambda: PartitionSpec((2, 2, 2)), ParamOutOfRange, id="three-axes"),
        pytest.param(lambda: PartitionSpec((2.5, 1)), ParamOutOfRange, id="float-count"),
        pytest.param(lambda: PartitionSpec((0, 1)), ParamOutOfRange, id="zero-count"),
    ],
)
def test_constructors_refuse_bad_input(build, error):
    with pytest.raises(error):
        build()
