from fractions import Fraction

import pytest

from abctorus.errors import InvalidTarget, ParamOutOfRange
from abctorus.exact.builders import build_transposition, build_two_cycle
from abctorus.exact.oracle import commutes_with_rotation, induced_atom_permutation
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.permutations import format_cycles, quotient_of

F = Fraction


def strip_perm(m, k, q, l):
    return induced_atom_permutation(m, PartitionSpec.strips(k, q, l))


def test_two_cycle_swaps_top_cells_of_leading_classes():
    p = strip_perm(build_two_cycle(4, 1, 2), 4, 1, 2)
    assert format_cycles(p) == "(1 3)(5 7)"


def test_two_cycle_lifts_blockwise():
    m = build_two_cycle(4, 2, 2)
    p = strip_perm(m, 4, 2, 2)
    assert format_cycles(p) == "(1 3)(5 7)(9 11)(13 15)"
    assert commutes_with_rotation(m, 2)
    assert m.commutes_with_rotation(2)
    assert format_cycles(quotient_of(list(p), 4, 2, 2)) == "(1 3)(5 7)"


def test_two_cycle_taller_strips():
    # top row of classes 0/1 and 2/3 swap; lower rows stay put
    p = strip_perm(build_two_cycle(4, 1, 3), 4, 1, 3)
    assert format_cycles(p) == "(2 5)(8 11)"


def test_two_cycle_requires_k_at_least_four():
    with pytest.raises(ParamOutOfRange):
        build_two_cycle(2, 1, 2)


def test_transposition_reference_case():
    p = strip_perm(build_transposition(2, 0, 4, 1, 2), 4, 1, 2)
    assert format_cycles(p) == "(1 4)"


@pytest.mark.parametrize(
    "i,j",
    [(1, 0), (1, 1), (2, 1), (3, 0), (3, 1), (0, 0)],
)
def test_transposition_reaches_every_target(i, j):
    # pivot cell is (0, l-1); the gadget swaps it with (i, j)
    k, q, l = 4, 1, 2
    p = strip_perm(build_transposition(i, j, k, q, l), k, q, l)
    a, b = sorted([0 * l + (l - 1), i * l + j])
    assert format_cycles(p) == f"({a} {b})"


def test_transposition_odd_row_count():
    p = strip_perm(build_transposition(1, 2, 4, 1, 3), 4, 1, 3)
    assert format_cycles(p) == "(2 5)"
    p2 = strip_perm(build_transposition(2, 0, 4, 1, 3), 4, 1, 3)
    assert format_cycles(p2) == "(2 6)"


def test_transposition_lifts_blockwise():
    m = build_transposition(2, 0, 4, 2, 2)
    p = strip_perm(m, 4, 2, 2)
    assert format_cycles(p) == "(1 4)(9 12)"
    assert commutes_with_rotation(m, 2)
    assert m.commutes_with_rotation(2)


def test_transposition_rejects_pivot_as_target():
    with pytest.raises(InvalidTarget):
        build_transposition(0, 1, 4, 1, 2)  # (0, l-1) is the pivot itself


def test_transposition_rejects_bad_parameters():
    with pytest.raises(ParamOutOfRange):
        build_transposition(1, 0, 2, 1, 2)  # k < 4
    with pytest.raises(ParamOutOfRange):
        build_transposition(1, 0, 4, 1, 1)  # l < 2
    with pytest.raises(ParamOutOfRange):
        build_transposition(4, 0, 4, 1, 2)  # class index out of range
    with pytest.raises(ParamOutOfRange):
        build_transposition(1, 2, 4, 1, 2)  # row index out of range
