"""The lattice oracle walks its lattice in chunks; the chunk size must not
change any verdict."""

from fractions import Fraction

import numpy as np
import pytest

from abctorus.engine import run_circle_scenario
from abctorus.errors import NotAtomPermutation
from abctorus.exact import oracle
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove
from abctorus.exact.builders import build_abc_conjugation, build_grid_refine, build_interchange
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.steps import StepFunction

F = Fraction

_CIRCLE = run_circle_scenario(1)

# (map, source partition, target partition, rotation q)
CASES = {
    "interchange": (build_interchange(4, 3, 2), PartitionSpec.blocks(12, 2), None, 3),
    "grid_refine": (build_grid_refine(2, 3), PartitionSpec.grid(2, 3, 2),
                    PartitionSpec.blocks(12, 2), 3),
    "abc_conjugation": (build_abc_conjugation((1, 0), 2, 2, 2, 2),
                        PartitionSpec.blocks(2, 2),
                        PartitionSpec.tower((1, 0), 2, 2, 2), 2),
    "circle_h1": (_CIRCLE.conjugations_exact[0], PartitionSpec.blocks(3), None, 3),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("chunk", [37, 1000])
def test_chunked_walk_matches_a_single_chunk(monkeypatch, name, chunk):
    m, part, target, q = CASES[name]
    monkeypatch.setattr(oracle, "_CHUNK_POINTS", 1 << 40)
    whole = [oracle.induced_atom_permutation(m, part, target, method)
             for method in ("grid", "cells")]
    commutes = oracle.commutes_with_rotation(m, q)
    monkeypatch.setattr(oracle, "_CHUNK_POINTS", chunk)
    for method, perm in zip(("grid", "cells"), whole):
        assert np.array_equal(oracle.induced_atom_permutation(m, part, target, method), perm)
    assert oracle.commutes_with_rotation(m, q) == commutes


def test_split_across_chunks_is_still_found(monkeypatch):
    # x1 += 1/2 where x2 >= 1/2: each half-column atom of blocks(2) is
    # split between the two halves of its rows. At M = 4 L = 8 a row of
    # the lattice has 8 points and x2 runs fastest, so 4-point chunks hold
    # one half-row each and no single chunk sees both targets.
    step = StepFunction(F(1), (F(0), F(1, 2)), (F(0), F(1, 2)))
    m = BlockSlideMap(2, (BlockSlideMove(0, 1, 1, step),))
    part = PartitionSpec.blocks(2, 2)
    M = 8
    monkeypatch.setattr(oracle, "_CHUNK_POINTS", 4)
    for pts in oracle._chunks(2, M):
        dst = part.atom_index_grid(m.compiled(M).apply(pts), M)
        assert np.unique(dst).size == 1  # each chunk alone is consistent
    with pytest.raises(NotAtomPermutation, match="atom 0 is split"):
        oracle.induced_atom_permutation(m, part, method="grid")


def test_full_lattice_ranges_tile_the_lattice():
    whole = oracle.full_lattice(3, 5)
    mesh = np.meshgrid(*[np.arange(5)] * 3, indexing="ij")
    assert np.array_equal(whole, np.stack([g.reshape(-1) for g in mesh]))
    parts = [oracle.full_lattice(3, 5, s, min(s + 17, 125)) for s in range(0, 125, 17)]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)
    assert whole.dtype == np.int64
