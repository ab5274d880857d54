"""The lattice oracle against a brute-force reference, and its chunked walk.

The reference pushes every point of the 1/(4L) lattice through the
per-move Fraction chain (`BlockSlideMove.apply`), with L the lcm of the
map's, the partitions' and the rotation's denominators, and reads the
atom permutation, the misplaced measure per atom and the commutation
verdict off the images. The oracle
visits one corner per box of a coarser lattice and must agree with it,
including the message of every `NotAtomPermutation`.
"""

from fractions import Fraction
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abctorus.engine import run_circle_scenario
from abctorus.errors import NotAtomPermutation
from abctorus.exact import oracle
from abctorus.exact.blockslide import BlockSlideMap, BlockSlideMove
from abctorus.exact.builders import build_abc_conjugation, build_grid_refine, build_interchange
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import StepFunction
from test_integer_program import block_slide_maps

F = Fraction

_CIRCLE = run_circle_scenario(3)

# (map, source partition, target partition, rotation q)
CASES = {
    "interchange": (build_interchange(4, 3), PartitionSpec.blocks(12), None, 3),
    "grid_refine": (build_grid_refine(2, 3), PartitionSpec.grid(2, 3),
                    PartitionSpec.blocks(12), 3),
    "abc_conjugation": (build_abc_conjugation((1, 0), 2, 2, 2),
                        PartitionSpec.blocks(2),
                        PartitionSpec.tower((1, 0), 2, 2), 2),
    "circle_h1": (_CIRCLE.conjugations_exact[0], PartitionSpec.blocks(3), None, 3),
}


# -- the brute-force reference ---------------------------------------------

def reference_images(m: BlockSlideMap, n: int) -> dict:
    """lattice index -> (point, image under the Fraction chain), for
    every point of the 1/n lattice."""
    out = {}
    for idx in product(range(n), repeat=2):
        x = y = TorusPoint(F(i, n) for i in idx)
        for mv in m.moves:
            y = mv.apply(y)
        out[idx] = (x, y)
    return out


def reference_permutation(images: dict, part: PartitionSpec, target: PartitionSpec):
    """The atom permutation as a list, or the message of the
    `NotAtomPermutation` the oracle must raise, checked in its order."""
    n = part.atom_count
    if n != target.atom_count:
        return f"atom counts differ: {n} vs {target.atom_count}"
    first, split = {}, set()
    for x, y in images.values():
        i, j = part.atom_index(x), target.atom_index(y)
        if first.setdefault(i, j) != j:
            split.add(i)
    missing = [i for i in range(n) if i not in first]
    if missing:
        return f"atom {missing[0]} received no samples"
    if split:
        return f"atom {min(split)} is split across several target atoms"
    perm = [first[i] for i in range(n)]
    if len(set(perm)) != n:
        return "two atoms map into the same target atom"
    return perm


def reference_commutes(m: BlockSlideMap, images: dict, n: int, q: int) -> bool:
    """m o phi == phi o m on every point of the 1/n lattice (q divides n,
    so phi = rotation by 1/q maps the lattice to itself), joined with the
    structural verdict that the oracle also reports."""
    t, step = F(1, q), n // q

    def commutes_at(idx, y):
        z = images[((idx[0] + step) % n,) + idx[1:]][1]  # m(phi(x))
        return z[0] == (y[0] + t) % 1 and z.coords[1:] == y.coords[1:]
    return m.commutes_with_rotation(q) and all(
        commutes_at(idx, y) for idx, (_, y) in images.items())


def oracle_permutation(m, part, target):
    try:
        return oracle.induced_atom_permutation(m, part, target).tolist()
    except NotAtomPermutation as e:
        return str(e)


def check_against_reference(m, part, target, q):
    target = part if target is None else target
    n = 4 * lcm(m.denominator_lcm(), *part.counts, *target.counts, q)
    images = reference_images(m, n)
    assert oracle_permutation(m, part, target) == reference_permutation(images, part, target)
    assert oracle.commutes_with_rotation(m, q) == reference_commutes(m, images, n, q)


@pytest.mark.parametrize("name", sorted(CASES))
def test_named_maps_match_the_reference(name):
    check_against_reference(*CASES[name])


def divisors(n: int):
    return [d for d in range(1, n + 1) if n % d == 0]


def reference_cost(m: BlockSlideMap, q: int = 1) -> int:
    """Fraction moves the reference makes when the partitions divide L."""
    return (4 * lcm(m.denominator_lcm(), q)) ** 2 * max(1, len(m.moves))


@st.composite
def oracle_inputs(draw):
    """A small random map with partitions whose cell counts divide the
    map's own L and a q that mostly does, so that the reference makes at
    most 12,000 Fraction moves."""
    maps = block_slide_maps(max_moves=4, max_period=2, max_cells=4, max_denominator=4)
    m = draw(maps.filter(lambda m: reference_cost(m) <= 12_000))
    ds = divisors(m.denominator_lcm())

    def partition():
        if draw(st.booleans()):
            return PartitionSpec(tuple(draw(st.sampled_from(ds)) for _ in range(2)))
        kq = draw(st.sampled_from(ds))
        k = draw(st.sampled_from(divisors(kq)))
        a = tuple(draw(st.integers(0, kq // k - 1)) for _ in range(k))
        return PartitionSpec.tower(a, k, kq // k)

    part = partition()
    target = draw(st.sampled_from([part, partition(), PartitionSpec(part.counts[::-1])]))
    q = draw(st.sampled_from(ds) | st.integers(1, 3))
    assume(reference_cost(m, q) <= 12_000)
    return m, part, target, q


@given(oracle_inputs())
@settings(max_examples=40, deadline=None)
def test_random_maps_match_the_reference(case):
    check_against_reference(*case)


def reference_misplaced(images: dict, part: PartitionSpec, target: PartitionSpec, n: int):
    """Per source atom, the measure of the 1/n lattice cells whose image
    leaves the target atom with the same index."""
    out = [F(0)] * part.atom_count
    for x, y in images.values():
        i = part.atom_index(x)
        if target.atom_index(y) != i:
            out[i] += F(1, n ** len(x.coords))
    return out


@given(oracle_inputs())
@settings(max_examples=40, deadline=None)
def test_misplaced_boxes_match_the_reference(case):
    m, part, target, _ = case
    n = 4 * lcm(m.denominator_lcm(), *part.counts, *target.counts)
    misplaced, boxes = oracle.misplaced_boxes(m, part, target)
    got = [F(int(c), boxes) for c in misplaced]
    assert got == reference_misplaced(reference_images(m, n), part, target, n)


# -- the new reach ---------------------------------------------------------

def test_circle_stage_3_conjugation_is_certified():
    # h_3 lives on 5,308,416 x 4 boxes; an isotropic lattice at its
    # denominator lcm would have 5,308,416^2 points
    h3, q2 = _CIRCLE.conjugations_exact[2], _CIRCLE.records[2].q
    assert q2 == 331_776 and h3.box_grid() == (5_308_416, 4)
    perm = oracle.induced_atom_permutation(h3, PartitionSpec.blocks(q2))
    assert np.array_equal(perm, np.arange(q2))
    assert oracle.commutes_with_rotation(h3, q2) is True


# -- the chunked walk -------------------------------------------------------

# the box lattices here have 24 to 192 boxes: chunks of 5 split all of
# them, chunks of 37 the two larger ones, and 1000 holds each in one chunk
@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("chunk", [5, 37, 1000])
def test_chunked_walk_matches_a_single_chunk(monkeypatch, name, chunk):
    m, part, target, q = CASES[name]
    monkeypatch.setattr(oracle, "_CHUNK_POINTS", 1 << 40)
    whole = oracle.induced_atom_permutation(m, part, target)
    commutes = oracle.commutes_with_rotation(m, q)
    monkeypatch.setattr(oracle, "_CHUNK_POINTS", chunk)
    assert np.array_equal(oracle.induced_atom_permutation(m, part, target), whole)
    assert oracle.commutes_with_rotation(m, q) == commutes


def test_split_across_chunks_is_still_found(monkeypatch):
    # x1 += 1/2 where x2 >= 1/2: each half-column atom of blocks(2) is
    # split between the two halves of its rows. The box lattice is 2 x 2
    # and x2 runs fastest, so 1-box chunks hold one half-row each and no
    # single chunk sees both targets.
    step = StepFunction(F(1), (F(0), F(1, 2)), (F(0), F(1, 2)))
    m = BlockSlideMap((BlockSlideMove(0, 1, 1, step),))
    part = PartitionSpec.blocks(2)
    M, counts = oracle._box_lattice(m, (part,))
    assert (M, counts) == (2, (2, 2))
    monkeypatch.setattr(oracle, "_CHUNK_POINTS", 1)
    for pts in oracle._corners(M, counts):
        dst = part.atom_index_grid(m.compiled(M).apply(pts), M)
        assert np.unique(dst).size == 1  # each chunk alone is consistent
    with pytest.raises(NotAtomPermutation, match="atom 0 is split"):
        oracle.induced_atom_permutation(m, part)


def test_full_lattice_ranges_tile_the_lattice():
    whole = oracle.full_lattice((5, 5, 5))
    mesh = np.meshgrid(*[np.arange(5)] * 3, indexing="ij")
    assert np.array_equal(whole, np.stack([g.reshape(-1) for g in mesh]))
    parts = [oracle.full_lattice((5, 5, 5), s, min(s + 17, 125)) for s in range(0, 125, 17)]
    assert np.array_equal(np.concatenate(parts, axis=1), whole)
    assert whole.dtype == np.int64
    # per-axis counts: 3 x 2 x 4 cells, last axis fastest
    cells = oracle.full_lattice((3, 2, 4))
    assert cells.shape == (3, 24)
    assert cells[:, :5].T.tolist() == [[0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 1, 0]]
    assert cells[:, -1].tolist() == [2, 1, 3]
