"""The exact correspondence defect against a per-box Fraction reference.

`_reference_defect` walks the box lattice of h_stage one Fraction
`TorusPoint` at a time: one midpoint per box of `h.box_grid()`, refined
on x1 to the tower's pitch 1/(kq), charged to the coarse block it starts
in whenever its image leaves the tower atom with the same index.
`correspondence_defect(maps, stage, "exact")` must give the same
per-atom defects, as Fractions, on built stacks (zero defects) and on
stacks perturbed by a rotation (non-zero defects).
"""

from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest

from abctorus.engine import (
    correspondence_defect,
    run_circle_scenario,
    run_minimal_scenario,
)
from abctorus.exact.blockslide import rotation_map
from abctorus.exact.partitions import PartitionSpec
from abctorus.exact.points import TorusPoint

F = Fraction


def _reference_defect(maps, stage: int):
    rec = maps.records[stage - 1]
    tower = PartitionSpec.tower(rec.a, rec.k, rec.q)
    h = maps.conjugations_exact[stage - 1]
    defects = [F(0)] * rec.q
    cols, rows = h.box_grid()
    cols = lcm(cols, rec.k * rec.q)
    span = cols // rec.q
    box = F(1, cols * rows)
    for i in range(rec.q):
        for c in range(span):
            for r in range(rows):
                x = TorusPoint((
                    F(2 * (i * span + c) + 1, 2 * cols),
                    F(2 * r + 1, 2 * rows),
                ))
                if tower.atom_index(h(x)) != i:
                    defects[i] += box
    return tuple(defects)


_CIRCLE = run_circle_scenario(2)


def _perturbed_first():
    # h_1 replaced by a rotation by 1/6: half of every 1/3-block leaves
    # its atom
    hs = (rotation_map(F(1, 6)),) + _CIRCLE.conjugations_exact[1:]
    return replace(_CIRCLE, conjugations_exact=hs)


def _perturbed_second():
    # h_2 followed by a rotation by 1/1008: 1/7 of every 1/144-block
    # leaves its atom
    h1, h2 = _CIRCLE.conjugations_exact
    return replace(_CIRCLE, conjugations_exact=(h1, h2.then(rotation_map(F(1, 1008)))))


STACKS = {
    "circle2": lambda: _CIRCLE,
    "minimal_2_2_1_1": lambda: run_minimal_scenario(n=2, l=2, q=1, r=1),
    "minimal_2_2_1_2": lambda: run_minimal_scenario(n=2, l=2, q=1, r=2),
    "perturbed_h1": _perturbed_first,
    "perturbed_h2": _perturbed_second,
}


@pytest.mark.parametrize("name,stage", [
    ("circle2", 1), ("circle2", 2),
    ("minimal_2_2_1_1", 1), ("minimal_2_2_1_2", 1),
    ("perturbed_h1", 1), ("perturbed_h2", 2),
])
def test_exact_defect_matches_the_reference(name, stage):
    maps = STACKS[name]()
    got = correspondence_defect(maps, stage, "exact")
    want = _reference_defect(maps, stage)
    assert got.atoms == len(want)
    assert got.nonzero == tuple((i, d) for i, d in enumerate(want) if d)
    assert all(type(d) is Fraction for _, d in got.nonzero)


def test_perturbed_defects_are_frozen():
    got = correspondence_defect(_perturbed_first(), 1, "exact")
    assert (got.atoms, got.nonzero) == (3, tuple((i, F(1, 6)) for i in range(3)))
    assert correspondence_defect(_perturbed_second(), 2, "exact").total == F(1, 7)
