"""Exact (rational-arithmetic) torus maps, partitions and builders.

Everything in this subpackage is exact and uses no floating point.
Points and step data are `fractions.Fraction`s; block-slide maps also
run as integer programs of shear moves and cell tables, on Python ints
and on int64 arrays, with every coordinate a numerator over one common
modulus (`points.to_lattice` and `points.from_lattice` convert); the
closed-form tower conjugation `builders.TowerConjugation` and the
minimality conjugation of `abctorus.minimal` run as the same kind of
program. Points live on the
2-torus with coordinates in [0, 1), step functions are finite
piecewise-constant functions with rational breakpoints and values, and
the maps are compositions of shears between the two coordinates
("block-slide" moves) which preserve Lebesgue measure exactly.
"""

from .points import TorusPoint, mod1, rotate
from .steps import StepFunction
from .blockslide import BlockSlideMove, BlockSlideMap, rotation_map
from .partitions import PartitionSpec
from .oracle import induced_atom_permutation, misplaced_boxes, commutes_with_rotation

__all__ = [
    "TorusPoint",
    "mod1",
    "rotate",
    "StepFunction",
    "BlockSlideMove",
    "BlockSlideMap",
    "rotation_map",
    "PartitionSpec",
    "induced_atom_permutation",
    "misplaced_boxes",
    "commutes_with_rotation",
]
