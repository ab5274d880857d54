"""Exact (rational-arithmetic) torus maps, partitions and builders.

Everything in this subpackage is exact and uses no floating point.
Points and step data are `fractions.Fraction`s; block-slide maps also
run as integer programs, on Python ints and on int64 arrays, with every
coordinate a numerator over one common modulus. Points live on the
d-torus with coordinates in [0, 1), step functions are finite
piecewise-constant functions with rational breakpoints and values, and
the maps are compositions of coordinate shears ("block-slide" moves)
which preserve Lebesgue measure exactly.
"""

from .points import TorusPoint, mod1, rotate
from .steps import StepFunction
from .blockslide import BlockSlideMove, BlockSlideMap, rotation_map
from .partitions import PartitionSpec
from .oracle import induced_atom_permutation, commutes_with_rotation

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
    "commutes_with_rotation",
]
