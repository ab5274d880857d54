"""Exception types shared across the package."""

from __future__ import annotations


class AbcTorusError(Exception):
    """Base class for all package-specific errors."""


class ParamOutOfRange(AbcTorusError):
    """A construction parameter violates its documented precondition."""


class NotAtomPermutation(AbcTorusError):
    """A map failed to permute the atoms of a partition (some atom's
    samples landed in more than one target atom, or two atoms collided)."""


class InvalidIndexFunction(AbcTorusError):
    """An index function a: {0..k-1} -> {0..q-1} has the wrong length or
    out-of-range values."""


class InvalidTarget(AbcTorusError):
    """A transposition target coincides with the pivot atom."""


class NotEquivariant(AbcTorusError):
    """A permutation supposed to commute with the 1/q rotation does not."""


class RangeOverflow(AbcTorusError):
    """An evaluation would exceed IEEE double range even after clamping."""


class AmbiguousComparison(AbcTorusError):
    """A tower-arithmetic operation cannot be decided soundly at the
    working precision."""


class LinkFailed(AbcTorusError):
    """A link of the convergence ledger failed.

    Attributes
    ----------
    stage : int
        Stage index n of the failing link.
    link : str
        Short name of the condition that failed.
    """

    def __init__(self, stage: int, link: str, detail: str = ""):
        self.stage = stage
        self.link = link
        msg = f"ledger link failed at stage n={stage}: {link}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SearchExhausted(AbcTorusError):
    """A bounded parameter search ended without an admissible candidate."""


class UnsupportedDimension(AbcTorusError):
    """The requested operation is only implemented for a lower dimension."""
