"""Block-slide maps: finite compositions of coordinate shears.

A single move adds sign * step(x[source]) to x[target] (mod 1). Each
move preserves Lebesgue measure, maps horizontal/vertical rational
lattices to themselves (when the step data live on them) and is exactly
invertible. A `BlockSlideMap` is a list of moves applied first-to-last;
its inverse is the reversed list with flipped signs.

Rigid rotations of the first coordinate embed as moves with a constant
step function, so conjugations like phi^t o f o phi^{-t} stay inside the
same algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Tuple

import numpy as np

from ..errors import ParamOutOfRange
from .points import TorusPoint, mod1
from .steps import StepFunction


@dataclass(frozen=True)
class BlockSlideMove:
    """x[target] += sign * step(x[source]) (mod 1).

    `target` and `source` are 0-based coordinate indices and must differ;
    `sign` is +1 or -1.
    """

    target: int
    source: int
    sign: int
    step: StepFunction

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ParamOutOfRange("sign must be +1 or -1")
        if self.target == self.source and self.step_is_nonconstant():
            raise ParamOutOfRange("a move may not read the coordinate it shifts")
        if self.target < 0 or self.source < 0:
            raise ParamOutOfRange("coordinate indices must be non-negative")

    def step_is_nonconstant(self) -> bool:
        return len(self.step.values) > 1

    def inverse(self) -> "BlockSlideMove":
        return BlockSlideMove(self.target, self.source, -self.sign, self.step)

    def apply(self, x: TorusPoint) -> TorusPoint:
        return x.shifted(self.target, self.sign * self.step(x[self.source]))


@dataclass(frozen=True)
class BlockSlideMap:
    """Composition of block-slide moves; moves[0] is applied first."""

    dim: int
    moves: Tuple[BlockSlideMove, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.dim < 1:
            raise ParamOutOfRange("dimension must be >= 1")
        for m in self.moves:
            if m.target >= self.dim or m.source >= self.dim:
                raise ParamOutOfRange("move touches a coordinate outside the torus")

    def __call__(self, x: TorusPoint) -> TorusPoint:
        if x.dim != self.dim:
            raise ParamOutOfRange(f"point has dim {x.dim}, map has dim {self.dim}")
        for m in self.moves:
            x = m.apply(x)
        return x

    def inverse(self) -> "BlockSlideMap":
        return BlockSlideMap(self.dim, tuple(m.inverse() for m in reversed(self.moves)))

    def then(self, other: "BlockSlideMap") -> "BlockSlideMap":
        """The composition other o self (this map runs first)."""
        if other.dim != self.dim:
            raise ParamOutOfRange("dimension mismatch in composition")
        return BlockSlideMap(self.dim, self.moves + other.moves)

    @staticmethod
    def identity(dim: int) -> "BlockSlideMap":
        return BlockSlideMap(dim, ())

    @staticmethod
    def compose(maps: Sequence["BlockSlideMap"]) -> "BlockSlideMap":
        """Compose left-to-right: maps[0] is applied first."""
        if not maps:
            raise ParamOutOfRange("cannot compose an empty list without a dimension")
        out = maps[0]
        for m in maps[1:]:
            out = out.then(m)
        return out

    # -- exact lattice machinery ------------------------------------------

    def denominator_lcm(self, extra: Iterable[int] = ()) -> int:
        """Smallest L such that every move's step data (breakpoints,
        values, period) lies on the 1/L lattice, merged with any `extra`
        denominators (e.g. partition boundaries).

        Every move then maps the 1/L coordinate lattice bijectively to
        itself, and does so rigidly on each 1/L cell, which is what makes
        cell-corner tracking an exact computation of the induced action.
        """
        L = 1
        for m in self.moves:
            L = lcm(L, m.step.denominator_lcm())
        for e in extra:
            L = lcm(L, int(e))
        return L

    def compiled(self, L: int) -> "CompiledMap":
        return CompiledMap.build(self, L)

    def commutes_with_rotation(self, q: int) -> bool:
        """Structural commutation with the rotation by 1/q of the first
        coordinate: every non-constant move fed by coordinate 0 must have
        a 1/q-periodic step (each such move then commutes with the
        rotation on its own, and moves reading other coordinates always
        do)."""
        if q < 1:
            raise ParamOutOfRange(f"q must be >= 1, got {q}")
        period = Fraction(1, q)
        return all(mv.step.is_periodic_with(period) for mv in self.moves if mv.source == 0)

    def box_grid(self) -> Tuple[int, int]:
        """(cols, rows) of a box lattice on which every move translates
        boxes rigidly: pitch 1/cols on the first coordinate and 1/rows on
        every other one.

        On each axis the lattice is fine enough for the breakpoints and
        periods of steps *sourced* there and the shift values of steps
        *targeting* it, so a single interior point certifies its whole box.
        """
        cols = rows = 1
        for mv in self.moves:
            bp = mv.step.period.denominator
            for b in mv.step.breakpoints:
                bp = lcm(bp, b.denominator)
            val = 1
            for v in mv.step.values:
                val = lcm(val, v.denominator)
            if mv.target == 0:
                cols = lcm(cols, val)
            else:
                rows = lcm(rows, val)
            if mv.source == 0:
                cols = lcm(cols, bp)
            else:
                rows = lcm(rows, bp)
        return cols, rows


@dataclass(frozen=True)
class CompiledMap:
    """Integer-lattice compilation of a block-slide map.

    Points are integer vectors modulo M (coordinate j representing j/M).
    Each move becomes a length-M lookup table of integer shifts, so a
    whole point cloud advances through one move with a single fancy-index
    add. Exactness requires M to be a multiple of the map's denominator
    lcm; the constructor enforces this.
    """

    dim: int
    M: int
    tables: Tuple[Tuple[int, int, "np.ndarray"], ...]  # (target, source, delta[M])

    @staticmethod
    def build(m: BlockSlideMap, M: int) -> "CompiledMap":
        L = m.denominator_lcm()
        if M % L != 0:
            raise ParamOutOfRange(f"grid modulus {M} not a multiple of the lcm {L}")
        tables = []
        for mv in m.moves:
            # step is constant on each piece; walk pieces instead of points
            period = mv.step.period
            pts_per_period = period * M
            assert pts_per_period.denominator == 1
            base = np.empty(int(pts_per_period), dtype=np.int64)
            for left, right, val in mv.step.table():
                lo, hi, shift = left * M, right * M, val * M
                assert lo.denominator == hi.denominator == shift.denominator == 1
                base[int(lo) : int(hi)] = mv.sign * int(shift) % M
            delta = np.tile(base, M // int(pts_per_period))
            tables.append((mv.target, mv.source, delta))
        return CompiledMap(m.dim, M, tuple(tables))

    def apply(self, pts: "np.ndarray") -> "np.ndarray":
        """Apply to an array of shape (dim, n) of int64 lattice points."""
        out = pts % self.M
        for target, source, delta in self.tables:
            out[target] = (out[target] + delta[out[source]]) % self.M
        return out


def rotation_map(t, dim: int = 2) -> BlockSlideMap:
    """The rigid rotation phi^t of the first coordinate as a block-slide map."""
    t = mod1(Fraction(t))
    if dim < 2:
        raise ParamOutOfRange("rotation as a move needs a second coordinate to read")
    if t == 0:
        return BlockSlideMap.identity(dim)
    move = BlockSlideMove(0, 1, 1, StepFunction.constant(t))
    return BlockSlideMap(dim, (move,))


__all__ = ["BlockSlideMove", "BlockSlideMap", "CompiledMap", "rotation_map"]
