"""Block-slide maps: finite compositions of coordinate shears.

A single move adds sign * step(x[source]) to x[target] (mod 1). Each
move preserves Lebesgue measure, maps horizontal/vertical rational
lattices to themselves (when the step data live on them) and is exactly
invertible. A `BlockSlideMap` is a list of moves applied first-to-last;
its inverse is the reversed list with flipped signs.

Rigid rotations of the first coordinate embed as moves with a constant
step function, so conjugations like phi^t o f o phi^{-t} stay inside the
same algebra.

`BlockSlideMove.apply` is the reference definition of a move, in
`Fraction` arithmetic. A map evaluates through an integer program
instead, compiled once on first use at the map's `denominator_lcm()` L:
per move the target t, the source s and the step as integers on the
1/L lattice (period P, breakpoints B, shifts V = sign * value * L mod
L), with equal step data stored once. At a modulus M = c L a coordinate
j stands for j/M, and one move is

    x[t] = (x[t] + V[search(B, (x[s] // c) % P) - 1] * c) % M

which is exact because every step is constant on the cells of the 1/L
lattice. `BlockSlideMap.__call__` runs this rule on Python ints with
`bisect_right` (M = lcm of L and the point's denominators) and
`CompiledMap` on int64 arrays with `np.searchsorted`; the results are
bit-identical to chaining `BlockSlideMove.apply`.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import lcm
from typing import Sequence, Tuple

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
        prog = self._program
        M = lcm(prog.L, *(c.denominator for c in x))
        ys = [c.numerator * (M // c.denominator) for c in x]
        _advance(ys, prog.moves(), M // prog.L, M, bisect_right)
        return TorusPoint(Fraction(y, M) for y in ys)

    def inverse(self) -> "BlockSlideMap":
        inv = self.__dict__.get("_inverse")
        if inv is None:
            inv = BlockSlideMap(self.dim, tuple(m.inverse() for m in reversed(self.moves)))
            # kept here for the next call; the inverse reaches back only
            # through a weak reference, so the two never form a cycle
            object.__setattr__(inv, "_inverse_of", weakref.ref(self))
            object.__setattr__(self, "_inverse", inv)
        return inv

    @cached_property
    def _program(self) -> "_Program":
        """The integer program, built on first use; an inverse derives
        it from its forward map's program while that map is alive."""
        ref = self.__dict__.get("_inverse_of")
        forward = ref() if ref is not None else None
        return forward._program.inverse() if forward is not None else _Program.build(self)

    def then(self, other: "BlockSlideMap") -> "BlockSlideMap":
        """The composition other o self (this map runs first)."""
        return BlockSlideMap.compose((self, other))

    @staticmethod
    def identity(dim: int) -> "BlockSlideMap":
        return BlockSlideMap(dim, ())

    @staticmethod
    def compose(maps: Sequence["BlockSlideMap"]) -> "BlockSlideMap":
        """Compose left-to-right: maps[0] is applied first.

        One concatenation of the move tuples after a single dimension
        check: no intermediate map is built, and the result holds the
        maps' own move objects, in order."""
        if not maps:
            raise ParamOutOfRange("cannot compose an empty list without a dimension")
        dim = maps[0].dim
        if any(m.dim != dim for m in maps):
            raise ParamOutOfRange("dimension mismatch in composition")
        return BlockSlideMap(dim, tuple(chain.from_iterable(m.moves for m in maps)))

    # -- exact lattice machinery ------------------------------------------

    def denominator_lcm(self) -> int:
        """Smallest L such that every move's step data (breakpoints,
        values, period) lies on the 1/L lattice: the modulus of the
        map's integer program. Every move maps the 1/L coordinate lattice
        bijectively to itself."""
        return self._program.L

    def compiled(self, L: int) -> "CompiledMap":
        return CompiledMap.build(self, L)

    def move_count(self) -> int:
        return len(self.moves)

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


def _advance(x, moves, c: int, M: int, search):
    """The move rule on coordinates x (a list of ints or an int64 array of
    rows) at modulus M = c L; `search` is `bisect_right` or its numpy
    counterpart, so both evaluation paths share one formula. On the map's
    own lattice (c = 1) the scaling by c is skipped."""
    unit = c == 1
    for t, s, (P, B, V) in moves:
        shift = V[search(B, (x[s] if unit else x[s] // c) % P) - 1]
        x[t] = (x[t] + (shift if unit else shift * c)) % M
    return x


_searchsorted_right = partial(np.searchsorted, side="right")


@dataclass(frozen=True)
class _Program:
    """A block-slide map as integers on its 1/L lattice.

    Move i reads coordinate source[i], shifts coordinate target[i] and
    uses step entry step[i]; an entry is (P, B, V): the period, the
    breakpoints and the signed shifts in units of 1/L. Moves sharing
    step data and sign share an entry (translation stage 1: 34,688 moves, 185
    entries).
    """

    L: int
    target: array
    source: array
    step: array
    entries: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]

    @staticmethod
    def build(m: BlockSlideMap) -> "_Program":
        distinct = {}  # id(step) -> step, over the steps the map holds
        for mv in m.moves:
            distinct.setdefault(id(mv.step), mv.step)
        L = lcm(*(st.denominator_lcm() for st in distinct.values()))

        def on_lattice(f: Fraction) -> int:
            return f.numerator * (L // f.denominator)

        by_value, by_object = {}, {}  # entry -> its index; (id(step), sign) -> index
        target, source, step = array("i"), array("i"), array("i")
        for mv in m.moves:
            key = (id(mv.step), mv.sign)
            if key not in by_object:
                st = mv.step
                entry = (on_lattice(st.period), tuple(map(on_lattice, st.breakpoints)),
                         tuple(mv.sign * on_lattice(v) % L for v in st.values))
                by_object[key] = by_value.setdefault(entry, len(by_value))
            target.append(mv.target)
            source.append(mv.source)
            step.append(by_object[key])
        return _Program(L, target, source, step, tuple(by_value))

    def inverse(self) -> "_Program":
        """The inverse map's program: moves reversed, shifts negated."""
        L = self.L
        negated = tuple((P, B, tuple(-v % L for v in V)) for P, B, V in self.entries)
        return _Program(L, self.target[::-1], self.source[::-1], self.step[::-1], negated)

    def moves(self, entries=None):
        """(target, source, entry) per move, first to last; `entries`
        replaces the stored ones (the array path passes numpy copies)."""
        table = self.entries if entries is None else entries
        return zip(self.target, self.source, map(table.__getitem__, self.step))


@dataclass(frozen=True)
class CompiledMap:
    """A block-slide map's integer program on int64 point clouds.

    Points are integer vectors modulo M (coordinate j representing j/M),
    given as an array of shape (dim, n). Each move advances the whole
    cloud with one `np.searchsorted` of the source row over the step's
    breakpoints and one gather from its shifts: no length-M table is
    built, so memory is the program plus O(n) per move. Exactness
    requires M to be a multiple of the map's denominator lcm, and int64
    headroom requires M < 2^62; `build` enforces both.
    """

    dim: int
    M: int
    program: _Program
    entries: Tuple[Tuple[int, "np.ndarray", "np.ndarray"], ...]

    @staticmethod
    def build(m: BlockSlideMap, M: int) -> "CompiledMap":
        prog = m._program
        if M % prog.L != 0:
            raise ParamOutOfRange(f"grid modulus {M} not a multiple of the lcm {prog.L}")
        if not 1 <= M < 2**62:
            raise ParamOutOfRange(f"grid modulus {M} is outside [1, 2^62), the int64 range")
        entries = tuple((P, np.array(B, dtype=np.int64), np.array(V, dtype=np.int64))
                        for P, B, V in prog.entries)
        return CompiledMap(m.dim, M, prog, entries)

    def apply(self, pts: "np.ndarray") -> "np.ndarray":
        """Apply to an array of shape (dim, n) of int64 lattice points."""
        out = np.asarray(pts, dtype=np.int64) % self.M
        return _advance(out, self.program.moves(self.entries), self.M // self.program.L,
                        self.M, _searchsorted_right)


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
