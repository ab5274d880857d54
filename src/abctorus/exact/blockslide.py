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
lattice.

Runs of moves that live on a small box lattice run as one cell-table op.
A move's box lattice has pitch gcd(L, P, B) on its source axis and
gcd(L, V) on its target axis (in units of 1/L; 1/cols on the first
coordinate and 1/rows on the second): its step is constant on
every box and shifts by whole boxes, so it translates each box rigidly
onto a box. The moves of a run translate the boxes of their joint
lattice rigidly too, so the whole run moves every point by the
displacement of its box's corner. `_Program.build` cuts the move list
greedily into maximal runs of at most `_TABLE_BOXES` joint boxes, and a
run of two or more moves becomes a `_CellTable`: per box, its image's
signed offset along each axis in boxes. With n_a boxes along axis a,
the op finds the box of x with k = x[0] // pitch0 % n0 * n1 +
x[1] // pitch1 % n1 (row-major over the axes) and adds the offsets of
box k. The block-slide realization of translation's h_1 (3
grid-refinement shears, then 34,685 unstacking shears on 200 x 2 boxes)
runs as 4 ops; the translation stage itself runs the closed form
`builders.TowerConjugation`, which emits those 4 ops without building
the moves. A table need not cover the torus: one that is periodic along
an axis stores one period and repeats, which is how the minimality
involution runs as one table on its l^2 x l r class grid and the tower
column permutation as one table on its kq x 1 column grid.

`on_lattice(ys, M)` is the one integer entry point of a map with a
program (`_ProgramMap`: a `BlockSlideMap`, the closed-form tower
conjugation `builders.TowerConjugation`, or the minimality conjugation
of `abctorus.minimal`): it runs the program in place on one point's
numerators ys over a modulus M, a multiple of L, on Python ints with
`bisect_right`. `__call__` puts a `TorusPoint` over M = lcm of L and its
denominators (`points.to_lattice`), runs `on_lattice` and reads the
point back; `CompiledMap` runs the same ops on int64 arrays with
`np.searchsorted`. The results are bit-identical to chaining
`BlockSlideMove.apply`.
"""

from __future__ import annotations

import weakref
from array import array
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from math import gcd, lcm, prod
from typing import Optional, Sequence, Tuple

import numpy as np

from ..errors import ParamOutOfRange
from .points import TorusPoint, as_fraction, from_lattice, mod1, to_lattice
from .steps import StepFunction

_TABLE_BOXES = 1 << 16  # largest joint box lattice a run of moves is tabulated on


def _memo_inverse(obj, make):
    """The inverse of the frozen `obj`, built by `make()` on first use and
    kept on `obj` for the next call. The inverse reaches back only through
    a weak reference, so the two never form a cycle; inverting it again
    gives `obj` back while `obj` is alive."""
    inv = obj.__dict__.get("_inverse")
    if inv is None:
        ref = obj.__dict__.get("_inverse_of")
        inv = ref() if ref is not None else None
    if inv is None:
        inv = make()
        object.__setattr__(inv, "_inverse_of", weakref.ref(obj))
        object.__setattr__(obj, "_inverse", inv)
    return inv


@dataclass(frozen=True)
class BlockSlideMove:
    """x[target] += sign * step(x[source]) (mod 1).

    `target` and `source` are the coordinates 0 (x1) or 1 (x2) of the
    2-torus and must differ unless the step is constant; `sign` is +1 or
    -1.
    """

    target: int
    source: int
    sign: int
    step: StepFunction

    def __post_init__(self):
        t, s = self.target, self.source
        if type(t) is not int or type(s) is not int or not (0 <= t <= 1 and 0 <= s <= 1):
            raise ParamOutOfRange(
                f"a move reads and shifts coordinate 0 or 1 of the 2-torus, got "
                f"target {t!r} and source {s!r}")
        if type(self.sign) is not int or self.sign not in (1, -1):
            raise ParamOutOfRange(f"sign must be the integer +1 or -1, got {self.sign!r}")
        if not isinstance(self.step, StepFunction):
            raise ParamOutOfRange(f"a move's step must be a StepFunction, got {self.step!r}")
        if self.target == self.source and self.step_is_nonconstant():
            raise ParamOutOfRange("a move may not read the coordinate it shifts")

    def step_is_nonconstant(self) -> bool:
        return len(self.step.values) > 1

    def inverse(self) -> "BlockSlideMove":
        return _memo_inverse(
            self, lambda: BlockSlideMove(self.target, self.source, -self.sign, self.step))

    def apply(self, x: TorusPoint) -> TorusPoint:
        return x.shifted(self.target, self.sign * self.step(x[self.source]))


class _ProgramMap:
    """What a map with an integer program reads off that program.

    A subclass builds its forward program in `_build_program()`; an
    inverse made by `_memo_inverse` derives its program from its forward
    map's while that map is alive."""

    def on_lattice(self, ys, M: int):
        """The integer program in place on the numerators ys (Python ints
        in [0, M)) of one point ys/M, where M is a multiple of
        `denominator_lcm()`; returns (ys, M)."""
        prog = self._program
        c, rem = divmod(M, prog.L)
        if rem:
            raise ParamOutOfRange(f"grid modulus {M} not a multiple of the lcm {prog.L}")
        _advance(ys, prog.ops(), c, M, bisect_right)
        return ys, M

    @cached_property
    def _program(self) -> "_Program":
        ref = self.__dict__.get("_inverse_of")
        forward = ref() if ref is not None else None
        return forward._program.inverse() if forward is not None else self._build_program()

    def denominator_lcm(self) -> int:
        """Smallest L such that every op's data lies on the 1/L lattice:
        the modulus of the map's integer program. The map sends the 1/L
        coordinate lattice bijectively to itself."""
        return self._program.L

    def compiled(self, M: int) -> "CompiledMap":
        return CompiledMap.build(self, M)

    def box_grid(self) -> Tuple[int, int]:
        """(cols, rows) of a box lattice on which every op translates
        boxes rigidly: pitch 1/cols on the first coordinate and 1/rows on
        the second, the joint lattice of the program's ops (the
        moves' `_move_pitches` and the tables' pitches).

        On each axis the lattice is fine enough for the breakpoints and
        periods of steps *sourced* there and the shift values of steps
        *targeting* it, so a single interior point certifies its whole
        box.
        """
        L, (col, row) = self._program.L, self._program.pitches
        return L // col, L // row


@dataclass(frozen=True)
class BlockSlideMap(_ProgramMap):
    """Composition of block-slide moves on the 2-torus; moves[0] is
    applied first."""

    moves: Tuple[BlockSlideMove, ...] = ()

    def __call__(self, x: TorusPoint) -> TorusPoint:
        return from_lattice(*self.on_lattice(*to_lattice(x, self._program.L)))

    def inverse(self) -> "BlockSlideMap":
        return _memo_inverse(self, lambda: BlockSlideMap(
            tuple(map(BlockSlideMove.inverse, reversed(self.moves)))))

    def _build_program(self) -> "_Program":
        return _Program.build(self)

    def then(self, other: "BlockSlideMap") -> "BlockSlideMap":
        """The composition other o self (this map runs first)."""
        return BlockSlideMap.compose((self, other))

    @staticmethod
    def compose(maps: Sequence["BlockSlideMap"]) -> "BlockSlideMap":
        """Compose left-to-right: maps[0] is applied first, and an empty
        list composes to the identity.

        One concatenation of the move tuples: no intermediate map is
        built, and the result holds the maps' own move objects, in
        order."""
        return BlockSlideMap(tuple(chain.from_iterable(m.moves for m in maps)))

    # -- exact lattice machinery ------------------------------------------

    def move_count(self) -> int:
        return len(self.moves)

    def commutes_with_rotation(self, q: int) -> bool:
        """Structural commutation with the rotation by 1/q of the first
        coordinate: every non-constant move fed by coordinate 0 must have
        a 1/q-periodic step (each such move then commutes with the
        rotation on its own, and moves reading other coordinates always
        do). Each distinct step object is checked once."""
        if q < 1:
            raise ParamOutOfRange(f"q must be >= 1, got {q}")
        period = Fraction(1, q)
        fed = {id(mv.step): mv.step for mv in self.moves if mv.source == 0}
        return all(st.is_periodic_with(period) for st in fed.values())


def _step_entry(step: StepFunction, sign: int, L: int) -> Tuple[int, tuple, tuple]:
    """A move's step entry (P, B, V) on the 1/L lattice: the period, the
    breakpoints and the shifts sign * value mod 1, in units of 1/L."""

    def units(f: Fraction) -> int:
        return f.numerator * (L // f.denominator)

    return (units(step.period), tuple(map(units, step.breakpoints)),
            tuple(sign * units(v) % L for v in step.values))


def _move_pitches(L: int, t: int, s: int, entry) -> Tuple[int, int]:
    """(col, row) pitches, in units of 1/L, of the boxes a move with step
    entry (P, B, V) translates rigidly: its step is constant on cells of
    gcd(L, P, B) along its source axis and shifts by multiples of
    gcd(L, V) along its target axis; the first coordinate has the col
    pitch, the second the row pitch."""
    P, B, V = entry
    read, shift = gcd(L, P, *B), gcd(L, *V)
    return (gcd(read if s == 0 else L, shift if t == 0 else L),
            gcd(read if s else L, shift if t else L))


def _advance(x, ops, c: int, M: int, search):
    """The program's ops on coordinates x (a list of ints or an int64
    array of rows) at modulus M = c L; `search` is `bisect_right` or its
    numpy counterpart, so both evaluation paths share one formula. A move
    is (t, s, (P, B, V)) and a cell table is (-1, 0, table). On the map's
    own lattice (c = 1) the scaling by c is skipped."""
    unit = c == 1
    for t, s, e in ops:
        if t < 0:
            e.lookup(x, c, M)
            continue
        P, B, V = e
        shift = V[search(B, (x[s] if unit else x[s] // c) % P) - 1]
        x[t] = (x[t] + (shift if unit else shift * c)) % M
    return x


_searchsorted_right = partial(np.searchsorted, side="right")


@dataclass(frozen=True, eq=False)
class _CellTable:
    """A rigid permutation of boxes as one op: a run of block-slide moves
    on its joint box lattice, or the minimality involution on its class
    grid.

    `counts[a]` boxes of pitch `pitches[a]` (in units of 1/L) along axis
    a, numbered row-major with the last axis fastest. Box k goes onto box
    `image[k]`, translated by the signed `offsets[a][k]` boxes along axis
    a; an axis no box moves along has offsets None. The table covers
    counts[a] * pitches[a] / L of axis a and repeats with that period, so
    a point's box along axis a is x[a] // pitch % counts[a] (a table of
    block-slide moves covers the whole torus). The offsets are an `array`
    of C ints (read as Python ints), or int64 arrays in the table
    `arrays` returns.
    """

    pitches: Tuple[int, ...]
    counts: Tuple[int, ...]
    image: "np.ndarray"
    offsets: Tuple[Optional[Sequence[int]], ...]

    @staticmethod
    def tabulate(run, pitches: Tuple[int, ...], L: int, entries) -> "_CellTable":
        """The table of a run of moves (t, s, entry index) whose boxes of
        `pitches` each move translates rigidly: one box permutation per
        distinct move, composed by gathers."""
        counts = tuple(L // p for p in pitches)
        idx = np.indices(counts).reshape(len(counts), -1)
        boxes = np.arange(idx.shape[1])
        strides = [prod(counts[a + 1:]) for a in range(len(counts))]
        perms = {}
        for op in set(run):
            t, s, e = op
            P, B, V = entries[e]
            ps, pt = pitches[s], pitches[t]
            cells = idx[s] % (P // ps)  # the box's place in the step's period
            shift = np.array([v // pt for v in V])[
                np.searchsorted(np.array([b // ps for b in B]), cells, side="right") - 1]
            perms[op] = boxes + ((idx[t] + shift) % counts[t] - idx[t]) * strides[t]
        image = boxes
        for perm in map(perms.__getitem__, run):
            image = perm[image]
        return _CellTable.from_image(pitches, counts, image)

    @staticmethod
    def from_image(pitches, counts, image: "np.ndarray") -> "_CellTable":
        idx = np.indices(counts).reshape(len(counts), -1)
        offsets = tuple(idx[a][image] - idx[a] for a in range(len(counts)))
        return _CellTable(pitches, counts, image,
                          tuple(array("i", o.tolist()) if o.any() else None for o in offsets))

    def inverse(self) -> "_CellTable":
        inv = np.empty_like(self.image)
        inv[self.image] = np.arange(inv.size)
        return _CellTable.from_image(self.pitches, self.counts, inv)

    @cached_property
    def arrays(self) -> "_CellTable":
        """The same table with int64 offset arrays, for `CompiledMap`."""
        return replace(self, offsets=tuple(
            None if o is None else np.array(o, dtype=np.int64) for o in self.offsets))

    def lookup(self, x, c: int, M: int):
        """Move x (a list of ints or rows of an int64 array) at modulus
        M = c L by the offsets of its box."""
        k = 0
        for xa, p, n in zip(x, self.pitches, self.counts):
            k = k * n + xa // (p * c) % n
        for a, (p, off) in enumerate(zip(self.pitches, self.offsets)):
            if off is not None:
                x[a] = (x[a] + off[k] * (p * c)) % M


@dataclass(frozen=True)
class _Program:
    """A map as integer ops on its 1/L lattice.

    Op i is a move or a cell table. A move reads coordinate source[i],
    shifts coordinate target[i] and uses step entry step[i]; an entry is
    (P, B, V): the period, the breakpoints and the signed shifts in units
    of 1/L. Moves sharing step data and sign share an entry. A cell table
    has target[i] = -1 and its `_CellTable` as entry step[i]. `pitches`
    are the (col, row) pitches of the map's joint box lattice.
    """

    L: int
    pitches: Tuple[int, int]
    target: array
    source: array
    step: array
    entries: tuple

    @staticmethod
    def build(m: BlockSlideMap) -> "_Program":
        distinct = {}  # id(step) -> step, over the steps the map holds
        for mv in m.moves:
            distinct.setdefault(id(mv.step), mv.step)
        L = lcm(*(st.denominator_lcm() for st in distinct.values()))
        by_value, by_object = {}, {}  # entry -> its index; (id(step), sign) -> index
        by_move = {}  # id(move) -> (target, source, entry index)
        for mv in {id(mv): mv for mv in m.moves}.values():
            key = (id(mv.step), mv.sign)
            if key not in by_object:
                entry = _step_entry(mv.step, mv.sign, L)
                by_object[key] = by_value.setdefault(entry, len(by_value))
            by_move[id(mv)] = (mv.target, mv.source, by_object[key])
        moves = list(map(by_move.__getitem__, map(id, m.moves)))
        entries = tuple(by_value)

        def boxes(col: int, row: int) -> int:
            return (L // col) * (L // row)

        # greedy runs (start, stop, col pitch, row pitch) of moves whose
        # joint lattice fits the table budget; a move beyond it runs alone,
        # so every run of two or more moves fits
        own = {(t, s, e): _move_pitches(L, t, s, entries[e]) for t, s, e in set(moves)}
        runs, start, col, row, fits = [], 0, L, L, True
        for i, (c, r) in enumerate(map(own.__getitem__, moves)):
            if fits and c % col == 0 and r % row == 0:
                continue  # the run's lattice already serves this move
            jc, jr = gcd(col, c), gcd(row, r)
            if i > start and boxes(jc, jr) > _TABLE_BOXES:
                runs.append((start, i, col, row))
                start, jc, jr = i, c, r
            col, row = jc, jr
            fits = boxes(col, row) <= _TABLE_BOXES
        runs.append((start, len(moves), col, row))

        target, source, step = array("i"), array("i"), array("i")
        tables = []
        for start, stop, c, r in runs:
            if stop - start >= 2:
                target.append(-1)
                source.append(0)
                step.append(len(entries) + len(tables))
                tables.append(_CellTable.tabulate(moves[start:stop], (c, r), L, entries))
            elif stop > start:
                ts, ss, es = zip(*moves[start:stop])
                target.extend(ts)
                source.extend(ss)
                step.extend(es)
        pitches = (gcd(*(c for _, _, c, _ in runs)), gcd(*(r for _, _, _, r in runs)))
        return _Program(L, pitches, target, source, step, entries + tuple(tables))

    def inverse(self) -> "_Program":
        """The inverse map's program: ops reversed, shifts negated and
        tables inverted."""
        L = self.L
        inverted = tuple(e.inverse() if isinstance(e, _CellTable)
                         else (e[0], e[1], tuple(-v % L for v in e[2])) for e in self.entries)
        return _Program(L, self.pitches, self.target[::-1], self.source[::-1],
                        self.step[::-1], inverted)

    def ops(self, entries=None):
        """(target, source, entry) per op, first to last; `entries`
        replaces the stored ones (the array path passes numpy copies)."""
        table = self.entries if entries is None else entries
        return zip(self.target, self.source, map(table.__getitem__, self.step))


@dataclass(frozen=True)
class CompiledMap:
    """A map's integer program on int64 point clouds.

    Points are integer vectors modulo M (coordinate j representing j/M),
    given as an array of shape (2, n). Each move advances the whole
    cloud with one `np.searchsorted` of the source row over the step's
    breakpoints and one gather from its shifts, and each cell table with
    one gather per moved axis: no length-M table is built, so memory is
    the program plus O(n) per op. Exactness requires M to be a multiple
    of the map's denominator lcm, and int64 headroom requires M < 2^62;
    `build` enforces both.
    """

    M: int
    program: _Program
    entries: tuple

    @staticmethod
    def build(m: _ProgramMap, M: int) -> "CompiledMap":
        prog = m._program
        if M % prog.L != 0:
            raise ParamOutOfRange(f"grid modulus {M} not a multiple of the lcm {prog.L}")
        if not 1 <= M < 2**62:
            raise ParamOutOfRange(f"grid modulus {M} is outside [1, 2^62), the int64 range")
        entries = tuple(e.arrays if isinstance(e, _CellTable)
                        else (e[0], np.array(e[1], dtype=np.int64), np.array(e[2], dtype=np.int64))
                        for e in prog.entries)
        return CompiledMap(M, prog, entries)

    def apply(self, pts: "np.ndarray") -> "np.ndarray":
        """Apply to an array of shape (2, n) of int64 lattice points."""
        out = np.asarray(pts, dtype=np.int64) % self.M
        return _advance(out, self.program.ops(self.entries), self.M // self.program.L,
                        self.M, _searchsorted_right)


def rotation_map(t) -> BlockSlideMap:
    """The rigid rotation phi^t of the first coordinate as a block-slide
    map; a t that is not a finite rational is refused with
    ParamOutOfRange."""
    t = mod1(as_fraction(t))
    if t == 0:
        return BlockSlideMap()
    return BlockSlideMap((BlockSlideMove(0, 1, 1, StepFunction.constant(t)),))


__all__ = ["BlockSlideMove", "BlockSlideMap", "CompiledMap", "rotation_map"]
