"""Runs of moves on a small box lattice, run as one cell-table op.

`_Program.build` folds each run of two or more moves whose joint box
lattice has at most `_TABLE_BOXES` boxes into one table of per-box
offsets. The table must agree with chaining `BlockSlideMove.apply` in
Fractions, forward and inverse, on dyadic points and on box corners (the
edges where a wrong box index would show), and the compiled int64 path
must agree with the Python-int path.
"""

from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings

from abctorus.bounds import translation_params
from abctorus.engine import run_circle_scenario, run_translation_scenario
from abctorus.exact.blockslide import (
    _TABLE_BOXES,
    BlockSlideMap,
    BlockSlideMove,
    _CellTable,
)
from abctorus.exact.builders import build_abc_conjugation, build_minimal_combinatorics
from abctorus.exact.points import TorusPoint
from abctorus.exact.steps import StepFunction

from test_integer_program import block_slide_maps, fraction_chain

F = Fraction

_CIRCLE = run_circle_scenario(2)
_TRANSLATION = run_translation_scenario(
    translation_params(levels=2, gamma1=(1, 4), p1=1, q1=2, l_base=2), 1)

MAPS = {
    "circle_h1": _CIRCLE.conjugations_exact[0],
    "circle_h2": _CIRCLE.conjugations_exact[1],
    # the stripe-squeezing involution of run_minimal_scenario(l=4, q=3, r=2):
    # 3,708 moves on 192 x 16 boxes
    "minimal_combinatorics": build_minimal_combinatorics(4, 3, 2),
    # the block-slide realization of translation's h_1 (the stage itself
    # runs the closed form)
    "translation_h1": build_abc_conjugation(_TRANSLATION.records[0].a, 100, 10, 2),
}


def tables(m: BlockSlideMap):
    return [e for e in m._program.entries if isinstance(e, _CellTable)]


def probe_points(m: BlockSlideMap, seed: int, n: int):
    """n dyadic points over 2^20 and n corners of the map's first table's
    boxes (with the last box's corner among them)."""
    rng = np.random.default_rng(seed)
    counts = tables(m)[0].counts
    out = [TorusPoint(F(int(v), 2**20) for v in rng.integers(0, 2**20, 2))
           for _ in range(n)]
    out.append(TorusPoint(F(c - 1, c) for c in counts))
    out += [TorusPoint(F(int(rng.integers(0, c)), c) for c in counts) for _ in range(n - 1)]
    return out


@pytest.mark.parametrize("name", sorted(MAPS))
def test_table_matches_fraction_chain(name):
    m = MAPS[name]
    assert tables(m) and m.box_grid() == old_box_grid(m)
    inv = m.inverse()
    # the Fraction chain of translation's 34,688 moves takes about 0.6 s a point
    n = 1 if name == "translation_h1" else 4
    for x in probe_points(m, seed=len(name), n=n):
        assert m(x) == fraction_chain(m, x)
        assert inv(x) == fraction_chain(inv, x)


@pytest.mark.parametrize("name", sorted(MAPS))
@pytest.mark.parametrize("factor", [1, 3])
def test_compiled_table_matches_python_ints(name, factor):
    for m in (MAPS[name], MAPS[name].inverse()):
        M = factor * m.denominator_lcm()
        pts = np.random.default_rng(factor).integers(0, M, size=(2, 40), dtype=np.int64)
        pts[:, 0] = M - 1
        out = m.compiled(M).apply(pts)
        for col, img in zip(pts.T, out.T):
            assert m(TorusPoint(F(int(v), M) for v in col)) == \
                TorusPoint(F(int(v), M) for v in img)


def test_translation_h1_runs_as_four_ops():
    # 3 grid-refinement shears on 2,000,000 x 1,000 boxes, each beyond the
    # table budget, then one table for the 34,685 unstacking shears
    h = MAPS["translation_h1"]
    prog = h._program
    assert h.move_count() == 34_688
    assert len(prog.target) == 4
    assert -1 not in prog.target[:3] and prog.target[3] == -1
    (table,) = tables(h)
    assert table.counts == (200, 2)
    assert table.offsets[1] is None  # the unstacking moves columns, never heights
    assert h.box_grid() == (2_000_000, 1_000)


def test_runs_beyond_the_box_budget_stay_moves():
    # two shears on a 2^9 x 2^8 lattice: 2^17 boxes, over the budget
    step = StepFunction.from_pieces(1, [(0, 0), (F(1, 2**9), F(1, 2**8))])
    back = StepFunction.from_pieces(1, [(0, 0), (F(1, 2**8), F(1, 2**9))])
    m = BlockSlideMap((BlockSlideMove(1, 0, 1, step), BlockSlideMove(0, 1, 1, back)))
    assert 2**9 * 2**8 > _TABLE_BOXES
    assert list(m._program.target) == [1, 0]
    x = TorusPoint((F(3, 2**9), F(5, 7)))
    assert m(x) == fraction_chain(m, x)


def test_table_sees_a_changed_step():
    # shift every value of one row-targeting step by one row pitch (1/16):
    # the map stays on its 192 x 16 table and its images move
    m = MAPS["minimal_combinatorics"]
    i = next(i for i, mv in enumerate(m.moves[1000:], 1000)
             if mv.target == 1 and len(mv.step.values) > 1)
    mv = m.moves[i]
    st = mv.step
    changed = BlockSlideMove(mv.target, mv.source, mv.sign, StepFunction(
        st.period, st.breakpoints, tuple(v + F(1, 16) for v in st.values)))
    m2 = BlockSlideMap(m.moves[:i] + (changed,) + m.moves[i + 1:])
    assert [t.counts for t in tables(m2)] == [(192, 16)]
    pts = probe_points(m, seed=5, n=6)
    assert any(m2(x) != m(x) for x in pts)
    for x in pts:
        assert m2(x) == fraction_chain(m2, x)


def old_box_grid(m: BlockSlideMap):
    """The box lattice by denominators: lcm of the values' denominators on
    the target axis and of the breakpoints' and period's on the source
    axis, per move."""
    cols = rows = 1
    for mv in m.moves:
        bp = lcm(mv.step.period.denominator, *(b.denominator for b in mv.step.breakpoints))
        val = lcm(*(v.denominator for v in mv.step.values))
        cols, rows = (lcm(cols, val), rows) if mv.target == 0 else (cols, lcm(rows, val))
        cols, rows = (lcm(cols, bp), rows) if mv.source == 0 else (cols, lcm(rows, bp))
    return cols, rows


@given(m=block_slide_maps(max_moves=8))
@settings(max_examples=80, deadline=None)
def test_box_grid_reads_the_entry_pitches(m):
    assert m.box_grid() == old_box_grid(m)
    assert m.inverse().box_grid() == old_box_grid(m)


def test_move_inverse_is_memoised_behind_a_weak_reference():
    mv = MAPS["circle_h1"].moves[0]
    inv = mv.inverse()
    assert mv.inverse() is inv and inv.inverse() is mv
    assert inv == BlockSlideMove(mv.target, mv.source, -mv.sign, mv.step)
