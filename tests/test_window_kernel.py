"""The saturation shortcut of the entire-step kernel against the full formula.

`EntireStep.__call__` and `EntireStep.eval_at_rational` return 1.0 or
0.0 straight away for a saturated window phase instead of evaluating
sin, clamp and both exponentials. The shortcut claims to be exact, so
every value must equal, bit for bit, the full formula transcribed below
without any shortcut (`full_step`, `full_call`, `full_at_rational`).
Values are compared as floats and by `repr` (which also tells 0.0 from
-0.0), at phases exactly at, just inside and just outside the saturation
edges m, 1/2 - m, 1/2 + m, 1 - m and at 0 and 1/2, for every entire
step of circle stages 1-3 and of the minimal stack. A phase w whose
frac(w l) lies in the plateau band is read from the step's plateau
table, so the same comparison runs at and around the band edges and at
every cell middle.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from abctorus.analytic import (
    EntireStep,
    _windows,
    _windows_pair,
    approximate_blockslide,
    choose_amplitude,
    step_to_plateau,
)
from abctorus.engine import run_circle_scenario, run_minimal_scenario
from abctorus.errors import ParamOutOfRange
from abctorus.exact.points import mod1

F = Fraction
TWO_PI = 2.0 * math.pi
EPS_DEMO = F(1, 10)
DELTA_DEMO = F(1, 4)


# -- the full formula, as evaluated before the shortcut ---------------------

def np_env(y):
    return np.exp(-np.exp(np.clip(y, -709.0, 709.0)))


def math_env(y):
    return math.exp(-math.exp(min(max(y, -709.0), 709.0)))


def full_step(beta, A, phases, w, sin, env):
    """Every window through sin, clamp and both exponentials."""
    windows = [env(-A * sin(TWO_PI * p)) for p in phases]
    windows.append(windows[0])
    half = len(beta) // 2
    low = high = 0
    for i in range(half):
        low = low + beta[i] * (windows[i] - windows[i + 1])
    for i in range(half, len(beta)):
        high = high + beta[i] * (windows[i] - windows[i + 1])
    s = sin(TWO_PI * w)
    return low * env(-A * s) + high * env(A * s)


def full_call(step, x):
    """The float path: one np.mod per window phase."""
    arr = np.asarray(x, dtype=float)
    w = np.mod(arr * step.N, 1.0)
    phases = [np.mod(w - i / step.l, 1.0) for i in range(step.l)]
    out = full_step(step.beta, float(step.A), phases, w, np.sin, np_env)
    return float(out) if arr.ndim == 0 else out


def full_at_rational(step, x):
    """The rational path: every phase reduced as a Fraction, converted once."""
    w = F(x) * step.N % 1
    phases = [float((w - F(i, step.l)) % 1) for i in range(step.l)]
    return full_step(step.beta, float(step.A), phases, float(w), math.sin, math_env)


def same(got, want):
    return got == want and repr(got) == repr(want)


def same_array(got, want):
    return got.shape == want.shape and repr(got.tolist()) == repr(want.tolist())


# -- the steps and their probe phases ---------------------------------------

_CIRCLE = run_circle_scenario(3)
_MINIMAL = run_minimal_scenario(n=2, l=4, q=3, r=2)
STACKS = [am for maps in (_CIRCLE, _MINIMAL) for am in maps.conjugations_analytic
          if am is not None]
STEPS = sorted({mv.step for am in STACKS for mv in am.moves if mv.step is not None},
               key=repr)


def edges_of(step):
    m = math.asin(1418 / float(step.A)) / TWO_PI
    return m, 0.5 - m, 0.5 + m, 1.0 - m


def nudged(p, k):
    for _ in range(abs(k)):
        p = math.nextafter(p, math.inf if k > 0 else -math.inf)
    return p


def probe_phases(step):
    """The kernel's four edges and 0, 1/2, each exactly and 1-3 ulps to
    either side."""
    centres = step._kernel[1] + (0.0, 0.5)
    return sorted({nudged(c, k) % 1.0 for c in centres for k in range(-3, 4)})


def test_stacks_cover_every_step():
    assert len(STACKS) == 4
    assert len(STEPS) == 116
    assert all(float(s.A) > 1418 for s in STEPS)


def test_kernel_edges_are_the_documented_margin():
    for step in STEPS:
        assert step._kernel[1] == edges_of(step)


# -- the numpy kernel on phase blocks ---------------------------------------

def test_windows_match_full_formula_at_the_edges():
    saturated = collar = 0
    for step in STEPS:
        A, edges, _ = step._kernel
        p = np.array(probe_phases(step))
        block = np.stack([p, p[::-1]])  # a 2-d block of phases
        want = np_env(-A * np.sin(TWO_PI * block))
        assert same_array(_windows(A, edges, block), want), step
        wp, wm = _windows_pair(A, edges, p)
        s = np.sin(TWO_PI * p)
        assert same_array(wp, np_env(-A * s)) and same_array(wm, np_env(A * s)), step
        saturated += int(np.isin(want, (0.0, 1.0)).sum())
        collar += int((~np.isin(want, (0.0, 1.0))).sum())
    assert saturated and collar


# -- EntireStep.__call__: scalar, 0-d, 1-d and 2-d inputs --------------------

def probe_points(step):
    """Floats x whose window phases land at and around the probe phases,
    for every window E_i, plus the cell boundaries +- 1e-12."""
    xs = []
    for p in probe_phases(step):
        for i in range(step.l):
            x0 = float((F(p) + F(i, step.l)) / step.N)
            xs.extend(nudged(x0, k) for k in range(-2, 3))
    ln = step.l * step.N
    cells = [j / ln for j in range(min(ln, 64) + 1)]
    xs.extend(c + d for c in cells for d in (-1e-12, 0.0, 1e-12))
    return np.array(xs)


def test_call_matches_full_formula_on_arrays():
    hits = set()
    for step in STEPS:
        xs = probe_points(step)
        assert same_array(step(xs), full_call(step, xs)), step
        grid = xs[: 2 * (len(xs) // 2)].reshape(2, -1)
        assert same_array(step(grid), full_call(step, grid)), step
        w = np.mod(xs * step.N, 1.0)
        for i in range(step.l):
            hits.update(set(edges_of(step)) & set(np.mod(w - i / step.l, 1.0).tolist()))
    # some float inputs land exactly on a saturation edge
    assert hits


def test_call_matches_full_formula_on_scalars_and_0d_arrays():
    for step in STEPS:
        for p in probe_phases(step):
            x = p / step.N
            for arg in (x, np.asarray(x), x + 0.5 / step.N):
                got = step(arg)
                assert isinstance(got, float)
                assert same(got, full_call(step, arg)), (step, x)


def test_call_matches_full_formula_on_random_points():
    rng = np.random.default_rng(11)
    xs = rng.random(2000) * 3 - 1
    for step in STEPS:
        assert same_array(step(xs), full_call(step, xs)), step


# -- EntireStep.eval_at_rational ---------------------------------------------

def test_eval_at_rational_matches_full_formula_at_the_edges():
    # x = (p + i/l)/N puts the phase of E_i exactly at the float p
    for step in STEPS:
        for p in probe_phases(step):
            for i in range(step.l):
                x = (F(p) + F(i, step.l)) / step.N
                assert same(step.eval_at_rational(x), full_at_rational(step, x)), (step, x)


def test_eval_at_rational_matches_full_formula_on_random_rationals():
    rng = np.random.default_rng(12)
    for step in STEPS:
        for den in (2**20 + 7, 2**17, 5**30):
            x = F(int(rng.integers(0, 2**62)) % (3 * den) - den, den)
            assert same(step.eval_at_rational(x), full_at_rational(step, x)), (step, x)


# -- the plateau band: phases where every lane is saturated ------------------

# margin of the plateau band beyond the collars, in units of frac(w l)
GUARD = 1e-9


def band_of(step):
    """(lo, hi) = (m l + GUARD, 1 - m l - GUARD): for frac(w l) strictly
    inside, every window lane of the phase w is saturated."""
    ml = step._kernel[1][0] * step.l
    return ml + GUARD, 1.0 - ml - GUARD


def band_phases(step):
    """Phases w in [0, 1) whose w l sits, in every cell j, exactly at the
    band edges j + lo and j + hi, 1-3 ulps to either side, +- GUARD
    from them, and at the cell middle j + 1/2."""
    lo, hi = band_of(step)
    ts = set()
    for j in range(step.l):
        for edge in (j + lo, j + hi):
            ts.update(nudged(edge, k) for k in range(-3, 4))
            ts.update((edge - GUARD, edge + GUARD))
        ts.add(j + 0.5)
    return sorted(w for w in (t / step.l for t in ts) if 0.0 <= w < 1.0)


def band_points(step):
    """Floats x whose phase N x mod 1 lands at and next to each band
    phase, in the first period and one period above 1."""
    xs = []
    for w in band_phases(step):
        for base in (w / step.N, (w + 2 * step.N - 1) / step.N):
            xs.extend(nudged(base, k) for k in range(-2, 3))
    return np.array(xs)


def realized_fracs(step, xs):
    t = np.mod(xs * step.N, 1.0) * step.l
    return t - np.floor(t)


def test_call_matches_full_formula_across_the_plateau_band():
    edge_hits = 0
    for step in STEPS:
        xs = band_points(step)
        assert same_array(step(xs), full_call(step, xs)), step
        grid = xs[: 2 * (len(xs) // 2)].reshape(2, -1)
        assert same_array(step(grid), full_call(step, grid)), step
        for x in xs[::25]:
            for arg in (float(x), np.asarray(x)):
                got = step(arg)
                assert isinstance(got, float)
                assert same(got, full_call(step, arg)), (step, x)
        edge_hits += int(np.isin(realized_fracs(step, xs), band_of(step)).sum())
    # some float inputs put frac(w l) exactly on a band edge
    assert edge_hits


def test_eval_at_rational_matches_full_formula_across_the_plateau_band():
    # x = (w + k)/N puts the reduced phase exactly at the float w
    for step in STEPS:
        for w in band_phases(step):
            for k in (0, 2 * step.N - 1):
                x = (F(w) + k) / step.N
                assert same(step.eval_at_rational(x), full_at_rational(step, x)), (step, x)


def test_circle_stage_one_band_is_narrow_and_exact():
    # A = 2048, l = 4: m l = 0.487, the band is 0.026 wide
    step = _CIRCLE.conjugations_analytic[0].moves[0].step
    lo, hi = band_of(step)
    assert (float(step.A), step.l) == (2048.0, 4)
    assert 0.48 < lo < hi < 0.52
    ws = np.linspace(0.0, 1.0, 4001)
    xs = np.concatenate([ws / step.N, band_points(step)])
    assert same_array(step(xs), full_call(step, xs))


def test_empty_band_step_matches_full_formula():
    # A = 1024 <= 1418: no lane is ever saturated, so the band is empty
    step = EntireStep((0.0, 0.25, 0.5, 0.75), 1, EPS_DEMO, DELTA_DEMO, 1024)
    lo, hi = band_of(step)
    assert lo >= hi
    ws = np.concatenate([np.linspace(-1.0, 2.0, 2401), (np.arange(4) + 0.5) / 4])
    assert same_array(step(ws), full_call(step, ws))
    for x in (F(1, 8), F(3, 8), F(5, 8), F(7, 8), F(1, 3), F(-7, 5)):
        assert same(step.eval_at_rational(x), full_at_rational(step, x))


# -- the plateau table --------------------------------------------------------

def kernel_lanes(monkeypatch):
    """Count the lanes that reach the per-lane kernel."""
    seen = []
    lanes = EntireStep._lanes

    def counted(self, w):
        seen.append(w.size)
        return lanes(self, w)
    monkeypatch.setattr(EntireStep, "_lanes", counted)
    return seen


def test_plateau_table_is_the_kernel_at_the_cell_middles():
    for step in STEPS:
        values, lo, hi = step._plateau
        assert (lo, hi) == band_of(step)
        middles = (np.arange(step.l) + 0.5) / step.l / step.N
        assert values.shape == (step.l,)
        assert same_array(values, full_call(step, middles)), step


def test_only_lanes_off_the_band_reach_the_kernel(monkeypatch):
    seen = kernel_lanes(monkeypatch)
    xs = np.random.default_rng(15).random(4000)
    for step in STEPS:
        lo, hi = band_of(step)
        f = realized_fracs(step, xs)
        off_band = int(((f <= lo) | (f >= hi)).sum())
        seen.clear()
        step(xs)
        assert sum(seen) == off_band, step
        seen.clear()
        for x in xs[:40]:
            step.eval_at_rational(F(x))
        assert not seen  # the rational path never calls the array kernel


def test_empty_band_step_always_takes_the_kernel(monkeypatch):
    step = EntireStep((0.0, 0.25, 0.5, 0.75), 1, EPS_DEMO, DELTA_DEMO, 1024)
    assert step._plateau is None
    seen = kernel_lanes(monkeypatch)
    xs = (np.arange(4) + 0.5) / 4
    step(xs)
    assert seen == [4]


# -- amplitudes outside the shortcut range -----------------------------------

@pytest.mark.parametrize("A", [32, 1024, 2**53 * 4])
def test_no_shortcut_outside_the_amplitude_range(A):
    step = EntireStep((0.0, 0.5), 1, EPS_DEMO, DELTA_DEMO, A)
    assert step._kernel[1] == (0.25, 0.25, 0.75, 0.75)
    assert step._plateau is None
    xs = np.concatenate([np.linspace(-1.0, 2.0, 1201), [0.0, 0.25, 0.5, 0.75]])
    assert same_array(step(xs), full_call(step, xs))
    for x in (F(0), F(1, 4), F(1, 2), F(1, 3), F(-7, 5)):
        assert same(step.eval_at_rational(x), full_at_rational(step, x))


# -- moves sharing one EntireStep --------------------------------------------

def separately_built(step, eps, delta):
    """One move's approximation, built on its own as every move once was."""
    beta, N, l = step_to_plateau(step)
    beta = tuple(mod1(b) for b in beta)
    A = choose_amplitude(l, eps, delta)
    return EntireStep(tuple(float(b) for b in beta), N, eps, delta, A)


def test_equal_steps_share_one_entire_step():
    am = _MINIMAL.conjugations_analytic[0]
    shared = [mv.step for mv in am.moves if mv.step is not None]
    distinct = {mv.step for mv in am.exact.moves if len(mv.step.values) > 1}
    assert len(shared) > 10 * len({id(s) for s in shared})
    assert len({id(s) for s in shared}) == len(distinct)


def test_shared_steps_match_separately_built_steps():
    am = _MINIMAL.conjugations_analytic[0]
    first = next(mv.step for mv in am.moves if mv.step is not None)
    eps, delta = first.eps, first.delta
    fresh = {}
    rng = np.random.default_rng(13)
    xs = rng.random(64)
    rationals = [F(int(rng.integers(0, 2**30)), 2**20 + 7) for _ in range(8)]
    for ex, mv in zip(am.exact.moves, am.moves):
        if mv.step is None:
            assert mv.constant == mod1(ex.step.values[0])
            continue
        if ex.step not in fresh:
            own = fresh[ex.step] = separately_built(ex.step, eps, delta)
            assert own == mv.step and own is not mv.step
            assert same_array(own(xs), mv.step(xs))
            for x in rationals:
                assert same(own.eval_at_rational(x), mv.step.eval_at_rational(x))
        assert fresh[ex.step] == mv.step


def test_shared_realization_matches_a_fresh_one():
    am = _MINIMAL.conjugations_analytic[0]
    again = approximate_blockslide(am.exact, am.eps, am.delta)
    assert again.moves == am.moves
    pts = np.random.default_rng(14).random((2, 16))
    assert same_array(again.transform(pts), am.transform(pts))


# -- non-finite arguments -------------------------------------------------------

@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_call_refuses_a_non_finite_scalar(bad):
    step = STEPS[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arg in (bad, np.asarray(bad)):
            with pytest.raises(ParamOutOfRange, match="not finite"):
                step(arg)


def test_call_refuses_one_non_finite_lane_in_an_array():
    for step in (STEPS[0], STEPS[-1]):
        for bad in (math.nan, math.inf):
            xs = np.linspace(0.0, 1.0, 33)
            xs[17] = bad
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ParamOutOfRange, match="not finite"):
                    step(xs)
                with pytest.raises(ParamOutOfRange, match="not finite"):
                    step(xs.reshape(3, 11))
