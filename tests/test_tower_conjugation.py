"""The closed-form tower conjugation against its block-slide realization.

`TowerConjugation(a, k, l, q)` runs the three refinement shears and one
column table where `build_abc_conjugation(a, k, l, q)` runs the shears
and the unstacking moves. The two must agree pointwise, forward and
inverse, on dyadic points and on box corners of the realization's
lattice (with a corner at the start and at the end of every column of
the kq-column grid, where a wrong a(c) would show), and share L and
`box_grid()`. The translation stage must never build the realization
on its exact path.
"""

from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from abctorus.bounds import translation_params
from abctorus.engine import (
    check_stage_commutation,
    run_translation_scenario,
    translation_index_function,
    verify_cyclic_permutation,
)
from abctorus.errors import InvalidIndexFunction
from abctorus.exact.builders import TowerConjugation, build_abc_conjugation
from abctorus.exact.points import TorusPoint

F = Fraction
CHAIN = translation_params(h=2, levels=2, gamma1=(1, 4), p1=1, q1=2, l_base=2)


def workload_a():
    return run_translation_scenario(CHAIN, 1).records[0].a


def probe_lattice(m, k: int, q: int, seed: int, n: int):
    """(2, N) int64 points at modulus L = m.denominator_lcm(): n random
    box corners of m's box grid, and the first and last box corner of
    every column of the kq-column grid at a random and the last row."""
    L = m.denominator_lcm()
    cols, rows = m.box_grid()
    rng = np.random.default_rng(seed)
    c = rng.integers(0, cols, n)
    r = rng.integers(0, rows, n)
    per = cols // (k * q)
    edges = np.concatenate([np.arange(k * q) * per, np.arange(1, k * q + 1) * per - 1])
    c = np.concatenate([c, edges, edges])
    r = np.concatenate([r, rng.integers(0, rows, edges.size), np.full(edges.size, rows - 1)])
    return np.stack([c * (L // cols), r * (L // rows)]).astype(np.int64)


def dyadic_points(seed: int, n: int):
    rng = np.random.default_rng(seed)
    return [TorusPoint(F(int(v), 2**20) for v in rng.integers(0, 2**20, 2)) for _ in range(n)]


def assert_same_map(h, r, k, q, n):
    assert h.denominator_lcm() == r.denominator_lcm()
    assert h.box_grid() == r.box_grid()
    L = r.denominator_lcm()
    pts = probe_lattice(r, k, q, seed=k * q, n=n)
    for g, ref in ((h, r), (h.inverse(), r.inverse())):
        assert np.array_equal(g.compiled(L).apply(pts), ref.compiled(L).apply(pts))
        for x in dyadic_points(seed=k + q, n=8):
            assert g(x) == ref(x)


def test_workload_closed_form_equals_the_realization():
    a = workload_a()
    h, r = TowerConjugation(a, 100, 10, 2), build_abc_conjugation(a, 100, 10, 2)
    assert_same_map(h, r, 100, 2, n=20_000)
    assert h.box_grid() == (2_000_000, 1_000)
    assert len(h.moves) == len(r.moves) == 34_688
    assert h.move_count() == 4 and len(h._program.target) == 4


SWEEP = [(k, l, q) for k in (2, 3, 5) for l in (2, 4) for q in (1, 2, 3, 4)]


@pytest.mark.parametrize("k, l, q", SWEEP)
def test_sweep_closed_form_equals_the_realization(k, l, q):
    rng = np.random.default_rng(k * 100 + l * 10 + q)
    a = tuple(int(v) for v in rng.integers(0, q, k))
    h, r = TowerConjugation(a, k, l, q), build_abc_conjugation(a, k, l, q)
    assert_same_map(h, r, k, q, n=500)
    assert h.realization_floor() <= len(r.moves) == len(h.moves)
    assert h.inverse().moves == r.inverse().moves
    for qq in range(1, 2 * k * l * q + 1):
        verdict = h.commutes_with_rotation(qq)
        assert verdict == (q % qq == 0)
        assert not verdict or r.commutes_with_rotation(qq)


def test_workload_exact_path_never_builds_the_realization():
    maps = run_translation_scenario(CHAIN, 1)
    h = maps.conjugations_exact[0]
    assert isinstance(h, TowerConjugation) and maps.conjugations_analytic[0] is None
    assert h.realization_floor() > 4096
    rep = verify_cyclic_permutation(maps, 1, "exact", samples=4, seed=1)
    assert rep.hits == rep.samples == 4
    assert check_stage_commutation(maps, 1, samples=4, seed=1).passed
    assert "moves" not in h.__dict__ and "moves" not in h.inverse().__dict__


def _section_time(gamma, y1: Fraction, y2: Fraction) -> Fraction:
    """The flow-time coordinate by its definition, the reference of the
    integer rule: tau = (y2 + j)/gamma2 for the one j in [0, gamma2)
    with y1 - (y2 + j) gamma1/gamma2 mod 1 in [0, 1/gamma2)."""
    g1, g2 = gamma
    for j in range(g2):
        if (y1 - (y2 + j) * F(g1, g2)) % 1 < F(1, g2):
            return (y2 + j) / g2
    raise AssertionError(f"no section window for {gamma}")


def reference_index_function(gamma, gamma_next, k, q):
    o = [int(q * _section_time(gamma, F(c * gamma_next[0], k * q) % 1,
                               F(c * gamma_next[1], k * q) % 1)) for c in range(k * q)]
    return tuple(-o[i] % q for i in range(k))


def test_index_function_matches_the_fraction_reference():
    checked = 0
    for g2 in range(1, 9):
        for g1 in range(1, 9):
            if gcd(g1, g2) != 1:
                continue
            for q in (1, 2, 3, 5):
                for k in (1, 2, 4, 7):
                    for m in (0, 1, 2):
                        nxt = (g1 + m * q, g2 + q)
                        if gcd(*nxt) != 1:
                            continue
                        try:
                            want = reference_index_function((g1, g2), nxt, k, q)
                        except AssertionError:
                            continue
                        try:
                            got = translation_index_function((g1, g2), nxt, k, q)
                        except InvalidIndexFunction:
                            continue  # a class missed an index: refused either way
                        assert got == want, ((g1, g2), nxt, k, q)
                        checked += 1
    assert checked > 200
