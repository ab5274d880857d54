"""Every `bounds` entry point returns or raises an `AbcTorusError`.

Hypothesis draws toy-sized arguments, mostly in or near each domain and
one time in ten malformed (wrong types, nan and inf, fractional sizes),
with explicit size caps: at most 6 ledger stages, 3 Liouville levels,
k_target 6 and 4 translation levels. Nothing is asserted about the
value returned; a leaked `TypeError`, `ValueError`, `OverflowError` or
the like fails.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from abctorus.bounds import (
    check_amplitude,
    check_q_condition,
    ledger_recipe,
    lip_increment_bound,
    liouville_generate,
    sup_increment_bound,
    translation_params,
)
from abctorus.errors import AbcTorusError
from abctorus.towers import TowerReal


def returns_or_typed(f, *args, **kwargs) -> None:
    try:
        f(*args, **kwargs)
    except AbcTorusError:
        pass


malformed = st.sampled_from([None, "a", "1.5", [], float("nan"), float("inf"),
                             -float("inf"), 1.5, -1, 0, True, Fraction(1, 3),
                             TowerReal(6, 1.5)])


def mostly(valid):
    """Values of `valid`, and one time in ten a malformed one."""
    return st.integers(0, 9).flatmap(lambda i: malformed if i == 0 else valid)


towers = st.builds(
    TowerReal, st.integers(0, 8),
    st.one_of(st.floats(-5, 5), st.floats(1, 2.718281828459045, exclude_max=True)),
)
reals = mostly(st.one_of(
    st.integers(-3, 10**6),
    st.floats(-10, 1e6),
    st.fractions(min_value=-10, max_value=10, max_denominator=1000),
    towers,
))


@settings(max_examples=60, deadline=None)
@given(stages=mostly(st.integers(-1, 6)),
       rho=mostly(st.one_of(st.floats(-1, 12), st.fractions(0, 12))))
def test_ledger_recipe(stages, rho):
    returns_or_typed(ledger_recipe, stages, rho=rho)


@settings(max_examples=100, deadline=None)
@given(levels=mostly(st.integers(-1, 3)), k_target=mostly(st.integers(-1, 6)))
def test_liouville_generate(levels, k_target):
    returns_or_typed(liouville_generate, levels, k_target)


@settings(max_examples=150, deadline=None)
@given(h=mostly(st.integers(0, 3)), levels=mostly(st.integers(0, 4)),
       gamma1=st.one_of(st.none(), mostly(st.lists(mostly(st.integers(-1, 12)), max_size=4))),
       p1=mostly(st.integers(0, 5)), q1=mostly(st.integers(0, 8)),
       l_base=st.one_of(st.none(), mostly(st.integers(0, 8))))
def test_translation_params(h, levels, gamma1, p1, q1, l_base):
    returns_or_typed(translation_params, h=h, levels=levels, gamma1=gamma1, p1=p1, q1=q1,
                     l_base=l_base)


@settings(max_examples=150, deadline=None)
@given(q_n=reals, l_n=reals, n=mostly(st.integers(0, 6)))
def test_check_q_condition(q_n, l_n, n):
    returns_or_typed(check_q_condition, q_n, l_n, n)


@settings(max_examples=150, deadline=None)
@given(A=reals, l=mostly(st.integers(0, 8)),
       eps=mostly(st.fractions(0, Fraction(1, 4), max_denominator=10**6)),
       delta=mostly(st.fractions(0, Fraction(6, 5), max_denominator=10**6)))
def test_check_amplitude(A, l, eps, delta):
    returns_or_typed(check_amplitude, A, l, eps, delta)


@settings(max_examples=150, deadline=None)
@given(A=reals, N=reals, rho=reals)
def test_sup_increment_bound(A, N, rho):
    returns_or_typed(sup_increment_bound, A, N, rho)


@settings(max_examples=150, deadline=None)
@given(A=reals, N=reals, l=reals, rho=reals)
def test_lip_increment_bound(A, N, l, rho):
    returns_or_typed(lip_increment_bound, A, N, l, rho)
