import hashlib
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp

from abctorus.bounds import convergence_ledger, ledger_recipe
from abctorus.errors import AmbiguousComparison, ParamOutOfRange, RangeOverflow
from abctorus.towers import WORK_PREC, TowerReal, tower, tower_max

REF_PREC = 200


def ref_value(t: TowerReal) -> mpmath.mpf:
    """Materialise a tower at reference precision (only small heights)."""
    with mp.workprec(REF_PREC):
        v = +t.mantissa
        for _ in range(t.height):
            v = mpmath.exp(v)
        return v


def test_normal_form_examples():
    t = TowerReal(0, 100)
    assert t.height == 2
    assert 1 <= t.mantissa < mpmath.e
    u = TowerReal(1, 0.5)  # e^0.5 < e collapses to height 0
    assert u.height == 0
    with mp.workprec(REF_PREC):
        assert abs(u.mantissa - mpmath.exp(mpmath.mpf(1) / 2)) < mpmath.mpf(2) ** -150
    v = TowerReal(3, 10)  # mantissa >= e climbs one level
    assert v.height == 4
    w = TowerReal(2, -3)  # negative mantissa cascades down
    assert w.height == 0


def test_normal_form_bound_is_e_at_working_precision():
    with mp.workprec(WORK_PREC):
        e = +mp.e
        below = e - mpmath.ldexp(1, -158)  # one ulp under e
    assert TowerReal(0, below).height == 0
    assert TowerReal(0, e).height == 1


def test_height_bands_are_disjoint():
    # the largest height-h value is below the smallest height-(h+1) value
    top0 = TowerReal(0, mpmath.mpf(mpmath.e) * (1 - mpmath.mpf(2) ** -50))
    bot1 = TowerReal(1, 1)
    assert top0 < bot1
    assert TowerReal(1, 2.7) < TowerReal(2, 1)


def test_iterated_exponential_comparison():
    a = TowerReal.from_number(10).exp().exp()  # e^(e^10)
    b = TowerReal.from_number(1000).exp()  # e^1000
    assert a > b
    assert a.compare(b) == 1
    assert tower_max(a, b) is a


def test_compare_against_plain_numbers():
    assert TowerReal(0, 3) > 2
    assert TowerReal(0, 3) < Fraction(7, 2)
    assert TowerReal(0, Fraction(1, 2)) == Fraction(1, 2)
    assert TowerReal(3, 1.5) > 10**16


def test_exp_ln_roundtrip():
    t = TowerReal(2, 1.7)
    assert t.exp().ln().compare(t) == 0
    assert t.ln().exp().compare(t) == 0
    with pytest.raises(ParamOutOfRange):
        TowerReal(0, -1).ln()


def test_from_pow2():
    assert TowerReal.from_pow2(0) == 1
    assert abs(TowerReal.from_pow2(10).to_float() - 1024) < 1e-9
    big = TowerReal.from_pow2(10**6)
    assert big.height == 3  # 2^1e6 = exp(exp(exp(2.5989...)))
    small = TowerReal.from_pow2(-5)
    assert abs(small.to_float() - 1 / 32) < 1e-18


def test_materialisation_limits():
    assert TowerReal(2, 1.2).to_float() > 0
    with pytest.raises(RangeOverflow):
        TowerReal(4, 1.5).to_mpf()
    with pytest.raises(RangeOverflow):
        TowerReal(3, 2.0).to_float()  # exp^3(2) ~ exp(1618) overflows double


def test_absorption_of_small_summands():
    deep = TowerReal(6, 1.5)
    assert (deep + 5) is deep
    assert (5 + deep) is deep
    assert (deep + TowerReal(3, 1.1)) is deep


def test_ambiguous_sum_raises():
    deep = TowerReal(6, 1.5)
    with pytest.raises(AmbiguousComparison):
        deep + TowerReal(6, 1.5)


def test_subtraction_from_deep_tower_rejected():
    with pytest.raises(ParamOutOfRange):
        TowerReal(5, 1.5) + TowerReal(0, -2)


def test_log_space_addition_at_height_four():
    # doubling a height-4 tower shifts its logarithm by ln 2
    a = TowerReal(4, 1.05)
    s = a + a
    la, ls = a.ln(), s.ln()
    with mp.workprec(160):
        diff = ls.to_mpf() - la.to_mpf()
        # exp^3(1.05) is ~ 1.1e6, so adding ln 2 must survive rounding
        assert abs(diff - mpmath.ln(2)) < 1e-30


def test_zero_power_is_one():
    assert TowerReal(5, 1.5) ** 0 == 1


def test_powers_match_reference():
    a = TowerReal(0, 7)
    assert abs(ref_value(a**3) - 343) < 1e-40
    b = TowerReal(1, 1.2)
    with mp.workprec(REF_PREC):
        want = ref_value(b) ** mpmath.mpf(0.5)
        got = ref_value(b ** Fraction(1, 2))
        assert abs(got - want) / want < mpmath.mpf(2) ** -140


def random_tower(rng: random.Random) -> TowerReal:
    h = rng.choice((0, 0, 1, 1, 2, 3))
    if h == 0:
        m = rng.uniform(0.05, 2.7)
    else:
        m = rng.uniform(1.0, 2.7)
    return TowerReal(h, m)


def test_axioms_against_reference():
    rng = random.Random(99)
    with mp.workprec(REF_PREC):
        tol = mpmath.mpf(2) ** -140
        for _ in range(200):
            a, b, c = (random_tower(rng) for _ in range(3))
            va, vb, vc = ref_value(a), ref_value(b), ref_value(c)
            # ordering agrees with the reference
            assert a.compare(b) == (0 if va == vb else (-1 if va < vb else 1))
            # addition and multiplication agree up to working precision
            s = a + b
            vs = ref_value(s) if s.height <= 3 else None
            ref_s = va + vb
            assert vs is not None
            assert abs(mpmath.ln(vs) - mpmath.ln(ref_s)) < tol * (
                1 + abs(mpmath.ln(ref_s))
            )
            p = a * b
            vp = ref_value(p)
            ref_p = va * vb
            assert abs(mpmath.ln(vp) - mpmath.ln(ref_p)) < tol * (
                1 + abs(mpmath.ln(ref_p))
            )
            # associativity of + within tolerance
            lhs = ref_value((a + b) + c)
            rhs = ref_value(a + (b + c))
            assert abs(mpmath.ln(lhs) - mpmath.ln(rhs)) < tol * (
                1 + abs(mpmath.ln(lhs))
            )
            # monotonicity of exp
            if a.compare(b) < 0:
                assert a.exp().compare(b.exp()) < 0


@pytest.mark.parametrize("make", [
    lambda: TowerReal(1.5, 1),  # a truncated height would build exp^1(1)
    lambda: TowerReal(float("nan"), 1),
    lambda: TowerReal("a", 1),
    lambda: TowerReal(0, "abc"),
    lambda: TowerReal(0, None),
    lambda: TowerReal(0, 1) + None,
], ids=["fractional-height", "nan-height", "text-height", "text-mantissa",
        "none-mantissa", "none-summand"])
def test_malformed_towers_are_refused(make):
    with pytest.raises(ParamOutOfRange):
        make()


def test_exp_of_a_huge_negative_mantissa_is_refused_fast():
    # 1/exp^4(2.7) = exp(-exp^3(2.7)): mpmath's exp would run for hours
    start = time.perf_counter()
    with pytest.raises(RangeOverflow):
        TowerReal(4, 2.7) ** -1
    with pytest.raises(RangeOverflow):
        TowerReal(0, -(2**5000)).exp()
    assert time.perf_counter() - start < 0.5
    assert TowerReal(0, -(2**4000)).exp().mantissa > 0


def test_repr_mentions_height():
    assert "exp^2" in repr(TowerReal(2, 1.5))


# ---------------------------------------------------------------------------
# Reference transcription: every ln/exp through the normalising constructor,
# and the deep sum taking its iterated logarithms one at a time. The fast
# paths of `TowerReal` must agree with it bit for bit.
# ---------------------------------------------------------------------------

_ABSORB_LOG_GAP_REF = WORK_PREC * mpmath.log(2) + 1


def ref_exp(t: TowerReal) -> TowerReal:
    return TowerReal(t.height + 1, t.mantissa)


def ref_ln(t: TowerReal) -> TowerReal:
    if t.height >= 1:
        return TowerReal(t.height - 1, t.mantissa)
    if t.mantissa <= 0:
        raise ParamOutOfRange("ln of a non-positive tower value")
    with mp.workprec(WORK_PREC):
        return TowerReal(0, mpmath.ln(t.mantissa))


def ref_add(a: TowerReal, b) -> TowerReal:
    b = TowerReal.from_number(b)
    if a.height <= 3 and b.height <= 3:
        with mp.workprec(WORK_PREC):
            return TowerReal(0, a.to_mpf() + b.to_mpf())
    if a.compare(b) < 0:
        a, b = b, a
    if not b.is_positive():
        raise ParamOutOfRange("subtracting from a deep tower is not supported")
    la, lb = ref_ln(a), ref_ln(b)
    if la.height <= 3 and lb.height <= 3:
        with mp.workprec(WORK_PREC):
            va, vb = la.to_mpf(), lb.to_mpf()
            gap = va - vb
            if gap >= _ABSORB_LOG_GAP_REF:
                return a
            return TowerReal(1, va + mpmath.log1p(mpmath.exp(-gap)))
    depth = a.height - 3
    ta, tb = a, b
    for _ in range(depth):
        ta = ref_ln(ta)
        if tb.height >= 1 or tb.mantissa > 0:
            tb = ref_ln(tb)
        else:
            return a
    if ta.height <= 3 and tb.height <= 3:
        with mp.workprec(WORK_PREC):
            if ta.to_mpf() - tb.to_mpf() >= mpmath.ln(2):
                return a
    raise AmbiguousComparison(
        "sum of towers of comparable depth cannot be rounded soundly"
    )


def ref_mul(a: TowerReal, b) -> TowerReal:
    b = TowerReal.from_number(b)
    if a.height <= 3 and b.height <= 3:
        with mp.workprec(WORK_PREC):
            return TowerReal(0, a.to_mpf() * b.to_mpf())
    if not (a.is_positive() and b.is_positive()):
        raise ParamOutOfRange("multiplying a deep tower by a non-positive factor")
    return ref_exp(ref_add(ref_ln(a), ref_ln(b)))


def ref_pow(a: TowerReal, exponent) -> TowerReal:
    e = TowerReal.from_number(exponent)
    if e.height == 0 and e.mantissa == 0:
        return TowerReal(0, 1)
    if not a.is_positive():
        raise ParamOutOfRange("powers of non-positive tower values")
    return ref_exp(ref_mul(ref_ln(a), e))


def outcome(f, *args):
    """(height, mantissa bits) of f(*args), or (error class, message)."""
    try:
        t = f(*args)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    if isinstance(t, int):
        return t
    s, man, e, bc = t.mantissa._mpf_
    return t.height, (s, int(man), e, bc)


_E_FLOAT = float(mpmath.e)

mantissas = st.one_of(
    st.floats(-40, -1e-9),
    st.floats(0, 1, exclude_max=True),
    st.floats(1, _E_FLOAT, exclude_max=True),
    # full-precision mantissas in [1, e)
    st.integers(2**150, int(_E_FLOAT * 2**150) - 1).map(lambda n: Fraction(n, 2**150)),
)
towers = st.builds(TowerReal, st.integers(0, 30), mantissas)


@settings(max_examples=400, deadline=None)
@given(towers, towers)
@example(TowerReal(6, 1.5), TowerReal(6, 1.5))  # equal deep heights: ambiguous
@example(TowerReal(9, 2.0), TowerReal(9, 1.2))
@example(TowerReal(5, 1.5), TowerReal(0, -2))  # negative summand: refused
@example(TowerReal(0, -0.5), TowerReal(12, 1.1))
@example(TowerReal(10, 1.5), TowerReal(0, 0.5))  # iterated ln leaves the positive axis
@example(TowerReal(20, 1.5), TowerReal(0, 2.5))
@example(TowerReal(30, 2.0), TowerReal(2, 1.3))
@example(TowerReal(7, 1.1), TowerReal(0, 1))
def test_operations_match_the_normalising_reference(a, b):
    assert outcome(lambda x, y: x + y, a, b) == outcome(ref_add, a, b)
    assert outcome(lambda x, y: x + y, b, a) == outcome(ref_add, b, a)
    assert outcome(lambda x, y: x * y, a, b) == outcome(ref_mul, a, b)
    assert outcome(lambda x, y: x ** y, a, b) == outcome(ref_pow, a, b)
    assert outcome(TowerReal.ln, a) == outcome(ref_ln, a)
    assert outcome(TowerReal.exp, a) == outcome(ref_exp, a)
    assert a.compare(b) == -b.compare(a)


@settings(max_examples=100, deadline=None)
@given(towers, st.integers(-5, 5))
def test_operations_with_plain_numbers_match_the_reference(a, k):
    assert outcome(lambda x, y: x + y, a, k) == outcome(ref_add, a, k)
    assert outcome(lambda x, y: y + x, a, k) == outcome(ref_add, a, k)
    assert outcome(lambda x, y: x * y, a, k) == outcome(ref_mul, a, k)
    assert outcome(lambda x, y: x ** y, a, k) == outcome(ref_pow, a, k)
    assert outcome(TowerReal.compare, a, k) == outcome(
        lambda x, y: x.compare(TowerReal(0, y)), a, k)


def test_deep_sum_cases_raise_as_the_reference():
    with pytest.raises(AmbiguousComparison):
        TowerReal(8, 1.5) + TowerReal(8, 1.5)
    with pytest.raises(AmbiguousComparison):
        # exp^3 of the two mantissas differs by less than ln 2
        TowerReal(8, 1 + 1e-9) + TowerReal(8, 1)
    with pytest.raises(ParamOutOfRange):
        TowerReal(0, -3) + TowerReal(15, 2.0)
    deep = TowerReal(25, 1.7)
    assert (deep + TowerReal(0, 0.3)) is deep
    # one height lower, exp^2 of a mantissa just under e meets exp^3(1)
    with mp.workprec(WORK_PREC):
        under_e = +mp.e - mpmath.ldexp(1, -158)
    low = TowerReal(8, 1)
    with pytest.raises(AmbiguousComparison):
        low + TowerReal(7, under_e)
    assert (low + TowerReal(7, 2.5)) is low


def _tower_key(x):
    if isinstance(x, TowerReal):
        s, man, e, bc = x.mantissa._mpf_
        return ("T", x.height, s, int(man), e, bc)
    return repr(x)


def ledger_digest(rhos=(0.05, 0.1, 0.2)) -> str:
    """sha256 of every tower in `ledger_recipe(20, rho)`'s stage data and
    gap certificates, and of its ledger's audit text, for each rho."""
    h = hashlib.sha256()
    for rho in rhos:
        stages, gaps = ledger_recipe(20, rho=rho)
        for s in stages:
            h.update(repr([s.n] + [_tower_key(getattr(s, f))
                                   for f in ("l", "q", "rho", "dh", "rho_prime")]).encode())
        for g in gaps:
            h.update(repr([g.zero, _tower_key(g.literal), _tower_key(g.neglog)]).encode())
        h.update(convergence_ledger(stages, gaps).audit_text().encode())
    return h.hexdigest()


# recorded with the normalising constructor on every ln and exp
LEDGER_DIGEST = "52339df7010987af78e20d34b6c44a621b46faff2521577d418536120dbc9cd3"


def test_ledger_towers_are_pinned():
    assert ledger_digest() == LEDGER_DIGEST
