from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcrys import ratfunc
from symcrys.ratfunc import (
    LaurentPoly,
    RatFunc,
    format_ratfunc,
    parse_ratfunc,
    poly_gcd,
    qfact,
    qint,
)


def R(text):
    return parse_ratfunc(text)


# -- frozen examples ---------------------------------------------------------

def test_qint_small():
    assert qint(0) == LaurentPoly.zero()
    assert qint(1) == LaurentPoly.one()
    assert qint(2) == LaurentPoly({1: 1, -1: 1})
    assert qint(-2) == LaurentPoly({1: -1, -1: -1})


def test_qfact_small():
    assert qfact(0) == LaurentPoly.one()
    assert qfact(2) == LaurentPoly({1: 1, -1: 1})
    # [3]! = (q+q^-1)(q^2+1+q^-2), expanded by hand
    assert qfact(3) == LaurentPoly({1: 1, -1: 1}) * LaurentPoly({2: 1, 0: 1, -2: 1})


def test_adding_zero_returns_the_other_summand(monkeypatch):
    x = R("q/(1 + q^2)")
    calls = []
    real_gcd = ratfunc.poly_gcd
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda *a: calls.append(a) or real_gcd(*a))
    zero = RatFunc.zero()
    for y in (zero + x, x + zero, x + 0, 0 + x, x - zero, sum([x], zero)):
        assert y == x and hash(y) == hash(x) and str(y) == str(x)
    assert calls == []


def test_qfact_negative_rejected():
    with pytest.raises(ValueError):
        qfact(-1)


def test_bar_examples():
    assert RatFunc.q_power(1).bar() == RatFunc.q_power(-1)
    sym = R("q + q^-1")
    assert sym.bar() == sym
    # 1/(1-q) |-> 1/(1-q^-1) = -q/(1-q)
    x = RatFunc(1) / R("1 - q")
    assert x.bar() == R("q") / R("q - 1")


def test_normal_form_structural_equality():
    a = R("(q^2 - 1)") / R("(q - 1)")
    assert a == R("q + 1")
    assert (R("q^3") / R("q")) == R("q^2")


def test_membership_predicates():
    assert R("q + q^-1").in_A()
    assert not (RatFunc(1) / R("1 + q")).in_A()
    assert (RatFunc(1) / R("1 + q")).in_A0()
    assert not R("q^-1").in_A0()
    assert R("q^-1").in_Ainf()
    assert R("q^2 + q").in_qZq()
    assert not R("1 + q").in_qZq()
    assert not R("q^-1 + q").in_qZq()


def test_positive_part():
    x = R("q^-2 + 3 + 2q^3")
    assert x.positive_part() == R("2q^3")


def test_string_round_trip():
    for text in ["0", "1", "q", "q + q^-1", "(q^2 + 1)/(q^2 - q + 1)", "-q^3 + 2"]:
        x = R(text)
        assert parse_ratfunc(format_ratfunc(x)) == x


def test_subs_one_exact():
    assert R("q + q^-1").subs_one() == Fraction(2)
    assert (R("q^2 - 1") / R("q - 1")).subs_one() == Fraction(2)


# -- property tests ----------------------------------------------------------

small_rats = st.builds(
    Fraction,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@st.composite
def laurents(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(n):
        e = draw(st.integers(min_value=-4, max_value=4))
        coeffs[e] = draw(small_rats)
    return LaurentPoly(coeffs)


@st.composite
def ratfuncs(draw, nonzero=False):
    num = draw(laurents())
    den = draw(laurents().filter(lambda p: not p.is_zero()))
    x = RatFunc(num, den)
    if nonzero and x.is_zero():
        return RatFunc(1)
    return x


@given(ratfuncs(), ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(ratfuncs(nonzero=True))
@settings(max_examples=40, deadline=None)
def test_multiplicative_inverse(a):
    assert a * (RatFunc(1) / a) == RatFunc(1)


@given(ratfuncs(), ratfuncs())
@settings(max_examples=60, deadline=None)
def test_bar_is_ring_hom(a, b):
    assert (a + b).bar() == a.bar() + b.bar()
    assert (a * b).bar() == a.bar() * b.bar()
    assert a.bar().bar() == a


def test_qint_qfact_identities():
    for k in range(1, 13):
        assert qint(k) * qint(1) == qint(k)
        assert qfact(k) == qfact(k - 1) * qint(k)


@given(ratfuncs())
@settings(max_examples=60, deadline=None)
def test_bar_swaps_A0_Ainf(a):
    assert a.in_A0() == a.bar().in_Ainf()


# -- reflected operators and non-exact input --------------------------------

@pytest.mark.parametrize("op", [
    lambda x: "x" / x,
    lambda x: "x" - x,
    lambda x: x / "x",
    lambda x: x - "x",
    lambda x: "x" + x,
    lambda x: 0.5 * x,
])
def test_foreign_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(RatFunc(1))


def test_reflected_ops_with_exact_numbers():
    x = R("q + 1")
    assert 2 - x == R("1 - q")
    assert 1 / x == RatFunc(1) / x
    assert Fraction(1, 2) / x == RatFunc(1) / (2 * x)


@pytest.mark.parametrize("make", [
    lambda: LaurentPoly({0: 0.1}),
    lambda: LaurentPoly.const(0.5),
    lambda: LaurentPoly.one().scale(0.5),
    lambda: RatFunc(0.5),
    lambda: RatFunc(1, 2.0),
    lambda: RatFunc("1"),
])
def test_non_exact_coefficients_rejected(make):
    with pytest.raises(TypeError, match="float|str"):
        make()
