"""Cross-check of the integer Q(q) kernel against sympy, and its storage invariants.

sympy is used only here, as an independent oracle: `RatFunc(num, den)` must
be the reduced quotient that `sympy.cancel` finds, written in symcrys's
normal form, and `poly_gcd` must be the monic `sympy.gcd`.  The storage
tests check that every integral coefficient is held as an int after every
operation, and that int and Fraction inputs of the same value give values
that compare, hash and print alike.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcrys.ratfunc import LaurentPoly, RatFunc, poly_gcd

sympy = pytest.importorskip("sympy")

q = sympy.Symbol("q")

coefficients = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)),
)


def polys(min_exp=-3, max_exp=4, max_terms=4):
    return st.dictionaries(
        st.integers(min_value=min_exp, max_value=max_exp), coefficients, max_size=max_terms
    ).map(LaurentPoly)


nonzero_polys = polys().filter(lambda p: not p.is_zero())
monomials = st.builds(
    lambda e, c: LaurentPoly({e: c}),
    st.integers(min_value=-3, max_value=3),
    coefficients.filter(lambda c: c != 0),
)
denominators = st.one_of(nonzero_polys, monomials)
ordinary_polys = polys(min_exp=0, max_exp=6, max_terms=5)


def to_sympy(p):
    return sum(
        (sympy.Rational(Fraction(c).numerator, Fraction(c).denominator) * q**e
         for e, c in p.coeffs.items()),
        sympy.Integer(0),
    )


def dense(p):
    """Coefficients of an ordinary polynomial, highest degree first."""
    return [p.coeffs.get(e, 0) for e in range(p.max_exp(), -1, -1)]


def sympy_normal_den(expr):
    """sympy's reduced denominator, in symcrys's normal form.

    The q-power goes to the numerator, and the rest is made a primitive
    integer polynomial with positive constant coefficient.
    """
    den = sympy.Poly(sympy.fraction(sympy.cancel(expr))[1], q, domain="QQ")
    while den.eval(0) == 0:
        den = den.quo(sympy.Poly(q, q, domain="QQ"))
    _, den = den.clear_denoms(convert=True)
    _, den = den.primitive()
    if den.eval(0) < 0:
        den = -den
    return [int(c) for c in den.all_coeffs()]


def stored_exactly(p):
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.coeffs.values())


# -- agreement with sympy -------------------------------------------------------

@given(polys(), denominators)
@settings(max_examples=150, deadline=None)
def test_normal_form_agrees_with_sympy_cancel(num, den):
    x = RatFunc(num, den)
    expr = to_sympy(num) / to_sympy(den)
    if num.is_zero():
        assert x.is_zero() and x.den == LaurentPoly.one()
        return
    assert dense(x.den) == sympy_normal_den(expr)
    assert sympy.expand(to_sympy(x.num) - sympy.cancel(expr * to_sympy(x.den))) == 0


@given(ordinary_polys, ordinary_polys)
@settings(max_examples=150, deadline=None)
def test_poly_gcd_agrees_with_sympy_gcd(a, b):
    g = poly_gcd(a, b)
    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    if expected == 0:
        assert g.is_zero()
        return
    monic = sympy.Poly(expected, q, domain="QQ").monic()
    assert [Fraction(c) for c in dense(g)] == [
        Fraction(int(c.p), int(c.q)) for c in monic.all_coeffs()
    ]


def test_poly_gcd_frozen_examples():
    # (2q + 1)(q - 3) and (2q + 1)(q^2 + 1): the monic gcd is q + 1/2
    a = LaurentPoly({2: 2, 1: -5, 0: -3})
    b = LaurentPoly({3: 2, 2: 1, 1: 2, 0: 1})
    assert poly_gcd(a, b) == LaurentPoly({1: 1, 0: Fraction(1, 2)})
    assert poly_gcd(a, LaurentPoly()) == LaurentPoly({2: 1, 1: Fraction(-5, 2), 0: Fraction(-3, 2)})
    assert poly_gcd(LaurentPoly(), LaurentPoly()).is_zero()
    assert poly_gcd(a, LaurentPoly({0: 7})) == LaurentPoly.one()


def test_poly_gcd_rejects_negative_powers():
    with pytest.raises(ValueError):
        poly_gcd(LaurentPoly({-1: 1}), LaurentPoly({0: 1, 1: 1}))


# -- storage invariants -----------------------------------------------------------

@given(polys(), denominators, polys(), denominators, coefficients)
@settings(max_examples=100, deadline=None)
def test_integral_coefficients_are_ints_after_every_operation(n1, d1, n2, d2, c):
    a, b = RatFunc(n1, d1), RatFunc(n2, d2)
    values = [a, b, a + b, a - b, a * b, -a, a.bar(), a + c, a * c, c - a]
    if not b.is_zero():
        values.append(a / b)
    for x in values:
        assert stored_exactly(x.num) and stored_exactly(x.den)
    polys_out = [n1 + n2, n1 - n2, n1 * n2, -n1, n1.shift(3), n1.bar(), n1.scale(c), n1 * c]
    p, r = n1.shift(4).divmod_poly(d1.shift(4))
    polys_out += [p, r]
    for p in polys_out:
        assert stored_exactly(p)


def as_fractions(p):
    return {e: Fraction(c) for e, c in p.coeffs.items()}


@given(polys(), denominators)
@settings(max_examples=100, deadline=None)
def test_int_and_fraction_inputs_agree(num, den):
    num_f, den_f = as_fractions(num), as_fractions(den)
    assert LaurentPoly(num_f) == num and hash(LaurentPoly(num_f)) == hash(num)
    assert str(LaurentPoly(num_f)) == str(num)
    x = RatFunc(num, den)
    y = RatFunc(LaurentPoly(num_f), LaurentPoly(den_f))
    assert x == y and hash(x) == hash(y) and str(x) == str(y)
    # the same value reached through Fraction-valued arithmetic
    z = RatFunc(LaurentPoly(num_f).scale(Fraction(1, 3)), den) * Fraction(3)
    assert z == x and hash(z) == hash(x) and str(z) == str(x)
