"""Cross-check of the integer Q(q) kernel against sympy, and its storage invariants.

sympy is used only here, as an independent oracle: `RatFunc(num, den)` must
be the reduced quotient that `sympy.cancel` finds, written in symcrys's
normal form, and `poly_gcd` must be the monic `sympy.gcd`.  The arithmetic
routes that skip the gcd (a Laurent value times or plus a fraction, the
inverse, bar) must give that same quotient, structurally equal to the
generic constructor's.  The storage
tests check that every integral coefficient is held as an int after every
operation, and that int and Fraction inputs of the same value give values
that compare, hash and print alike.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcrys import ratfunc
from symcrys.ratfunc import LaurentPoly, RatFunc, parse_ratfunc, poly_gcd

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
    return normal_den(sympy.fraction(sympy.cancel(expr))[1])


def normal_den(den):
    """A sympy polynomial denominator, in symcrys's normal form."""
    den = sympy.Poly(den, q, domain="QQ")
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


# -- the routes that skip the gcd -------------------------------------------------

nonzero_values = st.one_of(
    monomials.map(RatFunc),
    nonzero_polys.map(RatFunc),
    st.builds(RatFunc, nonzero_polys, nonzero_polys).filter(lambda x: not x.in_A()),
)
values = st.one_of(st.just(RatFunc(0)), nonzero_values)


def ratfunc_to_sympy(x):
    return to_sympy(x.num) / to_sympy(x.den)


def assert_sympy_normal_form(x, expr):
    """x is the reduced quotient sympy finds for expr, in symcrys's normal form."""
    num, den = sympy.fraction(sympy.cancel(expr))
    if x.is_zero():
        assert num == 0 and x.den == LaurentPoly.one()
        return
    assert dense(x.den) == normal_den(den)
    assert sympy.expand(to_sympy(x.num) * den - num * to_sympy(x.den)) == 0


def assert_structurally_equal(x, y):
    assert x.num == y.num and x.den == y.den
    assert x == y and hash(x) == hash(y) and str(x) == str(y)
    assert stored_exactly(x.num) and stored_exactly(x.den)


@given(values, values)
@settings(max_examples=100, deadline=None)
def test_every_route_gives_the_generic_normal_form(x, y):
    sx, sy = ratfunc_to_sympy(x), ratfunc_to_sympy(y)
    cases = [
        (x * y, RatFunc(x.num * y.num, x.den * y.den), sx * sy),
        (y * x, RatFunc(y.num * x.num, y.den * x.den), sx * sy),
        (x + y, RatFunc(x.num * y.den + y.num * x.den, x.den * y.den), sx + sy),
        (x - y, RatFunc(x.num * y.den - y.num * x.den, x.den * y.den), sx - sy),
        (x.bar(), RatFunc(x.num.bar(), x.den.bar()), sx.subs(q, 1 / q)),
    ]
    if not y.is_zero():
        cases.append((x / y, RatFunc(x.num * y.den, x.den * y.num), sx / sy))
    for got, generic, expr in cases:
        assert_structurally_equal(got, generic)
        assert_sympy_normal_form(got, expr)


def _counting_gcd(monkeypatch):
    calls = []
    real = ratfunc.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", counted)
    return calls


@pytest.mark.parametrize("p, x, want, gcds", [
    # d divides p: the product is Laurent, found by one division and no gcd
    ("1 - q^2", "1/(1 - q^2)", "1", 0),
    ("q + q^-1", "q/(q^2 + 1)", "1", 0),
    ("q^4 - 1", "2*q/(q^2 + 1)", "2*q^3 - 2*q", 0),
    # gcd(p, d) = 1: d is kept after one gcd of p alone with d
    ("1 + q", "1/(1 + q^2)", "(1 + q)/(1 + q^2)", 1),
    ("q^-2 + 3*q^-1", "(q - 1)/(2 + q^3)", "(3 - 2*q^-1 - q^-2)/(q^3 + 2)", 1),
    # a nontrivial gcd and d does not divide p: the generic constructor
    ("1 + q", "2*q/(1 - q^2)", "2*q/(1 - q)", 2),
    ("q^-2 + q^-1", "(1 + q^2)/(1 + q)/(2 - q)", "(1 + q^2)/(2*q^2 - q^3)", 2),
])
def test_laurent_times_fraction_outcomes(monkeypatch, p, x, want, gcds):
    p, x, want = parse_ratfunc(p), parse_ratfunc(x), parse_ratfunc(want)
    assert p.in_A() and not x.in_A()
    generic = RatFunc(p.num * x.num, x.den)
    calls = _counting_gcd(monkeypatch)
    got = p * x
    assert len(calls) == gcds
    assert_structurally_equal(got, want)
    assert_structurally_equal(got, generic)
    assert_structurally_equal(x * p, want)


def test_cheap_routes_never_take_a_gcd(monkeypatch):
    fractions_ = [parse_ratfunc(t) for t in (
        "q/(1 + q^2)", "(2*q^-1 - 3)/(1 - q + 4*q^3)", "(q^2 + 1)/(q^2 + q + 1)",
        "-3/(2 - q)", "(1/2)*q^5/(3 + q^2)",
    )]
    monomial = RatFunc(LaurentPoly({-2: Fraction(-3, 2)}))
    laurents = [parse_ratfunc(t) for t in ("1 + q", "q^-1 - 2*q^3", "(1/3)*q^2 + 5")]
    expected = []
    for x in fractions_ + laurents:
        expected.append((1 / x, RatFunc(x.den, x.num)))
        expected.append((x.bar(), RatFunc(x.num.bar(), x.den.bar())))
    for x in fractions_:
        expected.append((monomial * x, RatFunc(monomial.num * x.num, x.den)))
        expected.append((x * monomial, RatFunc(monomial.num * x.num, x.den)))
        for p in laurents:
            expected.append((p + x, RatFunc(p.num * x.den + x.num, x.den)))
            expected.append((x - p, RatFunc(x.num - p.num * x.den, x.den)))
    for got, generic in expected:
        assert_structurally_equal(got, generic)

    def no_gcd(a, b):
        raise AssertionError("poly_gcd called on a route that needs no gcd")

    monkeypatch.setattr(ratfunc, "poly_gcd", no_gcd)
    again = []
    for x in fractions_ + laurents:
        again += [1 / x, x.bar()]
    for x in fractions_:
        again += [monomial * x, x * monomial]
        for p in laurents:
            again += [p + x, x - p]
    for got, (want, _) in zip(again, expected, strict=True):
        assert_structurally_equal(got, want)


# -- the fused sum of products ------------------------------------------------------

def generic_poly_mul(a, b):
    """The product of two LaurentPolys by the general double loop."""
    d = {}
    for e1, c1 in a.coeffs.items():
        for e2, c2 in b.coeffs.items():
            d[e1 + e2] = d.get(e1 + e2, 0) + Fraction(c1) * Fraction(c2)
    return LaurentPoly(d)


def generic_dot(pairs):
    """sum(x * y) over the pairs, each step through the generic constructor."""
    acc = RatFunc(0)
    for x, y in pairs:
        prod = RatFunc(generic_poly_mul(x.num, y.num), generic_poly_mul(x.den, y.den))
        acc = RatFunc(
            generic_poly_mul(acc.num, prod.den) + generic_poly_mul(prod.num, acc.den),
            generic_poly_mul(acc.den, prod.den),
        )
    return acc


laurent_factors = st.one_of(
    st.sampled_from([LaurentPoly(), LaurentPoly.one(), LaurentPoly.const(-1)]),
    monomials,
    polys(),
)
dot_factors = st.one_of(
    laurent_factors.map(RatFunc),
    st.builds(RatFunc, nonzero_polys, nonzero_polys).filter(lambda x: not x.in_A()),
)


@given(laurent_factors, laurent_factors)
@settings(max_examples=200, deadline=None)
def test_laurent_products_match_the_double_loop(a, b):
    for got in (a * b, b * a):
        assert got.coeffs == generic_poly_mul(a, b).coeffs
        assert stored_exactly(got)


@given(st.lists(st.tuples(dot_factors, dot_factors), max_size=6), dot_factors, dot_factors)
@settings(max_examples=150, deadline=None)
def test_dot_is_the_generic_sum_of_products(pairs, x, y):
    assert_structurally_equal(ratfunc.dot(pairs), generic_dot(pairs))
    assert_structurally_equal(ratfunc.dot(iter(pairs)), generic_dot(pairs))
    # a list of one pair is the product
    assert_structurally_equal(ratfunc.dot([(x, y)]), generic_dot([(x, y)]))


@pytest.mark.parametrize("pairs, want", [
    ([], "0"),
    ([("q + 2*q^-1", "(1/2)*q - 3")], "(1/2)*q^2 - 3*q + 1 - 6*q^-1"),
    ([("(1 + q)/(2 - q)", "(2 - q)/(1 - q^2)")], "1/(1 - q)"),
    ([("0", "1/(2 - q)")], "0"),
    ([("1", "(1 + q)/(2 - q^3)")], "(1 + q)/(2 - q^3)"),
    ([("q", "1 + q"), ("-q - q^2", "1")], "0"),
    ([("q/(1 + q^2)", "1 + q"), ("q + q^2", "-1/(1 + q^2)")], "0"),
    ([("(1/2)*q", "2"), ("3", "(1/3)*q^-1")], "q + q^-1"),
    ([("1 + q", "q"), ("q/(1 + q^2)", "1 - q"), ("0", "1/(2 - q)"), ("q^-1", "q^2 + 1/2")],
     "(q^4 + 2*q^3 + (7/2)*q + (1/2)*q^-1)/(q^2 + 1)"),
])
def test_dot_frozen_cases(pairs, want):
    pairs = [(parse_ratfunc(x), parse_ratfunc(y)) for x, y in pairs]
    got = ratfunc.dot(pairs)
    assert_structurally_equal(got, parse_ratfunc(want))
    assert_structurally_equal(got, generic_dot(pairs))


def test_zero_and_one_factors_hand_back_an_operand():
    p = LaurentPoly({-1: 2, 3: Fraction(1, 2)})
    assert p * LaurentPoly.one() is p and LaurentPoly.one() * p is p
    assert (p * LaurentPoly()).is_zero() and (LaurentPoly() * p).is_zero()
    assert (p * LaurentPoly({2: 1})).coeffs == {1: 2, 5: Fraction(1, 2)}
    assert (LaurentPoly({1: 4}) * p).coeffs == {0: 8, 4: 2}
    x = parse_ratfunc("(1 + q)/(2 - q^3)")
    one, zero = RatFunc(1), RatFunc(0)
    assert x * one is x and one * x is x
    assert x * zero is zero and zero * x is zero


def test_dot_over_laurent_pairs_never_normalises(monkeypatch):
    pairs = [(parse_ratfunc(x), parse_ratfunc(y)) for x, y in [
        ("1", "q + q^-1"), ("-1", "q"), ("0", "q^3"), ("(1/2)*q^2", "2 - 4*q"),
        ("q^-1 + 3", "(1/3)*q - 1"), ("2*q^4", "0"),
    ]]
    want = generic_dot(pairs)

    def refuse(*args):
        raise AssertionError("a Laurent sum of products was normalised")

    monkeypatch.setattr(RatFunc, "__init__", refuse)
    monkeypatch.setattr(ratfunc, "poly_gcd", refuse)
    got = ratfunc.dot(pairs)
    monkeypatch.undo()
    assert_structurally_equal(got, want)
