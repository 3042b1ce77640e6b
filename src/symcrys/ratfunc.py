"""Exact arithmetic in Q(q): Laurent polynomials, rational functions, quantum integers.

Everything here is immutable and exact; floats are refused.  A LaurentPoly
stores an integral coefficient as an int and keeps a Fraction only for a
coefficient that is not integral.  An int and a Fraction of the same value
compare, hash and print alike, so the storage never shows in equality or in
printed strings.

RatFunc values are kept in a normal form so that equality is structural:
numerator and denominator share no polynomial factor, the denominator is a
primitive integer polynomial with nonzero positive constant coefficient, and
any overall power of q lives in the numerator.  Most values are Laurent
polynomials (denominator 1): their sums, differences and products are built
directly, without normalisation.  Other values are normalised with a gcd
taken by a primitive remainder sequence over the integers, except where the
reduced form is already known:

- a Laurent L plus a fraction c/d is (L d + c)/d, since gcd(L d + c, d) =
  gcd(c, d) = 1;
- a Laurent p times c/d has gcd(p c, d) = gcd(p, d): a monomial p keeps d
  with no gcd, a p that d divides gives a Laurent value found by one
  division, and otherwise only the gcd of p with d is taken;
- the inverse of c/d is d/c, and bar maps c/d to bar(c)/bar(d), since bar
  is a ring automorphism.

On these routes only the power of q, the content and the sign of the
denominator are renormalised, so each result is structurally the one the
gcd route gives.  Products and sums of two fractions take the gcd route.

A product with a factor 0 or 1 hands back an operand (both classes are
immutable), and a LaurentPoly times an integer monomial c q^e is one pass
that shifts and scales.  `RatFunc.zero()` is one shared zero.  A lone
nonzero product is one `*`: the matrix products of `linalg` multiply only
nonzero entries, and `dot` takes a list of one pair as x * y.
`dot(pairs)`, the sum of x * y over RatFunc pairs, is the kernel for longer
sums of products: it skips zero factors, accumulates
every Laurent x Laurent product straight into one coefficient dict, settled
once (zeros dropped, integral Fractions made ints), and sends only the pairs
with a fraction through RatFunc arithmetic, adding their sum to the Laurent
part once, by the gcd-free route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm

_new = object.__new__


def _exact(c):
    """An exact coefficient: an int when integral, else a Fraction."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


def _quo(a, b):
    """The exact quotient a / b of two coefficients, an int when integral."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        if not r:
            return q
    q = Fraction(a, b)
    return q.numerator if q.denominator == 1 else q


def _poly(d):
    """Trusted constructor: d maps exponents to nonzero, settled coefficients."""
    p = _new(LaurentPoly)
    p.coeffs = d
    return p


class LaurentPoly:
    """Laurent polynomial in q with exact (int or Fraction) coefficients, stored sparsely."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                if c.__class__ is not int:
                    c = _exact(c)
                if c:
                    d[int(e)] = c
        self.coeffs = d

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly()

    @staticmethod
    def one():
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c):
        return LaurentPoly({0: c})

    @staticmethod
    def q_power(n):
        return LaurentPoly({n: 1})

    # -- structure ----------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def min_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no valuation")
        return min(self.coeffs)

    def max_exp(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self):
        return bool(self.coeffs)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) + c
            if not s:
                del d[e]
            elif s.__class__ is int or s.denominator != 1:
                d[e] = s
            else:
                d[e] = s.numerator
        return _poly(d)

    def __neg__(self):
        return _poly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        d = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = d.get(e, 0) - c
            if not s:
                del d[e]
            elif s.__class__ is int or s.denominator != 1:
                d[e] = s
            else:
                d[e] = s.numerator
        return _poly(d)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b, other = b, a, self
        if len(a) == 1:
            (e, c), = a.items()
            if c.__class__ is int:
                # An integer monomial c q^e: the constant 1 returns the other
                # operand, any other one shifts and scales in one pass.
                if c == 1:
                    return other.shift(e)
                d = {}
                for k, v in b.items():
                    v = c * v
                    if v.__class__ is not int and v.denominator == 1:
                        v = v.numerator
                    d[k + e] = v
                return _poly(d)
        d = {}
        get = d.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                d[e] = get(e, 0) + c1 * c2
        return _poly(_settled(d))

    __rmul__ = __mul__

    def scale(self, c):
        c = _exact(c)
        if not c:
            return _poly({})
        return _poly(_settled({e: c * v for e, v in self.coeffs.items()}))

    def shift(self, n):
        """Multiply by q^n."""
        if not n:
            return self
        return _poly({e + n: c for e, c in self.coeffs.items()})

    def bar(self):
        """The involution q -> q^{-1}."""
        return _poly({-e: c for e, c in self.coeffs.items()})

    def subs_one(self):
        """Exact evaluation at q = 1."""
        return sum(self.coeffs.values(), Fraction(0))

    # -- polynomial helpers (nonnegative exponents) ---------------------

    def divmod_poly(self, other):
        """Euclidean division for ordinary polynomials (min_exp >= 0)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = dict(self.coeffs)
        qout = {}
        ddeg = other.max_exp()
        dlead = other.coeffs[ddeg]
        while r:
            rdeg = max(r)
            if rdeg < ddeg:
                break
            f = _quo(r[rdeg], dlead)
            qout[rdeg - ddeg] = f
            for e, c in other.coeffs.items():
                e2 = e + rdeg - ddeg
                s = r.get(e2, 0) - f * c
                if s == 0:
                    r.pop(e2, None)
                else:
                    r[e2] = s
        return _poly(qout), _poly(_settled(r))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"LaurentPoly({format_poly(self)!r})"


_ZERO = _poly({})
_ONE = _poly({0: 1})


def _settled(d):
    """The settled copy of a summed coefficient dict: zeros dropped and
    integral Fractions turned into ints."""
    out = {}
    for e, c in d.items():
        if c:
            if c.__class__ is not int and c.denominator == 1:
                c = c.numerator
            out[e] = c
    return out


def _content(coeffs):
    """(L, G) with G / L the positive rational content of a nonzero coefficient dict.

    L is the lcm of the denominators and G the gcd of the numerators once
    scaled by L, so multiplying by Fraction(L, G) leaves a primitive integer
    polynomial.
    """
    den = lcm(*[c.denominator for c in coeffs.values() if c.__class__ is not int])
    if den == 1:
        return 1, gcd(*coeffs.values())
    return den, gcd(*[c.numerator * (den // c.denominator) for c in coeffs.values()])


def _primitive_dense(p):
    """Dense coefficient list (constant term first) of p over its content."""
    coeffs = p.coeffs
    den, g = _content(coeffs)
    out = [0] * (max(coeffs) + 1)
    if den == 1:
        for e, c in coeffs.items():
            out[e] = c // g
    else:
        for e, c in coeffs.items():
            out[e] = c.numerator * (den // c.denominator) // g
    return out


def _prem(a, b):
    """A remainder of lc(b)^k * a by b, for dense integer lists with len(a) >= len(b) >= 2.

    Each step multiplies by lc(b) only when lc(b) does not divide the leading
    coefficient, so the result is the Euclidean remainder times a nonzero
    integer.  Trailing zeros are removed.
    """
    r = list(a)
    nb = len(b) - 1
    lb = b[-1]
    while len(r) > nb:
        lr = r[-1]
        s = len(r) - 1 - nb
        if lr % lb:
            r = [lb * c for c in r]
            f = lr
        else:
            f = lr // lb
        for i, c in enumerate(b):
            r[s + i] -= f * c
        r.pop()
        while r and not r[-1]:
            r.pop()
    return r


def _prs_gcd(a, b):
    """A gcd over Z of two nonzero primitive dense integer lists, by a primitive PRS."""
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        g = gcd(*r)
        a, b = b, [c // g for c in r]
    return [1]


def poly_gcd(a, b):
    """Monic gcd in Q[q] of two ordinary polynomials (min_exp >= 0).

    The gcd is taken over Z on the content-free integer polynomials, by a
    primitive remainder sequence, and made monic at the end.
    """
    if not a.coeffs:
        a, b = b, a
    if not a.coeffs:
        return _poly({})
    if min(a.coeffs) < 0 or (b.coeffs and min(b.coeffs) < 0):
        raise ValueError("poly_gcd needs ordinary polynomials (no negative powers of q)")
    g = _primitive_dense(a)
    if b.coeffs:
        g = _prs_gcd(g, _primitive_dense(b))
    lead = g[-1]
    return _poly({e: _quo(c, lead) for e, c in enumerate(g) if c})


def qint(k):
    """Quantum integer [k] = (q^k - q^{-k})/(q - q^{-1})."""
    if k < 0:
        return -qint(-k)
    return LaurentPoly({k - 1 - 2 * nu: 1 for nu in range(k)})


def qfact(k):
    """Quantum factorial [k]! = [1][2]...[k]."""
    if k < 0:
        raise ValueError(f"quantum factorial of negative integer {k}")
    return reduce(lambda acc, nu: acc * qint(nu), range(1, k + 1), LaurentPoly.one())


def _as_poly(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly({0: x})
    raise TypeError(f"RatFunc needs an int, a Fraction or a LaurentPoly, not {type(x).__name__}")


def _laurent(p):
    """Trusted constructor of the RatFunc p / 1."""
    r = _new(RatFunc)
    r.num = p
    r.den = _ONE
    return r


def _fraction(num, den):
    """Trusted constructor of the RatFunc num / den, already in normal form."""
    r = _new(RatFunc)
    r.num = num
    r.den = den
    return r


def _normal(num, den):
    """The normal form (num, den) of the quotient of a nonzero num by a den
    coprime to it.  Only the power of q, the content and the sign of den
    move: the q-power goes to the numerator, and den becomes a primitive
    integer polynomial with positive constant coefficient (_ONE if constant).
    """
    dc = den.coeffs
    if len(dc) == 1:
        (e, c), = dc.items()
        if c == 1:
            return num.shift(-e), _ONE
        return _poly({k - e: _quo(v, c) for k, v in num.coeffs.items()}), _ONE
    vd = min(dc)
    den_l, den_g = _content(dc)
    scale = _quo(den_l, den_g)
    if dc[vd] < 0:
        scale = -scale
    return num.scale(scale).shift(-vd), den.shift(-vd).scale(scale)


def _laurent_times(p, x):
    """The RatFunc p * x of a nonzero Laurent polynomial p and a fraction x = c / d.

    c and d are coprime and q does not divide d, so gcd(p c, d) = gcd(p, d):
    a monomial p keeps d, a p that d divides gives a Laurent value, and
    otherwise the gcd of p alone with d decides whether d is kept.
    """
    pc = p.coeffs
    c, d = x.num, x.den
    if len(pc) > 1:
        v = min(pc)
        p0 = p.shift(-v)
        quo, rem = p0.divmod_poly(d)
        if not rem.coeffs:
            return _laurent((quo * c).shift(v))
        if max(poly_gcd(p0, d).coeffs) > 0:
            return RatFunc(p * c, d)
    return _fraction(p * c, d)


def dot(pairs):
    """The RatFunc sum of x * y over an iterable of (RatFunc, RatFunc) pairs.

    A list of one pair is x * y.  Otherwise pairs with a zero factor are
    skipped, and every product of two Laurent values is accumulated straight
    into one coefficient dict, settled once at the end.  A pair with a
    fraction is multiplied as RatFuncs; a Laurent product joins the dict
    and the fractions are added together and then, once, to the Laurent
    sum.  The result is the normal form the sum of the products has.
    """
    if pairs.__class__ is list and len(pairs) == 1:
        (x, y), = pairs
        return x * y
    d = {}
    get = d.get
    fracs = []
    for x, y in pairs:
        a = x.num.coeffs
        if not a:
            continue
        b = y.num.coeffs
        if not b:
            continue
        if x.den is not _ONE or y.den is not _ONE:
            p = x * y
            if p.den is not _ONE:
                fracs.append(p)
                continue
            a, b = p.num.coeffs, _ONE.coeffs  # a Laurent product joins the dict
        elif len(a) > len(b):
            a, b = b, a
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                d[e] = get(e, 0) + c1 * c2
    d = _settled(d)
    total = _laurent(_poly(d)) if d else _RZERO
    if fracs:
        f = fracs[0]
        for g in fracs[1:]:
            f = f + g
        total = total + f
    return total


class RatFunc:
    """Element of Q(q) as a normalized quotient of Laurent polynomials."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = _as_poly(num)
        if den is None:  # a Laurent value is its own normal form
            self.num = num
            self.den = _ONE
            return
        den = _as_poly(den)
        dc = den.coeffs
        if not dc:
            raise ZeroDivisionError("rational function with zero denominator")
        nc = num.coeffs
        if not nc:
            self.num = _ZERO
            self.den = _ONE
            return
        if len(dc) > 1:
            # Cancel the polynomial gcd of the parts free of q-powers.
            vn, vd = min(nc), min(dc)
            num = num.shift(-vn)
            den = den.shift(-vd)
            g = poly_gcd(num, den)
            if max(g.coeffs) > 0:
                g = _poly({e: c for e, c in enumerate(_primitive_dense(g)) if c})
                num = num.divmod_poly(g)[0]
                den = den.divmod_poly(g)[0]
            num = num.shift(vn - vd)
        self.num, self.den = _normal(num, den)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero():
        return _RZERO

    @staticmethod
    def q_power(n):
        return _laurent(LaurentPoly.q_power(n))

    # -- structure ------------------------------------------------------

    def is_zero(self):
        return not self.num.coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num.coeffs)

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction, LaurentPoly)):
            return RatFunc(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # RatFunc is immutable, so a zero summand can hand back the other one.
        if not o.num.coeffs:
            return self
        if not self.num.coeffs:
            return o
        # A Laurent L plus a fraction c / d is (L d + c) / d, already
        # reduced since gcd(L d + c, d) = gcd(c, d) = 1.
        if self.den is _ONE:
            if o.den is _ONE:
                return _laurent(self.num + o.num)
            return _fraction(self.num * o.den + o.num, o.den)
        if o.den is _ONE:
            return _fraction(o.num * self.den + self.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        r = _new(RatFunc)
        r.num = -self.num
        r.den = self.den
        return r

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den is _ONE and o.den is _ONE:
            return _laurent(self.num - o.num)
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # RatFunc is immutable, so a factor 0 or 1 can hand back an operand.
        a, b = self.num.coeffs, o.num.coeffs
        if not a:
            return self
        if not b:
            return o
        if self.den is _ONE and len(a) == 1 and a.get(0) == 1:
            return o
        if o.den is _ONE and len(b) == 1 and b.get(0) == 1:
            return self
        if self.den is _ONE:
            if o.den is _ONE:
                return _laurent(self.num * o.num)
            return _laurent_times(self.num, o)
        if o.den is _ONE:
            return _laurent_times(o.num, self)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero in Q(q)")
        # 1 / (c / d) = d / c, already reduced.
        return self * _fraction(*_normal(o.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return RatFunc(1) / self ** (-n)
        out = RatFunc(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self):
        """The field involution q -> q^{-1}."""
        if self.den is _ONE:
            return _laurent(self.num.bar())
        # bar is a ring automorphism, so the images stay coprime.
        return _fraction(*_normal(self.num.bar(), self.den.bar()))

    def subs_one(self):
        """Exact evaluation at q = 1 (denominator must not vanish there)."""
        d = self.den.subs_one()
        if d == 0:
            raise ZeroDivisionError("pole at q = 1")
        return self.num.subs_one() / d

    # -- membership predicates ---------------------------------------------

    def in_A(self):
        """Member of A = Q[q, q^{-1}]: the denominator is a unit monomial."""
        return self.den is _ONE or self.den == _ONE

    def in_A0(self):
        """Regular at q = 0 (the denominator has nonzero constant term)."""
        return self.is_zero() or self.num.min_exp() >= 0

    def in_Ainf(self):
        """Regular at q = infinity."""
        return self.is_zero() or self.num.max_exp() <= self.den.max_exp()

    def in_qZq(self):
        """Member of q.Q[q]."""
        return self.is_zero() or (self.in_A() and self.num.min_exp() >= 1)

    def laurent(self):
        """The underlying LaurentPoly; raises unless in_A()."""
        if not self.in_A():
            raise ValueError(f"{self} is not a Laurent polynomial")
        return self.num

    def positive_part(self):
        """Sum of the strictly positive q-degree terms (requires in_A())."""
        p = self.laurent()
        return _laurent(_poly({e: c for e, c in p.coeffs.items() if e > 0}))

    def __str__(self):
        return format_ratfunc(self)

    def __repr__(self):
        return f"RatFunc({format_ratfunc(self)!r})"


_RZERO = _laurent(_ZERO)  # the zero `dot` returns, shared: RatFunc is immutable


# ---------------------------------------------------------------------------
# canonical string form and its parser
# ---------------------------------------------------------------------------

def _format_term(coef, exp, first):
    sign = "-" if coef < 0 else "+"
    mag = abs(coef)
    if exp == 0:
        body = str(mag)
    else:
        qpart = "q" if exp == 1 else f"q^{exp}"
        body = qpart if mag == 1 else f"{mag}*{qpart}"
    if first:
        return body if coef > 0 else "-" + body
    return f" {sign} {body}"


def format_poly(p):
    if p.is_zero():
        return "0"
    out = []
    for e in sorted(p.coeffs, reverse=True):
        out.append(_format_term(p.coeffs[e], e, not out))
    return "".join(out)


def format_ratfunc(x):
    """Canonical string, e.g. "q + q^-1" or "(q^2+1)/(q^2+q+1)"."""
    if x.is_zero():
        return "0"
    # display with integer coefficients on both sides
    den_l = lcm(*[c.denominator for c in x.num.coeffs.values()])
    num = x.num.scale(den_l)
    den = x.den.scale(den_l)
    if den == LaurentPoly.one():
        return format_poly(num)
    return f"({format_poly(num)})/({format_poly(den)})"


class _Parser:
    """Recursive-descent parser for the canonical RatFunc grammar."""

    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ValueError(f"parse error at position {self.pos}: {msg} (in {self.text!r})")

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def integer(self):
        self.skip()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or not self.text[start:self.pos].lstrip("+-"):
            self.error("expected integer")
        return int(self.text[start:self.pos])

    def expression(self):
        value = self.term()
        while True:
            if self.take("+"):
                value = value + self.term()
            elif self.take("-"):
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            if self.take("*"):
                value = value * self.factor()
            elif self.take("/"):
                value = value / self.factor()
            elif self.peek() in ("q", "("):  # juxtaposition, e.g. "2q^3"
                value = value * self.atom()
            else:
                return value

    def factor(self):
        if self.take("-"):
            return -self.factor()
        return self.atom()

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.take("(")
            value = self.expression()
            if not self.take(")"):
                self.error("expected ')'")
        elif ch == "q":
            self.pos += 1
            value = RatFunc.q_power(1)
        elif ch.isdigit():
            value = RatFunc(self.integer())
        else:
            self.error("expected '(', 'q' or a number")
        if self.take("^"):
            value = value ** self.integer()
        return value


def parse_ratfunc(text):
    """Parse the canonical RatFunc grammar, e.g. "(q^2+1)/(q)" or "q + q^-1"."""
    p = _Parser(text)
    value = p.expression()
    p.skip()
    if p.pos != len(text):
        p.error("trailing input")
    return value
