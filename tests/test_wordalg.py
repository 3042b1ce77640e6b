import itertools
import random

import pytest

from symcrys import linalg, ratfunc, wordalg
from symcrys.linalg import solve_vector
from symcrys.multisegment import Multisegment, Segment, enumerate_multisegments
from symcrys.multisegment import ftilde
from symcrys.ratfunc import RatFunc, parse_ratfunc, qfact, qint
from symcrys.wordalg import WordAlgebra, closed_form_norm, multiset_permutations

WIN = (-3, -1, 1, 3)


@pytest.fixture(scope="module")
def alg():
    return WordAlgebra(WIN)


def R(text):
    return parse_ratfunc(text)


def M(*pairs):
    return Multisegment({Segment(i, j): m for (i, j, m) in pairs})


def test_window_validation():
    with pytest.raises(ValueError):
        WordAlgebra((1, 5))  # not contiguous
    with pytest.raises(ValueError):
        WordAlgebra((0, 2))


def test_mul_examples(alg):
    assert alg.mul(alg.f(1), alg.f(3)) == alg.f(1, 3)
    x = alg.f(1, 3) - alg.f(3).scale(R("q"))
    assert alg.mul(alg.one(), x) == x
    got = alg.mul(alg.f(1) - alg.f(3).scale(R("q")), alg.f(1))
    assert got == alg.f(1, 1) - alg.f(3, 1).scale(R("q"))


def test_ad_t_examples(alg):
    assert alg.ad_t(1, alg.f(1)) == alg.f(1).scale(R("q^-2"))
    assert alg.ad_t(1, alg.f(3)) == alg.f(3).scale(R("q"))
    assert alg.ad_t(1, alg.f(-3)) == alg.f(-3)


def test_eprime_examples(alg):
    assert alg.eprime(1, alg.f(1)) == alg.one()
    assert alg.eprime(1, alg.f(3, 1)) == alg.f(3).scale(R("q"))
    assert alg.eprime(1, alg.f(1, 1)) == alg.f(1).scale(R("1 + q^-2"))


def test_estar_strips_from_right(alg):
    assert alg.estar(1, alg.f(1)) == alg.one()
    assert alg.estar(1, alg.f(1, 3)) == alg.f(3).scale(R("q"))


def test_form_examples(alg):
    assert alg.form(alg.one(), alg.one()) == R("1")
    assert alg.form(alg.f(1, 3), alg.f(3, 1)) == R("q")
    assert alg.form(alg.f(1, 1), alg.f(1, 1)) == R("1 + q^-2")


def test_is_zero_examples(alg):
    serre = alg.f(1, 1, 3) - alg.f(1, 3, 1).scale(R("q + q^-1")) + alg.f(3, 1, 1)
    assert alg.is_zero_in_uq(serre)
    assert alg.is_zero_in_uq(alg.f(-3, 3) - alg.f(3, -3))
    assert not alg.is_zero_in_uq(alg.f(1, 3) - alg.f(3, 1))


def test_serre_and_distant_relations(alg):
    for i in WIN:
        for j in WIN:
            if abs(i - j) == 2:
                assert alg.is_zero_in_uq(alg.serre_element(i, j))
            elif i != j and abs(i - j) >= 4:
                assert alg.is_zero_in_uq(alg.distant_commutator(i, j))


def test_pbw_segment_examples(alg):
    assert alg.pbw_segment(1, 1) == alg.f(1)
    assert alg.pbw_segment(1, 3) == alg.f(1, 3) - alg.f(3, 1).scale(R("q"))
    inner = alg.f(-1, 1) - alg.f(1, -1).scale(R("q"))
    want = (
        alg.mul(inner, alg.f(3))
        - alg.mul(alg.f(3), inner).scale(R("q"))
    )
    assert alg.pbw_segment(-1, 3) == want


def test_pbw_element_examples(alg):
    assert alg.pbw_element(Multisegment.empty()) == alg.one()
    assert alg.pbw_element(M((1, 1, 1), (3, 3, 1))) == alg.f(3, 1)
    assert alg.pbw_element(M((1, 1, 2))) == alg.f(1, 1).scale(R("1") / R("q + q^-1"))


def test_pbw_element_is_cached_per_algebra(alg):
    m = M((-1, 1, 1), (3, 3, 2))
    first = alg.pbw_element(m)
    assert alg.pbw_element(M((-1, 1, 1), (3, 3, 2))) is first
    fresh = WordAlgebra(WIN).pbw_element(m)
    assert fresh is not first and fresh == first


def test_pbw_coords_examples(alg):
    m = M((1, 3, 1))
    assert alg.pbw_coords(alg.pbw_element(m)) == {m: R("1")}
    got = alg.pbw_coords(alg.f(1, 3))
    assert got == {M((1, 3, 1)): R("1"), M((1, 1, 1), (3, 3, 1)): R("q")}
    assert alg.pbw_coords(alg.serre_element(1, 3)) == {}


def test_mod_ops_examples(alg):
    assert alg.mod_ftilde(1, alg.one()) == alg.f(1)
    assert alg.mod_etilde(1, alg.f(1)) == alg.one()
    assert alg.mod_ftilde(1, alg.f(3)) == alg.f(1, 3)


def test_bar_examples(alg):
    assert alg.f(1).scale(R("q")).bar() == alg.f(1).scale(R("q^-1"))
    assert alg.f(1, 3).bar() == alg.f(1, 3)
    assert alg.pbw_segment(1, 3).bar() == alg.f(1, 3) - alg.f(3, 1).scale(R("q^-1"))


def _random_vector(alg, rng, content, span=3):
    words = alg.words_of_content(content)
    out = alg.zero()
    for w in rng.sample(words, min(span, len(words))):
        c = RatFunc.q_power(rng.randint(-2, 2)) * RatFunc(rng.randint(1, 3))
        out = out + alg.vector({w: c})
    return out


def test_adjunction_and_symmetry(alg):
    rng = random.Random(7)
    contents = [{1: 2, 3: 1}, {-1: 1, 1: 1, 3: 1}, {1: 3}, {-3: 1, -1: 1, 1: 1}]
    for content in contents:
        for i in WIN:
            sub = dict(content)
            if sub.get(i, 0) == 0:
                continue
            sub[i] -= 1
            x = _random_vector(alg, rng, sub)
            y = _random_vector(alg, rng, content)
            assert alg.form(alg.eprime(i, y), x) == alg.form(y, alg.mul(alg.f(i), x))
            assert alg.form(x, alg.eprime(i, y)) == alg.form(alg.eprime(i, y), x)


def test_derivations_commute(alg):
    rng = random.Random(11)
    for content in [{1: 2, 3: 1}, {-1: 1, 1: 2}, {1: 1, 3: 2}]:
        x = _random_vector(alg, rng, content)
        for i in WIN:
            for j in WIN:
                a = alg.estar(j, alg.eprime(i, x))
                b = alg.eprime(i, alg.estar(j, x))
                assert a == b


def test_gram_nonsingular_small(alg):
    from symcrys.linalg import rank

    for content in [{1: 2}, {1: 1, 3: 1}, {-1: 1, 1: 1, 3: 1}, {1: 2, 3: 1}]:
        g = alg.gram_matrix(content)
        assert rank(g) == len(g)


def test_crystal_compat_small(alg):
    for m in enumerate_multisegments(WIN, 2):
        for i in WIN:
            coords = alg.pbw_coords(alg.mod_ftilde(i, alg.pbw_element(m)))
            target = ftilde(i, m)
            assert target in coords
            for mm, c in coords.items():
                d = c - RatFunc(1) if mm == target else c
                assert d.is_zero() or d.in_qZq()
                assert c.in_A0()


def test_bar_triangular_small(alg):
    from symcrys.multisegment import cmp_cry_multiseg

    for content in [{1: 1, 3: 1}, {1: 2, 3: 1}, {-1: 1, 1: 1}]:
        basis = alg.basis_of_content(content)
        for m in basis:
            coords = alg.pbw_coords(alg.pbw_element(m).bar())
            assert coords.get(m) == RatFunc(1)
            for n, c in coords.items():
                if n != m:
                    assert cmp_cry_multiseg(n, m) == -1
                assert c.in_A()


def test_words_of_content_are_the_sorted_distinct_permutations(alg):
    for degree in range(6):
        for letters in itertools.combinations_with_replacement(WIN, degree):
            content = {i: letters.count(i) for i in set(letters)}
            expected = sorted(set(itertools.permutations(letters)))
            assert alg.words_of_content(content) == expected, content
            assert multiset_permutations(reversed(letters)) == expected


# -- the stored coordinate rows against the per-vector Gram solve ---------------

def form_gram(alg, content):
    """The block's Gram matrix from `form` on the PBW elements, without the table."""
    vecs = [alg.pbw_element(m) for m in alg.basis_of_content(content)]
    return [[alg.form(u, v) for v in vecs] for u in vecs]


def reference_coords(alg, x, content):
    """The per-vector route: solve the block's Gram system, built by `form`,
    for the pairings of x."""
    rhs = [alg.form(alg.pbw_element(m), x) for m in alg.basis_of_content(content)]
    return solve_vector(form_gram(alg, content), rhs)


def integer_combination(alg, rng, content, terms=4):
    words = alg.words_of_content(content)
    chosen = rng.sample(words, min(terms, len(words)))
    return alg.vector({w: rng.choice((-3, -2, -1, 1, 2, 3)) for w in chosen})


def test_coord_vector_matches_the_gram_solve(alg):
    rng = random.Random(23)
    blocks = alg.block_keys(4)
    assert len(blocks) == 69
    for key in blocks:
        content = dict(key)
        inputs = [alg.pbw_element(m).bar() for m in alg.basis_of_content(content)]
        inputs += [integer_combination(alg, rng, content) for _ in range(2)]
        for x in inputs:
            assert alg.coord_vector(x, content) == reference_coords(alg, x, content), (key, x)


def test_stored_rows_make_no_further_solves(monkeypatch):
    fresh = WordAlgebra(WIN)
    content = {-1: 1, 1: 1, 3: 1}
    fresh.coord_vector(fresh.f(-1, 1, 3), content)  # stores the block's rows
    calls, inversions = [], []
    real_solve, real_inverse_rows = linalg.solve, linalg.inverse_rows
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    monkeypatch.setattr(
        linalg, "inverse_rows", lambda *a: inversions.append(a) or real_inverse_rows(*a)
    )
    for w in fresh.words_of_content(content):
        fresh.coord_vector(fresh.f(*w), content)
        fresh.pbw_coords(fresh.f(*w).bar())
    assert calls == [] and inversions == []
    # a new block makes no inversion: its Gram matrix is checked diagonal and
    # its table read straight off the pairing rows
    fresh.coord_vector(fresh.f(1, 1), {1: 2})
    assert calls == [] and inversions == []


def test_a_gram_fault_below_the_diagonal_is_refused():
    """The PBW basis is orthogonal, so a table build refuses any Gram matrix
    that is not diagonal, a lower triangular one included: q added on the
    word (-1,-3) of the row of <-1> + <-3> gives G = [[1-q^2, 0], [-q^2, q+1]],
    and the block is refused under its label, naming that row."""
    fresh = WordAlgebra(WIN)
    key = wordalg.content_key({-3: 1, -1: 1})
    m = Multisegment({(-1, -1): 1, (-3, -3): 1})
    row = fresh._rows[m] = dict(fresh._row_tilde(m))
    row[-1, -3] = row.get((-1, -3), RatFunc.zero()) + RatFunc.q_power(1)
    with pytest.raises(ArithmeticError) as err:
        fresh.coord_vector(fresh.f(-3, -1), key)
    assert str(err.value) == (
        "content {-3: 1, -1: 1}: Gram matrix is not an invertible diagonal "
        "in the row of <-1> + <-3>")


def test_gram_is_the_closed_form_diagonal(alg):
    """Lusztig's orthogonality of the PBW basis: the table-built Gram matrix
    of every block of degree <= 4 is diag(N_A(m)), and equals the Gram
    matrix built by `form`."""
    for key in alg.block_keys(4):
        content = dict(key)
        basis = alg.basis_of_content(content)
        gram = alg.gram_matrix(content)
        want = [[closed_form_norm(m) if r == c else RatFunc.zero()
                 for c in range(len(basis))] for r, m in enumerate(basis)]
        assert gram == want, key
        assert gram == form_gram(alg, content), key


# -- the word layer against the loops it fused --------------------------------------
#
# Private copies of the word layer as it was before its sums of products went
# through `ratfunc.dot` and before the PBW denominators d(m) were factored out:
# each sum is added one RatFunc product at a time, and P(m) is built with
# its divided powers applied segment by segment.

def _ref_mul(x, y):
    d = {}
    for w1, c1 in x.terms.items():
        for w2, c2 in y.terms.items():
            w = w1 + w2
            s = d.get(w, RatFunc.zero()) + c1 * c2
            if s.is_zero():
                d.pop(w, None)
            else:
                d[w] = s
    return wordalg.WordVector(d, x.window)


def _ref_pbw_element(alg, m):
    out = alg.one()
    for seg in m.segments_desc_pbw():
        mult = m.entries[seg]
        piece = alg.pbw_segment(seg.i, seg.j)
        for _ in range(mult):
            out = _ref_mul(out, piece)
        out = out.scale(RatFunc(1) / RatFunc(qfact(mult)))
    return out


def _ref_form_words(alg, w, v, memo):
    if not w:
        return RatFunc(1)
    key = (w, v)
    if key not in memo:
        acc = RatFunc.zero()
        for v2, c in alg._eprime_on_word(w[0], v).terms.items():
            acc = acc + c * _ref_form_words(alg, w[1:], v2, memo)
        memo[key] = acc
    return memo[key]


def _ref_word_pairings(alg, key, pbw, memo):
    words = alg.words_of_content(key)
    basis = alg.basis_of_content(key)
    phi = {v: [RatFunc.zero()] * len(basis) for v in words}
    for r, m in enumerate(basis):
        for w, c in pbw[m].terms.items():
            for v in words:
                f = _ref_form_words(alg, w, v, memo)
                if f:
                    phi[v][r] = phi[v][r] + c * f
    return phi


def _ref_gram(alg, key, pbw, phi):
    basis = alg.basis_of_content(key)
    cols = []
    for n in basis:
        col = [RatFunc.zero()] * len(basis)
        for v, c in pbw[n].terms.items():
            for m, p in enumerate(phi[v]):
                if p:
                    col[m] = col[m] + c * p
        cols.append(col)
    return [list(row) for row in zip(*cols)]


def _ref_word_coords(gram, phi):
    rows = [[(c, x) for c, x in enumerate(row) if x] for row in linalg.inverse(gram)]
    table = {}
    for v, col in phi.items():
        table[v] = [
            sum((x * col[c] for c, x in row if col[c]), RatFunc.zero()) for row in rows
        ]
    return table


def test_word_layer_matches_the_unfused_loops():
    fresh = WordAlgebra(WIN)
    memo = {}
    blocks = fresh.block_keys(4)
    assert len(blocks) == 69
    for key in blocks:
        basis = fresh.basis_of_content(key)
        pbw = {m: _ref_pbw_element(fresh, m) for m in basis}
        for m in basis:
            assert fresh.pbw_element(m) == pbw[m], m
        phi = _ref_word_pairings(fresh, key, pbw, memo)
        gram = _ref_gram(fresh, key, pbw, phi)
        assert fresh.gram_matrix(key) == gram, key
        for v, coords in _ref_word_coords(gram, phi).items():
            assert fresh.coord_vector(fresh.f(*v), key) == coords, (key, v)


def test_word_pairings_are_memoized_once_per_unordered_pair():
    """The one-sided recursion gives (w, v) = (v, w) on every pair of words of
    a content, and `_form_words` matches it while keeping one memo entry for
    both orders."""
    fresh = WordAlgebra(WIN)
    memo = {}
    for key in fresh.block_keys(4):
        words = fresh.words_of_content(key)
        for w in words:
            for v in words:
                f = _ref_form_words(fresh, w, v, memo)
                assert f == _ref_form_words(fresh, v, w, memo), (w, v)
                assert fresh._form_words(w, v) == f, (w, v)
    assert fresh._form_cache
    assert all(w <= v for w, v in fresh._form_cache)


# A private copy of the PBW build as a left fold from 1 over every segment
# copy, PBW-descending, with d(m) multiplied up segment by segment.

def _fold_pbw_parts(alg, m):
    out = alg.one()
    d = RatFunc(1)
    for seg in m.segments_desc_pbw():
        mult = m.entries[seg]
        piece = alg.pbw_segment(seg.i, seg.j)
        for _ in range(mult):
            out = alg.mul(out, piece)
        d = d * RatFunc(qfact(mult))
    return RatFunc(1) / d, out


def _shape(x):
    """The structure of a RatFunc or WordVector, coefficient types included,
    so that 1 and Fraction(1) or two forms of one fraction differ."""
    if isinstance(x, RatFunc):
        return tuple(
            tuple(sorted((e, type(c).__name__, c) for e, c in p.coeffs.items()))
            for p in (x.num, x.den)
        )
    return tuple(sorted((w, _shape(c)) for w, c in x.terms.items()))


@pytest.mark.parametrize("window, degree", [(WIN, 5), ((-1, 1), 6)])
@pytest.mark.parametrize("descending", [False, True])
def test_pbw_from_the_element_one_segment_smaller_is_the_fold(
    monkeypatch, window, degree, descending
):
    """P~(m) = P~(m-) <s> and 1/d(m) = (1/d(m-)) / [a] give the fold's terms
    and 1/d structurally, in either order of asking, with one product per
    element built of two or more segment copies that is its own
    representative and none for the others: a translate takes its
    representative's parts, every word shifted."""
    ms = sorted(enumerate_multisegments(window, degree), key=Multisegment.degree,
                reverse=descending)
    assert max(a for m in ms for _, a in m) == degree
    ref = WordAlgebra(window)
    want = {m: _fold_pbw_parts(ref, m) for m in ms}
    fresh = WordAlgebra(window)
    for i in window:
        for j in window:
            if i <= j:
                fresh.pbw_segment(i, j)
    calls = []
    real_mul = WordAlgebra.mul
    monkeypatch.setattr(WordAlgebra, "mul",
                        lambda self, x, y: calls.append(1) or real_mul(self, x, y))

    def built(n):  # an element that costs one product
        own = not fresh.representative(wordalg.content_key(n.content()))[1]
        return own and sum(a for _, a in n) >= 2

    for m in ms:
        before, made = set(fresh._pbw_tilde), len(calls)
        inv_d, tilde = fresh._pbw_parts(m)
        want_inv_d, want_tilde = want[m]
        assert _shape(inv_d) == _shape(want_inv_d), m
        assert _shape(tilde) == _shape(want_tilde), m
        new = set(fresh._pbw_tilde) - before
        assert len(calls) - made == sum(1 for n in new if built(n)), m
        p = want_tilde if want_inv_d.in_A() else want_tilde.scale(want_inv_d)
        assert _shape(fresh.pbw_element(m)) == _shape(p), m
    assert len(calls) == sum(1 for m in ms if built(m))


@pytest.mark.parametrize("window, degree", [(WIN, 5), ((-1, 1), 6)])
def test_pbw_parts_take_no_gcd(monkeypatch, window, degree):
    """1/d(m) is the inverse of the Laurent product d(m-) [a], so building
    every element's parts takes no polynomial gcd, while the fraction route
    (1/d(m-)) / [a] takes one for each m whose a > 1 and d(m-) != 1."""
    calls = []
    real_gcd = ratfunc.poly_gcd
    monkeypatch.setattr(ratfunc, "poly_gcd", lambda a, b: calls.append(1) or real_gcd(a, b))
    fresh = WordAlgebra(window)
    ms = enumerate_multisegments(window, degree)
    for m in ms:
        fresh._pbw_parts(m)
    assert calls == []
    fractions = 0
    for m in filter(None, ms):
        seg = min(m.entries, key=Segment.pbw_key)
        a, rest = m.entries[seg], m.remove(seg)
        inv_d = fresh._pbw_parts(rest)[0]
        if a > 1 and not inv_d.in_A():
            fractions += 1
            assert inv_d / RatFunc(qint(a)) == fresh._pbw_parts(m)[0], m
    assert fractions and len(calls) >= fractions


# The pairing rows Phi~(m) = (P~(m), .) by shuffles, against a private copy
# of the word-pair route: Phi~(m)[v] = sum_w P~(m)_w (w, v) over every word v
# of m's content, (w, v) by the recursion (f_i a, b) = (a, e'_i b).

@pytest.mark.parametrize("window, degree", [(WIN, 6), ((-1, 1), 8)])
def test_pairing_rows_by_shuffle_are_the_word_pair_sums(window, degree):
    fresh, memo = WordAlgebra(window), {}
    for m in enumerate_multisegments(window, degree):
        tilde = fresh._pbw_parts(m)[1]
        want = {}
        for v in fresh.words_of_content(wordalg.content_key(m.content())):
            c = RatFunc.zero()
            for w, p in tilde.terms.items():
                c = c + p * _ref_form_words(fresh, w, v, memo)
            if c:
                want[v] = c
        assert fresh._row_tilde(m) == (want if m else {(): R("1")}), m


def test_each_segment_row_is_one_increasing_word():
    """The shuffles give every segment <i,j> of length L the row
    (1 - q^2)^(L-1) on the one word (i, i+2, ..., j), and nothing else."""
    window = (-5, -3, -1, 1, 3, 5)
    fresh = WordAlgebra(window)
    for i in window:
        for j in window:
            if i <= j:
                word = tuple(range(i, j + 1, 2))
                want = (RatFunc(1) - RatFunc.q_power(2)) ** (len(word) - 1)
                assert fresh._row_tilde(Multisegment({(i, j): 1})) == {word: want}, (i, j)


def test_a_table_build_makes_no_word_pair_call(monkeypatch):
    """The tables read their pairings from the shuffled rows; the word-pair
    memo serves only `form`."""
    def form_words(self, w, v):
        raise AssertionError("word-pair call in a table build")

    monkeypatch.setattr(WordAlgebra, "_form_words", form_words)
    fresh = WordAlgebra(WIN)
    for key in fresh.block_keys(4):
        fresh.gram_matrix(key)
    assert not fresh._form_cache


def test_the_shift_read_off_a_multisegment_is_the_representative_shift():
    """`translation_shift` gives representative(content_key(m.content()))'s
    shift on every multisegment of degree <= 4 on -5..5 against the window
    -3..3, so letters outside the window give 0."""
    fresh = WordAlgebra(WIN)
    ms = enumerate_multisegments((-5, -3, -1, 1, 3, 5), 4)
    shifts = set()
    for m in ms:
        want = fresh.representative(wordalg.content_key(m.content()))[1]
        assert fresh.translation_shift(m) == want, m
        shifts.add(want)
    assert shifts == {0, 2, 4, 6}
