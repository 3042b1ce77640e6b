import itertools
import random

import pytest

from symcrys import linalg
from symcrys.linalg import solve_vector
from symcrys.multisegment import Multisegment, Segment, enumerate_multisegments
from symcrys.multisegment import ftilde
from symcrys.ratfunc import RatFunc, parse_ratfunc, qfact
from symcrys.wordalg import WordAlgebra, multiset_permutations

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
    calls = []
    real_solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    for w in fresh.words_of_content(content):
        fresh.coord_vector(fresh.f(*w), content)
        fresh.pbw_coords(fresh.f(*w).bar())
    assert calls == []
    fresh.coord_vector(fresh.f(1, 1), {1: 2})  # a new block is factored once
    assert len(calls) == 1


def closed_form_norm(m):
    """N_A(m) = prod over segments s of multiplicity a and length l of
    (1 - q^2)^{(l - 1) a} prod_{k=1}^{a} (1 - q^2) / (1 - q^{2k})."""
    one_minus = lambda k: RatFunc(1) - RatFunc.q_power(2 * k)
    out = RatFunc(1)
    for seg, a in m:
        length = (seg.j - seg.i) // 2 + 1
        for _ in range((length - 1) * a):
            out = out * one_minus(1)
        for k in range(1, a + 1):
            out = out * one_minus(1) / one_minus(k)
    return out


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


def test_rmul_matrix_is_right_multiplication(alg):
    for key in alg.block_keys(2):
        content = dict(key)
        for i in WIN:
            mat = alg.rmul_matrix(i, content)
            for n, m in enumerate(alg.basis_of_content(content)):
                want = alg.pbw_coords(alg.mul(alg.pbw_element(m), alg.f(i)))
                tgt = alg.basis_of_content({**content, i: content.get(i, 0) + 1})
                assert {b: row[n] for b, row in zip(tgt, mat) if row[n]} == want
