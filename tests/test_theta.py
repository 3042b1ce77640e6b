import itertools

import pytest

from symcrys.multisegment import Multisegment, Segment
from symcrys.theta import (
    check_theta_restricted,
    crystal_E,
    crystal_F,
    crystal_eps,
    enumerate_theta,
    symmetrized_content,
    theta_Etilde,
    theta_Ftilde,
    theta_epsilon,
    theta_of_symmetrized_content,
    theta_ops_positive,
    theta_signature_ops,
)

WIN5 = range(-5, 6, 2)


def M(*pairs):
    return Multisegment({Segment(i, j): m for (i, j, m) in pairs})


def test_restriction_validator_names_segment():
    bad = M((-1, -1, 1))
    with pytest.raises(ValueError, match="<-1,-1>"):
        check_theta_restricted(bad)
    check_theta_restricted(M((-1, 3, 2)))


def test_crystal_F_rejects_an_unrestricted_result():
    bad = M((-3, -3, 1))
    for i in (-1, 1, 3):
        with pytest.raises(ValueError, match="<-3,-3>"):
            crystal_F(i, bad)


def test_symmetrized_content():
    assert dict(symmetrized_content(M((-1, 3, 1)))) == {1: 2, 3: 1}


# -- frozen examples ---------------------------------------------------------

def test_theta_epsilon_examples():
    assert theta_epsilon(1, Multisegment.empty()) == 0
    assert theta_epsilon(1, M((1, 1, 1))) == 1
    assert theta_epsilon(3, M((3, 3, 1))) == 1


def test_theta_Ftilde_examples():
    assert theta_Ftilde(1, Multisegment.empty()) == M((1, 1, 1))
    assert theta_Ftilde(1, M((1, 1, 1))) == M((-1, 1, 1))
    assert theta_Ftilde(3, M((3, 3, 1))) == M((3, 3, 2))


def test_theta_signature_examples():
    assert theta_signature_ops(1, Multisegment.empty()) == (0, None, M((1, 1, 1)))
    eps, e, f = theta_signature_ops(3, M((3, 3, 1)))
    assert (eps, e, f) == (1, Multisegment.empty(), M((3, 3, 2)))


def test_positive_index_examples():
    assert theta_ops_positive(3, Multisegment.empty())[2] == M((3, 3, 1))
    assert theta_ops_positive(3, M((3, 3, 1)))[2] == M((3, 3, 2))
    assert theta_ops_positive(1, M((1, 1, 1)))[1] == Multisegment.empty()


# -- the worked crystal-graph fragments --------------------------------------

def test_minus_one_chain_eight_steps():
    """Repeated application of the -1 operator walks a<-1,1> + b<1> through
    (0,0),(0,1),(1,0),(1,1),(2,0),(2,1),(3,0),(3,1),(4,0)."""
    expected = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]
    m = Multisegment.empty()
    chain = [m]
    for _ in range(8):
        m = theta_Ftilde(1, m)
        chain.append(m)
    got = [(x.mult(-1, 1), x.mult(1, 1)) for x in chain]
    assert got == expected


def test_double_ladder_n3():
    for k in range(0, 4):
        m = M((3, 3, k)) if k else Multisegment.empty()
        up = M((3, 3, k + 1))
        assert theta_Ftilde(3, m) == up
        assert theta_ops_positive(3, m)[2] == up


def test_enumerate_theta_examples():
    got = {str(m) for m in enumerate_theta([-1, 1], 1)}
    assert got == {"0", "<1>"}
    got = {str(m) for m in enumerate_theta([-1, 1], 2)}
    assert got == {"0", "<1>", "2<1>", "<-1,1>"}
    got = {str(m) for m in enumerate_theta([-3, -1, 1, 3], 1)}
    assert got == {"0", "<1>", "<3>"}


def test_theta_of_symmetrized_content():
    ms = theta_of_symmetrized_content([-3, -1, 1, 3], {1: 2})
    assert set(ms) == {M((1, 1, 2)), M((-1, 1, 1))}


# -- oracle cross-check and crystal axioms at test scale ---------------------

SCALE = enumerate_theta(WIN5, 4)


def test_formulas_agree_with_signature():
    for m in SCALE:
        for k in (1, 3, 5):
            a = (theta_epsilon(k, m), theta_Etilde(k, m), theta_Ftilde(k, m))
            assert a == theta_signature_ops(k, m), f"mismatch at {m}, index -{k}"


def test_crystal_axioms():
    for m in SCALE:
        for i in WIN5:
            f = crystal_F(i, m)
            assert f.is_theta_restricted()
            assert crystal_E(i, f) == m
            e = crystal_E(i, m)
            if e is not None:
                assert crystal_F(i, e) == m
            n, cur = 0, m
            while (cur := crystal_E(i, cur)) is not None:
                n += 1
            assert n == crystal_eps(i, m)


def test_negative_operator_preserves_symmetrized_weight_shift():
    for m in SCALE[:150]:
        for k in (1, 3):
            f = theta_Ftilde(k, m)
            a, b = symmetrized_content(m), symmetrized_content(f)
            assert b[k] == a[k] + 1
            del b[k], a[k]
            assert a == b



# -- content-driven enumeration against the enumerate-then-filter route ------

_ENUMERATED = {}


def filtered_of_symmetrized_content(window, content):
    """The enumerate-then-filter search, kept as the reference.

    Each enumeration is made once per (window, degree) and reused.
    """
    content = {k: v for k, v in content.items() if v}
    degree = sum(content.values())
    key = (tuple(window), degree)
    if key not in _ENUMERATED:
        _ENUMERATED[key] = [(m, m.degree(), dict(symmetrized_content(m)))
                            for m in enumerate_theta(window, degree)]
    return [m for m, d, c in _ENUMERATED[key] if d == degree and c == content]


def test_of_symmetrized_content_matches_the_filtered_enumeration():
    win = tuple(WIN5)
    for degree in range(8):
        for letters in itertools.combinations_with_replacement((1, 3, 5), degree):
            content = {k: letters.count(k) for k in set(letters)}
            got = theta_of_symmetrized_content(win, content)
            want = filtered_of_symmetrized_content(win, content)
            assert got == want, content
            assert [list(m.entries) for m in got] == [list(m.entries) for m in want]


@pytest.mark.parametrize("content", [{1: 2, 3: 0}, {3: 1, 1: 1}, {5: 1, 1: 2, 7: 0}])
def test_of_symmetrized_content_ignores_zero_counts_and_key_order(content):
    got = theta_of_symmetrized_content(WIN5, content)
    want = filtered_of_symmetrized_content(WIN5, content)
    assert got == want != []
    assert [list(m.entries) for m in got] == [list(m.entries) for m in want]


@pytest.mark.parametrize("content", [
    {7: 1}, {1: 1, 7: 1}, {-1: 1}, {-1: 1, 1: 1}, {2: 1}, {1: -1}, {1: 3, 3: -1},
])
def test_of_symmetrized_content_outside_the_window_or_negative_is_empty(content):
    assert theta_of_symmetrized_content(WIN5, content) == []
    assert filtered_of_symmetrized_content(WIN5, content) == []


def test_of_symmetrized_content_edge_cases():
    assert theta_of_symmetrized_content(WIN5, {1: 0}) == [Multisegment.empty()]
    with pytest.raises(ValueError, match="negation-symmetric"):
        theta_of_symmetrized_content([1, 3], {1: 1})
    content = {1: 3, 3: 2}
    before = dict(content)
    first = theta_of_symmetrized_content(WIN5, content)
    assert content == before
    assert theta_of_symmetrized_content(WIN5, {1: 3, 3: 2, 7: 1}) == []
    assert theta_of_symmetrized_content(WIN5, content) == first
    assert all(dict(symmetrized_content(m)) == before for m in first)
