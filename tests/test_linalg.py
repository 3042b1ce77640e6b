import random

import pytest

from symcrys import linalg
from symcrys.linalg import (
    SingularMatrixError,
    identity,
    inverse,
    inverse_rows,
    is_identity,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    solve,
    solve_rect,
    solve_vector,
)
from symcrys.ratfunc import RatFunc, parse_ratfunc


def R(text):
    return parse_ratfunc(text)


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return [
        [
            RatFunc(rng.randint(-3, 3)) * RatFunc.q_power(rng.randint(-2, 2))
            for _ in range(m)
        ]
        for _ in range(n)
    ]


def test_solve_known_system():
    A = [[R("q"), R("1")], [R("0"), R("q^-1")]]
    x = solve_vector(A, [R("q^2 + 1"), R("q^-1")])
    assert x == [R("q"), R("1")]


def test_solve_random_round_trip():
    rng = random.Random(5)
    for n in (1, 2, 3, 4):
        for _ in range(4):
            A = random_matrix(rng, n)
            if rank(A) < n:
                continue
            x = [RatFunc(rng.randint(-4, 4)) for _ in range(n)]
            b = mat_vec(A, x)
            assert solve_vector(A, b) == x


def test_singular_detected():
    A = [[R("1"), R("q")], [R("q"), R("q^2")]]
    assert rank(A) == 1
    with pytest.raises(SingularMatrixError):
        solve_vector(A, [R("1"), R("0")])


def test_inverse():
    rng = random.Random(9)
    for _ in range(5):
        A = random_matrix(rng, 3)
        if rank(A) < 3:
            continue
        assert is_identity(mat_mul(A, inverse(A)))


def test_inverse_rows_are_the_leading_rows_of_the_inverse():
    rng = random.Random(13)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(4):
            A = random_matrix(rng, n)
            if rank(A) < n:
                continue
            full = inverse(A)
            for k in range(n + 1):
                assert inverse_rows(A, k) == full[:k]
            checked += 1
    assert checked >= 8
    assert inverse_rows([[R("q")]], 0) == []
    with pytest.raises(SingularMatrixError):
        inverse_rows([[R("1"), R("q")], [R("q"), R("q^2")]], 1)


def triangular_matrix(rng, n, shape):
    """A random nonsingular n x n matrix over Q(q) of the given shape, with
    entries off the Laurent ring (a denominator 1 + q^2 or 1 - q^4)."""
    dens = [R("1"), R("1 + q^2"), R("1 - q^4")]

    def entry(nonzero):
        c = rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero else rng.randint(-3, 3)
        return RatFunc(c) * RatFunc.q_power(rng.randint(-2, 2)) / rng.choice(dens)

    A = [[RatFunc.zero()] * n for _ in range(n)]
    for r in range(n):
        for c in range(n):
            if r == c:
                A[r][c] = RatFunc(1) if shape == "unitriangular" else entry(True)
            elif (shape in ("lower", "unitriangular") and r > c) or (
                shape == "upper" and r < c
            ):
                A[r][c] = entry(False)
    return A


def counting_solve(monkeypatch):
    calls = []
    real_solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    return calls


@pytest.mark.parametrize("shape", ["lower", "upper", "diagonal", "unitriangular"])
def test_triangular_inverse_rows_by_substitution(shape, monkeypatch):
    rng = random.Random(shape)
    cases = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            A = triangular_matrix(rng, n, shape)
            cases.append((A, inverse(A)))
    calls = counting_solve(monkeypatch)
    for A, full in cases:
        for k in range(len(A) + 1):
            assert inverse_rows(A, k) == full[:k]
    assert calls == []


def test_zero_on_the_diagonal_of_a_triangular_matrix_is_singular():
    for A in (
        [[R("q"), R("0")], [R("1"), R("0")]],
        [[R("0"), R("1")], [R("0"), R("q")]],
        [[R("0"), R("0")], [R("0"), R("1/(1 + q^2)")]],
    ):
        with pytest.raises(SingularMatrixError):
            inverse_rows(A, 1)


def test_a_matrix_that_is_not_triangular_is_eliminated(monkeypatch):
    A = [[R("1"), R("q")], [R("q"), R("1/(1 + q^2)")]]
    full = inverse(A)
    calls = counting_solve(monkeypatch)
    assert inverse_rows(A, 2) == full
    assert len(calls) == 1


def test_nullspace():
    A = [[R("1"), R("q"), R("0")], [R("0"), R("0"), R("1")]]
    basis = nullspace(A, ncols=3)
    assert len(basis) == 1
    v = basis[0]
    assert mat_vec(A, v) == [RatFunc.zero(), RatFunc.zero()]
    assert any(not x.is_zero() for x in v)
    # with no rows the kernel is the whole space of `ncols` columns
    assert nullspace([], ncols=2) == identity(2)
    assert nullspace([]) == []


def test_solve_rect_consistent_and_not():
    A = [[R("1")], [R("q")]]
    x = solve_rect(A, [R("q^-1"), R("1")])
    assert x == [R("q^-1")]
    with pytest.raises(SingularMatrixError):
        solve_rect(A, [R("1"), R("1")])


def test_identity_helpers():
    assert is_identity(identity(3))
    bad = identity(2)
    bad[0][1] = R("q")
    assert not is_identity(bad)
