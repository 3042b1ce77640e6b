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
    """With no row count to pass, the rows of a lower triangular matrix's
    inverse are all its rows: random Laurent lower triangular matrices match
    the reference `inverse` row for row, and a zero on the diagonal is
    singular."""
    rng = random.Random(13)
    checked = 0
    for n in (1, 2, 3, 4):
        for _ in range(4):
            A = random_matrix(rng, n)
            for r in range(n):
                A[r][r + 1:] = [RatFunc.zero()] * (n - r - 1)
            if rank(A) < n:
                with pytest.raises(SingularMatrixError):
                    inverse_rows(A)
                continue
            full = inverse(A)
            rows = inverse_rows(A)
            for k in range(n + 1):
                assert rows[:k] == full[:k]
            checked += 1
    assert checked >= 8
    assert inverse_rows([[R("q")]]) == [[R("q^-1")]]


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


def transpose(A):
    return [list(col) for col in zip(*A)]


@pytest.mark.parametrize("shape", ["lower", "upper", "diagonal", "unitriangular"])
def test_triangular_inverse_rows_by_substitution(shape, monkeypatch):
    """An upper triangular A is inverted through its lower triangular
    transpose, (A^-1)^T = (A^T)^-1; no shape is eliminated."""
    rng = random.Random(shape)
    cases = []
    for n in (1, 2, 3, 4, 5):
        for _ in range(3):
            A = triangular_matrix(rng, n, shape)
            cases.append((A, inverse(A)))
    calls = counting_solve(monkeypatch)
    for A, full in cases:
        if shape == "upper":
            assert transpose(inverse_rows(transpose(A))) == full
        else:
            assert inverse_rows(A) == full
    assert inverse_rows([]) == []
    assert calls == []


def test_zero_on_the_diagonal_of_a_triangular_matrix_is_singular():
    for A in (
        [[R("q"), R("0")], [R("1"), R("0")]],
        [[R("0"), R("0")], [R("0"), R("1/(1 + q^2)")]],
    ):
        with pytest.raises(SingularMatrixError, match="zero on its diagonal"):
            inverse_rows(A)


def test_a_matrix_that_is_not_triangular_is_eliminated(monkeypatch):
    """Only `inverse` eliminates a matrix that is not triangular, with one
    solve; `inverse_rows` refuses it before any elimination."""
    A = [[R("1"), R("q")], [R("q"), R("1/(1 + q^2)")]]
    calls = counting_solve(monkeypatch)
    with pytest.raises(ArithmeticError, match="not lower triangular"):
        inverse_rows(A)
    assert calls == []
    full = inverse(A)
    assert len(calls) == 1
    assert is_identity(mat_mul(full, A)) and is_identity(mat_mul(A, full))


def test_a_matrix_that_is_not_lower_triangular_is_refused(monkeypatch):
    """Upper triangular and general matrices, singular or not, an upper one
    with a zero on its diagonal included, are all refused before any
    elimination, with an ArithmeticError that is not a SingularMatrixError."""
    rng = random.Random(13)
    cases = [
        [[R("1"), R("q")], [R("q"), R("1/(1 + q^2)")]],
        [[R("1"), R("q")], [R("q"), R("q^2")]],
        [[R("0"), R("1")], [R("0"), R("q")]],
    ]
    for n in (2, 3, 4):
        upper = triangular_matrix(rng, n, "upper")
        cases += [A for A in [upper] + [random_matrix(rng, n) for _ in range(4)]
                  if any(A[r][c] for r in range(n) for c in range(r + 1, n))]
    assert len(cases) >= 12
    calls = counting_solve(monkeypatch)
    for A in cases:
        with pytest.raises(ArithmeticError, match="not lower triangular") as err:
            inverse_rows(A)
        assert type(err.value) is ArithmeticError
    assert calls == []
    with pytest.raises(TypeError):
        inverse_rows(identity(2), 1)  # the rows of the whole inverse, always


def test_a_wrong_quotient_fails_the_inverse_check(monkeypatch):
    """Each quotient of the substitution, made wrong alone, is caught by the
    check R A = I on and below the diagonal."""
    A = triangular_matrix(random.Random(7), 4, "lower")
    for r in range(4):
        for c in range(r):
            A[r][c] = A[r][c] or RatFunc(r + c)
    real_div = RatFunc.__truediv__
    calls = []
    monkeypatch.setattr(RatFunc, "__truediv__",
                        lambda x, y: calls.append(1) or real_div(x, y))
    inverse_rows(A)
    quotients = len(calls)
    assert quotients == 10  # one per entry on and below the diagonal
    for wrong in range(quotients):
        seen = []

        def div(x, y, wrong=wrong):
            seen.append(1)
            q = real_div(x, y)
            return q + RatFunc.q_power(1) if len(seen) == wrong + 1 else q

        monkeypatch.setattr(RatFunc, "__truediv__", div)
        with pytest.raises(ArithmeticError) as err:
            inverse_rows(A)
        assert type(err.value) is ArithmeticError
        assert str(err.value) == "inverse rows do not invert the matrix"


@pytest.mark.parametrize("shape", ["diagonal", "unitriangular"])
def test_inverse_rows_multiply_only_nonzero_factors(shape, monkeypatch):
    """The substitution and the check pass `dot` no pair with a zero factor;
    on a diagonal matrix every product is a diagonal entry by its inverse."""
    rng = random.Random(shape)
    cases = [triangular_matrix(rng, n, shape) for n in (1, 3, 6) for _ in range(2)]
    want = [inverse(A) for A in cases]
    pairs = []
    real_dot = linalg.dot

    def dot(ps):
        ps = list(ps)
        pairs.extend(ps)
        return real_dot(ps)

    monkeypatch.setattr(linalg, "dot", dot)
    assert [inverse_rows(A) for A in cases] == want
    assert pairs
    assert all(x and y for x, y in pairs)
    if shape == "diagonal":
        assert len(pairs) == sum(len(A) for A in cases)


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
