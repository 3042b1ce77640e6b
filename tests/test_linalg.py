import random

import pytest

from symcrys import linalg, thetamodule, wordalg
from symcrys.linalg import (
    SingularMatrixError,
    echelon_form,
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
from symcrys.ratfunc import LaurentPoly, RatFunc, dot, parse_ratfunc, poly_gcd
from symcrys.thetamodule import ThetaModule
from symcrys.wordalg import WordAlgebra


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


# -- a reference copy of the fraction-free elimination --------------------------
#
# Rows cleared to Laurent polynomials, the content divided out after every
# step, pivots of fewest Laurent terms, and back substitution: the elimination
# `linalg` used before its one Gauss-Jordan pass over Q(q), kept here as an
# independent route.

def _lcm_poly(a, b):
    return a * b.divmod_poly(poly_gcd(a, b))[0]


def _clear_row(row):
    if all(x.in_A() for x in row):
        return [x.num for x in row]
    den = LaurentPoly.one()
    for x in row:
        if not x.is_zero():
            den = _lcm_poly(den, x.den)
    return [LaurentPoly.zero() if x.is_zero() else x.num * den.divmod_poly(x.den)[0]
            for x in row]


def _strip_content(row):
    nonzero = [p for p in row if not p.is_zero()]
    if not nonzero:
        return row
    shift = min(p.min_exp() for p in nonzero)
    g = LaurentPoly.zero()
    for p in nonzero:
        g = poly_gcd(g, p.shift(-p.min_exp())) if not g.is_zero() else p.shift(-p.min_exp())
        if g == LaurentPoly.one():
            break
    if g == LaurentPoly.one() and shift == 0:
        return row
    return [p.shift(-shift).divmod_poly(g)[0] if not p.is_zero() else p for p in row]


def reference_echelon(matrix, ncols):
    rows = [_strip_content(_clear_row(row)) for row in matrix]
    pivots = []
    used = set()
    for col in range(ncols):
        candidates = [r for r in range(len(rows)) if r not in used and rows[r][col]]
        if not candidates:
            continue
        prow = min(candidates, key=lambda r: len(rows[r][col].coeffs))
        used.add(prow)
        pivots.append((prow, col))
        piv = rows[prow][col]
        for r in range(len(rows)):
            if r in used or not rows[r][col]:
                continue
            factor = rows[r][col]
            rows[r] = _strip_content([piv * a - factor * b for a, b in zip(rows[r], rows[prow])])
    return rows, pivots


def _back_substitute(rows, pivots, x, rhs):
    n = len(x)
    for prow, col in reversed(pivots):
        row = rows[prow]
        acc = -dot([(RatFunc(row[c]), x[c]) for c in range(col + 1, n) if row[c] and x[c]])
        if rhs is not None:
            acc = acc + RatFunc(row[rhs])
        x[col] = acc / RatFunc(row[col])
    return x


def reference_rank(matrix):
    return len(reference_echelon(matrix, len(matrix[0]) if matrix else 0)[1])


def reference_solve(matrix, rhs_columns):
    n = len(matrix)
    aug = [list(row) + [col[r] for col in rhs_columns] for r, row in enumerate(matrix)]
    rows, pivots = reference_echelon(aug, n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [_back_substitute(rows, pivots, [RatFunc.zero()] * n, n + t)
            for t in range(len(rhs_columns))]


def reference_nullspace(matrix, ncols=None):
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows, pivots = reference_echelon(matrix, ncols)
    pivot_cols = {col for _, col in pivots}
    basis = []
    for free in range(ncols):
        if free not in pivot_cols:
            vec = [RatFunc.zero()] * ncols
            vec[free] = RatFunc(1)
            basis.append(_back_substitute(rows, pivots, vec, None))
    return basis


def reference_solve_rect(matrix, rhs):
    if not matrix:
        if any(rhs):
            raise SingularMatrixError("inconsistent empty system")
        return []
    ncols = len(matrix[0])
    rows, pivots = reference_echelon([list(row) + [rhs[r]] for r, row in enumerate(matrix)], ncols)
    pivot_rows = {prow for prow, _ in pivots}
    for r, row in enumerate(rows):
        if r not in pivot_rows and row[ncols] and not any(row[:ncols]):
            raise SingularMatrixError("inconsistent system")
    return _back_substitute(rows, pivots, [RatFunc.zero()] * ncols, ncols)


def structure(value):
    """A RatFunc, or nested lists of them, as exponent -> (type, coefficient)
    maps of numerator and denominator: equal only if built alike."""
    if isinstance(value, RatFunc):
        return tuple({e: (type(c), c) for e, c in p.coeffs.items()} for p in (value.num, value.den))
    return [structure(v) for v in value]


ENTRIES = ["0", "0", "0", "1", "-2", "q", "3q^-2", "q + q^-1", "1/(1 + q^2)",
           "(1 - q)/(1 + q^2)", "q^2/(1 - q^4)", "2/(1 + q + q^2)"]


def mixed_matrix(rng, n, m, kind):
    """A seeded n x m matrix of Laurent and fraction entries, of full rank or
    not: `deficient` makes its last row a combination of two others, `zero`
    clears one column."""
    A = [[R(rng.choice(ENTRIES)) for _ in range(m)] for _ in range(n)]
    if kind == "deficient" and n >= 3:
        a, b = R(rng.choice(ENTRIES[3:])), R(rng.choice(ENTRIES[3:]))
        A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
    if kind == "zero":
        c = rng.randrange(m)
        for row in A:
            row[c] = RatFunc.zero()
    return A


SHAPES = [(n, m, kind) for n, m in [(1, 1), (3, 3), (4, 4), (5, 5), (2, 5), (3, 6), (5, 2), (6, 3)]
          for kind in ("random", "deficient", "zero")]


@pytest.mark.parametrize("n,m,kind", SHAPES)
def test_results_match_the_fraction_free_reference(n, m, kind):
    """`nullspace`, `solve`, `solve_rect` and `rank` give the values, built
    alike, of the fraction-free reference, inconsistent systems included."""
    rng = random.Random(f"{n}x{m}-{kind}")
    inconsistent = 0
    for _ in range(4):
        A = mixed_matrix(rng, n, m, kind)
        assert rank(A) == reference_rank(A)
        assert structure(nullspace(A)) == structure(reference_nullspace(A))
        assert structure(nullspace(A, m)) == structure(reference_nullspace(A, m))
        x = [R(rng.choice(ENTRIES)) for _ in range(m)]
        for b in (mat_vec(A, x), [R(rng.choice(ENTRIES[3:])) for _ in range(n)]):
            try:
                want = reference_solve_rect(A, b)
            except SingularMatrixError:
                inconsistent += 1
                with pytest.raises(SingularMatrixError, match="inconsistent system"):
                    solve_rect(A, b)
                continue
            assert structure(solve_rect(A, b)) == structure(want)
        if n == m:
            cols = [[R(rng.choice(ENTRIES)) for _ in range(n)] for _ in range(2)]
            if reference_rank(A) < n:
                with pytest.raises(SingularMatrixError, match="singular"):
                    solve(A, cols)
            else:
                assert structure(solve(A, cols)) == structure(reference_solve(A, cols))
    if n > m or (kind == "deficient" and n >= 3):
        assert inconsistent


def test_the_empty_matrix_matches_the_reference():
    for ncols in (None, 0, 3):
        assert nullspace([], ncols) == reference_nullspace([], ncols)
    assert rank([]) == reference_rank([]) == 0
    assert solve([], [[], []]) == reference_solve([], [[], []]) == [[], []]
    assert solve_rect([], []) == reference_solve_rect([], []) == []
    with pytest.raises(SingularMatrixError, match="inconsistent empty system"):
        solve_rect([], [R("q")])


@pytest.mark.parametrize("n,m,kind", SHAPES)
def test_echelon_rows_are_reduced(n, m, kind):
    """Each pivot is 1 and alone in its column, pivot columns increase, the
    rows past the pivots are 0 in the first `ncols` columns, and the input
    is left as it was; a carried right-hand side column is never a pivot."""
    rng = random.Random(f"reduced-{n}x{m}-{kind}")
    for width in (m, m - 1):
        A = mixed_matrix(rng, n, m, kind)
        before = structure(A)
        rows, pivots = echelon_form(A, ncols=width)
        assert structure(A) == before
        assert len(rows) == n and all(len(row) == m for row in rows)
        cols = [col for _, col in pivots]
        assert cols == sorted(set(cols)) and all(col < width for col in cols)
        assert len({prow for prow, _ in pivots}) == len(pivots)
        for prow, col in pivots:
            assert rows[prow][col] == 1
            assert not any(row[col] for r, row in enumerate(rows) if r != prow)
        assert cols == [col for _, col in reference_echelon(A, width)[1]]
        pivot_rows = {prow for prow, _ in pivots}
        for r, row in enumerate(rows):
            if r not in pivot_rows:
                assert not any(row[:width])


def test_pivot_has_fewest_terms_then_fewest_nonzero_entries():
    """Column 0: q and q^2 have the fewest terms, and the row of q^2 has the
    fewer nonzero entries; column 1: equal entries, the first row wins."""
    A = [[R("1 + q"), R("1")], [R("q"), R("2")], [R("q^2"), R("0")]]
    rows, pivots = echelon_form(A)
    assert pivots == [(2, 0), (0, 1)]
    assert rows == [[R("0"), R("1")], [R("0"), R("0")], [R("1"), R("0")]]


# -- matrix products against the dense one-liners --------------------------------
#
# The products as they were before they skipped zero entries: every entry of
# a row paired with the vector, or with a column, in one `dot`.  Kept as the
# reference that `mat_vec` and `mat_mul` must match value for value, built
# alike.

def _dense_mat_vec(A, v):
    return [dot(zip(row, v)) for row in A]


def _dense_mat_mul(A, B):
    cols = list(zip(*B))
    return [[dot(zip(row, col)) for col in cols] for row in A]


def sparse_vector(rng, n, nonzero):
    """A seeded vector of length n with `nonzero` nonzero entries."""
    v = [RatFunc.zero()] * n
    for k in rng.sample(range(n), nonzero):
        v[k] = R(rng.choice(ENTRIES[3:]))
    return v


def product_matrices(rng):
    """Seeded factors: mixed matrices, some with a zero row and a zero
    column, identities and diagonal matrices."""
    out = []
    for n, m in [(1, 1), (3, 3), (4, 2), (2, 5), (5, 5)]:
        A = mixed_matrix(rng, n, m, "zero")
        A[rng.randrange(n)] = [RatFunc.zero()] * m
        out += [mixed_matrix(rng, n, m, "random"), A]
    for n in (1, 3, 4):
        out.append(identity(n))
        out.append([[R(rng.choice(ENTRIES[3:])) if i == j else RatFunc.zero()
                     for j in range(n)] for i in range(n)])
    return out


def right_factors(rng, m):
    """Seeded m-row factors: columns with 0, 1 and more nonzero entries, and
    every square matrix of `product_matrices` with m rows."""
    cols = [sparse_vector(rng, m, k) for k in range(m + 1) for _ in range(2)]
    return [[list(row) for row in zip(*cols)]] + [
        B for B in product_matrices(rng) if len(B) == m == len(B[0])]


def test_products_match_the_dense_reference():
    rng = random.Random("products")
    for A in product_matrices(rng):
        m = len(A[0])
        for k in range(m + 1):
            for _ in range(3):
                v = sparse_vector(rng, m, k)
                assert structure(mat_vec(A, v)) == structure(_dense_mat_vec(A, v))
        for B in right_factors(rng, m):
            assert structure(mat_mul(A, B)) == structure(_dense_mat_mul(A, B))
        for B in ([[] for _ in range(m)], identity(m)):
            assert structure(mat_mul(A, B)) == structure(_dense_mat_mul(A, B))
    # an empty A, a B with no columns, and a product over zero columns
    for A, B in [([], [[R("q")]]), ([], []), ([[R("q")], [R("0")]], [[]]), ([[], []], [])]:
        assert mat_mul(A, B) == _dense_mat_mul(A, B)
    for A, v in [([], []), ([], [R("q")]), ([[], []], [])]:
        assert mat_vec(A, v) == _dense_mat_vec(A, v)


def record_dot(monkeypatch, modules):
    """The list of pair lists `dot` is given, as called from the modules."""
    calls = []
    real_dot = linalg.dot

    def counting(pairs):
        pairs = list(pairs)
        calls.append(pairs)
        return real_dot(pairs)

    for module in modules:
        monkeypatch.setattr(module, "dot", counting)
    return calls


def test_products_pass_dot_only_nonzero_pairs(monkeypatch):
    """`dot` gets no pair with a zero factor, no empty list (a row with no
    nonzero factor at the vector's nonzero entries is the shared zero), and
    no call at all for a vector or column with at most one nonzero entry."""
    calls = record_dot(monkeypatch, [linalg])
    rng = random.Random("traffic")
    for A in product_matrices(rng):
        m = len(A[0])
        for k in range(m + 1):
            v = sparse_vector(rng, m, k)
            before = len(calls)
            mat_vec(A, v)
            B = [list(row) for row in zip(v, sparse_vector(rng, m, min(k, 1)))]
            mat_mul(A, B)
            if k <= 1:
                assert len(calls) == before
    assert calls
    assert all(calls)
    assert all(x and y for pairs in calls for x, y in pairs)


def test_block_builds_pass_dot_no_empty_list(monkeypatch):
    """Building the blocks of degree <= 2 on -3..3 in both modes, with their
    lowering, raising and Gram matrices, calls `dot` in linalg, wordalg and
    thetamodule with no empty list of pairs."""
    calls = record_dot(monkeypatch, [linalg, wordalg, thetamodule])
    alg = WordAlgebra((-3, -1, 1, 3))
    for space in (alg, ThetaModule(alg.window, alg)):
        for key in space.block_keys(2):
            space.gram_matrix(key)
            for i in alg.window:
                space.raise_matrix(i, key)
                if dict(key).get(space.letter(i)):
                    space.lower_matrix(i, key)
    assert calls
    assert [pairs for pairs in calls if not pairs] == []
