"""Exact linear algebra over Q(q).

`echelon_form` is the one elimination: Gauss-Jordan over RatFunc, to the
reduced row echelon form.  `solve`, `solve_rect` and `nullspace` read their
results straight off the reduced rows, with no back substitution.

`inverse_rows` inverts only lower triangular matrices (a diagonal one
included), by forward substitution over each column's nonzero entries, so
it multiplies only nonzero factors; every inverse the global bases take is
of that shape (a unitriangular C, a lower triangular G C).  The type-A word
tables invert nothing: their Gram matrix G is checked diagonal and its
inverse read off the diagonal.  It refuses any other matrix, and returns its rows only
after the exact check R A = I on and below the diagonal, the only entries
where a product can be nonzero.  The theta blocks read their coordinate
rows off one elimination (`nullspace`).

Matrix products multiply only nonzero entries, and a lone nonzero product
is one `*` (`mat_vec`; `mat_mul` column by column).  Every longer sum of
products (matrix entries, substitution steps) is one call of
`ratfunc.dot`, which adds the Laurent products in one coefficient dict.
"""

from __future__ import annotations

from .ratfunc import RatFunc, dot


class SingularMatrixError(ValueError, ArithmeticError):
    """A singular matrix where an invertible one is needed: a failed check."""


def _terms(x):
    return len(x.num.coeffs) + len(x.den.coeffs)


def echelon_form(matrix, ncols=None):
    """Reduced row echelon form of a RatFunc matrix, by one Gauss-Jordan
    elimination on a copy.  Returns (rows, pivots): `pivots` lists
    (row index, pivot column) in elimination order, so its columns increase.
    Each pivot entry is 1 and every other entry of its column is 0; the rows
    that hold no pivot are 0 in the first `ncols` columns.  Columns past
    `ncols` (right-hand sides) are carried along, never pivoted on.

    In each column the pivot is the entry with the fewest terms (numerator
    plus denominator), ties going to the row with the fewest nonzero entries.
    """
    rows = [list(row) for row in matrix]
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    one, zero = RatFunc(1), RatFunc.zero()
    pivots = []
    used = set()
    for col in range(ncols):
        candidates = [r for r in range(len(rows)) if r not in used and rows[r][col]]
        if not candidates:
            continue
        prow = min(candidates, key=lambda r: (_terms(rows[r][col]), sum(map(bool, rows[r]))))
        used.add(prow)
        pivots.append((prow, col))
        # The pivot row is 0 left of `col`: its earlier columns were cleared
        # as pivot columns or held no candidate.
        piv = rows[prow]
        inv = one / piv[col]
        nonzero = [(c, piv[c] * inv) for c in range(col + 1, len(piv)) if piv[c]]
        piv[col] = one
        for c, x in nonzero:
            piv[c] = x
        for r, row in enumerate(rows):
            if r == prow or not row[col]:
                continue
            factor = -row[col]
            for c, x in nonzero:
                row[c] = row[c] + factor * x
            row[col] = zero
    return rows, pivots


def rank(matrix):
    if not matrix:
        return 0
    return len(echelon_form(matrix)[1])


def solve(matrix, rhs_columns):
    """Solve A X = B exactly; A square nonsingular.

    `rhs_columns` is a list of columns; returns the list of solution columns,
    read off the reduced augmented columns.
    """
    n = len(matrix)
    aug = [list(row) + [col[r] for col in rhs_columns] for r, row in enumerate(matrix)]
    rows, pivots = echelon_form(aug, ncols=n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [[rows[prow][t] for prow, _ in pivots] for t in range(n, n + len(rhs_columns))]


def solve_vector(matrix, rhs):
    return solve(matrix, [rhs])[0]


def inverse(matrix):
    n = len(matrix)
    eye = [[RatFunc(1) if i == j else RatFunc.zero() for i in range(n)] for j in range(n)]
    cols = solve(matrix, eye)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def inverse_rows(matrix):
    """The rows R of the inverse of a lower triangular matrix A (a diagonal
    one included), as lists, by forward substitution over the nonzero
    entries of A.

    The nonzero entries (l, A_lj) below the diagonal are collected once per
    column j.  Row i of A^{-1} solves x A = e_i and is zero outside the
    columns <= i; its entries are filled from the diagonal leftwards,
    x_j = -(sum over the nonzero x_l of x_l A_lj) / A_jj.  R is returned
    only after checking exactly that R A = I on and below the diagonal,
    entry by entry from the same column lists plus the diagonal: above it
    every product has a zero factor, as row i of R is zero right of i and A
    is zero right of its diagonal.  A sum with no nonzero product is the
    shared zero, with no `dot` call.  Raises ArithmeticError when A has a
    nonzero entry above its diagonal or the check fails, and
    SingularMatrixError when its diagonal has a zero."""
    n = len(matrix)
    if any(matrix[r][c] for r in range(n) for c in range(r + 1, n)):
        raise ArithmeticError("matrix is not lower triangular")
    diag = [matrix[j][j] for j in range(n)]
    if not all(diag):
        raise SingularMatrixError("triangular matrix has a zero on its diagonal")
    below = [[(l, matrix[l][j]) for l in range(n - 1, j, -1) if matrix[l][j]]
             for j in range(n)]
    one, zero = RatFunc(1), RatFunc.zero()
    rows = []
    for i in range(n):
        x = [zero] * n
        x[i] = one / diag[i]
        for j in range(i - 1, -1, -1):
            pairs = [(x[l], a) for l, a in below[j] if x[l]]
            if pairs:
                acc = dot(pairs)
                if acc:
                    x[j] = -acc / diag[j]
        rows.append(x)
    for i, x in enumerate(rows):
        for k in range(i + 1):
            pairs = [(x[l], a) for l, a in below[k] if x[l]]
            if x[k]:
                pairs.append((x[k], diag[k]))
            if (dot(pairs) if pairs else zero) != (one if k == i else zero):
                raise ArithmeticError("inverse rows do not invert the matrix")
    return rows


def nullspace(matrix, ncols=None):
    """Basis of the right kernel of A, as RatFunc vectors: one per free
    column of its reduced echelon form, 1 there, 0 at the other free columns,
    and at each pivot column minus the pivot row's entry in the free column.
    A matrix with no rows has the whole space of `ncols` columns as kernel."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows, pivots = echelon_form(matrix, ncols)
    pivot_cols = {col for _, col in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [RatFunc.zero()] * ncols
        vec[free] = RatFunc(1)
        for prow, col in pivots:
            vec[col] = -rows[prow][free]
        basis.append(vec)
    return basis


def solve_rect(matrix, rhs):
    """One exact solution of a (possibly rectangular) consistent system.

    Raises SingularMatrixError when inconsistent: a row below the pivots of
    the reduced augmented matrix has a nonzero right-hand side.  Free
    variables are set to 0, so the solution is unique when the matrix has
    full column rank.
    """
    if not matrix:
        if any(x for x in rhs):
            raise SingularMatrixError("inconsistent empty system")
        return []
    ncols = len(matrix[0])
    aug = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    rows, pivots = echelon_form(aug, ncols=ncols)
    pivot_rows = {prow for prow, _ in pivots}
    if any(row[ncols] for r, row in enumerate(rows) if r not in pivot_rows):
        raise SingularMatrixError("inconsistent system")
    x = [RatFunc.zero()] * ncols
    for prow, col in pivots:
        x[col] = rows[prow][ncols]
    return x


def mat_vec(A, v):
    """A v, each row multiplied only at the nonzero entries of v and only
    by its nonzero entries there.  With no nonzero v_k every entry is the
    shared zero; with one, each entry is the single product A[r][k] * v_k.
    Only with more is an entry a `dot`, and only for a row with a nonzero
    factor there: any other row's entry is the shared zero."""
    nonzero = [(k, x) for k, x in enumerate(v) if x]
    if not nonzero:
        return [RatFunc.zero()] * len(A)
    if len(nonzero) == 1:
        (k, x), = nonzero
        return [row[k] * x for row in A]
    zero = RatFunc.zero()
    return [dot(p) if p else zero
            for p in ([(row[k], x) for k, x in nonzero if row[k]] for row in A)]


_mat_vec = mat_vec  # mat_mul's columns, unseen by a tracer of `mat_vec`


def mat_mul(A, B):
    """A B, column by column: A times each column of B as in `mat_vec`."""
    cols = [_mat_vec(A, col) for col in zip(*B)]
    return [[col[r] for col in cols] for r in range(len(A))]


def identity(n):
    return [[RatFunc(1) if i == j else RatFunc.zero() for j in range(n)] for i in range(n)]


def is_identity(A):
    return all(
        A[i][j] == (RatFunc(1) if i == j else RatFunc.zero())
        for i in range(len(A))
        for j in range(len(A))
    )
