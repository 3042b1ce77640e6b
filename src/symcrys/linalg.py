"""Exact linear algebra over Q(q).

Rows are cleared of denominators up front and the forward elimination is
fraction-free (cross-multiplication of Laurent-polynomial rows, with the row
content divided out after each step), so no rational normalization happens in
the inner loop.  Back substitution returns RatFunc entries.

`inverse_rows` inverts only lower triangular matrices (a diagonal one
included), by forward substitution over each column's nonzero entries, so
it multiplies only nonzero factors; every inverse the global bases take is
of that shape (a diagonal Gram matrix G, a unitriangular C, a lower
triangular G C).  It refuses any other matrix, and returns its rows only
after the exact check R A = I on and below the diagonal, the only entries
where a product can be nonzero.  The theta blocks
read their coordinate rows off one elimination (`nullspace`).

Every sum of products (matrix products, substitution steps) is one call of
`ratfunc.dot`, which adds the Laurent products in one coefficient dict.
"""

from __future__ import annotations

from .ratfunc import LaurentPoly, RatFunc, dot, poly_gcd


class SingularMatrixError(ValueError, ArithmeticError):
    """A singular matrix where an invertible one is needed: a failed check."""


def _lcm_poly(a, b):
    g = poly_gcd(a, b)
    return a * b.divmod_poly(g)[0]


def _clear_row(row):
    """list[RatFunc] -> (list[LaurentPoly],) with denominators cleared."""
    if all(x.in_A() for x in row):
        return [x.num for x in row]
    den = LaurentPoly.one()
    for x in row:
        if not x.is_zero():
            den = _lcm_poly(den, x.den)
    out = []
    for x in row:
        if x.is_zero():
            out.append(LaurentPoly.zero())
        else:
            out.append(x.num * den.divmod_poly(x.den)[0])
    return out


def _strip_content(row):
    """Divide a Laurent-poly row by the gcd of its entries (and any q-shift)."""
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
    return [
        p.shift(-shift).divmod_poly(g)[0] if not p.is_zero() else p
        for p in row
    ]


def _complexity(p):
    return len(p.coeffs)


def _echelon(rows, ncols):
    """Fraction-free forward elimination in place.

    Returns the list of (row index, pivot column) in elimination order.
    """
    pivots = []
    used = set()
    for col in range(ncols):
        candidates = [r for r in range(len(rows)) if r not in used and rows[r][col]]
        if not candidates:
            continue
        prow = min(candidates, key=lambda r: _complexity(rows[r][col]))
        used.add(prow)
        pivots.append((prow, col))
        piv = rows[prow][col]
        for r in range(len(rows)):
            if r in used or not rows[r][col]:
                continue
            factor = rows[r][col]
            rows[r] = _strip_content(
                [piv * a - factor * b for a, b in zip(rows[r], rows[prow])]
            )
    return pivots


def echelon_form(matrix, ncols=None):
    """Echelon rows (Laurent cleared) and pivot positions of a RatFunc matrix."""
    rows = [_strip_content(_clear_row(row)) for row in matrix]
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    pivots = _echelon(rows, ncols)
    return rows, pivots


def rank(matrix):
    if not matrix:
        return 0
    return len(echelon_form(matrix)[1])


def _back_substitute(rows, pivots, x, rhs):
    """Fill the pivot entries of x from echelon `rows`, last pivot first:
    x[col] = (row[rhs] - sum over c > col of row[c] x[c]) / row[col], where
    `rhs` is the column of the right-hand side in each row (None for 0).
    `pivots` is in elimination order, so its columns increase; entries of x
    at free columns are left as given.  Returns x."""
    n = len(x)
    for prow, col in reversed(pivots):
        row = rows[prow]
        acc = -dot([(RatFunc(row[c]), x[c]) for c in range(col + 1, n) if row[c] and x[c]])
        if rhs is not None:
            acc = acc + RatFunc(row[rhs])
        x[col] = acc / RatFunc(row[col])
    return x


def solve(matrix, rhs_columns):
    """Solve A X = B exactly; A square nonsingular.

    `rhs_columns` is a list of columns; returns the list of solution columns.
    """
    n = len(matrix)
    k = len(rhs_columns)
    aug = [list(row) + [col[r] for col in rhs_columns] for r, row in enumerate(matrix)]
    rows, pivots = echelon_form(aug, ncols=n)
    if len(pivots) < n:
        raise SingularMatrixError("matrix is singular")
    return [_back_substitute(rows, pivots, [RatFunc.zero()] * n, n + t) for t in range(k)]


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
    is zero right of its diagonal.  Raises ArithmeticError when A has a
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
            acc = dot([(x[l], a) for l, a in below[j] if x[l]])
            if acc:
                x[j] = -acc / diag[j]
        rows.append(x)
    for i, x in enumerate(rows):
        for k in range(i + 1):
            pairs = [(x[l], a) for l, a in below[k] if x[l]]
            if x[k]:
                pairs.append((x[k], diag[k]))
            if dot(pairs) != (one if k == i else zero):
                raise ArithmeticError("inverse rows do not invert the matrix")
    return rows


def nullspace(matrix, ncols=None):
    """Basis of the right kernel of A, as RatFunc vectors: one per free
    column of its echelon form, 1 there and 0 at the other free columns.
    A matrix with no rows has the whole space of `ncols` columns as kernel."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows, pivots = echelon_form(matrix, ncols)
    pivot_cols = {col: prow for prow, col in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [RatFunc.zero()] * ncols
        vec[free] = RatFunc(1)
        basis.append(_back_substitute(rows, pivots, vec, None))
    return basis


def solve_rect(matrix, rhs):
    """One exact solution of a (possibly rectangular) consistent system.

    Raises SingularMatrixError when inconsistent.  The solution is unique
    when the matrix has full column rank (free variables are set to 0).
    """
    if not matrix:
        if any(x for x in rhs):
            raise SingularMatrixError("inconsistent empty system")
        return []
    ncols = len(matrix[0])
    aug = [list(row) + [rhs[r]] for r, row in enumerate(matrix)]
    rows, pivots = echelon_form(aug, ncols=ncols)
    # consistency: no row of the form (0 ... 0 | nonzero)
    pivot_rows = {prow for prow, _ in pivots}
    for r, row in enumerate(rows):
        if r not in pivot_rows and row[ncols] and not any(row[c] for c in range(ncols)):
            raise SingularMatrixError("inconsistent system")
    return _back_substitute(rows, pivots, [RatFunc.zero()] * ncols, ncols)


def mat_mul(A, B):
    cols = list(zip(*B))
    return [[dot(zip(row, col)) for col in cols] for row in A]


def mat_vec(A, v):
    return [dot(zip(row, v)) for row in A]


def identity(n):
    return [[RatFunc(1) if i == j else RatFunc.zero() for j in range(n)] for i in range(n)]


def is_identity(A):
    return all(
        A[i][j] == (RatFunc(1) if i == j else RatFunc.zero())
        for i in range(len(A))
        for j in range(len(A))
    )
