"""Bar-triangular global bases and multiplicity polynomials.

Works per block, uniformly over the two settings (the free algebra graded by
content, and the symmetric module graded by symmetrized content): a
BlockContext is a (space, block key) pair that reaches the block through the
graded-block protocol `WordAlgebra` and `ThetaModule` share.  The lower
global basis is produced by the standard recursion up the crystal order:
each correction coefficient is the unique solution of c - bar(c) = r with c
in q.Q[q], read off from the positive-degree part of r.

Each block's canonical data is computed once per algebra: `block_context`
(and its two names `typeA_block` and `theta_block`) returns the same
BlockContext for the same block key (cached on the WordAlgebra or
ThetaModule instance), and the context keeps the bar matrix and the lower
and upper global bases it produced.  A matrix is stored only after its
unitriangularity, bar-invariance or duality check passed; a `bar=` or
`lower=` supplied by the caller is used but its result is not stored,
unless it is the block's own memoized matrix.  With the upper basis U the
context keeps its inverse (G C)^T, which the duality check U^T G C = I
proves, and `lower_inverse` keeps the checked inverse of C, so
`multiplicity_polys` reads both of its routes through stored inverses and
eliminates each matrix at most once.  It is not memoized, so its
direct/adjoint cross-check runs on every call.  Returned matrices are shared
and must not be mutated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import inverse, inverse_rows, is_identity, mat_mul, mat_vec, solve_vector
from .ratfunc import RatFunc
from .wordalg import content_key


@dataclass
class TransitionMatrix:
    """Square matrix against the crystal-ordered multisegment basis of a block."""

    label: str
    basis: list
    entries: list

    def entry(self, m, n):
        r = self.basis.index(m)
        c = self.basis.index(n)
        return self.entries[r][c]

    def size(self):
        return len(self.basis)

    def to_json_obj(self):
        return {
            "label": self.label,
            "basis": [m.to_json_obj() for m in self.basis],
            "entries": [[str(x) for x in row] for row in self.entries],
        }


class BlockContext:
    """One block of a graded space: a WordAlgebra content block or a
    ThetaModule symmetrized-content block, reached through the block protocol
    the two classes share (`block_basis`, `bar_column`, `block_gram`,
    `lower_matrix`, `raise_matrix`, `shifted_key`, ...).

    `bar`, `lower` and `upper` hold the checked matrices once computed, and
    `lower_inv` and `upper_inv` the inverses of the entries of `lower` and
    `upper`.
    """

    def __init__(self, space, key):
        self.space = space
        self.key = key
        self.label = space.block_label(key)
        self.bar = None
        self.lower = None
        self.upper = None
        self.lower_inv = None
        self.upper_inv = None

    def basis(self):
        return self.space.block_basis(self.key)

    def bar_column(self, idx):
        return self.space.bar_column(self.basis()[idx], self.key)

    def gram(self):
        return self.space.block_gram(self.key)

    def shifted(self, i, step):
        """The context one letter up (step=+1) or down (step=-1) along index i."""
        return block_context(self.space, self.space.shifted_key(self.key, i, step))


def block_context(space, content):
    """The BlockContext of a block of `space`, given by a count map or a block
    key; one per key, cached on the space."""
    key = content_key(dict(content))
    ctx = space._contexts.get(key)
    if ctx is None:
        ctx = space._contexts[key] = BlockContext(space, key)
    return ctx


def typeA_block(alg, content):
    """Block context for a content block of the free algebra model."""
    return block_context(alg, content)


def theta_block(module, sym_content):
    """Block context for a symmetrized-content block of the symmetric module."""
    return block_context(module, sym_content)


class TriangularityError(ArithmeticError):
    """The bar matrix of a block failed unitriangularity (transcription bug)."""


def bar_matrix(ctx):
    """B with bar(P(n)) = sum_m B_{mn} P(m); unitriangular with Laurent entries."""
    if ctx.bar is not None:
        return ctx.bar
    basis = ctx.basis()
    n = len(basis)
    cols = [ctx.bar_column(c) for c in range(n)]
    B = [[cols[c][r] for c in range(n)] for r in range(n)]
    one = RatFunc(1)
    for c in range(n):
        if B[c][c] != one:
            raise TriangularityError(
                f"{ctx.label}: diagonal bar entry at {basis[c]} is {B[c][c]}"
            )
        for r in range(c):
            if not B[r][c].is_zero():
                raise TriangularityError(
                    f"{ctx.label}: bar({basis[c]}) has a component on the "
                    f"crystal-larger {basis[r]}"
                )
        for r in range(c + 1, n):
            if not B[r][c].in_A():
                raise TriangularityError(
                    f"{ctx.label}: bar entry {B[r][c]} at ({basis[r]}, {basis[c]}) "
                    "is not a Laurent polynomial"
                )
    ctx.bar = TransitionMatrix(ctx.label, basis, B)
    return ctx.bar


def _split_antisymmetric(r):
    """The unique c in q.Q[q] with c - bar(c) = r, for bar-antisymmetric Laurent r."""
    if not r.in_A():
        raise ArithmeticError(f"correction term {r} is not a Laurent polynomial")
    if (r.bar() + r) != RatFunc(0):
        raise ArithmeticError(f"correction term {r} is not bar-antisymmetric")
    return r.positive_part()


def global_lower(ctx, bar=None):
    """C with G(n) = sum_m C_{mn} P(m): bar-invariant, off-diagonal in q.Q[q]."""
    if bar is ctx.bar:  # the block's own memoized matrix counts as no argument
        bar = None
    if bar is None and ctx.lower is not None:
        return ctx.lower
    B = bar if bar is not None else bar_matrix(ctx)
    n = B.size()
    M = B.entries
    C = [[RatFunc.zero()] * n for _ in range(n)]
    for col in range(n):
        c = [RatFunc.zero()] * n
        c[col] = RatFunc(1)
        # rows below the diagonal, top down; (B bar(c))_m depends only on rows < m
        for m in range(col + 1, n):
            rho = RatFunc.zero()
            for k in range(col, m):
                if M[m][k] and c[k]:
                    rho = rho + M[m][k] * c[k].bar()
            c[m] = _split_antisymmetric(rho)
        for m in range(n):
            C[m][col] = c[m]
    # exact bar-invariance: B . bar(C) = C
    barC = [[x.bar() for x in row] for row in C]
    if mat_mul(M, barC) != C:
        raise ArithmeticError(f"{ctx.label}: lower global basis is not bar-invariant")
    result = TransitionMatrix(ctx.label, B.basis, C)
    if bar is None:
        ctx.lower = result
    return result


def global_upper(ctx, lower=None):
    """Coordinates of the form-dual basis: U = (Gram . C)^{-T}."""
    if lower is ctx.lower:  # the block's own memoized matrix counts as no argument
        lower = None
    if lower is None and ctx.upper is not None:
        return ctx.upper
    C = lower if lower is not None else global_lower(ctx)
    G = ctx.gram()
    GC = mat_mul(G, C.entries)
    n = len(GC)
    UT = inverse(GC)  # U^T, since U^T (G C) = I is the duality
    U = [[UT[c][r] for c in range(n)] for r in range(n)]
    check = mat_mul([[U[r][c] for r in range(n)] for c in range(n)], GC)
    if not is_identity(check):
        raise ArithmeticError(f"{ctx.label}: upper/lower duality failed")
    result = TransitionMatrix(ctx.label, C.basis, U)
    if lower is None:
        ctx.upper = result
        ctx.upper_inv = [list(row) for row in zip(*GC)]  # U^{-1} = (G C)^T
    return result


def lower_inverse(ctx):
    """C^{-1} for the block's lower basis C, stored after the exact check
    C^{-1} C = I."""
    if ctx.lower_inv is None:
        C = global_lower(ctx).entries
        ctx.lower_inv = inverse_rows(C, len(C))
    return ctx.lower_inv


def balanced_split(ctx, coords, lower=None):
    """Split an A-coordinate vector along Q[q]-span and q^{-1}Q[q^{-1}]-span of G.

    Returns (positive part coords, negative part coords) in the G basis;
    raises when the expansion leaves the Laurent ring.
    """
    C = lower if lower is not None else global_lower(ctx)
    g = solve_vector(C.entries, coords)
    pos, neg = [], []
    for a in g:
        if not a.in_A():
            raise ArithmeticError("coordinate vector is not A-integral in the G basis")
        p = a.positive_part() + RatFunc(a.laurent().coeffs.get(0, 0))
        pos.append(p)
        neg.append(a - p)
    return pos, neg


class MultiplicityMismatch(ArithmeticError):
    """The direct and adjoint-transpose multiplicity computations disagree."""


def multiplicity_polys(i, ctx, side):
    """Laurent coefficients of the operator action on the upper global basis.

    side "E": the lowering operator (e'_i on the algebra, E_i on the module),
    op G^up(b) = sum_{b'} c_{b,b'} G^up(b') with b' running over the smaller
    block.  side "F": the raising operator, b' over the larger block.  Both
    the direct route (apply the operator to G^up) and the adjoint route
    (expand the partner operator on G^low, transpose) are computed; any
    disagreement raises.
    """
    space = ctx.space
    if side == "E":
        tgt = ctx.shifted(i, -1)
        op_src = space.lower_matrix(i, ctx.key)
        partner = space.raise_matrix(i, tgt.key)  # maps tgt back into src
    elif side == "F":
        tgt = ctx.shifted(i, +1)
        op_src = space.raise_matrix(i, ctx.key)
        partner = space.lower_matrix(i, tgt.key)
    else:
        raise ValueError(f"side must be 'E' or 'F', got {side!r}")

    C_src = global_lower(ctx)
    C_tgt = global_lower(tgt)
    U_src = global_upper(ctx)
    global_upper(tgt)

    # route 1: op applied to upper vectors, expanded in the target upper basis
    # (an empty target block gives empty columns)
    imgs = [mat_vec(op_src, [row[bi] for row in U_src.entries])
            for bi in range(len(C_src.basis))]
    direct = {
        (b, bp): c
        for b, img in zip(C_src.basis, imgs)
        for bp, c in zip(C_tgt.basis, mat_vec(tgt.upper_inv, img))
        if not c.is_zero()
    }

    # route 2: partner operator on the lower basis, read off transposed
    C_src_inv = lower_inverse(ctx)
    imgs = [mat_vec(partner, [row[bj] for row in C_tgt.entries])
            for bj in range(len(C_tgt.basis))]
    adjoint = {
        (b, bp): c
        for bp, img in zip(C_tgt.basis, imgs)
        for b, c in zip(C_src.basis, mat_vec(C_src_inv, img))
        if not c.is_zero()
    }

    if direct != adjoint:
        raise MultiplicityMismatch(
            f"{ctx.label}, side {side}, index {i}: direct and adjoint "
            "multiplicity computations disagree"
        )
    for (b, bp), c in direct.items():
        if not c.in_A():
            raise ArithmeticError(
                f"multiplicity {c} at ({b}, {bp}) is not a Laurent polynomial"
            )
    return direct


def q1_specialization(polys):
    """q = 1 values of a multiplicity table, with a soft positivity report.

    Returns (table, warnings); a negative or non-integer value is reported,
    never raised.
    """
    table = {}
    warnings = []
    for key, c in polys.items():
        v = c.subs_one()
        table[key] = v
        if v.denominator != 1 or v < 0:
            b, bp = key
            warnings.append(f"q=1 value {v} at ({b}, {bp}) is not a nonnegative integer")
    return table, warnings
