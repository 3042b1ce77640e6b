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
unitriangularity, bar-invariance or duality check passed, and every result
is the stored one.  The `bar=` argument of `global_lower` and the `lower=`
argument of `global_upper` accept only the block's own stored matrix, which
is the same as passing none; any other matrix raises ValueError.  With the
upper basis U the context keeps its inverse (G C)^T, which the duality check
U^T G C = I proves, and `lower_inverse` keeps the checked inverse of C, so
`multiplicity_polys` reads both of its routes through stored inverses and
inverts each matrix at most once.  The PBW Gram matrix G is diagonal, so C
is unitriangular and G C lower triangular, and `linalg.inverse_rows`
inverts both by forward substitution.  The word-table build refuses a
Gram matrix that is not diagonal, and `global_upper` reports a G C that
`inverse_rows` refuses (not lower triangular, or a zero on its diagonal)
as a failed duality check.  `multiplicity_polys` keeps each table on the
context, by (index, side), once its direct/adjoint cross-check passed.
A type-A block that is a translate of its representative
(`WordAlgebra.representative`) computes none of these: it takes the
representative's bar, lower and upper entries, under its own label and
basis, and its `upper_inv` and `lower_inverse`, through
`wordalg.from_representative`; if the representative fails a check
(ArithmeticError), the translate computes its own, so the failure names the
block asked for.  In the same way a translate pair (i, key) takes the
multiplicity table of its representative pair (`representative(key, i)`)
with every multisegment shifted.  The translate's basis, and that of a
pair's target block, is enumerated first, which runs the basis guard once
per translate block (`WordAlgebra.basis_of_content`).  No cross-check is lost:
the translate's operator and partner matrices are the very matrix objects
of the representative pair (`wordalg` shares them by the same rule), and its
C, U and inverses are the representative block's, so its check would
multiply the same matrices as the representative's, which runs once per
pair class.
Returned matrices are shared and must not be mutated.
"""

from __future__ import annotations

from .linalg import inverse_rows, mat_mul, mat_vec
from .ratfunc import RatFunc, dot
from .wordalg import content_key, from_representative


class TransitionMatrix:
    """Square matrix against the crystal-ordered multisegment basis of a block.

    A plain record: equal when the class and all three fields are equal, and
    unhashable (defining `__eq__` sets `__hash__` to None), since `basis`
    and `entries` are lists.
    """

    __slots__ = ("label", "basis", "entries")

    def __init__(self, label, basis, entries):
        self.label = label
        self.basis = basis
        self.entries = entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.basis, self.entries) == (other.label, other.basis, other.entries)

    def __repr__(self):
        return (
            f"{type(self).__qualname__}(label={self.label!r}, "
            f"basis={self.basis!r}, entries={self.entries!r})"
        )

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
    the two classes share (`basis_of_content`, `bar_column`, `gram_matrix`,
    `lower_matrix`, `raise_matrix`, `shifted_key`, ...).

    `bar`, `lower` and `upper` hold the checked matrices once computed,
    `lower_inv` and `upper_inv` the inverses of the entries of `lower` and
    `upper`, and `mults` the cross-checked multiplicity tables by
    (index, side).
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
        self.mults = {}

    def basis(self):
        return self.space.basis_of_content(self.key)

    def bar_column(self, idx):
        return self.space.bar_column(self.basis()[idx], self.key)

    def gram(self):
        return self.space.gram_matrix(self.key)

    def shifted(self, i, step):
        """The context one letter up (step=+1) or down (step=-1) along index i."""
        return block_context(self.space, self.space.shifted_key(self.key, i, step))


def block_context(space, content):
    """The BlockContext of a block of `space`, given by a count map or a block
    key; one per key, cached on the space."""
    key = content_key(content)
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


def _shared(ctx, compute):
    """For a translate ctx: once compute(rep) has stored its record on the
    context of ctx's representative, take every record stored there that ctx
    lacks (matrices under ctx's own label and basis) and return True.  False
    when ctx is its own representative or compute(rep) failed a check, and
    ctx computes its own (`wordalg.from_representative`)."""
    def run(key, shift):
        rep = block_context(ctx.space, key)
        compute(rep)
        return rep

    rep = from_representative(ctx.space, ctx.key, run)
    if rep is None:
        return False
    for name in ("bar", "lower", "upper"):
        matrix = getattr(rep, name)
        if matrix is not None and getattr(ctx, name) is None:
            setattr(ctx, name, TransitionMatrix(ctx.label, ctx.basis(), matrix.entries))
    for name in ("lower_inv", "upper_inv"):
        if getattr(ctx, name) is None:
            setattr(ctx, name, getattr(rep, name))
    return True


def bar_matrix(ctx):
    """B with bar(P(n)) = sum_m B_{mn} P(m); unitriangular with Laurent entries."""
    if ctx.bar is None and not _shared(ctx, bar_matrix):
        ctx.bar = _bar_matrix(ctx)
    return ctx.bar


def _bar_matrix(ctx):
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
    return TransitionMatrix(ctx.label, basis, B)


def _split_antisymmetric(r):
    """The unique c in q.Q[q] with c - bar(c) = r, for bar-antisymmetric Laurent r;
    ArithmeticError otherwise, which `_global_lower` prefixes with the label."""
    if not r.in_A():
        raise ArithmeticError(f"correction term {r} is not a Laurent polynomial")
    if (r.bar() + r) != RatFunc(0):
        raise ArithmeticError(f"correction term {r} is not bar-antisymmetric")
    return r.positive_part()


def _own_matrix(ctx, given, stored, name):
    """Refuse a `given` matrix that is not the block's `stored` one."""
    if given is not None and given is not stored:
        raise ValueError(f"{ctx.label}: the {name} matrix passed is not the block's own")


def global_lower(ctx, bar=None):
    """C with G(n) = sum_m C_{mn} P(m): bar-invariant, off-diagonal in q.Q[q]."""
    _own_matrix(ctx, bar, ctx.bar, "bar")
    if ctx.lower is None and not _shared(ctx, global_lower):
        ctx.lower = _global_lower(ctx)
    return ctx.lower


def _global_lower(ctx):
    B = bar_matrix(ctx)
    n = B.size()
    M = B.entries
    C = [[RatFunc.zero()] * n for _ in range(n)]
    for col in range(n):
        c = [RatFunc.zero()] * n
        c[col] = RatFunc(1)
        # rows below the diagonal, top down; (B bar(c))_m depends only on rows < m
        for m in range(col + 1, n):
            row = M[m]
            rho = dot([(row[k], c[k].bar()) for k in range(col, m) if c[k]])
            try:
                c[m] = _split_antisymmetric(rho)
            except ArithmeticError as e:
                raise ArithmeticError(f"{ctx.label}: {e}") from None
        for m in range(n):
            C[m][col] = c[m]
    # exact bar-invariance: B . bar(C) = C
    barC = [[x.bar() for x in row] for row in C]
    if mat_mul(M, barC) != C:
        raise ArithmeticError(f"{ctx.label}: lower global basis is not bar-invariant")
    return TransitionMatrix(ctx.label, B.basis, C)


def global_upper(ctx, lower=None):
    """Coordinates of the form-dual basis: U = (Gram . C)^{-T}."""
    _own_matrix(ctx, lower, ctx.lower, "lower")
    if ctx.upper is None and not _shared(ctx, global_upper):
        ctx.upper, ctx.upper_inv = _global_upper(ctx)
    return ctx.upper


def _global_upper(ctx):
    """(U, U^{-1}) of the block."""
    C = global_lower(ctx)
    G = ctx.gram()
    GC = mat_mul(G, C.entries)
    # U^T, since U^T (G C) = I is the duality; inverse_rows checks it exactly
    try:
        UT = inverse_rows(GC)
    except ArithmeticError as e:
        raise ArithmeticError(f"{ctx.label}: upper/lower duality failed") from e
    U = [list(row) for row in zip(*UT)]
    U_inv = [list(row) for row in zip(*GC)]  # U^{-1} = (G C)^T
    return TransitionMatrix(ctx.label, C.basis, U), U_inv


def lower_inverse(ctx):
    """C^{-1} for the block's lower basis C, stored after the exact check
    C^{-1} C = I."""
    if ctx.lower_inv is None and not _shared(ctx, lower_inverse):
        ctx.lower_inv = inverse_rows(global_lower(ctx).entries)
    return ctx.lower_inv


def balanced_split(ctx, coords):
    """Split an A-coordinate vector along Q[q]-span and q^{-1}Q[q^{-1}]-span of G.

    Returns (positive part coords, negative part coords) in the G basis;
    raises when the expansion leaves the Laurent ring.  The G coordinates are
    read through the block's stored C^{-1} (`lower_inverse`).
    """
    g = mat_vec(lower_inverse(ctx), coords)
    pos, neg = [], []
    for a in g:
        if not a.in_A():
            raise ArithmeticError(
                f"{ctx.label}: coordinate vector is not A-integral in the G basis"
            )
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
    disagreement raises.  The table is kept on the context once its
    cross-check passed.  A translate pair (i, ctx.key) by `shift` takes the
    table of its representative pair (i - shift, key - shift) with every
    multisegment shifted, once the bases of both blocks passed the basis
    guard (`wordalg.from_representative`).
    """
    if side not in ("E", "F"):
        raise ValueError(f"side must be 'E' or 'F', got {side!r}")
    hit = ctx.mults.get((i, side))
    if hit is None:
        def shared(rep, shift):
            table = multiplicity_polys(i - shift, block_context(ctx.space, rep), side)
            return {(b.shifted(shift), bp.shifted(shift)): c for (b, bp), c in table.items()}

        hit = from_representative(ctx.space, ctx.key, shared, i, -1 if side == "E" else +1)
        if hit is None:
            hit = _multiplicity_polys(i, ctx, side)
        ctx.mults[i, side] = hit
    return hit


def _multiplicity_polys(i, ctx, side):
    """The multiplicity table of (i, ctx, side), by both routes."""
    space = ctx.space
    if side == "E":
        tgt = ctx.shifted(i, -1)
        op_src = space.lower_matrix(i, ctx.key)
        partner = space.raise_matrix(i, tgt.key)  # maps tgt back into src
    elif side == "F":
        tgt = ctx.shifted(i, +1)
        op_src = space.raise_matrix(i, ctx.key)
        partner = space.lower_matrix(i, tgt.key)

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
                f"{ctx.label}, side {side}, index {i}: multiplicity {c} at ({b}, {bp}) "
                "is not a Laurent polynomial"
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
