"""The symmetric-crystal module V_theta(0) = U_q^- / sum_k U_q^-(f_k - f_{-k}).

Class vectors are represented by word vectors; the grading that survives on
the quotient is the symmetrized content (multiset of absolute letter
indices).  A symmetrized block is built in PBW coordinates on its fibre, the
direct sum of the type-A content blocks of its genuine contents:

- P_theta(m) = s(m) P(m), where s(m) is the product over the symmetric
  segments <-j,j> of multiplicity a of [a]! / prod_{nu<=a} [2 nu], so the
  fibre column of P_theta(m)phi is s(m) times a unit vector;
- the ideal is spanned by the columns of R_k - R_{-k} over the PBW bases of
  the sub-fibre contents, with R_k the type-A block matrix of right
  multiplication by f_k (`WordAlgebra.rmul_matrix`): one generator per
  multisegment, echelonized to a basis.

The module caches per block the matrix whose columns are the P_theta columns
followed by the ideal basis, and the rows of its inverse that read off the
P_theta coordinates, stored after the exact check that they invert it; the
fibre vector of a class is read through the type-A word-coordinate tables,
so class membership and canonical coordinates are one matrix-vector
product.  `ideal_generators` keeps the word-level generators
w (f_k - f_{-k}) for tests.
`ThetaModule` implements the graded-block protocol of `symcrys.wordalg`
with E_i/F_i as lowering/raising operators, and its modified root
operators run the q-boson split defined there.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .linalg import RatFunc, echelon_form, inverse_rows, mat_vec
from .multisegment import cartan, cry_sort_key
from .ratfunc import qfact, qint
from .theta import theta_of_symmetrized_content
from .wordalg import (
    WordAlgebra,
    WordVector,
    content_key,
    contents_up_to,
    modified_root_op,
    operator_matrix,
    shift_key,
)


def sym_key_of_content(content):
    c = Counter()
    for i, n in content.items():
        c[abs(i)] += n
    return content_key(c)


def theta_scale(m):
    """s(m) with P_theta(m) = s(m) P(m): the product over the symmetric
    segments <-j,j> of multiplicity a of [a]! / prod_{nu<=a} [2 nu]."""
    s = RatFunc(1)
    for seg, a in m:
        if seg.i == -seg.j:
            s = s * RatFunc(qfact(a))
            for nu in range(1, a + 1):
                s = s / RatFunc(qint(2 * nu))
    return s


class ThetaClassVector:
    """A class in V_theta(0), held as a word-vector representative."""

    __slots__ = ("rep", "module")

    def __init__(self, rep, module):
        self.rep = rep
        self.module = module

    def is_zero(self):
        return self.module.is_zero_class(self)

    def __add__(self, other):
        return ThetaClassVector(self.rep + other.rep, self.module)

    def __sub__(self, other):
        return ThetaClassVector(self.rep - other.rep, self.module)

    def __neg__(self):
        return ThetaClassVector(-self.rep, self.module)

    def scale(self, c):
        return ThetaClassVector(self.rep.scale(c), self.module)

    def __eq__(self, other):
        if not isinstance(other, ThetaClassVector):
            return NotImplemented
        return self.module.is_zero_class(self - other)

    def __hash__(self):
        raise TypeError("theta class vectors are not hashable")

    def sym_key(self):
        keys = {sym_key_of_content(dict(ck)) for ck in self.rep.contents()}
        if len(keys) > 1:
            raise ValueError("class vector is not homogeneous in symmetrized content")
        return keys.pop() if keys else ()

    def __str__(self):
        return f"[{self.rep}]phi"

    def __repr__(self):
        return f"ThetaClassVector({self})"


class ThetaModule:
    """V_theta(0) over a negation-symmetric window of odd indices, built on
    the type-A algebra `alg` of the window (a new one if not given)."""

    def __init__(self, window, alg=None):
        win = tuple(sorted(set(window)))
        if set(win) != {-i for i in win}:
            raise ValueError(f"window must be symmetric under negation, got {window}")
        if alg is not None and alg.window != win:
            raise ValueError(f"algebra window {alg.window} is not {win}")
        self.alg = WordAlgebra(win) if alg is None else alg
        self.window = self.alg.window
        self._blocks = {}
        self._ptheta_cache = {}
        self._E_mat = {}
        self._F_mat = {}
        self._contexts = {}  # BlockContexts, filled by symcrys.canonical

    # -- constructors -----------------------------------------------------

    def phi(self):
        return ThetaClassVector(self.alg.one(), self)

    def from_words(self, x):
        if isinstance(x, WordVector):
            return ThetaClassVector(x, self)
        return ThetaClassVector(self.alg.vector(x), self)

    # -- module operations ---------------------------------------------------

    def F_op(self, i, v):
        """F_i: left multiplication by f_i on representatives."""
        self.alg.check_index(i)
        return ThetaClassVector(self.alg.mul(self.alg.f(i), v.rep), self)

    def E_op(self, i, v):
        """E_i = e'_i + Ad(t_i) e*_{-i} on representatives (lambda = 0)."""
        self.alg.check_index(i)
        rep = self.alg.eprime(i, v.rep) + self.alg.ad_t(i, self.alg.estar(-i, v.rep))
        return ThetaClassVector(rep, self)

    def T_op(self, i, v):
        """T_i: scaling by q^{-(alpha_i + alpha_{-i}, beta)} on each word."""
        self.alg.check_index(i)
        return ThetaClassVector(self.alg.ad_t(i, self.alg.ad_t(-i, v.rep)), self)

    def bar_theta(self, v):
        """Bar involution: conjugate the coefficients of any representative."""
        return ThetaClassVector(v.rep.bar(), self)

    # -- theta PBW basis --------------------------------------------------------

    def ptheta_vector(self, m):
        """P_theta(m)phi with the modified divided powers of the <-j,j> segments:
        s(m) P(m)phi, with s(m) = `theta_scale(m)`."""
        hit = self._ptheta_cache.get(m)
        if hit is None:
            for seg in m.segments_desc_pbw():
                if not seg.is_theta_restricted():
                    raise ValueError(f"{seg} is not theta-restricted")
            hit = self._ptheta_cache[m] = self.alg.pbw_element(m).scale(theta_scale(m))
        return ThetaClassVector(hit, self)

    # -- block machinery -------------------------------------------------------

    def fiber_contents(self, sym_key):
        """All genuine contents over the window with the given symmetrized content."""
        items = [(k, n) for k, n in sym_key]
        choice_sets = []
        for k, n in items:
            if k not in self.window:
                raise ValueError(f"index {k} outside window {self.window}")
            choice_sets.append([(k, a) for a in range(n + 1)])
        out = []
        for combo in product(*choice_sets):
            c = Counter()
            for (k, a), (_, n) in zip(combo, items):
                if a:
                    c[k] += a
                if n - a:
                    c[-k] += n - a
            out.append(content_key(c))
        return sorted(out)

    def ideal_generators(self, sym_key):
        """Word-vector generators w (f_k - f_{-k}) spanning the ideal in the fiber."""
        gens = []
        total = sum(n for _, n in sym_key)
        if total == 0:
            return gens
        for k in self.window:
            if k <= 0:
                continue
            sub = Counter(dict(sym_key))
            if sub[k] == 0:
                continue
            sub[k] -= 1
            for ck in self.fiber_contents(content_key(sub)):
                for w in self.alg.words_of_content(dict(ck)):
                    rep = self.alg.mul(
                        self.alg.vector({w: RatFunc(1)}),
                        self.alg.f(k) - self.alg.f(-k),
                    )
                    gens.append(rep)
        return gens

    def _fiber_vector(self, rep, block):
        vec = [RatFunc.zero()] * block["dim"]
        for ck, part in rep.homogeneous_parts().items():
            if ck not in block["offsets"]:
                raise ValueError(f"content {dict(ck)} outside the block")
            off = block["offsets"][ck]
            col = self.alg.coord_vector(part, dict(ck))
            for r, c in enumerate(col):
                vec[off + r] = c
        return vec

    def _ideal_rows(self, sym_key, block):
        """Fibre rows spanning the ideal: the columns of R_k - R_{-k} on the PBW
        bases of the contents of sym_key - k, for every letter k > 0."""
        rows = []
        for k, _ in sym_key:
            for ck in self.fiber_contents(shift_key(sym_key, k, -1)):
                plus = self.alg.rmul_matrix(k, dict(ck))
                minus = self.alg.rmul_matrix(-k, dict(ck))
                p_off = block["offsets"][shift_key(ck, k, 1)]
                m_off = block["offsets"][shift_key(ck, -k, 1)]
                for n in range(len(self.alg.basis_of_content(dict(ck)))):
                    row = [RatFunc.zero()] * block["dim"]
                    for r, line in enumerate(plus):
                        row[p_off + r] = line[n]
                    for r, line in enumerate(minus):
                        row[m_off + r] = -line[n]
                    rows.append(row)
        return rows

    def block(self, sym_key):
        hit = self._blocks.get(sym_key)
        if hit is not None:
            return hit
        contents = self.fiber_contents(sym_key)
        offsets = {}
        dim = 0
        for ck in contents:
            offsets[ck] = dim
            dim += len(self.alg.basis_of_content(dict(ck)))
        block = {"contents": contents, "offsets": offsets, "dim": dim}
        theta_basis = sorted(
            theta_of_symmetrized_content(self.window, dict(sym_key)),
            key=cry_sort_key,
            reverse=True,
        )
        block["theta_basis"] = theta_basis
        ptheta_cols = []
        for m in theta_basis:
            ck = content_key(m.content())
            col = [RatFunc.zero()] * dim
            col[offsets[ck] + self.alg.basis_of_content(dict(ck)).index(m)] = theta_scale(m)
            ptheta_cols.append(col)
        gen_rows = self._ideal_rows(sym_key, block)
        if gen_rows:
            rows, pivots = echelon_form(gen_rows, ncols=dim)
            ideal_basis = [
                [RatFunc(p) for p in rows[prow]] for prow, _ in pivots
            ]
        else:
            ideal_basis = []
        if len(theta_basis) + len(ideal_basis) != dim:
            raise ArithmeticError(
                f"block {dict(sym_key)}: {len(theta_basis)} theta multisegments + "
                f"ideal rank {len(ideal_basis)} != quotient ambient dim {dim}"
            )
        cols = ptheta_cols + ideal_basis
        block["matrix"] = [[cols[c][r] for c in range(dim)] for r in range(dim)]
        block["coord_rows"] = inverse_rows(block["matrix"], len(theta_basis))
        self._blocks[sym_key] = block
        return block

    def quotient_dimension(self, sym_key):
        block = self.block(sym_key)
        return block["dim"] - (block["dim"] - len(block["theta_basis"]))

    # -- coordinates and equality ------------------------------------------------

    def theta_coords(self, v):
        """Coordinates of v in the basis {P_theta(m)phi}, as an mseg -> RatFunc map."""
        sym_key = v.sym_key()
        if v.rep.is_zero():
            return {}
        col = self.coord_vector(v, sym_key)
        return {m: c for m, c in zip(self.block_basis(sym_key), col) if not c.is_zero()}

    def coord_vector(self, v, sym_key):
        """Coordinates of a class of the block on its P_theta basis, as a dense
        column: the block's stored inverse rows applied to the fibre vector."""
        block = self.block(sym_key)
        return mat_vec(block["coord_rows"], self._fiber_vector(v.rep, block))

    def from_coords(self, coords):
        out = self.alg.zero()
        for m, c in coords.items():
            out = out + self.ptheta_vector(m).rep.scale(c)
        return ThetaClassVector(out, self)

    def is_zero_class(self, v):
        """True iff every symmetrized-content part of v has zero coordinates."""
        parts = {}
        for ck, part in v.rep.homogeneous_parts().items():
            key = sym_key_of_content(dict(ck))
            parts[key] = parts[key] + part if key in parts else part
        return all(
            c.is_zero()
            for key, part in parts.items()
            for c in self.coord_vector(ThetaClassVector(part, self), key)
        )

    # -- the bilinear form ---------------------------------------------------------

    def theta_form(self, u, v):
        """(phi,phi) = 1 and (E_i u, v) = (u, F_i v), computed by peeling v."""
        if u.sym_key() != v.sym_key():
            return RatFunc.zero()
        total = RatFunc.zero()
        for w, c in v.rep.terms.items():
            total = total + c * self._form_against_word(u, w)
        return total

    def _form_against_word(self, u, w):
        if not w:
            return u.rep.terms.get((), RatFunc.zero())
        return self._form_against_word(self.E_op(w[0], u), w[1:])

    # -- block matrices of E_i and F_i ----------------------------------------------

    def E_matrix(self, i, sym_key):
        """Matrix of E_i from the block to the block with one |i| letter fewer."""
        key = (i, sym_key)
        hit = self._E_mat.get(key)
        if hit is None:
            hit = self._E_mat[key] = operator_matrix(
                self, i, sym_key, -1, lambda m: self.E_op(i, self.ptheta_vector(m))
            )
        return hit

    def F_matrix(self, i, sym_key):
        """Matrix of F_i from the block to the block with one |i| letter more."""
        key = (i, sym_key)
        hit = self._F_mat.get(key)
        if hit is None:
            hit = self._F_mat[key] = operator_matrix(
                self, i, sym_key, +1, lambda m: self.F_op(i, self.ptheta_vector(m))
            )
        return hit

    def T_scalar(self, i, sym_key):
        """T_i eigenvalue on the block: q^{-(alpha_i + alpha_{-i}, beta)}."""
        e = 0
        # (alpha_i + alpha_{-i}, alpha_k) is invariant under k -> -k, so any
        # genuine content in the fiber gives the same exponent; use all-positive.
        for k, n in sym_key:
            e -= n * (cartan(i, k) + cartan(-i, k))
        return RatFunc.q_power(e)

    # -- modified root operators ---------------------------------------------------

    def theta_mod_etilde(self, i, v):
        return modified_root_op(self, i, v, v.sym_key(), -1)

    def theta_mod_ftilde(self, i, v):
        return modified_root_op(self, i, v, v.sym_key(), +1)

    def theta_mod_ops(self, i, v):
        return self.theta_mod_etilde(i, v), self.theta_mod_ftilde(i, v)

    # -- the graded-block protocol (shared with WordAlgebra) ----------------------
    #
    # A block is keyed by its symmetrized content key; index i moves the
    # letter |i|, the lowering operator is E_i and the raising operator F_i
    # (`F_op` on vectors).

    def letter(self, i):
        """The letter of the grading that index i moves."""
        return abs(i)

    def block_keys(self, max_degree):
        return contents_up_to([k for k in self.window if k > 0], max_degree)

    def block_label(self, key):
        return f"symmetrized content {dict(key)}"

    def shifted_key(self, key, i, step):
        return shift_key(key, abs(i), step)

    def block_basis(self, key):
        return self.block(key)["theta_basis"]

    def lower_matrix(self, i, key):
        return self.E_matrix(i, key)

    def raise_matrix(self, i, key):
        return self.F_matrix(i, key)

    def coord_column(self, v, key):
        return self.coord_vector(v, key)

    def bar_column(self, m, key):
        """Coordinate column of bar(P_theta(m)phi) on the block of m."""
        return self.coord_vector(self.bar_theta(self.ptheta_vector(m)), key)

    def block_gram(self, key):
        """The theta_form Gram matrix of the block's P_theta basis."""
        vecs = [self.ptheta_vector(m) for m in self.block_basis(key)]
        return [[self.theta_form(u, v) for v in vecs] for u in vecs]

    def relation_scalar(self, i, j, key):
        """The scalar term of E_i F_j = q^{-(alpha_i, alpha_j)} F_j E_i + scalar:
        delta_ij, plus T_i on the block when j = -i."""
        delta = RatFunc(1 if i == j else 0)
        return delta + self.T_scalar(i, key) if j == -i else delta
