"""The symmetric-crystal module V_theta(0) = U_q^- / sum_k U_q^-(f_k - f_{-k}).

Class vectors are represented by word vectors; the grading that survives on
the quotient is the symmetrized content (multiset of absolute letter
indices).  A class made by `ptheta_vector` or `from_coords` also keeps its
exact P_theta coordinates, and `coord_vector` returns them for the block
that holds them; any other class (a sum, a scaling, bar_theta, E_op, F_op,
T_op) keeps none, and its coordinates are read through the fibre.

A symmetrized block is built in PBW coordinates on its fibre, the direct
sum of the type-A content blocks of its genuine contents:

- P_theta(m) = s(m) P(m), where s(m) is the product over the symmetric
  segments <-j,j> of multiplicity a of [a]! / prod_{nu<=a} [2 nu], so the
  fibre column of P_theta(m)phi is s(m) times a unit vector;
- the ideal is spanned by the fibre vectors of P(m)(f_k - f_{-k}), for
  every letter k > 0 of the key and every m of the PBW bases of the
  sub-fibre contents (the key with one letter k fewer): one generator per
  multisegment, the PBW analogue of `ideal_generators`.

A block's coordinate rows are the kernel vectors of its ideal rows, each
divided by s(m), found in one elimination with the theta positions as the
last (free) columns and stored after the exact check that they give [I | 0]
on [P_theta columns | ideal rows] (the theta part of each kernel vector
compared with its unit vector entry by entry).  A class's fibre vector is
read through the type-A word-coordinate tables, so class membership and
canonical coordinates are one matrix-vector product.  `ideal_generators`
keeps the word-level generators w (f_k - f_{-k}) for tests.

The theta form pairs a class u with a word w = w_1 ... w_n as the ()
coefficient of E_{w_n} ... E_{w_1} u.  A block's Gram matrix is built one
row per basis vector u by one depth-first walk over the prefix tree of the
words of all the block's P_theta vectors (`_form_row`): one E_op per tree
edge, zero branches cut, the () coefficient read at each leaf.
`theta_form` runs the same walk.
`ThetaModule` implements the graded-block protocol of `symcrys.wordalg`
with E_i/F_i as lowering/raising operators, whose block matrices
`wordalg.operator_matrix` caches, and its modified root operators run the
q-boson split defined there.  No E_i or F_i matrix builds its larger
block:

- F_k and E_k for k > 0 come from the type-A local formula on the P_theta
  bases (`wordalg.local_matrix`): f_k adds or extends no symmetric
  segment, so s(m) and the theta factor of the norm cancel;
- E_{-k} stays on the word route (`wordalg._image_matrix` over
  `E_op`), which reads only its smaller target block;
- F_{-k}[n][m] = E_{-k}[m][n] N_theta(m) / N_theta(n) by adjointness
  under the theta form (`_adjoint_matrix`), with each N_theta computed
  once per multisegment (`norm`).

The bases are enumerated and cached apart from the blocks
(`basis_of_content`), and `coord_vector` builds a block only for a class
that carries no coordinates of it, so the block-dimension check and a
fault in a block's elimination are met at its first coordinate read (and
by the `theta-dims` suite), not by the matrices into it.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

from .linalg import RatFunc, mat_vec, nullspace
from .multisegment import cartan, cry_sort_key
from .ratfunc import dot, qfact, qint
from .theta import theta_of_symmetrized_content
from .wordalg import (
    WordAlgebra,
    WordVector,
    _image_matrix,
    closed_form_norm,
    content_key,
    contents_up_to,
    dot_vector,
    local_matrix,
    modified_root_op,
    operator_matrix,
    shift_key,
)


_ONE = RatFunc(1)  # shared: the coordinate of m in P_theta(m)phi


def sym_key_of_content(content):
    """The symmetrized content key of a content, given by a count map or a
    block key."""
    c = Counter()
    for i, n in content_key(content):
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


def closed_form_norm_theta(m):
    """N_theta(m) = N_A(m) times, for each symmetric segment <-j,j> of
    multiplicity a, prod_{nu=1}^{a} 1 / (1 + q^{2 nu})
    (`wordalg.closed_form_norm` with `theta`).  The `gram` suite checks
    that each theta Gram matrix is diag(N_theta(m)).  The form was fitted on
    computed blocks; it is not a theorem cited here."""
    return closed_form_norm(m, theta=True)


def _adjoint_matrix(module, i, key, step):
    """F_i for i < 0 from block `key` by adjointness with E_i under the
    theta form, whose Gram matrices are diag(N_theta) (the `gram` suite):
    F[n][m] = E[m][n] N_theta(m) / N_theta(n), with E the E_i matrix of the
    larger block, which reads only `key`'s block.  The norms are the
    module's cached `norm`s."""
    up = module.shifted_key(key, i, step)
    lower = module.E_matrix(i, up)
    src = [module.norm(m) for m in module.basis_of_content(key)]
    dst = [module.norm(n) for n in module.basis_of_content(up)]
    zero = RatFunc.zero()
    return [[lower[c][r] * (src[c] / dst[r]) if lower[c][r] else zero for c in range(len(src))]
            for r in range(len(dst))]


class ThetaClassVector:
    """A class in V_theta(0), held as a word-vector representative; `coords`
    is None or the class's exact P_theta coordinates {m: c}, which only
    `ThetaModule.ptheta_vector` and `ThetaModule.from_coords` set."""

    __slots__ = ("rep", "module", "coords")

    def __init__(self, rep, module, coords=None):
        self.rep = rep
        self.module = module
        self.coords = coords

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
        keys = {sym_key_of_content(ck) for ck in self.rep.contents()}
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
        self._bases = {}
        self._norms = {}
        self._blocks = {}
        self._ptheta_cache = {}
        self._operator_mats = {}
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
        return ThetaClassVector(hit, self, {m: _ONE})

    def norm(self, m):
        """N_theta(m) = (P_theta(m)phi, P_theta(m)phi) by its closed form
        (`closed_form_norm_theta`), computed once per multisegment."""
        hit = self._norms.get(m)
        if hit is None:
            hit = self._norms[m] = closed_form_norm_theta(m)
        return hit

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
        for k in self.window:
            if k <= 0:
                continue
            sub = Counter(dict(sym_key))
            if sub[k] == 0:
                continue
            sub[k] -= 1
            for ck in self.fiber_contents(content_key(sub)):
                for w in self.alg.words_of_content(ck):
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
            col = self.alg.coord_vector(part, ck)
            for r, c in enumerate(col):
                vec[off + r] = c
        return vec

    def _ideal_rows(self, sym_key, block):
        """Fibre rows spanning the ideal: the fibre vectors of
        P(m)(f_k - f_{-k}) over the PBW bases of the contents ck of
        sym_key - k, for every letter k > 0.  Such a row is zero outside the
        slices of ck + alpha_k and ck + alpha_{-k}, which hold the coordinates
        of P(m) f_k and of -P(m) f_{-k}: the words of P(m) with the letter k,
        or -k, appended."""
        alg, offsets = self.alg, block["offsets"]
        rows = []
        for k, _ in sym_key:
            for ck in self.fiber_contents(shift_key(sym_key, k, -1)):
                plus, minus = shift_key(ck, k, 1), shift_key(ck, -k, 1)
                for m in alg.basis_of_content(ck):
                    terms = alg.pbw_element(m).terms
                    row = [RatFunc.zero()] * block["dim"]
                    for key, part in ((plus, {w + (k,): c for w, c in terms.items()}),
                                      (minus, {w + (-k,): -c for w, c in terms.items()})):
                        col = alg.coord_vector(WordVector(part, self.window), key)
                        row[offsets[key]:offsets[key] + len(col)] = col
                    rows.append(row)
        return rows

    def block(self, sym_key):
        """The fibre `offsets`, `dim`, `theta_basis` and checked `coord_rows`
        of a symmetrized content, and its `gram` once `gram_matrix` asked for
        it; ArithmeticError if P_theta is no basis."""
        hit = self._blocks.get(sym_key)
        if hit is not None:
            return hit
        theta_basis = self.basis_of_content(sym_key)
        offsets = {}
        dim = 0
        for ck in self.fiber_contents(sym_key):
            offsets[ck] = dim
            dim += len(self.alg.basis_of_content(ck))
        block = {"offsets": offsets, "dim": dim, "theta_basis": theta_basis}
        theta_cols = []
        for m in theta_basis:
            ck = content_key(m.content())
            theta_cols.append(offsets[ck] + self.alg.basis_of_content(ck).index(m))
        order = [c for c in range(dim) if c not in theta_cols] + theta_cols
        gen_rows = self._ideal_rows(sym_key, block)
        kernel = nullspace([[row[c] for c in order] for row in gen_rows], dim)
        rows = [
            [x * inv for _, x in sorted(zip(order, v))]  # back in fibre order
            for v, inv in zip(kernel, [RatFunc(1) / theta_scale(m) for m in theta_basis])
        ]
        t = len(theta_basis)
        if len(kernel) != t or any(
            x != _ONE if c == r else x
            for r, v in enumerate(kernel)
            for c, x in enumerate(v[dim - t:])
        ) or any(x for row in rows for x in mat_vec(gen_rows, row)):
            raise ArithmeticError(
                f"block {dict(sym_key)}: {t} theta multisegments are not a basis "
                f"of the quotient (ideal rank {dim - len(kernel)}, ambient dim {dim})"
            )
        block["coord_rows"] = rows
        self._blocks[sym_key] = block
        return block

    def quotient_dimension(self, sym_key):
        return len(self.basis_of_content(sym_key))

    # -- coordinates and equality ------------------------------------------------

    def theta_coords(self, v):
        """Coordinates of v in the basis {P_theta(m)phi}, as an mseg -> RatFunc map."""
        sym_key = v.sym_key()
        if v.rep.is_zero():
            return {}
        col = self.coord_vector(v, sym_key)
        return {m: c for m, c in zip(self.basis_of_content(sym_key), col) if not c.is_zero()}

    def coord_vector(self, v, sym_key):
        """Coordinates of a class of the block on its P_theta basis, as a dense
        column: the coordinates v carries when each of their multisegments is
        in the block's basis, else the block's stored inverse rows applied to
        the fibre vector."""
        coords, basis = v.coords, self.basis_of_content(sym_key)
        if coords is not None and len(coords) == sum(m in coords for m in basis):
            return [coords.get(m, RatFunc.zero()) for m in basis]
        block = self.block(sym_key)
        return mat_vec(block["coord_rows"], self._fiber_vector(v.rep, block))

    def from_coords(self, coords):
        pairs = {}
        for m, c in coords.items():
            for w, p in self.ptheta_vector(m).rep.terms.items():
                pairs.setdefault(w, []).append((c, p))
        return ThetaClassVector(dot_vector(pairs, self.alg.window), self, dict(coords))

    def is_zero_class(self, v):
        """True iff every symmetrized-content part of v has zero coordinates."""
        parts = {}
        for ck, part in v.rep.homogeneous_parts().items():
            key = sym_key_of_content(ck)
            parts[key] = parts[key] + part if key in parts else part
        return all(
            c.is_zero()
            for key, part in parts.items()
            for c in self.coord_vector(ThetaClassVector(part, self), key)
        )

    # -- the bilinear form ---------------------------------------------------------

    def theta_form(self, u, v):
        """(phi,phi) = 1 and (E_i u, v) = (u, F_i v), computed by peeling u
        along the words of v (`_form_row`)."""
        if u.sym_key() != v.sym_key():
            return RatFunc.zero()
        return self._form_row(u, [v])[0]

    def _form_row(self, u, vecs):
        """[(u, v) for v in vecs], for classes v of u's degree.  (u, w) for a
        word w = w_1 ... w_n is the () coefficient of E_{w_n} ... E_{w_1} u,
        so one depth-first walk over the prefix tree of the words of the
        vecs gives them all: one E_op per tree edge, a branch cut where its
        vector is zero, the () coefficient read at each leaf."""
        pairing = {}

        def walk(x, words, depth):
            branches = {}
            for w in words:
                if len(w) == depth:
                    c = x.rep.terms.get(())
                    if c is not None:
                        pairing[w] = c
                else:
                    branches.setdefault(w[depth], []).append(w)
            for i, sub in branches.items():
                y = self.E_op(i, x)
                if not y.rep.is_zero():
                    walk(y, sub, depth + 1)

        walk(u, list({w for v in vecs for w in v.rep.terms}), 0)
        zero = RatFunc.zero()
        return [
            dot(p) if p else zero
            for p in ([(c, pairing[w]) for w, c in v.rep.terms.items() if w in pairing]
                      for v in vecs)
        ]

    # -- block matrices of E_i and F_i ----------------------------------------------

    def E_matrix(self, i, sym_key):
        """Matrix of E_i from the block to the block with one |i| letter
        fewer: by the local formula for i > 0 (`wordalg.local_matrix`), on
        the word route for i < 0, which reads only the smaller target block."""
        return operator_matrix(self, i, sym_key, -1, local_matrix if i > 0 else _image_matrix)

    def F_matrix(self, i, sym_key):
        """Matrix of F_i from the block to the block with one |i| letter
        more: by the local formula for i > 0, by adjointness with E_i for
        i < 0 (`_adjoint_matrix`), so the larger target block is not built."""
        return operator_matrix(self, i, sym_key, +1, local_matrix if i > 0 else _adjoint_matrix)

    def word_image(self, i, m, step):
        """The class E_i P_theta(m)phi (step -1) or F_i P_theta(m)phi (step
        +1): the image of a basis vector on the word route (`_image_matrix`)."""
        op = self.E_op if step < 0 else self.F_op
        return op(i, self.ptheta_vector(m))

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

    # -- the rest of the graded-block protocol (shared with WordAlgebra) ----------
    #
    # A block is keyed by its symmetrized content key; index i moves the
    # letter |i|, the lowering operator is E_i and the raising operator F_i.

    def letter(self, i):
        """The letter of the grading that index i moves."""
        return abs(i)

    def block_keys(self, max_degree):
        return contents_up_to([k for k in self.window if k > 0], max_degree)

    def block_label(self, key):
        return f"symmetrized content {dict(key)}"

    def representative(self, key, i=None):
        """Every block and every (index, block) pair is its own
        representative: (key, 0).  Theta blocks share work only through the
        type-A fibre tables."""
        return key, 0

    def shifted_key(self, key, i, step):
        return shift_key(key, abs(i), step)

    def basis_of_content(self, key):
        """The block's P_theta basis: its theta-restricted multisegments,
        ordered descending in the crystal order.  Enumerated without the
        block and cached apart from it."""
        hit = self._bases.get(key)
        if hit is None:
            hit = self._bases[key] = sorted(
                theta_of_symmetrized_content(self.window, dict(key)),
                key=cry_sort_key,
                reverse=True,
            )
        return hit

    def lower_matrix(self, i, key):
        return self.E_matrix(i, key)

    def raise_matrix(self, i, key):
        return self.F_matrix(i, key)

    def bar_column(self, m, key):
        """Coordinate column of bar(P_theta(m)phi) on the block of m."""
        return self.coord_vector(self.bar_theta(self.ptheta_vector(m)), key)

    def gram_matrix(self, key):
        """The theta_form Gram matrix of the block's P_theta basis, one row
        per `_form_row` walk, computed once and kept with the block."""
        block = self.block(key)
        gram = block.get("gram")
        if gram is None:
            vecs = [self.ptheta_vector(m) for m in block["theta_basis"]]
            gram = block["gram"] = [self._form_row(u, vecs) for u in vecs]
        return gram

    def relation_scalar(self, i, j, key):
        """The scalar term of E_i F_j = q^{-(alpha_i, alpha_j)} F_j E_i + scalar:
        delta_ij, plus T_i on the block when j = -i."""
        delta = RatFunc(1 if i == j else 0)
        return delta + self.T_scalar(i, key) if j == -i else delta
