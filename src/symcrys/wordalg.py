"""Free-algebra model of U_q^-(gl) on a finite odd index window.

Elements are Q(q)-linear combinations of words in the letters f_i.  Equality
in U_q^- (i.e. modulo the Serre ideal) is mediated by the boson-adjoint
bilinear form, which is nondegenerate on the quotient: a homogeneous word vector is
zero in U_q^- iff it pairs to zero with every word of its content.

PBW coordinates are read through a word-coordinate table, built once per
content c on first use.  The pairings Phi[m][v] = (P(m), v) of the PBW
elements with every word v of c are sums of the memoized word pairings
(w, v) over the words w of P(m).  The Gram matrix is
G[m][n] = sum_v P(n)_v Phi[m][v], the rows R of G^{-1} are kept only after
the exact check R G = I, and each word's coordinate column D_c[v] = R Phi[:, v]
is stored as its nonzero entries.  The coordinates of a vector x of c are
then the sparse sum sum_v x_v D_c[v] over x's words.

`WordAlgebra` and `symcrys.thetamodule.ThetaModule` implement one
graded-block protocol (block keys and bases, lowering/raising block
matrices, the raising operator on vectors, coordinate and bar columns, Gram
matrix, the letter an index moves, the scalar term of the E_i F_j
relation).  This module also holds the code written once over it: the
construction of block matrices (`operator_matrix`), the q-boson split
(`qboson_split`) and the modified root operators (`modified_root_op`), which
rebuild each part from the space's own PBW vectors and raise it with the
space's own F_i.

Results are cached on the algebra instance: PBW elements by multisegment,
and per content block the basis, the word pairings, the Gram matrix, the
word-coordinate table, the e'_i, f_i-left and f_i-right multiplication block
matrices and (through `_contexts`, filled by `symcrys.canonical`) the
block's bar matrix and global bases.  A fresh algebra starts cold.  Cached
word vectors and matrices are shared between callers, who must not mutate
them.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement

from .linalg import identity, inverse_rows, mat_vec, nullspace, solve_rect
from .multisegment import (
    Multisegment,
    Segment,
    cartan,
    cry_sort_key,
    multisegments_of_content,
)
from .ratfunc import RatFunc, qfact


def content_key(content):
    return tuple(sorted((i, n) for i, n in content.items() if n))


def shift_key(key, letter, step):
    """The block key with `step` more letters `letter` (fewer, for step < 0)."""
    c = Counter(dict(key))
    c[letter] += step
    if c[letter] < 0:
        raise ValueError(f"content {dict(key)} has no letter {letter}")
    return content_key(c)


def contents_up_to(letters, max_degree):
    """The content keys over `letters` of degree 1..max_degree, sorted."""
    return sorted(
        content_key(Counter(c))
        for d in range(1, max_degree + 1)
        for c in combinations_with_replacement(letters, d)
    )


def multiset_permutations(items):
    """The distinct orderings of `items` as tuples, in increasing lexicographic
    order; equal to sorted(set(itertools.permutations(items))), without
    generating the repeated orderings.

    From the sorted list, each step finds the rightmost ascent a[k] < a[k+1],
    swaps a[k] with the rightmost entry larger than it and reverses the tail.
    """
    a = sorted(items)
    n = len(a)
    out = [tuple(a)]
    while True:
        k = n - 2
        while k >= 0 and a[k] >= a[k + 1]:
            k -= 1
        if k < 0:
            return out
        l = n - 1
        while a[l] <= a[k]:
            l -= 1
        a[k], a[l] = a[l], a[k]
        a[k + 1:] = a[:k:-1]
        out.append(tuple(a))


class WordVector:
    """Finite Q(q)-linear combination of words (tuples of odd letters)."""

    __slots__ = ("terms", "window")

    def __init__(self, terms, window):
        self.window = window
        self.terms = {w: c for w, c in terms.items() if not c.is_zero()}

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, WordVector):
            return NotImplemented
        return self.window == other.window and self.terms == other.terms

    def __hash__(self):
        return hash((self.window, frozenset(self.terms.items())))

    def __add__(self, other):
        if self.window != other.window:
            raise ValueError("window mismatch")
        d = dict(self.terms)
        for w, c in other.terms.items():
            s = d.get(w, RatFunc.zero()) + c
            if s.is_zero():
                d.pop(w, None)
            else:
                d[w] = s
        return WordVector(d, self.window)

    def __neg__(self):
        return WordVector({w: -c for w, c in self.terms.items()}, self.window)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if not isinstance(c, RatFunc):
            c = RatFunc(c)
        if c.is_zero():
            return WordVector({}, self.window)
        return WordVector({w: c * v for w, v in self.terms.items()}, self.window)

    def bar(self):
        """Bar involution: words are fixed, coefficients are conjugated."""
        return WordVector({w: c.bar() for w, c in self.terms.items()}, self.window)

    def content(self):
        """Content of a homogeneous vector (raises when mixed)."""
        cs = {content_key(Counter(w)) for w in self.terms}
        if len(cs) > 1:
            raise ValueError("word vector is not homogeneous")
        return Counter(dict(cs.pop())) if cs else Counter()

    def contents(self):
        return {content_key(Counter(w)) for w in self.terms}

    def homogeneous_parts(self):
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(content_key(Counter(w)), {})[w] = c
        return {k: WordVector(d, self.window) for k, d in parts.items()}

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            c = self.terms[w]
            word = "·".join(f"f[{i}]" for i in w) if w else "1"
            cs = str(c)
            if cs == "1":
                coef = ""
            elif cs == "-1":
                coef = "-"
            elif ("+" in cs[1:]) or ("-" in cs[1:]) or "/" in cs:
                coef = f"({cs})·"
            else:
                coef = f"{cs}·"
            body = coef + word if w else (cs if coef not in ("", "-") else coef + "1")
            parts.append(body)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"WordVector({self})"


class WordAlgebra:
    """U_q^-(gl) over a finite window of odd indices, with per-block caches."""

    def __init__(self, window):
        win = tuple(sorted(set(window)))
        if not win or any(i % 2 == 0 for i in win):
            raise ValueError(f"window must be nonempty odd integers, got {window}")
        if any(b - a != 2 for a, b in zip(win, win[1:])):
            raise ValueError(f"window must be a contiguous odd interval, got {window}")
        self.window = win
        self._form_cache = {}
        self._eprime_word = {}
        self._pbw_seg = {}
        self._pbw = {}
        self._pairings = {}
        self._gram = {}
        self._word_coords = {}
        self._basis = {}
        self._eprime_mat = {}
        self._fmul_mat = {}
        self._rmul_mat = {}
        self._words = {}
        self._contexts = {}

    # -- constructors ---------------------------------------------------

    def check_index(self, i):
        if i not in self.window:
            raise ValueError(f"index {i} outside window {self.window}")
        return i

    def zero(self):
        return WordVector({}, self.window)

    def one(self):
        return WordVector({(): RatFunc(1)}, self.window)

    def f(self, *letters):
        for i in letters:
            self.check_index(i)
        return WordVector({tuple(letters): RatFunc(1)}, self.window)

    def vector(self, terms):
        out = {}
        for w, c in terms.items():
            for i in w:
                self.check_index(i)
            out[tuple(w)] = c if isinstance(c, RatFunc) else RatFunc(c)
        return WordVector(out, self.window)

    # -- basic operations -------------------------------------------------

    def mul(self, x, y):
        if x.window != self.window or y.window != self.window:
            raise ValueError("window mismatch")
        d = {}
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                w = w1 + w2
                s = d.get(w, RatFunc.zero()) + c1 * c2
                if s.is_zero():
                    d.pop(w, None)
                else:
                    d[w] = s
        return WordVector(d, self.window)

    def ad_t(self, i, x):
        """Conjugation by t_i: a word of content beta is scaled by q^{-(alpha_i, beta)}."""
        d = {}
        for w, c in x.terms.items():
            e = -sum(cartan(i, j) for j in w)
            d[w] = c * RatFunc.q_power(e)
        return WordVector(d, self.window)

    def _eprime_on_word(self, i, w):
        key = (i, w)
        hit = self._eprime_word.get(key)
        if hit is not None:
            return hit
        out = {}
        twist = 0
        for p, letter in enumerate(w):
            if letter == i:
                rest = w[:p] + w[p + 1:]
                c = RatFunc.q_power(twist)
                s = out.get(rest, RatFunc.zero()) + c
                if s.is_zero():
                    out.pop(rest, None)
                else:
                    out[rest] = s
            twist -= cartan(i, letter)
        vec = WordVector(out, self.window)
        self._eprime_word[key] = vec
        return vec

    def eprime(self, i, x):
        """The left derivation e'_i."""
        out = self.zero()
        for w, c in x.terms.items():
            out = out + self._eprime_on_word(i, w).scale(c)
        return out

    def estar(self, i, x):
        """The right derivation e*_i."""
        d = {}
        for w, c in x.terms.items():
            twist = 0
            for p in range(len(w) - 1, -1, -1):
                if w[p] == i:
                    rest = w[:p] + w[p + 1:]
                    s = d.get(rest, RatFunc.zero()) + c * RatFunc.q_power(twist)
                    if s.is_zero():
                        d.pop(rest, None)
                    else:
                        d[rest] = s
                twist -= cartan(i, w[p])
        return WordVector(d, self.window)

    # -- the bilinear form --------------------------------------------------

    def _form_words(self, w, v):
        if len(w) != len(v):
            return RatFunc.zero()
        if not w:
            return RatFunc(1)
        key = (w, v)
        hit = self._form_cache.get(key)
        if hit is not None:
            return hit
        i, rest = w[0], w[1:]
        acc = RatFunc.zero()
        for v2, c in self._eprime_on_word(i, v).terms.items():
            acc = acc + c * self._form_words(rest, v2)
        self._form_cache[key] = acc
        return acc

    def form(self, x, y):
        """The bilinear form with (1,1)=1 and (f_i a, b) = (a, e'_i b)."""
        acc = RatFunc.zero()
        by_content = y.homogeneous_parts()
        for xc, xpart in x.homogeneous_parts().items():
            ypart = by_content.get(xc)
            if ypart is None:
                continue
            for w, c1 in xpart.terms.items():
                for v, c2 in ypart.terms.items():
                    f = self._form_words(w, v)
                    if not f.is_zero():
                        acc = acc + c1 * c2 * f
        return acc

    def words_of_content(self, content):
        key = content_key(content)
        hit = self._words.get(key)
        if hit is None:
            letters = []
            for i, n in sorted(content.items()):
                letters.extend([i] * n)
            hit = multiset_permutations(letters)
            self._words[key] = hit
        return hit

    def is_zero_in_uq(self, x):
        """True iff x lies in the Serre ideal (form against every word vanishes)."""
        for ckey, part in x.homogeneous_parts().items():
            for w in self.words_of_content(dict(ckey)):
                probe = WordVector({w: RatFunc(1)}, self.window)
                if not self.form(part, probe).is_zero():
                    return False
        return True

    # -- PBW basis ------------------------------------------------------------

    def pbw_segment(self, i, j):
        """<i,i> = f_i;  <i,j> = <i,j-2><j,j> - q <j,j><i,j-2>."""
        self.check_index(i)
        self.check_index(j)
        key = (i, j)
        hit = self._pbw_seg.get(key)
        if hit is not None:
            return hit
        if i == j:
            vec = self.f(i)
        else:
            a = self.pbw_segment(i, j - 2)
            b = self.f(j)
            vec = self.mul(a, b) - self.mul(b, a).scale(RatFunc.q_power(1))
        self._pbw_seg[key] = vec
        return vec

    def pbw_element(self, m):
        """P(m): ordered product of divided segment powers, PBW-descending."""
        hit = self._pbw.get(m)
        if hit is not None:
            return hit
        out = self.one()
        for seg in m.segments_desc_pbw():
            mult = m.entries[seg]
            piece = self.pbw_segment(seg.i, seg.j)
            for _ in range(mult):
                out = self.mul(out, piece)
            out = out.scale(RatFunc(1) / RatFunc(qfact(mult)))
        self._pbw[m] = out
        return out

    def basis_of_content(self, content):
        """Multisegments of the content, ordered descending in the crystal order."""
        key = content_key(content)
        hit = self._basis.get(key)
        if hit is None:
            ms = multisegments_of_content(self.window, dict(key))
            hit = sorted(ms, key=cry_sort_key, reverse=True)
            self._basis[key] = hit
        return hit

    def _word_pairings(self, key):
        """Phi of the content block: each word v -> the column ((P(m), v))_m,
        with (P(m), v) = sum_w P(m)_w (w, v)."""
        hit = self._pairings.get(key)
        if hit is None:
            words = self.words_of_content(dict(key))
            basis = self.basis_of_content(dict(key))
            hit = {v: [RatFunc.zero()] * len(basis) for v in words}
            for r, m in enumerate(basis):
                for w, c in self.pbw_element(m).terms.items():
                    for v in words:
                        f = self._form_words(w, v)
                        if f:
                            hit[v][r] = hit[v][r] + c * f
            self._pairings[key] = hit
        return hit

    def gram_matrix(self, content):
        """(P(m), P(n)) over the content block, in the crystal-ordered basis:
        G[m][n] = sum over the words v of P(n) of P(n)_v (P(m), v)."""
        key = content_key(content)
        hit = self._gram.get(key)
        if hit is None:
            basis = self.basis_of_content(dict(key))
            phi = self._word_pairings(key)
            cols = []
            for n in basis:
                col = [RatFunc.zero()] * len(basis)
                for v, c in self.pbw_element(n).terms.items():
                    for m, p in enumerate(phi[v]):
                        if p:
                            col[m] = col[m] + c * p
                cols.append(col)
            hit = self._gram[key] = [list(row) for row in zip(*cols)]
        return hit

    def _word_table(self, key):
        """D_c of the content block: each word v -> the nonzero entries (m, c)
        of its PBW coordinate column R Phi[:, v], where R = G^{-1} is stored
        only after the exact check R G = I."""
        hit = self._word_coords.get(key)
        if hit is None:
            gram = self.gram_matrix(dict(key))
            if not gram:
                raise ValueError(f"no PBW basis vectors for content {dict(key)}")
            rows = inverse_rows(gram, len(gram))
            hit = self._word_coords[key] = {
                v: [(m, c) for m, c in enumerate(mat_vec(rows, col)) if c]
                for v, col in self._word_pairings(key).items()
            }
        return hit

    def pbw_coords(self, x):
        """Coordinates of x in the PBW basis, as a Multisegment -> RatFunc map."""
        out = {}
        for ckey, part in x.homogeneous_parts().items():
            basis = self.basis_of_content(dict(ckey))
            for m, c in zip(basis, self.coord_vector(part, dict(ckey))):
                if not c.is_zero():
                    out[m] = c
        return out

    def coord_vector(self, x, content):
        """Coordinates of a vector x of the content block on its PBW basis, as
        a dense column: the sum of x_v D_c[v] over the words v of x, read from
        the block's word-coordinate table.  Words of another content pair to
        zero."""
        key = content_key(content)
        table = self._word_table(key)
        out = [RatFunc.zero()] * len(self.basis_of_content(dict(key)))
        for v, c in x.terms.items():
            for m, d in table.get(v, ()):
                out[m] = out[m] + c * d
        return out

    def from_coords(self, coords):
        out = self.zero()
        for m, c in coords.items():
            out = out + self.pbw_element(m).scale(c)
        return out

    # -- block matrices of e'_i and left multiplication by f_i ------------------

    def _block_matrix(self, cache, i, content, step, image):
        key = (i, content_key(content))
        hit = cache.get(key)
        if hit is None:
            hit = cache[key] = operator_matrix(self, i, key[1], step, image)
        return hit

    def eprime_matrix(self, i, content):
        """Matrix of e'_i from the content block to content - alpha_i, PBW coords."""
        return self._block_matrix(
            self._eprime_mat, i, content, -1, lambda m: self.eprime(i, self.pbw_element(m))
        )

    def fmul_matrix(self, i, content):
        """Matrix of left multiplication by f_i, content block -> content + alpha_i."""
        return self._block_matrix(
            self._fmul_mat, i, content, +1, lambda m: self.mul(self.f(i), self.pbw_element(m))
        )

    def rmul_matrix(self, i, content):
        """Matrix of right multiplication by f_i, content block -> content + alpha_i."""
        return self._block_matrix(
            self._rmul_mat, i, content, +1, lambda m: self.mul(self.pbw_element(m), self.f(i))
        )

    # -- modified root operators -------------------------------------------------

    def mod_etilde(self, i, x):
        """Modified root operator: sum_{n>=1} f_i^{(n-1)} u_n."""
        return modified_root_op(self, i, x, content_key(x.content()), -1)

    def mod_ftilde(self, i, x):
        """Modified root operator: sum_{n>=0} f_i^{(n+1)} u_n."""
        return modified_root_op(self, i, x, content_key(x.content()), +1)

    # -- the graded-block protocol (shared with ThetaModule) ----------------------
    #
    # A block is keyed by its content key; the lowering operator is e'_i and
    # the raising operator is left multiplication by f_i.

    def F_op(self, i, x):
        """The raising operator on vectors: left multiplication by f_i."""
        return self.mul(self.f(i), x)

    def letter(self, i):
        """The letter of the grading that index i moves."""
        return i

    def block_keys(self, max_degree):
        return contents_up_to(self.window, max_degree)

    def block_label(self, key):
        return f"content {dict(key)}"

    def shifted_key(self, key, i, step):
        return shift_key(key, i, step)

    def block_basis(self, key):
        return self.basis_of_content(dict(key))

    def lower_matrix(self, i, key):
        return self.eprime_matrix(i, dict(key))

    def raise_matrix(self, i, key):
        return self.fmul_matrix(i, dict(key))

    def coord_column(self, x, key):
        return self.coord_vector(x, dict(key))

    def bar_column(self, m, key):
        """Coordinate column of bar(P(m)) on the block of m."""
        return self.coord_vector(self.pbw_element(m).bar(), dict(key))

    def block_gram(self, key):
        return self.gram_matrix(dict(key))

    def relation_scalar(self, i, j, key):
        """The scalar term of e'_i f_j = q^{-(alpha_i, alpha_j)} f_j e'_i + delta_ij."""
        return RatFunc(1 if i == j else 0)

    # -- helpers for tests -------------------------------------------------------

    def serre_element(self, i, j):
        """f_i^2 f_j - [2] f_i f_j f_i + f_j f_i^2 for adjacent i, j."""
        if abs(i - j) != 2:
            raise ValueError("Serre element needs adjacent indices")
        two = RatFunc(qfact(2))
        return (
            self.f(i, i, j)
            - self.f(i, j, i).scale(two)
            + self.f(j, i, i)
        )

    def distant_commutator(self, i, j):
        if abs(i - j) < 4:
            raise ValueError("distant commutator needs |i-j| >= 4")
        return self.f(i, j) - self.f(j, i)


# ---------------------------------------------------------------------------
# written once over the graded-block protocol
# ---------------------------------------------------------------------------

def operator_matrix(space, i, key, step, image):
    """The matrix, in block coordinates, of an operator from block `key` to
    the block `step` letters i away; `image(m)` is the image of the basis
    vector of m."""
    tgt = space.shifted_key(key, i, step)
    cols = [space.coord_column(image(m), tgt) for m in space.block_basis(key)]
    return [[col[r] for col in cols] for r in range(len(space.block_basis(tgt)))]


def qboson_split(space, i, key, column):
    """The q-boson split of a vector of a block, in block coordinates.

    `space` is a WordAlgebra or a ThetaModule, `key` a block key of it and
    `column` the vector's coordinate column.  With E_i and F_i the block
    protocol's lowering and raising operators, the vector is written as
    sum_n F_i^(n) u_n with E_i u_n = 0.  Returns (n, coordinates of u_n) for
    every nonzero u_n, n ascending; the coordinates are a Multisegment ->
    RatFunc map of the nonzero entries on the basis of u_n's block.
    """
    letter = space.letter(i)
    columns, tags = [], []
    sub = key
    for n in range(dict(key).get(letter, 0) + 1):
        if n:
            sub = space.shifted_key(sub, i, -1)
        size = len(space.block_basis(sub))
        if not size:
            continue
        if dict(sub).get(letter):
            kern = nullspace(space.lower_matrix(i, sub), ncols=size)
        else:
            kern = identity(size)
        scale = RatFunc(1) / RatFunc(qfact(n))
        for vec in kern:
            lifted, cur = vec, sub
            for _ in range(n):
                lifted = mat_vec(space.raise_matrix(i, cur), lifted)
                cur = space.shifted_key(cur, i, +1)
            columns.append([scale * v for v in lifted])
            tags.append((n, vec, sub))
    matrix = [[col[r] for col in columns] for r in range(len(column))]
    lam = solve_rect(matrix, column)
    parts = {}
    for coef, (n, vec, sub) in zip(lam, tags):
        if not coef.is_zero():
            acc = parts.setdefault(n, [[RatFunc.zero()] * len(vec), sub])
            acc[0] = [a + coef * b for a, b in zip(acc[0], vec)]
    out = []
    for n, (col, sub) in sorted(parts.items()):
        coords = {m: c for m, c in zip(space.block_basis(sub), col) if not c.is_zero()}
        if coords:
            out.append((n, coords))
    return out


def modified_root_op(space, i, x, key, step):
    """The modified root operator etilde_i (step -1) or ftilde_i (step +1).

    x is a vector of block `key` of `space`.  With the q-boson split
    x = sum_n F_i^(n) u_n, the result is the sum of F_i^(n+step) u_n over
    n + step >= 0.  Each u_n is rebuilt from the space's own PBW vectors
    (`from_coords`) and raised by its own `F_op`, so the result is the word
    vector representative that these build.
    """
    out = space.from_coords({})
    for n, coords in qboson_split(space, i, key, space.coord_column(x, key)):
        k = n + step
        if k < 0:
            continue
        u = space.from_coords(coords)
        for _ in range(k):
            u = space.F_op(i, u)
        out = out + u.scale(RatFunc(1) / RatFunc(qfact(k)))
    return out
