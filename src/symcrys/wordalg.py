"""Free-algebra model of U_q^-(gl) on a finite odd index window.

Elements are Q(q)-linear combinations of words in the letters f_i.  Equality
in U_q^- (i.e. modulo the Serre ideal) is mediated by the boson-adjoint
bilinear form, which is nondegenerate on the quotient: a homogeneous word vector is
zero in U_q^- iff it pairs to zero with every word of its content.  PBW
elements, their coordinates (via Gram systems) and the modified root
operators are computed per content block.  Results are cached on the algebra
instance: PBW elements by multisegment, and per content block the basis, the
Gram matrix, the e'_i/f_i block matrices and (through `_contexts`, filled by
`symcrys.canonical`) the block's bar matrix and global bases.  A fresh
algebra starts cold.  Cached word vectors and matrices are shared between
callers, who must not mutate them.
"""

from __future__ import annotations

from collections import Counter
from .linalg import SingularMatrixError, nullspace, solve_rect, solve_vector
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


def word_content(word):
    return Counter(word)


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
        cs = {content_key(word_content(w)) for w in self.terms}
        if len(cs) > 1:
            raise ValueError("word vector is not homogeneous")
        return Counter(dict(cs.pop())) if cs else Counter()

    def contents(self):
        return {content_key(word_content(w)) for w in self.terms}

    def homogeneous_parts(self):
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(content_key(word_content(w)), {})[w] = c
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
        self._gram = {}
        self._basis = {}
        self._eprime_mat = {}
        self._fmul_mat = {}
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

    def gram_matrix(self, content):
        """(P(m), P(n)) over the content block, in the crystal-ordered basis."""
        key = content_key(content)
        hit = self._gram.get(key)
        if hit is None:
            basis = self.basis_of_content(dict(key))
            vecs = [self.pbw_element(m) for m in basis]
            hit = [[self.form(u, v) for v in vecs] for u in vecs]
            self._gram[key] = hit
        return hit

    def pbw_coords(self, x, check_residual=False):
        """Coordinates of x in the PBW basis, as a Multisegment -> RatFunc map."""
        out = {}
        for ckey, part in x.homogeneous_parts().items():
            basis = self.basis_of_content(dict(ckey))
            if not basis:
                raise ValueError(f"no PBW basis vectors for content {dict(ckey)}")
            gram = self.gram_matrix(dict(ckey))
            rhs = [self.form(self.pbw_element(m), part) for m in basis]
            try:
                coords = solve_vector(gram, rhs)
            except SingularMatrixError:
                raise SingularMatrixError(
                    f"singular Gram matrix for content {dict(ckey)}"
                )
            for m, c in zip(basis, coords):
                if not c.is_zero():
                    out[m] = c
            if check_residual:
                recon = self.zero()
                for m, c in zip(basis, coords):
                    recon = recon + self.pbw_element(m).scale(c)
                if not self.is_zero_in_uq(part - recon):
                    raise ArithmeticError("PBW coordinate residual is nonzero in U_q^-")
        return out

    def coord_vector(self, x, content):
        """pbw_coords of a homogeneous x, as a dense column on the block basis."""
        coords = self.pbw_coords(x)
        basis = self.basis_of_content(content)
        pos = {m: r for r, m in enumerate(basis)}
        col = [RatFunc.zero()] * len(basis)
        for m, c in coords.items():
            col[pos[m]] = c
        return col

    def from_coords(self, coords):
        out = self.zero()
        for m, c in coords.items():
            out = out + self.pbw_element(m).scale(c)
        return out

    # -- block matrices of e'_i and left multiplication by f_i ------------------

    def eprime_matrix(self, i, content):
        """Matrix of e'_i from the content block to content - alpha_i, PBW coords."""
        key = (i, content_key(content))
        hit = self._eprime_mat.get(key)
        if hit is None:
            content = dict(key[1])
            src = self.basis_of_content(content)
            tgt_content = Counter(content)
            tgt_content[i] -= 1
            if tgt_content[i] < 0:
                raise ValueError(f"content has no letter {i}")
            tgt = self.basis_of_content(tgt_content)
            cols = [self.coord_vector(self.eprime(i, self.pbw_element(m)), tgt_content) for m in src]
            hit = [[cols[c][r] for c in range(len(src))] for r in range(len(tgt))]
            self._eprime_mat[key] = hit
        return hit

    def fmul_matrix(self, i, content):
        """Matrix of left multiplication by f_i, content block -> content + alpha_i."""
        key = (i, content_key(content))
        hit = self._fmul_mat.get(key)
        if hit is None:
            content = dict(key[1])
            src = self.basis_of_content(content)
            tgt_content = Counter(content)
            tgt_content[i] += 1
            fi = self.f(i)
            cols = [
                self.coord_vector(self.mul(fi, self.pbw_element(m)), tgt_content)
                for m in src
            ]
            tgt = self.basis_of_content(tgt_content)
            hit = [[cols[c][r] for c in range(len(src))] for r in range(len(tgt))]
            self._fmul_mat[key] = hit
        return hit

    # -- modified root operators -------------------------------------------------

    def _qboson_components(self, i, x):
        """Split homogeneous x as sum_n f_i^{(n)} u_n with e'_i u_n = 0.

        Returns a list of (n, u_n as dense coords, content of u_n).
        """
        content = x.content()
        if not content:
            return [(0, x)] if not x.is_zero() else []
        t = content.get(i, 0)
        target = self.coord_vector(x, content)
        columns = []
        tags = []
        for n in range(t + 1):
            sub = Counter(content)
            sub[i] -= n
            basis_sub = self.basis_of_content(sub)
            if not basis_sub:
                continue
            if sub.get(i, 0) > 0:
                kern = nullspace(self.eprime_matrix(i, sub), ncols=len(basis_sub))
            else:
                kern = [
                    [RatFunc(1) if r == s else RatFunc.zero() for r in range(len(basis_sub))]
                    for s in range(len(basis_sub))
                ]
            for vec in kern:
                lifted = vec
                cur = Counter(sub)
                for _ in range(n):
                    mat = self.fmul_matrix(i, cur)
                    lifted = [
                        sum((mat[r][c] * lifted[c] for c in range(len(lifted)) if lifted[c]), RatFunc.zero())
                        for r in range(len(mat))
                    ]
                    cur[i] += 1
                scale = RatFunc(1) / RatFunc(qfact(n))
                columns.append([scale * v for v in lifted])
                tags.append((n, vec, sub))
        matrix = [[columns[c][r] for c in range(len(columns))] for r in range(len(target))]
        lam = solve_rect(matrix, target)
        comps = {}
        for coef, (n, vec, sub) in zip(lam, tags):
            if coef.is_zero():
                continue
            acc = comps.setdefault(n, [ [RatFunc.zero()] * len(vec), content_key(sub)])
            acc[0] = [a + coef * b for a, b in zip(acc[0], vec)]
        out = []
        for n, (coords, subkey) in sorted(comps.items()):
            basis_sub = self.basis_of_content(dict(subkey))
            u = self.zero()
            for m, c in zip(basis_sub, coords):
                if not c.is_zero():
                    u = u + self.pbw_element(m).scale(c)
            if not u.is_zero():
                out.append((n, u))
        return out

    def mod_etilde(self, i, x):
        """Modified root operator: sum_{n>=1} f_i^{(n-1)} u_n."""
        if x.is_zero():
            return self.zero()
        fi = self.f(i)
        out = self.zero()
        for n, u in self._qboson_components(i, x):
            if n < 1:
                continue
            piece = u
            for _ in range(n - 1):
                piece = self.mul(fi, piece)
            out = out + piece.scale(RatFunc(1) / RatFunc(qfact(n - 1)))
        return out

    def mod_ftilde(self, i, x):
        """Modified root operator: sum_{n>=0} f_i^{(n+1)} u_n."""
        if x.is_zero():
            return self.zero()
        fi = self.f(i)
        out = self.zero()
        for n, u in self._qboson_components(i, x):
            piece = u
            for _ in range(n + 1):
                piece = self.mul(fi, piece)
            out = out + piece.scale(RatFunc(1) / RatFunc(qfact(n + 1)))
        return out

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
