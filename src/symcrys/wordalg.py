"""Free-algebra model of U_q^-(gl) on a finite odd index window.

Elements are Q(q)-linear combinations of words in the letters f_i.  Equality
in U_q^- (i.e. modulo the Serre ideal) is mediated by the boson-adjoint
bilinear form, which is nondegenerate on the quotient: a homogeneous word vector is
zero in U_q^- iff it pairs to zero with every word of its content.

PBW coordinates are read through one record per content c, built on first
use: the Gram matrix G and the word-coordinate table D_c.  The build reads
the pairings Phi[m][v] = (P(m), v) of the PBW elements off their pairing
rows Phi~(m) = (P~(m), .) and forms G[m][n] = sum_v P(n)_v Phi[m][v] in
full.  The PBW basis is orthogonal (Lusztig, Introduction to Quantum
Groups, ch. 38), and the build checks it: G must be diagonal with nonzero
diagonal entries, or ArithmeticError names the block.  Then
R = G^{-1} = diag(1/G[m][m]), and each word's coordinate column
D_c[v] = R Phi[:, v] is read straight off the rows and stored as its
nonzero entries.  The coordinates of a vector x of c are then the sparse
sum sum_v x_v D_c[v] over x's words.

The pairing rows are built by quantum shuffles.  The form is a Hopf
pairing, so (xy, v) is the sum over the position sets S of v with x's
content of q^(-sum_{a in S, b not in S, a > b} (alpha_{v_a}, alpha_{v_b}))
(x, v_S)(y, v_{S^c}) (`_shuffle_into`).  Each row is the row of the element
one segment smaller shuffled with the row of its lone segment, along the
chain of the PBW elements below; a lone segment is on the chain too, its
row from <i,j> = <i,j-2> f_j - q f_j <i,j-2> by the same identity.  The
memoized word pairings (w, v) of the recursion (f_i a, b) = (a, e'_i b)
serve only `form`: `is_zero_in_uq` and the `gram` suite's independent
check of G.

The e'_i and f_i block matrices are built by a local formula, with no
word and no table (`local_matrix`): each term n of
f_i P(m) = sum q^e [c] P(n) adds <i,i> to m or extends a <i+2,b> of m to
<i,b> (`action_terms`), and the e'_i entry of the same term is its f_i
entry times N_A(n) / N_A(m), a Laurent value read off the term.  The
formula was fitted on the word route and is not a theorem cited here; the
word route (`_image_matrix`: the word images e'_i P(m) and f_i P(m),
`word_image`, read through the target block's table) stays as the
independent side of the `pbw-action` verify suite.

`WordAlgebra` and `symcrys.thetamodule.ThetaModule` implement one
graded-block protocol as their own methods (`basis_of_content`,
`coord_vector`, `gram_matrix`, `lower_matrix` / `raise_matrix`,
`word_image`, ...) on one block key type, the sorted (letter, count) pairs
of `content_key`; the block methods of `WordAlgebra` also take a count map.
This module also holds the code written once over the protocol: the one
cache of the block matrices of both spaces (`operator_matrix`), their
local-formula and word-route builds (`local_matrix`, `_image_matrix`), the
q-boson split (`qboson_split`), read off from the top through the cached
lowering and raising block matrices, and the modified root operators: the column
kernel `modified_root_column`, which splits a coordinate column and raises
each part in block coordinates (`raise_divided`), and its wrapper
`modified_root_op`, which reads a vector's column and builds the result
once from the space's own basis vectors (`from_coords`).

Each PBW element is kept as (1/d(m), P~(m)): P~(m) is the product of the
segment powers, whose coefficients are Laurent, d(m) = prod [a]! over the
multiplicities a, and P(m) = P~(m) / d(m).  Each is built from the element
one segment smaller, m- = m minus one copy of its PBW-smallest segment s of
multiplicity a: P~(m) = P~(m-) <s> and d(m) = d(m-) [a], one word product
per new element (two for a lone segment <i,j> = <i,j-2> f_j - q f_j <i,j-2>);
1/d(m) is the inverse of that Laurent product, which takes no gcd.  The
rows Phi~ are Laurent, Phi = Phi~ / d;
G[m][n] is summed over the words of P~(n) in Laurent arithmetic and divided
by d(m) and d(n) once, and each row's 1/d(m) / G[m][m] is taken once, so
D_c costs no division per word.  Every sum of
products in this module (products of word vectors, e'_i and e*_i,
shuffles, the memoized word pairings, the tables, coordinates and
`from_coords`) is one `ratfunc.dot`; a Gram entry or coordinate with no
product is the shared zero, with no `dot` call.  Block keys of words are
read off a plain letter count.

Results are cached on the algebra instance: the pair (1/d(m), P~(m)), the
row Phi~(m) and P(m) by multisegment (lone segments included), the word
pairings of `form`, e'_i of single words (which e*_i reads too, on the
reversed word: e*_i(w) = rev e'_i(rev w)), the window's segments with
their letter weights (from the first basis request), and per content block
the basis, the record (G, D_c), the e'_i and f_i-left multiplication block
matrices (in the one cache of `operator_matrix`, by step, index and block)
and (through `_contexts`, filled by `symcrys.canonical`) the block's bar
matrix, global bases and multiplicity tables.  A fresh algebra starts
cold.  Cached word vectors and matrices are shared between
callers, who must not mutate them.

Blocks, and (index, block) pairs, that differ by a shift of the window are
computed once: the shift f_i -> f_{i+2} keeps the pairing, the form, bar and
the PBW and crystal orders.  `representative(key, i=None)` (a protocol
method; on `ThetaModule` every block and pair is its own) names the
translate whose lowest letter, among the key's letters and i, is window[0],
and the shift from it.  A translate block takes its representative's record
(G, D_c), every word shifted and G and the entry lists shared; a translate
pair (i, key) takes the e'_i / f_i block matrix of its representative pair
(i - shift, key - shift) in `operator_matrix`; both through
`from_representative`, and a translate whose representative fails a check
(ArithmeticError) computes its own record, so every failure names the block
asked for.  The basis guard runs once per translate block, where its basis
is first enumerated (`basis_of_content`): it must be the shifted basis of
the representative's, in order, or ArithmeticError names the block; every
record shared later is read under that checked basis.  The PBW element and
the pairing row of a translate multisegment, a lone segment as much as any
other, are its representative's, every word shifted; the shift is read
off the segments (`translation_shift`), the value `representative` gives
for the multisegment's content.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .linalg import mat_vec
from .multisegment import (
    Multisegment,
    Segment,
    cartan,
    cry_sort_key,
    of_weighted_content,
    window_segments,
)
from .ratfunc import LaurentPoly, RatFunc, dot, qfact, qint


def content_key(content):
    """The block key of a count map: its (index, count) pairs with nonzero
    count, sorted.  A block key is returned unchanged."""
    if isinstance(content, tuple):
        return content
    return tuple(sorted((i, n) for i, n in content.items() if n))


def _word_key(word):
    """The block key of a word (any sequence of letters): its (letter, count)
    pairs, sorted."""
    count = {}
    for i in word:
        count[i] = count.get(i, 0) + 1
    return tuple(sorted(count.items()))


def shift_key(key, letter, step):
    """The block key with `step` more letters `letter` (fewer, for step < 0)."""
    c = dict(key)
    n = c[letter] = c.get(letter, 0) + step
    if n < 0:
        raise ValueError(f"content {dict(key)} has no letter {letter}")
    return content_key(c)


def contents_up_to(letters, max_degree):
    """The content keys over `letters` of degree 1..max_degree, sorted."""
    return sorted(
        _word_key(c)
        for d in range(1, max_degree + 1)
        for c in combinations_with_replacement(letters, d)
    )


def closed_form_norm(m, theta=False):
    """N_A(m) = (P(m), P(m)), in closed form: the product over the segments s
    of m, of multiplicity a and length l, of
    (1 - q^2)^{(l - 1) a} prod_{k=1}^{a} (1 - q^2) / (1 - q^{2k}).
    With Lusztig's orthogonality of PBW bases (Introduction to Quantum
    Groups, ch. 38) the Gram matrix of a content block is diag(N_A(m)).
    With `theta`, each symmetric segment <-j,j> of multiplicity a also
    divides by prod_{nu=1}^{a} (1 + q^{2 nu}): N_theta(m)
    (`thetamodule.closed_form_norm_theta`).  The Laurent numerator and
    denominator are multiplied out first, and divided once."""
    num = den = LaurentPoly.one()
    for seg, a in m:
        for _ in range(seg.length() * a):
            num = num * LaurentPoly({0: 1, 2: -1})
        for k in range(1, a + 1):
            den = den * LaurentPoly({0: 1, 2 * k: -1})
            if theta and seg.i == -seg.j:
                den = den * LaurentPoly({0: 1, 2 * k: 1})
    return RatFunc(num, den)


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


def dot_vector(pairs, window):
    """The WordVector with coefficient dot(pairs[w]) at each word w."""
    return WordVector({w: dot(p) for w, p in pairs.items()}, window)


def _insertions(x, u):
    """(w, e) for every shuffle w of the word u into the word x, u's letters
    kept in order, with e = -sum (alpha_{x_a}, alpha_{u_b}) over the pairs of
    a letter x_a placed after a letter u_b.  Letter u_b goes after g_b letters
    of x, g_0 <= g_1 <= ..., and costs the suffix sum of x from g_b: for a
    one-letter u this is one suffix-sum loop."""
    n = len(x)
    out = [((), 0, 0)]
    for k in u:
        suf = [0] * (n + 1)
        for g in range(n - 1, -1, -1):
            suf[g] = suf[g + 1] + cartan(k, x[g])
        out = [(w + x[g0:g] + (k,), e - suf[g], g)
               for w, e, g0 in out for g in range(g0, n + 1)]
    return [(w + x[g:], e) for w, e, g in out]


def _shuffle_into(pairs, row_x, row_y, scale):
    """Add scale (xy, .) to `pairs` (word -> list of factor pairs for `dot`),
    from the pairing rows (x, .) and (y, .) (word -> value).  The form is a
    Hopf pairing, so
    (xy, v) = sum_S q^(-sum_{a in S, b not in S, a > b} (alpha_{v_a}, alpha_{v_b}))
              (x, v_S) (y, v_{S^c}),
    S running over the positions of v that carry x's word: every word of
    row_y is shuffled into every word of row_x."""
    for y, cy in row_y.items():
        cy = cy * scale
        twisted = {}
        for x, cx in row_x.items():
            for w, e in _insertions(x, y):
                c = twisted.get(e)
                if c is None:
                    c = twisted[e] = cy * RatFunc.q_power(e)
                pairs.setdefault(w, []).append((cx, c))


def _dot_row(pairs):
    """The pairing row word -> dot(pairs[word]), without its zeros."""
    row = {}
    for w, p in pairs.items():
        c = dot(p)
        if c:
            row[w] = c
    return row


def _lone(seg):
    """The multisegment of one copy of the segment seg."""
    return Multisegment._trusted({seg.key: 1})


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
        cs = self.contents()
        if len(cs) > 1:
            raise ValueError("word vector is not homogeneous")
        return dict(cs.pop()) if cs else {}

    def contents(self):
        return {_word_key(w) for w in self.terms}

    def homogeneous_parts(self):
        parts = {}
        for w, c in self.terms.items():
            parts.setdefault(_word_key(w), {})[w] = c
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
        self._pbw_tilde = {}
        self._rows = {}
        self._pbw = {}
        self._tables = {}
        self._basis = {}
        self._segments = None
        self._operator_mats = {}
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
        pairs = {}
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                pairs.setdefault(w1 + w2, []).append((c1, c2))
        return dot_vector(pairs, self.window)

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
                out[rest] = out.get(rest, RatFunc.zero()) + RatFunc.q_power(twist)
            twist -= cartan(i, letter)
        vec = WordVector(out, self.window)
        self._eprime_word[key] = vec
        return vec

    def eprime(self, i, x):
        """The left derivation e'_i."""
        pairs = {}
        for w, c in x.terms.items():
            for rest, t in self._eprime_on_word(i, w).terms.items():
                pairs.setdefault(rest, []).append((c, t))
        return dot_vector(pairs, self.window)

    def estar(self, i, x):
        """The right derivation e*_i: e'_i read from the other end of each
        word, e*_i(w) = rev e'_i(rev w)."""
        pairs = {}
        for w, c in x.terms.items():
            for rest, t in self._eprime_on_word(i, w[::-1]).terms.items():
                pairs.setdefault(rest[::-1], []).append((c, t))
        return dot_vector(pairs, self.window)

    # -- the bilinear form --------------------------------------------------

    def _form_words(self, w, v):
        if len(w) != len(v):
            return RatFunc.zero()
        if not w:
            return RatFunc(1)
        key = (w, v) if w <= v else (v, w)  # the form is symmetric
        hit = self._form_cache.get(key)
        if hit is not None:
            return hit
        w, v = key
        acc = self._form_cache[key] = dot([
            (c, self._form_words(w[1:], v2))
            for v2, c in self._eprime_on_word(w[0], v).terms.items()
        ])
        return acc

    def form(self, x, y):
        """The bilinear form with (1,1)=1 and (f_i a, b) = (a, e'_i b)."""
        pairs = []
        by_content = y.homogeneous_parts()
        for xc, xpart in x.homogeneous_parts().items():
            ypart = by_content.get(xc)
            if ypart is None:
                continue
            for w, c1 in xpart.terms.items():
                for v, c2 in ypart.terms.items():
                    f = self._form_words(w, v)
                    if not f.is_zero():
                        pairs.append((c1 * c2, f))
        return dot(pairs)

    def words_of_content(self, content):
        """The distinct words of the content, in increasing lexicographic order."""
        return multiset_permutations([i for i, n in content_key(content) for _ in range(n)])

    def is_zero_in_uq(self, x):
        """True iff x lies in the Serre ideal (form against every word vanishes)."""
        for ckey, part in x.homogeneous_parts().items():
            for w in self.words_of_content(ckey):
                probe = WordVector({w: RatFunc(1)}, self.window)
                if not self.form(part, probe).is_zero():
                    return False
        return True

    # -- PBW basis ------------------------------------------------------------

    def pbw_segment(self, i, j):
        """<i,i> = f_i;  <i,j> = <i,j-2><j,j> - q <j,j><i,j-2>: P~ of the lone
        segment (`_pbw_parts`), both ends checked against the window."""
        self.check_index(i)
        self.check_index(j)
        return self._pbw_parts(_lone(Segment(i, j)))[1]

    def _pbw_parts(self, m):
        """(1/d(m), P~(m)) with P(m) = P~(m) / d(m): P~(m) is the ordered
        product of the segment powers, PBW-descending, whose coefficients are
        Laurent, and d(m) is the product of [a]! over the multiplicities a.

        Built from the element one segment smaller: with s the PBW-smallest
        segment of m, a its multiplicity and m- = m - s,
        P~(m) = P~(m-) <s> and d(m) = d(m-) [a], so each new element costs
        one product; P~(0) = 1, P~(<i,i>) = f_i, and a lone segment is
        <i,j> = <i,j-2> f_j - q f_j <i,j-2>.  d(m-) [a] = [a] / (1/d(m-)) is
        Laurent, so 1/d(m) is read as the inverse of a Laurent value, with no
        gcd.  The chain down from m is cached with it.  A translate by
        `shift` (`translation_shift`) takes the parts of m shifted by
        -shift, every word shifted: the construction is products and
        q-scalars only, so this is exact."""
        hit = self._pbw_tilde.get(m)
        if hit is None:
            shift = self.translation_shift(m)
            if not m:
                hit = (RatFunc(1), self.one())
            elif shift:
                inv_d, tilde = self._pbw_parts(m.shifted(-shift))
                hit = (inv_d, WordVector(
                    {tuple(k + shift for k in w): c for w, c in tilde.terms.items()},
                    self.window))
            else:
                seg = min((seg for seg, _ in m), key=Segment.pbw_key)
                rest = m.remove(seg)
                if rest:
                    inv_d, tilde = self._pbw_parts(rest)
                    a = m.entries[seg.key]
                    if a > 1:
                        inv_d = RatFunc(1) / (RatFunc(qint(a)) / inv_d)
                    hit = (inv_d, self.mul(tilde, self._pbw_parts(_lone(seg))[1]))
                elif seg.i == seg.j:
                    hit = (RatFunc(1), self.f(seg.i))
                else:
                    fj = self.f(seg.j)
                    prev = self._pbw_parts(_lone(Segment(seg.i, seg.j - 2)))[1]
                    hit = (RatFunc(1), self.mul(prev, fj)
                           - self.mul(fj, prev).scale(RatFunc.q_power(1)))
            self._pbw_tilde[m] = hit
        return hit

    def translation_shift(self, m):
        """The shift of m's content from its representative, read off the
        segments: min i over the segments <i,j> of m minus window[0], or 0
        for m = 0 or a letter outside the window.  The value
        `representative(content_key(m.content()))` gives, with no count map."""
        if not m:
            return 0
        win = self.window
        low = min(i for i, _ in m.entries)
        if low < win[0] or max(j for _, j in m.entries) > win[-1]:
            return 0
        return low - win[0]

    def _row_tilde(self, m):
        """Phi~(m) = (P~(m), .) as a row word -> nonzero Laurent value, along
        the chain of `_pbw_parts`: Phi~(m) = Phi~(m-) shuffled with the row
        of the lone PBW-smallest segment s (`_shuffle_into`), Phi~(0) is 1 on
        the empty word and (f_i, .) is 1 on the word (i,); a lone segment
        <i,j> = <i,j-2> f_j - q f_j <i,j-2> takes the same two shuffles.  A
        translate by `shift` (`translation_shift`) takes the row of m
        shifted by -shift, every word shifted.  Cached by multisegment."""
        hit = self._rows.get(m)
        if hit is None:
            shift = self.translation_shift(m)
            if not m:
                hit = {(): RatFunc(1)}
            elif shift:
                hit = {tuple(k + shift for k in w): c
                       for w, c in self._row_tilde(m.shifted(-shift)).items()}
            else:
                seg = min((seg for seg, _ in m), key=Segment.pbw_key)
                rest, pairs = m.remove(seg), {}
                if rest:
                    _shuffle_into(pairs, self._row_tilde(rest),
                                  self._row_tilde(_lone(seg)), RatFunc(1))
                elif seg.i == seg.j:
                    pairs[(seg.i,)] = [(RatFunc(1), RatFunc(1))]
                else:
                    prev = self._row_tilde(_lone(Segment(seg.i, seg.j - 2)))
                    fj = {(seg.j,): RatFunc(1)}
                    _shuffle_into(pairs, prev, fj, RatFunc(1))
                    _shuffle_into(pairs, fj, prev, -RatFunc.q_power(1))
                hit = _dot_row(pairs)
            self._rows[m] = hit
        return hit

    def pbw_element(self, m):
        """P(m): ordered product of divided segment powers, PBW-descending,
        read as P~(m) (1/d(m))."""
        hit = self._pbw.get(m)
        if hit is None:
            inv_d, tilde = self._pbw_parts(m)
            # 1/d(m) is Laurent only when d(m) = 1: then P(m) is P~(m) itself.
            hit = self._pbw[m] = tilde if inv_d.in_A() else tilde.scale(inv_d)
        return hit

    def basis_of_content(self, content):
        """Multisegments of the content, ordered descending in the crystal
        order.  The basis guard runs here, once per translate block by
        `shift` (`representative`): its basis must be its representative's
        with every multisegment shifted by `shift`, in order, or
        ArithmeticError names the block; a basis is cached only once it
        passed."""
        key = content_key(content)
        hit = self._basis.get(key)
        if hit is None:
            if self._segments is None:
                segs = window_segments(self.window)
                self._segments = (segs, [dict.fromkeys(seg.indices(), 1) for seg in segs])
            ms = of_weighted_content(*self._segments, dict(key))
            hit = sorted(ms, key=cry_sort_key, reverse=True)
            rep, shift = self.representative(key)
            if shift and hit != [m.shifted(shift) for m in self.basis_of_content(rep)]:
                raise ArithmeticError(
                    f"{self.block_label(key)}: basis is not the basis of "
                    f"{self.block_label(rep)} shifted by {shift}"
                )
            self._basis[key] = hit
        return hit

    def _table(self, key):
        """The record (G, D_c) of the content block, built once: the Gram
        matrix G and the word-coordinate table D_c, each word v -> the
        nonzero entries (m, c) of its PBW coordinate column R Phi[:, v].
        A translate by `shift` takes its representative's record, every word
        shifted, with G and the entry lists shared (`from_representative`)."""
        hit = self._tables.get(key)
        if hit is None:
            found = from_representative(self, key, lambda rep, shift: (self._table(rep), shift))
            if found is None:
                hit = self._word_table(key)
            else:
                (gram, table), shift = found
                hit = (gram, {tuple(i + shift for i in v): e for v, e in table.items()})
            self._tables[key] = hit
        return hit

    def _word_table(self, key):
        """The record (G, D_c) of the content block, computed from its PBW
        elements and their pairing rows Phi~(m) = (P~(m), .) (`_row_tilde`).

        G[m][n] = (P(m), P(n)) = (1/d(m))(1/d(n)) sum over the words v of
        P~(n) of P~(n)_v Phi~(m)[v], the sum in Laurent arithmetic.  The PBW
        basis is orthogonal, so G must be diagonal with nonzero diagonal
        entries, or ArithmeticError names the block and the row's basis
        element; R = G^{-1} = diag(1/G[m][m]), and R G = I holds exactly.
        Then D_c[v] = R Phi[:, v] with Phi = Phi~ / d is read straight off
        the rows, D_c[v][m] = Phi~(m)[v] (1/d(m)) / G[m][m], one product per
        nonzero entry of a row.  D_c is kept on the words where some row is
        nonzero; the column of any other word is zero."""
        basis = self.basis_of_content(key)
        if not basis:
            raise ValueError(f"no PBW basis vectors for content {dict(key)}")
        parts = [self._pbw_parts(m) for m in basis]
        rows = [self._row_tilde(m) for m in basis]
        gram = []
        for (inv_m, _), row in zip(parts, rows):
            g = []
            for inv_n, tilde in parts:
                pairs = [(c, row[v]) for v, c in tilde.terms.items() if v in row]
                g.append((dot(pairs) * inv_m) * inv_n if pairs else RatFunc.zero())
            gram.append(g)
        table = {}
        for r, (m, g, (inv_d, _), row) in enumerate(zip(basis, gram, parts, rows)):
            if not g[r] or any(x for c, x in enumerate(g) if c != r):
                raise ArithmeticError(
                    f"{self.block_label(key)}: Gram matrix is not an invertible "
                    f"diagonal in the row of {m}"
                )
            scale = inv_d / g[r]
            for v, c in row.items():
                table.setdefault(v, []).append((r, c * scale))
        return gram, table

    def gram_matrix(self, content):
        """(P(m), P(n)) over the content block, in the crystal-ordered basis,
        read from the block's record."""
        return self._table(content_key(content))[0]

    def pbw_coords(self, x):
        """Coordinates of x in the PBW basis, as a Multisegment -> RatFunc map."""
        out = {}
        for ckey, part in x.homogeneous_parts().items():
            basis = self.basis_of_content(ckey)
            for m, c in zip(basis, self.coord_vector(part, ckey)):
                if not c.is_zero():
                    out[m] = c
        return out

    def coord_vector(self, x, content):
        """Coordinates of a vector x of the content block on its PBW basis, as
        a dense column: the sum of x_v D_c[v] over the words v of x, read from
        the block's word-coordinate table.  Words of another content pair to
        zero."""
        key = content_key(content)
        table = self._table(key)[1]
        pairs = [[] for _ in self.basis_of_content(key)]
        for v, c in x.terms.items():
            for m, d in table.get(v, ()):
                pairs[m].append((c, d))
        return [dot(p) if p else RatFunc.zero() for p in pairs]

    def from_coords(self, coords):
        pairs = {}
        for m, c in coords.items():
            for w, p in self.pbw_element(m).terms.items():
                pairs.setdefault(w, []).append((c, p))
        return dot_vector(pairs, self.window)

    # -- block matrices of e'_i and of left multiplication by f_i -----------------

    def eprime_matrix(self, i, content):
        """Matrix of e'_i from the content block to content - alpha_i, PBW
        coords, by the local formula (`local_matrix`)."""
        return operator_matrix(self, i, content_key(content), -1, local_matrix)

    def fmul_matrix(self, i, content):
        """Matrix of left multiplication by f_i, content block -> content +
        alpha_i, PBW coords, by the local formula (`local_matrix`)."""
        return operator_matrix(self, i, content_key(content), +1, local_matrix)

    def word_image(self, i, m, step):
        """The word vector e'_i P(m) (step -1) or f_i P(m) (step +1): the
        image of a basis vector on the word route (`_image_matrix`)."""
        if step < 0:
            return self.eprime(i, self.pbw_element(m))
        return self.mul(self.f(i), self.pbw_element(m))

    # -- modified root operators -------------------------------------------------

    def mod_etilde(self, i, x):
        """Modified root operator: sum_{n>=1} f_i^{(n-1)} u_n."""
        return modified_root_op(self, i, x, content_key(x.content()), -1)

    def mod_ftilde(self, i, x):
        """Modified root operator: sum_{n>=0} f_i^{(n+1)} u_n."""
        return modified_root_op(self, i, x, content_key(x.content()), +1)

    # -- the rest of the graded-block protocol (shared with ThetaModule) ----------
    #
    # A block is keyed by its content key; the lowering operator is e'_i and
    # the raising operator is left multiplication by f_i.

    def letter(self, i):
        """The letter of the grading that index i moves."""
        return i

    def block_keys(self, max_degree):
        return contents_up_to(self.window, max_degree)

    def block_label(self, key):
        return f"content {dict(key)}"

    def representative(self, key, i=None):
        """(rep_key, shift) with key the translate of rep_key by `shift`, and
        for a pair (i, key) the pair (i - shift, rep_key): the translate whose
        lowest letter, among the key's letters and i, is window[0].  The
        index shift f_i -> f_{i+2} keeps the pairing, the form, bar and the
        PBW and crystal orders, so a block and its translates have the same
        block matrices, and a pair and its translates the same e'_i and f_i
        matrices.  () without i and a key or i with a letter outside the
        window are their own representatives (shift 0)."""
        win = self.window
        low = key[0][0] if key else i
        if i is not None and i < low:
            low = i
        if (low is None or low == win[0] or (i is not None and i not in win)
                or any(k not in win for k, _ in key)):
            return key, 0
        shift = low - win[0]
        return tuple((k - shift, n) for k, n in key), shift

    def shifted_key(self, key, i, step):
        return shift_key(key, i, step)

    def lower_matrix(self, i, key):
        return self.eprime_matrix(i, key)

    def raise_matrix(self, i, key):
        return self.fmul_matrix(i, key)

    def bar_column(self, m, key):
        """Coordinate column of bar(P(m)) on the block of m."""
        return self.coord_vector(self.pbw_element(m).bar(), key)

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

def from_representative(space, key, shared, i=None, step=0):
    """The record `shared(rep_key, shift)` of the representative of block
    `key`, or of the pair (i, key) when i is given (`space.representative`),
    for a translate; None when key is its own representative or when
    `shared` raises an ArithmeticError (a failed check): the translate then
    computes its own record, so the failure names the block asked for.  The
    translate's basis, and for a step of `step` letters i that of its target
    block, is enumerated first, which runs the basis guard of
    `WordAlgebra.basis_of_content` the first time."""
    rep, shift = space.representative(key, i)
    if not shift:
        return None
    space.basis_of_content(key)
    if step:
        space.basis_of_content(space.shifted_key(key, i, step))
    try:
        return shared(rep, shift)
    except ArithmeticError:  # recomputed on the translate, which raises its own error
        return None


def operator_matrix(space, i, key, step, build):
    """The matrix, in block coordinates, of the space's lowering (step -1)
    or raising (step +1) operator along index i from block `key` to the
    block `step` letters i away.  The one block-matrix cache of both spaces,
    by (step, i, key): a translate pair (i, key) by `shift` takes the matrix
    of its representative pair (i - shift, key - shift) from the space's
    `lower_matrix` or `raise_matrix`, through `from_representative`; any
    other pair's is `build(space, i, key, step)`."""
    cache_key = (step, i, key)
    hit = space._operator_mats.get(cache_key)
    if hit is None:
        op = space.lower_matrix if step < 0 else space.raise_matrix
        hit = from_representative(space, key, lambda rep, shift: op(i - shift, rep), i, step)
        if hit is None:
            hit = build(space, i, key, step)
        space._operator_mats[cache_key] = hit
    return hit


def action_terms(i, m):
    """The terms of f_i P(m) = sum q^e [c] P(n), as (n, f_i entry, e'_i
    entry) triples, the entries Laurent values.

    n adds <i,i> to m (b = i), or extends one copy of a distinct <i+2,b> of
    m to <i,b>; e = #{<i+2,j> in m : j > b} - #{<i,j> in m : j > b}, counted
    with multiplicity, and c is the multiplicity of <i,b> in n.  The e'_i
    entry is the coefficient of P(m) in e'_i P(n), F[n][m] N_A(n) / N_A(m)
    by adjointness with `closed_form_norm`: q^(e+1-c) (1 - q^(2a)) when the
    term extends a <i+2,b> of multiplicity a in m, q^(e+1-c) when it adds
    <i,i>.  The formula was fitted on the word route, which the `pbw-action`
    suite compares with it matrix for matrix."""
    up, at = {}, {}
    for (a, b), n in m.entries.items():
        if a == i + 2:
            up[b] = n
        elif a == i:
            at[b] = n
    out = []
    for b in [i, *up]:
        e = (sum(n for j, n in up.items() if j > b)
             - sum(n for j, n in at.items() if j > b))
        c = at.get(b, 0) + 1
        x = e + 1 - c
        if b == i:
            n, eprime = m.add(Segment(i, i)), {x: 1}
        else:
            n, eprime = m.swap(Segment(i + 2, b), Segment(i, b)), {x: 1, x + 2 * up[b]: -1}
        f = LaurentPoly({e + c - 1 - 2 * nu: 1 for nu in range(c)})
        out.append((n, RatFunc(f), RatFunc(LaurentPoly(eprime))))
    return out


def local_matrix(space, i, key, step):
    """The f_i (step +1) or e'_i (step -1) block matrix from block `key`,
    read off `action_terms` with no word: the f_i matrix from the terms of
    each source basis vector, the e'_i matrix from the terms of each target
    basis vector.  Serves the type-A blocks and the theta blocks at an index
    i > 0, whose P_theta bases the formula maps the same way."""
    tgt = space.shifted_key(key, i, step)
    src, dst = space.basis_of_content(key), space.basis_of_content(tgt)
    zero = RatFunc.zero()
    out = [[zero] * len(src) for _ in dst]
    if step > 0:
        row = {n: r for r, n in enumerate(dst)}
        for c, m in enumerate(src):
            for n, f, _ in action_terms(i, m):
                out[row[n]][c] = f
    else:
        col = {n: c for c, n in enumerate(src)}
        for r, m in enumerate(dst):
            for n, _, eprime in action_terms(i, m):
                out[r][col[n]] = eprime
    return out


def _image_matrix(space, i, key, step):
    """The block matrix whose columns are the target-block coordinates of
    the word images `space.word_image(i, m, step)` over the basis of block
    `key`: the word route, which builds the target block."""
    tgt = space.shifted_key(key, i, step)
    cols = [space.coord_vector(space.word_image(i, m, step), tgt)
            for m in space.basis_of_content(key)]
    return [[col[r] for col in cols] for r in range(len(space.basis_of_content(tgt)))]


def raise_divided(space, i, key, column, n):
    """The column of F_i^(n) x = F_i^n x / [n]! for x of block `key`, given
    by its coordinate column: n products with the raising block matrices."""
    for _ in range(n):
        column = mat_vec(space.raise_matrix(i, key), column)
        key = space.shifted_key(key, i, +1)
    scale = RatFunc(1) / RatFunc(qfact(n))
    return [scale * c for c in column]


def qboson_split(space, i, key, column):
    """The q-boson split x = sum_n F_i^(n) u_n with E_i u_n = 0 of the vector
    x of block `key` of `space` (a WordAlgebra or a ThetaModule) with
    coordinate column `column`, for the protocol's lowering and raising
    operators E_i and F_i.  Returns (n, block key of u_n, column of u_n) for
    every nonzero u_n, n ascending.

    The parts are read off from the top.  E_i F_i = q^-2 F_i E_i + 1 gives
    E_i^N F_i^(N) u = q^{-N(N-1)/2} u when E_i u = 0, and E_i^N kills the
    parts below N; so for the largest N with E_i^N x != 0,
    u_N = q^{N(N-1)/2} E_i^N x, and x - F_i^(N) u_N has a smaller N.  A step
    that does not lower N means the relation fails: ArithmeticError.
    """
    letter = space.letter(i)
    parts = []
    while any(column):
        top, sub, n = column, key, 0
        while dict(sub).get(letter):
            low = mat_vec(space.lower_matrix(i, sub), top)
            if not any(low):
                break
            top, sub, n = low, space.shifted_key(sub, i, -1), n + 1
        if parts and n >= parts[-1][0]:
            raise ArithmeticError(
                f"q-boson split along index {i} on {space.block_label(key)}: "
                f"a step does not lower N = {n}"
            )
        u = [RatFunc.q_power(n * (n - 1) // 2) * c for c in top]
        parts.append((n, sub, u))
        column = [a - b for a, b in zip(column, raise_divided(space, i, sub, u, n))]
    return parts[::-1]


def modified_root_column(space, i, key, column, step):
    """The modified root operator etilde_i (step -1) or ftilde_i (step +1)
    in block coordinates.

    `column` is the coordinate column of a vector x of block `key` of
    `space`.  With the q-boson split x = sum_n F_i^(n) u_n, the result is
    the sum of F_i^(n+step) u_n over n + step >= 0: its column on the block
    `step` letters i away, or None when no part survives (the result is 0).
    """
    cols = [
        raise_divided(space, i, sub, u, n + step)
        for n, sub, u in qboson_split(space, i, key, column)
        if n + step >= 0
    ]
    if not cols:
        return None
    return [sum(c, RatFunc.zero()) for c in zip(*cols)]


def modified_root_op(space, i, x, key, step):
    """The modified root operator etilde_i (step -1) or ftilde_i (step +1)
    of the vector x of block `key` of `space`: `modified_root_column` on
    x's coordinate column, built once from the space's own basis vectors
    (`from_coords`)."""
    total = modified_root_column(space, i, key, space.coord_vector(x, key), step)
    if total is None:
        return space.from_coords({})
    basis = space.basis_of_content(space.shifted_key(key, i, step))
    return space.from_coords({m: c for m, c in zip(basis, total) if c})
