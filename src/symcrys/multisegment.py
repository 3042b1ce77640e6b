"""Segments, multisegments, PBW/crystal orderings and the type-A crystal on them.

Indices are odd integers.  The crystal operators come in two independent
implementations: the closed formulas (epsilon / etilde / ftilde) and the
plus-minus signature algorithm (signature_ops); they must agree everywhere
and the test suite cross-checks them exhaustively.  The two routes share no
helper: the closed formulas edit the entries through `_edited`, the signature
route through `swap`/`add`/`remove`.  The three closed formulas share one scan
per (i, m): `_A_extremes` keeps its last result in a one-entry memo, so
epsilon, etilde and ftilde asked back to back at one (i, m) scan it once.
The signature route never reads the memo.

Segments are interned per process: `Segment(i, j)` validates a pair the first
time it is made and afterwards returns that same immutable instance, so
segments compare by identity and carry a stored hash.  Each also carries its
interned key, one exact (i, j) int tuple (`Segment.key`).  A multisegment's
`entries` dict maps these keys, not the Segment objects, to positive int
counts: a dict of ints and untracked tuples is left alone by the cyclic
collector, and so is every copy of it, and a lookup hashes two ints in C.
(A key tuple itself is untracked by the first collection after its segment
is made.)
Only interned keys are ever stored, since a fresh tuple would make the dict
tracked again.  Iterating a multisegment yields (Segment, count) pairs in
insertion order.  A multisegment's hash is computed on first use.  Results
of `add`/`remove`, the enumerators and the crystal operators are built from
segments already known to be valid and are not re-validated; the public
`Multisegment(...)` constructor checks its input.
A closed-formula result is one copy of the input's entries, edited in place
with the interned keys.  Content enumeration searches only the segments
that fit the content.
"""

from __future__ import annotations

import json
from collections import Counter


def cartan(i, j):
    """The pairing (alpha_i, alpha_j) on odd indices."""
    if i == j:
        return 2
    if abs(i - j) == 2:
        return -1
    return 0


def _integral(x):
    """Whether x equals an int (an integral float or a bool does)."""
    try:
        return int(x) == x
    except (TypeError, ValueError, OverflowError):
        return False


def _count(n, seg):
    """The int an integral count n of seg equals; TypeError otherwise."""
    if not _integral(n):
        raise TypeError(f"count {n!r} of {seg} is not an integer")
    return int(n)


_SEGMENTS = {}  # interned (i, j) key -> the interned Segment; holds only valid pairs


class Segment:
    """The interval of odd integers from i to j, denoted <i,j>.

    One immutable instance per (i, j), validated when first made; `key` is
    the interned (i, j) tuple that multisegment entries are keyed by.
    """

    __slots__ = ("i", "j", "key", "_hash")

    def __new__(cls, i, j):
        seg = _SEGMENTS.get((i, j))
        if seg is not None:
            return seg
        if not (_integral(i) and _integral(j)):
            raise TypeError(f"segment endpoints must be integers: <{i!r},{j!r}>")
        i, j = int(i), int(j)  # an integral float is stored as the int it equals
        if i % 2 == 0 or j % 2 == 0:
            raise ValueError(f"segment endpoints must be odd: <{i},{j}>")
        if i > j:
            raise ValueError(f"segment needs i <= j: <{i},{j}>")
        key = (i, j)
        seg = object.__new__(cls)
        object.__setattr__(seg, "i", i)
        object.__setattr__(seg, "j", j)
        object.__setattr__(seg, "key", key)
        object.__setattr__(seg, "_hash", hash(key))
        _SEGMENTS[key] = seg
        return seg

    def __setattr__(self, name, value):
        raise AttributeError(f"Segment is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Segment is immutable; cannot delete {name!r}")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return Segment, (self.i, self.j)

    def indices(self):
        return range(self.i, self.j + 1, 2)

    def length(self):
        return (self.j - self.i) // 2 + 1

    def is_theta_restricted(self):
        return -self.j <= self.i

    def pbw_key(self):
        """Sort key realizing the PBW ordering (bigger key = bigger segment)."""
        return (self.j, self.i)

    def cry_key(self):
        """Sort key realizing the crystal ordering."""
        return (self.j, -self.i)

    def __str__(self):
        return f"<{self.i}>" if self.i == self.j else f"<{self.i},{self.j}>"

    def __repr__(self):
        return f"Segment(i={self.i!r}, j={self.j!r})"


def _segment(seg):
    """seg itself, or the interned Segment of an (i, j) pair."""
    return seg if seg.__class__ is Segment else Segment(*seg)


def cmp_pbw(s1, s2):
    """PBW ordering: -1, 0 or 1."""
    a, b = s1.pbw_key(), s2.pbw_key()
    return (a > b) - (a < b)


def cmp_cry(s1, s2):
    """Crystal ordering on segments: -1, 0 or 1."""
    a, b = s1.cry_key(), s2.cry_key()
    return (a > b) - (a < b)


class Multisegment:
    """A finite multiset of segments (immutable).

    `entries` maps each segment's interned key (`Segment.key`) to its
    positive count; iteration yields (Segment, count) pairs.  The public
    constructor takes a dict or pairs keyed by Segments or (i, j) pairs and
    integral counts (an integral value is stored as the int it equals).
    """

    __slots__ = ("entries", "_hash")

    def __init__(self, entries=None):
        d = {}
        if entries is not None:
            items = entries.items() if isinstance(entries, dict) else entries
            for seg, mult in items:
                seg = _segment(seg)
                if not _integral(mult):
                    raise TypeError(f"multiplicity {mult!r} of {seg} is not an integer")
                mult = int(mult)  # an integral float or bool is stored as the int it equals
                if mult < 0:
                    raise ValueError(f"negative multiplicity for {seg}")
                if mult:
                    key = seg.key
                    d[key] = d.get(key, 0) + mult
        self.entries = d
        self._hash = None

    @classmethod
    def _trusted(cls, entries):
        """Wrap a dict of interned segment keys to positive int counts; no
        checks, no copy."""
        m = object.__new__(cls)
        m.entries = entries
        m._hash = None
        return m

    @staticmethod
    def empty():
        return Multisegment._trusted({})

    def __eq__(self, other):
        if not isinstance(other, Multisegment):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        h = self._hash
        if h is None:
            h = self._hash = hash(frozenset(self.entries.items()))
        return h

    def __bool__(self):
        return bool(self.entries)

    def __iter__(self):
        """(Segment, count) pairs in insertion order."""
        segs = _SEGMENTS
        return ((segs[key], n) for key, n in self.entries.items())

    def __reduce__(self):
        # rebuilt through the constructor, which re-interns the keys
        return Multisegment, (list(self.entries.items()),)

    def mult(self, i, j=None):
        """Multiplicity of <i,j>; 0 for formally invalid index pairs."""
        return self.entries.get((i, i if j is None else j), 0)

    def add(self, seg, n=1):
        """m with n more copies of seg (a Segment or an (i, j) pair); n must
        be integral, as in the constructor."""
        seg = _segment(seg)
        if n.__class__ is not int:
            n = _count(n, seg)
        key = seg.key
        d = dict(self.entries)
        c = d.get(key, 0) + n
        if c < 0:
            raise ValueError(f"removing absent segment {seg}")
        if c:
            d[key] = c
        else:
            d.pop(key, None)
        return Multisegment._trusted(d)

    def remove(self, seg, n=1):
        """m with n fewer copies of seg; n must be integral."""
        if n.__class__ is not int:
            n = _count(n, _segment(seg))
        return self.add(seg, -n)

    def swap(self, old, new):
        """remove(old).add(new) with one copy of the entries; `old` must be
        present.  Each is a Segment or an (i, j) pair."""
        old, new = _segment(old), _segment(new)
        d = dict(self.entries)
        key = old.key
        c = d.get(key, 0) - 1
        if c < 0:
            raise ValueError(f"removing absent segment {old}")
        if c:
            d[key] = c
        else:
            del d[key]
        key = new.key
        d[key] = d.get(key, 0) + 1
        return Multisegment._trusted(d)

    def content(self):
        """Letter count per index: <i,j> contributes 1 to each of i, i+2, ..., j."""
        c = Counter()
        for (i, j), mult in self.entries.items():
            for k in range(i, j + 1, 2):
                c[k] += mult
        return c

    def degree(self):
        return sum(((j - i) // 2 + 1) * mult for (i, j), mult in self.entries.items())

    def shifted(self, step):
        """The translate of m: each segment <i,j> becomes <i+step,j+step>
        (step even)."""
        return Multisegment._trusted(
            {Segment(i + step, j + step).key: n for (i, j), n in self.entries.items()}
        )

    def segments_desc_pbw(self):
        return sorted((seg for seg, _ in self), key=Segment.pbw_key, reverse=True)

    def is_theta_restricted(self):
        return all(-j <= i for i, j in self.entries)

    def __str__(self):
        if not self.entries:
            return "0"
        parts = []
        for seg in self.segments_desc_pbw():
            m = self.entries[seg.key]
            parts.append(str(seg) if m == 1 else f"{m}{seg}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Multisegment({str(self)})"

    # -- JSON wire format --------------------------------------------------

    def to_json_obj(self):
        return [
            {"i": seg.i, "j": seg.j, "mult": mult}
            for seg, mult in sorted(self, key=lambda kv: kv[0].pbw_key(), reverse=True)
        ]

    def to_json(self):
        return json.dumps(self.to_json_obj())

    @staticmethod
    def from_json_obj(obj):
        if not isinstance(obj, list):
            raise ValueError("multisegment JSON must be an array")
        entries = {}
        for rec in obj:
            ends = rec["i"], rec["j"]
            for end in ends:
                if type(end) is not int:  # a JSON integer; no float or boolean
                    raise TypeError(f"segment endpoint {json.dumps(end)} is not an integer")
            seg = Segment(*ends)
            mult = rec["mult"]
            if type(mult) is not int:
                raise TypeError(f"multiplicity {json.dumps(mult)} of {seg} is not an integer")
            if mult < 0:  # refused per record, before the records of a segment are summed
                raise ValueError(f"negative multiplicity {mult} for {seg}")
            entries[seg] = entries.get(seg, 0) + mult
        return Multisegment(entries)


def cmp_cry_multiseg_raw(m1, m2):
    """Lexicographic crystal comparison: -1, 0 or 1 as `cry_sort_key` orders
    m1 and m2; no content precondition (used for theta blocks)."""
    a, b = cry_sort_key(m1), cry_sort_key(m2)
    return (a > b) - (a < b)


def cmp_cry_multiseg(m1, m2):
    """Crystal ordering on multisegments of one weight block."""
    if m1.content() != m2.content():
        raise ValueError("crystal comparison requires equal content")
    return cmp_cry_multiseg_raw(m1, m2)


def cry_sort_key(m):
    """Sort key of the crystal order on multisegments: the (segment crystal
    key, count) pairs of m in decreasing crystal order.  Two such tuples first
    differ at the largest segment whose counts differ, where the larger count,
    or the segment present in only one of them, wins."""
    return tuple(sorted((((j, -i), n) for (i, j), n in m.entries.items()), reverse=True))


# ---------------------------------------------------------------------------
# crystal operators, closed-formula route
# ---------------------------------------------------------------------------

_A_last = (None, None, None)  # (i, m, (eps, k_e, k_f)) of the last scan


def _A_extremes(i, m):
    """(eps, k_e, k_f) for the values A_k = A_k^{(i)}(m) at odd k >= i.

    A_k = sum over k' >= k of mult<i,k'> - mult<i+2,k'+2>, which is 0 beyond
    the support of m.  eps = max(0, max_k A_k), and k_e / k_f are the largest
    and smallest k with A_k = eps.  One pass over the segments collects the
    differences; a suffix sum from the top of the support accumulates them.
    With no segment starting at i or i+2 every A_k is 0: (0, i+2, i).

    `_A_last` keeps the last scan, so epsilon, etilde and ftilde called back
    to back at one (i, m) scan it once.  It matches m by identity and holds
    it, so no other multisegment can take m's id while it is the key; like
    the cached hash, it relies on a multisegment never changing once made.
    """
    global _A_last
    last_i, last_m, last = _A_last
    if last_m is m and last_i == i:
        return last
    top = i
    i2 = i + 2
    diff = {}
    for (a, b), n in m.entries.items():
        if a == i:
            k = b
            diff[k] = diff.get(k, 0) + n
        elif a == i2:
            k = b - 2
            diff[k] = diff.get(k, 0) - n
        else:
            continue
        if k > top:
            top = k
    if diff:
        eps = acc = 0
        k_e = k_f = top + 2
        for k in range(top, i - 1, -2):
            acc += diff.get(k, 0)
            if acc > eps:
                eps, k_e, k_f = acc, k, k
            elif acc == eps:
                k_f = k
        last = eps, k_e, k_f
    else:
        last = 0, i2, i
    _A_last = i, m, last
    return last


def _edited(m, old, new):
    """m with one copy of the segment <old> taken out, then one copy of <new>
    put in, on one copy of the entries; `old` and `new` are (i, j) pairs or
    None.  The entries keep the order that remove(old) then add(new) gives;
    a stored key is always the segment's interned one.  Taking out an absent
    segment raises ValueError."""
    d = dict(m.entries)
    if old is not None:
        c = d.get(old, 0) - 1
        if c < 0:
            raise ValueError(f"removing absent segment {Segment(*old)}")
        if c:
            d[_SEGMENTS[old].key] = c
        else:
            del d[old]
    if new is not None:
        key = (_SEGMENTS.get(new) or Segment(*new)).key
        d[key] = d.get(key, 0) + 1
    return Multisegment._trusted(d)


def epsilon(i, m):
    """epsilon_i(m) = max(0, max_k A_k^{(i)}(m))."""
    return _A_extremes(i, m)[0]


def etilde(i, m):
    """The modified root operator, or None when epsilon_i(m) = 0:
    <i,k_e> becomes <i+2,k_e>, or is dropped when k_e = i."""
    eps, k_e, _ = _A_extremes(i, m)
    if eps == 0:
        return None
    return _edited(m, (i, k_e), (i + 2, k_e) if k_e != i else None)


def ftilde(i, m):
    """<i+2,k_f> becomes <i,k_f>, or <i> is added when k_f = i."""
    _, _, k_f = _A_extremes(i, m)
    return _edited(m, (i + 2, k_f) if k_f != i else None, (i, k_f))


# ---------------------------------------------------------------------------
# crystal operators, signature-algorithm route (independent oracle)
# ---------------------------------------------------------------------------

def signature_ops(i, m):
    """(epsilon, etilde result, ftilde result) via the +/- signature algorithm.

    Scans the segments <i,j> (sign -) and <i+2,j> (sign +) in decreasing
    crystal order and cancels +- pairs.  Equal signs of one segment are kept
    as one run [segment key, copies]; the reduced signature is -...- +...+.
    """
    relevant = []
    for seg, n in m.entries.items():  # seg: the key (a, b) of <a,b>
        a, b = seg
        if a == i:
            relevant.append(((b, -a), "-", seg, n))
        elif a == i + 2:
            relevant.append(((b, -a), "+", seg, n))
    relevant.sort(reverse=True)
    minus = []  # runs of uncancelled -, left to right
    plus = []   # runs of uncancelled +, left to right
    for _, sign, seg, n in relevant:
        if sign == "+":
            plus.append([seg, n])
            continue
        while n and plus:
            run = plus[-1]
            take = min(n, run[1])
            n -= take
            run[1] -= take
            if not run[1]:
                plus.pop()
        if n:
            minus.append([seg, n])
    eps = sum(n for _, n in minus)

    if minus:
        seg = minus[-1][0]  # rightmost -
        e_out = m.swap(seg, (i + 2, seg[1])) if seg[1] != i else m.remove(seg)
    else:
        e_out = None

    if plus:
        seg = plus[0][0]  # leftmost +
        f_out = m.swap(seg, (i, seg[1]))
    else:
        f_out = m.add((i, i))
    return eps, e_out, f_out


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def window_segments(window):
    """All segments whose index set lies inside the window, each once (a
    repeated window index adds nothing), ordered by (i, j).  From each letter
    i the walk runs up through the consecutive window letters j = i, i+2, ..."""
    members = set(window)
    out = []
    for i in sorted(members):
        j = i
        while j in members:
            out.append(Segment(i, j))
            j += 2
    return out


def enumerate_multisegments(window, max_degree, segments=None):
    """All multisegments supported on the window with degree <= max_degree."""
    segs = segments if segments is not None else window_segments(window)
    out = []

    def rec(idx, remaining, acc):
        if idx == len(segs):
            out.append(Multisegment._trusted(dict(acc)))
            return
        seg = segs[idx]
        key, size = seg.key, seg.length()
        n = 0
        while n * size <= remaining:
            if n:
                acc[key] = n
            rec(idx + 1, remaining - n * size, acc)
            n += 1
        acc.pop(key, None)

    rec(0, max_degree, {})
    return out


def of_weighted_content(segs, weights, content):
    """The multisegments over `segs` whose weighted content equals `content`.

    `weights[t]` maps each content key that segs[t] touches to the number of
    letters one copy of segs[t] puts there.  The result is the sublist of
    enumerate_multisegments(..., segments=segs) with that content, in the
    same order (the multiplicity of segs[0] most significant, each
    ascending).  Only the segments that fit the content, every weight at most
    the count needed there, can appear, so the search runs over those alone.
    Each multiplicity is bounded by the content still to be filled, and a key
    must be filled exactly once the last segment touching it has been chosen.
    A negative count, or a key no fitting segment touches, gives [].
    """
    need = {k: v for k, v in content.items() if v}
    if any(v < 0 for v in need.values()):
        return []
    fit = [(seg.key, w) for seg, w in zip(segs, weights)
           if all(need.get(key, 0) >= c for key, c in w.items())]
    last = {}
    for t, (_, w) in enumerate(fit):
        for key in w:
            last[key] = t
    if any(key not in last for key in need):
        return []
    closes = [[] for _ in fit]
    for key, t in last.items():
        closes[t].append(key)
    remaining = dict(need)
    out = []
    acc = {}

    def rec(t):
        if t == len(fit):
            out.append(Multisegment._trusted(dict(acc)))
            return
        (pair, w), done = fit[t], closes[t]  # pair: the segment's interned key
        w = w.items()
        top = min(remaining[key] // c for key, c in w)
        for n in range(top + 1):
            if n:
                acc[pair] = n
                for key, c in w:
                    remaining[key] -= c
            if not any(remaining[key] for key in done):
                rec(t + 1)
        for key, c in w:
            remaining[key] += top * c
        acc.pop(pair, None)

    rec(0)
    return out


def multisegments_of_content(window, content):
    """All window multisegments with the given content (an index->count map),
    in the order of enumerate_multisegments."""
    segs = window_segments(window)
    return of_weighted_content(segs, [dict.fromkeys(seg.indices(), 1) for seg in segs], content)
