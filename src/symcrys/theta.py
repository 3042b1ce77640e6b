"""Theta-restricted multisegments and the symmetric-crystal operators.

A multisegment is theta-restricted when every segment <i,j> satisfies
-j <= i <= j (the involution being i -> -i).  For k > 0 the operators at
index -k follow the four-case closed formulas; the plus-minus signature
algorithm is implemented independently as an oracle.  Operators at positive
index k are the ordinary type-A ones.

The closed formulas read (eps, n_e, n_f) off one pass over the segments and
apply their case's edit to one copy of the entries (`multisegment._edited`).
Like the type-A scan, `_theta_extremes` keeps its last result in a one-entry
memo, so the three operators asked back to back at one (k, m) scan it once.
The signature route sorts the segments it reads, tagged in one pass, into
the scanning order and edits through `swap`/`add`/`remove`; the two routes
share no helper, and the signature route never reads the memo.
"""

from __future__ import annotations

from collections import Counter

from .multisegment import (
    Segment,
    _edited,
    enumerate_multisegments,
    epsilon as a_epsilon,
    etilde as a_etilde,
    ftilde as a_ftilde,
    of_weighted_content,
    signature_ops as a_signature_ops,
    window_segments,
)


def check_theta_restricted(m):
    """Raise ValueError naming the first offending segment, if any."""
    for seg in m.entries:
        if seg.i < -seg.j:
            raise ValueError(
                f"segment <{seg.i},{seg.j}> violates the theta restriction -j <= i"
            )
    return m


def symmetrized_content(m):
    """Multiset of absolute letter indices, as a Counter."""
    c = Counter()
    for k, n in m.content().items():
        c[abs(k)] += n
    return c


# ---------------------------------------------------------------------------
# closed formulas (Def-style route)
# ---------------------------------------------------------------------------

_theta_last = (None, None, None)  # (k, m, (eps, n_e, n_f)) of the last scan


def _theta_extremes(k, m):
    """(eps, n_e, n_f) for the values A_ell at index -k, taken in selection
    order, largest first: top, ..., k+2, k, -k+2, -k+4, ..., k-2.

    eps = max(0, max A_ell), and n_e / n_f are the first and the last ell of
    that order with A_ell = eps.  One pass over the segments collects what
    each part of the formula needs; running sums then give the values, each
    compared as it is made.  The first value, at ell = top beyond the
    support, is 0.

    `_theta_last` keeps the last scan, so theta_epsilon, theta_Etilde and
    theta_Ftilde called back to back at one (k, m) scan it once; it matches
    and holds m as `multisegment._A_last` does.
    """
    global _theta_last
    last_k, last_m, last = _theta_last
    if last_m is m and last_k == k:
        return last
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"index must be positive odd, got {k}")
    lo, lo2 = -k, 2 - k
    top = k
    diff = {}    # ell > k: mult<-k,ell> - mult<-k+2,ell+2>
    tail = 0     # sum over ell > k of mult<-k,ell> - mult<-k+2,ell>
    center = odd = dbl = 0  # mult<-k,k>, mult<-k+2,k>, mult<-k+2,k-2>
    step = {}    # j in [-k+2, k-2]: mult<j+2,k> - mult<j,k-2> (the latter for j > -k+2)
    for seg, n in m.entries.items():
        a, b = seg.i, seg.j
        if b + 2 > top:
            top = b + 2
        if 2 - a > top:
            top = 2 - a
        if a == lo:
            if b > k:
                diff[b] = diff.get(b, 0) + n
                tail += n
            elif b == k:
                center = n
        elif a == lo2:
            if b > k:
                tail -= n
                if b - 2 > k:
                    diff[b - 2] = diff.get(b - 2, 0) - n
            elif b == k:
                odd = n
            elif b == k - 2:
                dbl = n
        elif b == k:
            step[a - 2] = step.get(a - 2, 0) + n
        elif b == k - 2:
            step[a] = step.get(a, 0) - n
    eps, n_e, n_f = 0, top, top
    acc = 0
    for ell in range(top - 2, k, -2):
        acc += diff.get(ell, 0)
        if acc > eps:
            eps, n_e, n_f = acc, ell, ell
        elif acc == eps:
            n_f = ell
    head = tail + 2 * center
    acc = head + odd % 2
    if acc > eps:
        eps, n_e, n_f = acc, k, k
    elif acc == eps:
        n_f = k
    acc = head - 2 * dbl
    for ell in range(lo2, k - 1, 2):
        acc += step.get(ell, 0)
        if acc > eps:
            eps, n_e, n_f = acc, ell, ell
        elif acc == eps:
            n_f = ell
    last = eps, n_e, n_f
    _theta_last = k, m, last
    return last


def theta_epsilon(k, m):
    """epsilon_{-k}(m) for k > 0, clamped at 0."""
    return _theta_extremes(k, m)[0]


def theta_Ftilde(k, m):
    """The operator at index -k (always defined)."""
    _, _, n_f = _theta_extremes(k, m)
    if n_f > k:
        out = _edited(m, (-k + 2, n_f), (-k, n_f))
    elif n_f == k and m.mult(-k + 2, k) % 2 == 1:
        out = _edited(m, (-k + 2, k), (-k, k))
    elif n_f == k:
        out = _edited(m, (-k + 2, k - 2) if k != 1 else None, (-k + 2, k))
    else:
        out = _edited(m, (n_f + 2, k - 2) if n_f != k - 2 else None, (n_f + 2, k))
    return check_theta_restricted(out)


def theta_Etilde(k, m):
    """The operator at index -k; None when epsilon_{-k}(m) = 0."""
    eps, n_e, _ = _theta_extremes(k, m)
    if eps == 0:
        return None
    if n_e > k:
        out = _edited(m, (-k, n_e), (-k + 2, n_e))
    elif n_e == k and m.mult(-k + 2, k) % 2 == 0:
        out = _edited(m, (-k, k), (-k + 2, k))
    elif n_e == k:
        out = _edited(m, (-k + 2, k), (-k + 2, k - 2) if k != 1 else None)
    else:
        out = _edited(m, (n_e + 2, k), (n_e + 2, k - 2) if n_e != k - 2 else None)
    return check_theta_restricted(out)


# ---------------------------------------------------------------------------
# signature algorithm (Remark-style route, independent oracle)
# ---------------------------------------------------------------------------

def _theta_signature(k, m):
    """The reduced sign sequence -...- +...+ as two lists of runs
    [segment, copies], minus and plus, each left to right.

    The scan reads, left to right: for each j > k from the top down, <-k,j>
    (sign -) and <-k+2,j> (+); then <-k,k> twice (-); one -+ pair for an
    odd count of <-k+2,k>; <-k+2,k-2> twice (+); then for each i from -k+4
    up, <i,k> (-) and <i,k-2> (+).  One pass over m's segments tags each
    one with its place (part, position, sign: 0 for -, 1 for +) and its
    copies; sorting the tags gives the scan.
    """
    lo, lo2 = -k, 2 - k
    seq = []
    for seg, n in m.entries.items():
        a, b = seg.i, seg.j
        if a == lo:
            if b > k:
                seq.append((0, -b, 0, seg, n))
            elif b == k:
                seq.append((1, 0, 0, seg, 2 * n))
        elif a == lo2:
            if b > k:
                seq.append((0, -b, 1, seg, n))
            elif b == k:
                if n % 2:
                    seq += [(1, 1, 0, seg, 1), (1, 1, 1, seg, 1)]
            elif b == k - 2:
                seq.append((1, 2, 1, seg, 2 * n))
        elif a > lo2:
            if b == k:
                seq.append((2, a, 0, seg, n))
            elif b == k - 2:
                seq.append((2, a, 1, seg, n))
    seq.sort()
    minus, plus = [], []
    for _, _, sign, seg, n in seq:
        if sign:
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
    return minus, plus


def theta_signature_ops(k, m):
    """(epsilon, Etilde result, Ftilde result) via the signature algorithm."""
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"index must be positive odd, got {k}")
    minus, plus = _theta_signature(k, m)
    eps = sum(n for _, n in minus)

    if minus:
        seg = minus[-1][0]  # rightmost -
        if seg.i == -k:
            e_out = m.swap(seg, Segment(-k + 2, seg.j))
        elif seg == Segment(-k + 2, k):
            e_out = m.remove(seg)
            if k != 1:
                e_out = e_out.add(Segment(-k + 2, k - 2))
        else:  # <j,k> with j > -k+2; drop to <j,k-2> when that is a segment
            e_out = m.remove(seg)
            if seg.i <= k - 2:
                e_out = e_out.add(Segment(seg.i, k - 2))
    else:
        e_out = None

    if plus:
        seg = plus[0][0]  # leftmost +
        if seg.j > k:  # <-k+2, j>
            f_out = m.swap(seg, Segment(-k, seg.j))
        elif seg.j == k:  # the + of the odd <-k+2,k> pair
            f_out = m.swap(seg, Segment(-k, k))
        else:  # <j, k-2>, including the ++ segment
            f_out = m.swap(seg, Segment(seg.i, k))
    else:
        f_out = m.add(Segment(k, k))
    if e_out is not None:
        check_theta_restricted(e_out)
    return eps, e_out, check_theta_restricted(f_out)


# ---------------------------------------------------------------------------
# positive indices and the full crystal interface
# ---------------------------------------------------------------------------

def theta_ops_positive(k, m):
    """(epsilon, Etilde result, Ftilde result) at positive index k (type-A rule)."""
    if k <= 0 or k % 2 == 0:
        raise ValueError(f"index must be positive odd, got {k}")
    eps, e_out, f_out = a_signature_ops(k, m)
    if e_out is not None:
        check_theta_restricted(e_out)
    return eps, e_out, check_theta_restricted(f_out)


def crystal_eps(i, m):
    """epsilon_i on the theta crystal, any odd i."""
    return theta_epsilon(-i, m) if i < 0 else a_epsilon(i, m)


def crystal_E(i, m):
    return theta_Etilde(-i, m) if i < 0 else a_etilde(i, m)


def crystal_F(i, m):
    if i < 0:
        return theta_Ftilde(-i, m)  # checks the theta restriction itself
    return check_theta_restricted(a_ftilde(i, m))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def theta_window_segments(window):
    if set(window) != {-i for i in window}:
        raise ValueError("theta enumeration needs a negation-symmetric window")
    return [s for s in window_segments(window) if s.is_theta_restricted()]


def enumerate_theta(window, max_degree):
    """All theta-restricted multisegments in the window, degree <= max_degree."""
    segs = theta_window_segments(window)
    return enumerate_multisegments(window, max_degree, segments=segs)


def theta_of_symmetrized_content(window, content):
    """Theta-restricted multisegments in the window of a given symmetrized
    content, in the order of enumerate_theta.

    Only the segments whose letters all lie in the content are built, each
    with its weight map (absolute letter -> copies); `of_weighted_content`
    would drop the others.  From each window letter i the walk runs up
    through the window letters j = i, i+2, ... whose absolute value is in
    the content, growing one weight map a letter at a time, and keeps the
    theta-restricted <i,j>, j >= -i.
    """
    members = set(window)
    if members != {-i for i in window}:
        raise ValueError("theta enumeration needs a negation-symmetric window")
    present = {k for k, n in content.items() if n}
    segs, weights = [], []
    for i in sorted(members):
        w = {}
        j = i
        while j in members and abs(j) in present:
            w[abs(j)] = w.get(abs(j), 0) + 1
            if j >= -i:
                segs.append(Segment(i, j))
                weights.append(dict(w))
            j += 2
    return of_weighted_content(segs, weights, content)
