"""Theta-restricted multisegments and the symmetric-crystal operators.

A multisegment is theta-restricted when every segment <i,j> satisfies
-j <= i <= j (the involution being i -> -i).  For k > 0 the operators at
index -k follow the four-case closed formulas; the plus-minus signature
algorithm is implemented independently as an oracle.  Operators at positive
index k are the ordinary type-A ones.
"""

from __future__ import annotations

from collections import Counter

from .multisegment import (
    Segment,
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

def _theta_A_values(k, m):
    """The values A_ell at index -k, keyed in selection order, largest first:
    top, ..., k+2, k, -k+2, -k+4, ..., k-2.

    One pass over the segments collects what each part of the formula needs;
    running sums then give the values.
    """
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
    vals = {}
    acc = 0
    for ell in range(top, k, -2):
        acc += diff.get(ell, 0)
        vals[ell] = acc
    head = tail + 2 * center
    vals[k] = head + odd % 2
    run = head - 2 * dbl
    for j in range(lo2, k - 1, 2):
        run += step.get(j, 0)
        vals[j] = run
    return vals


def theta_epsilon(k, m):
    """epsilon_{-k}(m) for k > 0, clamped at 0."""
    vals = _theta_A_values(k, m)
    return max(0, max(vals.values()))


def theta_Ftilde(k, m):
    """The operator at index -k (always defined)."""
    vals = _theta_A_values(k, m)
    eps = max(0, max(vals.values()))
    n_f = next(ell for ell in reversed(vals) if vals[ell] == eps)
    if n_f > k:
        out = m.swap(Segment(-k + 2, n_f), Segment(-k, n_f))
    elif n_f == k and m.mult(-k + 2, k) % 2 == 1:
        out = m.swap(Segment(-k + 2, k), Segment(-k, k))
    elif n_f == k:
        out = m.add(Segment(-k + 2, k))
        if k != 1:
            out = out.remove(Segment(-k + 2, k - 2))
    else:
        out = m.add(Segment(n_f + 2, k))
        if n_f != k - 2:
            out = out.remove(Segment(n_f + 2, k - 2))
    return check_theta_restricted(out)


def theta_Etilde(k, m):
    """The operator at index -k; None when epsilon_{-k}(m) = 0."""
    vals = _theta_A_values(k, m)
    eps = max(0, max(vals.values()))
    if eps == 0:
        return None
    n_e = next(ell for ell, v in vals.items() if v == eps)
    if n_e > k:
        out = m.swap(Segment(-k, n_e), Segment(-k + 2, n_e))
    elif n_e == k and m.mult(-k + 2, k) % 2 == 0:
        out = m.swap(Segment(-k, k), Segment(-k + 2, k))
    elif n_e == k:
        out = m.remove(Segment(-k + 2, k))
        if k != 1:
            out = out.add(Segment(-k + 2, k - 2))
    else:
        out = m.remove(Segment(n_e + 2, k))
        if n_e != k - 2:
            out = out.add(Segment(n_e + 2, k - 2))
    return check_theta_restricted(out)


# ---------------------------------------------------------------------------
# signature algorithm (Remark-style route, independent oracle)
# ---------------------------------------------------------------------------

def _theta_signature(k, m):
    """The reduced sign sequence -...- +...+ as two lists of runs
    [segment, copies], minus and plus, each left to right."""
    top = k
    for seg in m.entries:
        top = max(top, seg.j)
    mult = m.mult
    seq = []  # (sign, i, j, copies) in scanning order

    for j in range(top, k, -2):
        seq.append(("-", -k, j, mult(-k, j)))
        seq.append(("+", -k + 2, j, mult(-k + 2, j)))
    seq.append(("-", -k, k, 2 * mult(-k, k)))
    if mult(-k + 2, k) % 2 == 1:
        seq.append(("-", -k + 2, k, 1))
        seq.append(("+", -k + 2, k, 1))
    if k > 1:
        seq.append(("+", -k + 2, k - 2, 2 * mult(-k + 2, k - 2)))
    for i in range(-k + 4, k + 1, 2):
        seq.append(("-", i, k, mult(i, k)))
        if i <= k - 2:
            seq.append(("+", i, k - 2, mult(i, k - 2)))
    minus, plus = [], []
    for sign, i, j, n in seq:
        if not n:
            continue
        if sign == "+":
            plus.append([Segment(i, j), n])
            continue
        while n and plus:
            run = plus[-1]
            take = min(n, run[1])
            n -= take
            run[1] -= take
            if not run[1]:
                plus.pop()
        if n:
            minus.append([Segment(i, j), n])
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
    content, in the order of enumerate_theta."""
    segs = theta_window_segments(window)
    weights = [Counter(abs(k) for k in seg.indices()) for seg in segs]
    return of_weighted_content(segs, weights, content)
