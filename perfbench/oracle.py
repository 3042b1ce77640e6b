"""Independent counts and exact property checks for the benchmark.

Nothing here calls into symcrys's algorithms.  The counts come from a
dynamic programme over segments, and Laurent-polynomial arithmetic is a
small dict-based implementation of its own.  The checks that need Q(q)
(duality, the adjoint multiplicity route) use RatFunc values with `+` and
`*` only, so they do not depend on symcrys.linalg.

Every check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# segments, contents and counts
# ---------------------------------------------------------------------------

def cartan(i, j):
    if i == j:
        return 2
    return -1 if abs(i - j) == 2 else 0


def segments(window, theta=False):
    """(i, j) pairs of the contiguous odd window; theta keeps -j <= i."""
    w = sorted(window)
    if any(b - a != 2 for a, b in zip(w, w[1:])):
        raise ValueError(f"window {window} is not a contiguous odd interval")
    out = [(w[a], w[b]) for a in range(len(w)) for b in range(a, len(w))]
    return [(i, j) for i, j in out if not theta or -j <= i]


def seg_letters(i, j):
    return range(i, j + 1, 2)


def count_multisets(vectors, target):
    """Number of multisets of the given weight vectors summing to target."""
    vectors = [tuple(v) for v in vectors]

    @lru_cache(maxsize=None)
    def rec(idx, rem):
        if not any(rem):
            return 1
        if idx == len(vectors):
            return 0
        v, total, cur = vectors[idx], 0, rem
        while all(c >= 0 for c in cur):
            total += rec(idx + 1, cur)
            cur = tuple(c - x for c, x in zip(cur, v))
        return total

    return rec(0, tuple(target))


def kostant_count(window, content):
    """Multisegments of the window with the given content (index -> count)."""
    idx = sorted(window)
    vecs = [[1 if i <= k <= j else 0 for k in idx] for i, j in segments(window)]
    return count_multisets(vecs, [content.get(k, 0) for k in idx])


def theta_count(window, sym_content):
    """Theta-restricted multisegments with the given symmetrized content."""
    pos = sorted(k for k in window if k > 0)
    vecs = []
    for i, j in segments(window, theta=True):
        letters = [abs(k) for k in seg_letters(i, j)]
        vecs.append([letters.count(k) for k in pos])
    return count_multisets(vecs, [sym_content.get(k, 0) for k in pos])


def count_up_to_degree(window, max_degree, theta=False):
    """(Theta-restricted) multisegments of degree <= max_degree."""
    vecs = [[j // 2 - i // 2 + 1] for i, j in segments(window, theta)]
    return sum(count_multisets(vecs, [d]) for d in range(max_degree + 1))


def contents(indices, max_degree, min_degree=1):
    """All index -> count maps over `indices` with degree in the range, sorted."""
    indices = sorted(indices)
    out = []

    def rec(pos, left, acc):
        if pos == len(indices):
            if max_degree - left >= min_degree:
                out.append(dict(acc))
            return
        for n in range(left + 1):
            if n:
                acc[indices[pos]] = n
            rec(pos + 1, left - n, acc)
        acc.pop(indices[pos], None)

    rec(0, max_degree, {})
    return sorted(out, key=lambda c: (sum(c.values()), sorted(c.items())))


def mseg_content(m, symmetrized=False):
    """Letter counts of a symcrys Multisegment, computed from its segments."""
    c = {}
    for seg, mult in m:
        for k in seg_letters(seg.i, seg.j):
            k = abs(k) if symmetrized else k
            c[k] = c.get(k, 0) + mult
    return c


def mseg_degree(m):
    return sum(len(seg_letters(seg.i, seg.j)) * mult for seg, mult in m)


# ---------------------------------------------------------------------------
# Laurent polynomials as {exponent: coefficient}
# ---------------------------------------------------------------------------

ONE = {0: 1}


def l_add(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def l_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            s = out.get(e1 + e2, 0) + c1 * c2
            if s:
                out[e1 + e2] = s
            else:
                out.pop(e1 + e2, None)
    return out


def l_bar(a):
    return {-e: c for e, c in a.items()}


def from_ratfunc(x):
    """Laurent dict of a RatFunc, or None when it is not in Q[q, q^-1]."""
    den = x.den.coeffs
    if len(den) != 1:
        return None
    (de, dc), = den.items()
    return {e - de: Fraction(c) / dc for e, c in x.num.coeffs.items()}


_TERM = re.compile(r"^(?:(\d+)\*)?q(?:\^(-?\d+))?$|^(\d+)$")


def parse_laurent(text):
    """Parse the canonical string of an integer Laurent polynomial.

    Returns None for a parenthesised quotient, which is not one.
    """
    text = text.strip()
    if "(" in text or "/" in text:
        return None
    if text == "0":
        return {}
    tokens = text.split(" ")
    first = tokens[0]
    signed = [("-" if first.startswith("-") else "+", first.lstrip("-"))]
    signed += [(tokens[k], tokens[k + 1]) for k in range(1, len(tokens), 2)]
    out = {}
    for sign, body in signed:
        m = _TERM.match(body)
        if sign not in "+-" or not m:
            raise ValueError(f"cannot parse term {body!r} of {text!r}")
        if m.group(3) is not None:
            coef, exp = int(m.group(3)), 0
        else:
            coef = int(m.group(1)) if m.group(1) else 1
            exp = int(m.group(2)) if m.group(2) else 1
        out = l_add(out, {exp: -coef if sign == "-" else coef})
    return out


def is_integral(a):
    return all(Fraction(c).denominator == 1 for c in a.values())


def at_one(a):
    return sum(Fraction(c) for c in a.values())


# ---------------------------------------------------------------------------
# matrix properties
# ---------------------------------------------------------------------------

def _laurent_matrix(label, entries, errs):
    rows = []
    for r, row in enumerate(entries):
        out = []
        for c, x in enumerate(row):
            lx = x if isinstance(x, dict) else from_ratfunc(x)
            if lx is None:
                errs.append(f"{label}: entry ({r},{c}) = {x} is not a Laurent polynomial")
                return None
            out.append(lx)
        rows.append(out)
    return rows


def _l_matmul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    out = [[{} for _ in range(m)] for _ in range(n)]
    for r in range(n):
        for t in range(k):
            if not A[r][t]:
                continue
            for c in range(m):
                if B[t][c]:
                    out[r][c] = l_add(out[r][c], l_mul(A[r][t], B[t][c]))
    return out


def check_bar(label, entries):
    """Lower unitriangular, Laurent entries, and B . bar(B) = I."""
    errs = []
    B = _laurent_matrix(label, entries, errs)
    if B is None:
        return errs
    n = len(B)
    for r in range(n):
        for c in range(n):
            if r == c and B[r][c] != ONE:
                errs.append(f"{label}: bar diagonal ({r},{r}) is {B[r][c]}")
            elif r < c and B[r][c]:
                errs.append(f"{label}: bar entry above the diagonal at ({r},{c})")
    prod = _l_matmul(B, [[l_bar(x) for x in row] for row in B])
    for r in range(n):
        for c in range(n):
            if prod[r][c] != (ONE if r == c else {}):
                errs.append(f"{label}: B bar(B) != I at ({r},{c})")
                return errs
    return errs


def check_lower(label, bar_entries, lower_entries):
    """Diagonal 1, q Z[q] below it, 0 above, and B . bar(C) = C."""
    errs = []
    B = _laurent_matrix(label, bar_entries, errs)
    C = _laurent_matrix(label, lower_entries, errs)
    if B is None or C is None:
        return errs
    n = len(C)
    for r in range(n):
        for c in range(n):
            x = C[r][c]
            if r == c:
                ok = x == ONE
            elif r < c:
                ok = not x
            else:
                ok = is_integral(x) and all(e >= 1 for e in x)
            if not ok:
                errs.append(f"{label}: lower-basis entry ({r},{c}) = {x}")
    if _l_matmul(B, [[l_bar(x) for x in row] for row in C]) != C:
        errs.append(f"{label}: B bar(C) != C")
    return errs


def check_dual(label, upper, gram, lower, zero, one):
    """U^T G C = I over Q(q): the upper basis is dual to the lower one."""
    n = len(lower)
    GC = [[sum((gram[r][t] * lower[t][c] for t in range(n)), zero) for c in range(n)]
          for r in range(n)]
    for a in range(n):
        for c in range(n):
            x = sum((upper[t][a] * GC[t][c] for t in range(n)), zero)
            if x != (one if a == c else zero):
                return [f"{label}: (U^T G C)[{a}][{c}] = {x}, not the identity"]
    return []


def adjoint_multiplicities(lower_src, lower_tgt, partner, basis_src, basis_tgt, zero):
    """The adjoint route: C_src^{-1} . partner . C_tgt, as {(b, b'): coefficient}.

    C_src is lower unitriangular, so its inverse is applied by forward
    substitution.
    """
    n_src, n_tgt = len(basis_src), len(basis_tgt)
    out = {}
    for bj in range(n_tgt):
        img = [sum((partner[r][t] * lower_tgt[t][bj] for t in range(n_tgt)), zero)
               for r in range(n_src)]
        x = []
        for r in range(n_src):
            acc = img[r]
            for c in range(r):
                if x[c]:
                    acc = acc - lower_src[r][c] * x[c]
            x.append(acc)
        for bi in range(n_src):
            if not x[bi].is_zero():
                out[(basis_src[bi], basis_tgt[bj])] = x[bi]
    return out


def check_multiplicities(label, polys, adjoint, positive):
    """Direct route (the program) == adjoint route (ours), Laurent entries.

    With `positive`, every coefficient must be a non-negative integer
    (a theorem in type A).  Returns (errors, number of negative coefficients).
    """
    errs = []
    if polys != adjoint:
        errs.append(f"{label}: direct and adjoint multiplicities disagree")
    negatives = 0
    for key, c in polys.items():
        lc = c if isinstance(c, dict) else from_ratfunc(c)
        if lc is None or not is_integral(lc):
            errs.append(f"{label}: multiplicity {c} at {key} is not in Z[q, q^-1]")
            continue
        neg = sum(1 for v in lc.values() if v < 0)
        negatives += neg
        if positive and neg:
            errs.append(f"{label}: negative coefficient in type-A multiplicity {c}")
    return errs, negatives


def check_relation(label, lhs, rhs, qc, delta, rows, n):
    """lhs = qc * rhs + delta * I as rows x n matrices; None stands for 0.

    delta is non-zero only when source and target block coincide.
    """
    zero = qc - qc
    for mat in (lhs, rhs):
        if mat is not None and (len(mat) != rows or any(len(r) != n for r in mat)):
            return [f"{label}: a side of the relation has the wrong shape"]
    for r in range(rows):
        for c in range(n):
            left = lhs[r][c] if lhs is not None else zero
            right = rhs[r][c] if rhs is not None else zero
            if left != qc * right + (delta if r == c else zero):
                return [f"{label}: relation fails at ({r},{c})"]
    return []


def check_crystal_compat(label, coords, target):
    """Coordinates of a modified-operator image: 1 at target, 0 elsewhere, mod q A_0.

    RatFunc keeps its denominator with a non-zero constant term, so x lies in
    q A_0 exactly when its numerator has no term of degree below 1.
    """
    if target not in coords:
        return [f"{label}: no coordinate on the crystal image {target}"]
    for m, c in coords.items():
        d = c - 1 if m == target else c
        if not d.is_zero() and min(d.num.coeffs) < 1:
            return [f"{label}: coordinate {c} at {m} is not congruent mod q A_0"]
    return []


def check_enumeration(label, msegs, expected, content=None, symmetrized=False,
                      theta=False, max_degree=None):
    """Count against the oracle, content of each element, no duplicates."""
    errs = []
    if len(msegs) != expected:
        errs.append(f"{label}: {len(msegs)} multisegments, the count says {expected}")
    if len(set(msegs)) != len(msegs):
        errs.append(f"{label}: duplicate multisegments")
    for m in msegs:
        if content is not None and mseg_content(m, symmetrized) != content:
            errs.append(f"{label}: {m} has the wrong content")
            break
        if max_degree is not None and mseg_degree(m) > max_degree:
            errs.append(f"{label}: {m} exceeds degree {max_degree}")
            break
        if theta and any(-seg.j > seg.i for seg, _ in m):
            errs.append(f"{label}: {m} is not theta-restricted")
            break
    return errs
