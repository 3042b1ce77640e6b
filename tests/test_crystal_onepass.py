"""The one-copy closed formulas and the one-pass theta signature against
private copies of the compositional operators they replace: the result of
every operator, and the order of its entries, must be the same.  The
closed formulas keep their last scan; interleaved calls must never read a
stale one."""

import pytest

from symcrys import multisegment, theta
from symcrys.multisegment import (
    Multisegment,
    Segment,
    enumerate_multisegments,
    epsilon,
    etilde,
    ftilde,
)
from symcrys.theta import (
    crystal_E,
    crystal_eps,
    crystal_F,
    enumerate_theta,
    theta_Etilde,
    theta_epsilon,
    theta_Ftilde,
    theta_signature_ops,
)

WIN5 = tuple(range(-5, 6, 2))
TYPE_A = enumerate_multisegments(WIN5, 5)
THETA = enumerate_theta(WIN5, 6)
THETA_K = [k for k in WIN5 if k > 0]


# -- type A: a dict of A-values, then remove/add/swap ------------------------

def ref_A_extremes(i, m):
    top = i
    diff = {}
    for seg, n in m:
        if seg.i == i:
            k = seg.j
            diff[k] = diff.get(k, 0) + n
        elif seg.i == i + 2:
            k = seg.j - 2
            diff[k] = diff.get(k, 0) - n
        else:
            continue
        top = max(top, k)
    eps = acc = 0
    k_e = k_f = top + 2
    for k in range(top, i - 1, -2):
        acc += diff.get(k, 0)
        if acc > eps:
            eps, k_e, k_f = acc, k, k
        elif acc == eps:
            k_f = k
    return eps, k_e, k_f


def ref_etilde(i, m):
    eps, k_e, _ = ref_A_extremes(i, m)
    if eps == 0:
        return None
    if k_e == i:
        return m.remove(Segment(i, i))
    return m.swap(Segment(i, k_e), Segment(i + 2, k_e))


def ref_ftilde(i, m):
    _, _, k_f = ref_A_extremes(i, m)
    if k_f == i:
        return m.add(Segment(i, i))
    return m.swap(Segment(i + 2, k_f), Segment(i, k_f))


# -- theta: a dict of A-values in selection order, max, then a next scan ------

def ref_theta_A_values(k, m):
    lo, lo2 = -k, 2 - k
    top = k
    diff, step = {}, {}
    tail = center = odd = dbl = 0
    for seg, n in m:
        a, b = seg.i, seg.j
        top = max(top, b + 2, 2 - a)
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


def ref_theta_epsilon(k, m):
    return max(0, max(ref_theta_A_values(k, m).values()))


def ref_theta_Ftilde(k, m):
    vals = ref_theta_A_values(k, m)
    eps = max(0, max(vals.values()))
    n_f = next(ell for ell in reversed(vals) if vals[ell] == eps)
    if n_f > k:
        return m.swap(Segment(-k + 2, n_f), Segment(-k, n_f))
    if n_f == k and m.mult(-k + 2, k) % 2 == 1:
        return m.swap(Segment(-k + 2, k), Segment(-k, k))
    if n_f == k:
        out = m.add(Segment(-k + 2, k))
        return out.remove(Segment(-k + 2, k - 2)) if k != 1 else out
    out = m.add(Segment(n_f + 2, k))
    return out.remove(Segment(n_f + 2, k - 2)) if n_f != k - 2 else out


def ref_theta_Etilde(k, m):
    vals = ref_theta_A_values(k, m)
    eps = max(0, max(vals.values()))
    if eps == 0:
        return None
    n_e = next(ell for ell, v in vals.items() if v == eps)
    if n_e > k:
        return m.swap(Segment(-k, n_e), Segment(-k + 2, n_e))
    if n_e == k and m.mult(-k + 2, k) % 2 == 0:
        return m.swap(Segment(-k, k), Segment(-k + 2, k))
    if n_e == k:
        out = m.remove(Segment(-k + 2, k))
        return out.add(Segment(-k + 2, k - 2)) if k != 1 else out
    out = m.remove(Segment(n_e + 2, k))
    return out.add(Segment(n_e + 2, k - 2)) if n_e != k - 2 else out


# -- theta signature: one mult() lookup per candidate segment ------------------

def ref_theta_signature(k, m):
    top = max([k] + [seg.j for seg, _ in m])
    mult = m.mult
    seq = []
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
            plus.append([Segment(i, j).key, n])
            continue
        while n and plus:
            run = plus[-1]
            take = min(n, run[1])
            n -= take
            run[1] -= take
            if not run[1]:
                plus.pop()
        if n:
            minus.append([Segment(i, j).key, n])
    return minus, plus


def same(got, want):
    """Equal results, with the entries in the same order."""
    if want is None:
        return got is None
    return got == want and list(got.entries.items()) == list(want.entries.items())


def test_type_a_operators_match_the_compositional_ones():
    assert len(TYPE_A) > 1000
    for m in TYPE_A:
        for i in WIN5:
            assert same(etilde(i, m), ref_etilde(i, m)), (m, i)
            assert same(ftilde(i, m), ref_ftilde(i, m)), (m, i)


def test_theta_operators_match_the_compositional_ones():
    assert len(THETA) > 300
    for m in THETA:
        for k in THETA_K:
            assert theta_epsilon(k, m) == ref_theta_epsilon(k, m), (m, k)
            assert same(theta_Etilde(k, m), ref_theta_Etilde(k, m)), (m, k)
            assert same(theta_Ftilde(k, m), ref_theta_Ftilde(k, m)), (m, k)
            # the positive index k is the type-A operator
            assert same(etilde(k, m), ref_etilde(k, m)), (m, k)
            assert same(ftilde(k, m), ref_ftilde(k, m)), (m, k)


def test_theta_signature_matches_the_lookup_scan(monkeypatch):
    got = {(m, k): (theta._theta_signature(k, m), theta_signature_ops(k, m))
           for m in THETA for k in THETA_K}
    monkeypatch.setattr(theta, "_theta_signature", ref_theta_signature)
    for (m, k), (signature, (eps, e, f)) in got.items():
        assert signature == ref_theta_signature(k, m), (m, k)
        ref_eps, ref_e, ref_f = theta_signature_ops(k, m)
        assert eps == ref_eps and same(e, ref_e) and same(f, ref_f), (m, k)


@pytest.mark.parametrize("k", [0, -1, 2])
def test_a_bad_theta_index_raises(k):
    m = THETA[1]
    for op in (theta_epsilon, theta_Etilde, theta_Ftilde, theta_signature_ops):
        with pytest.raises(ValueError, match="positive odd"):
            op(k, m)


def test_the_one_copy_edit_raises_on_an_absent_segment():
    m = enumerate_multisegments((1, 3), 1)[1]  # <3>
    for old in ((1, 3), (7, 9)):  # absent from m; <7,9> need not have been made yet
        with pytest.raises(ValueError, match="removing absent segment"):
            multisegment._edited(m, old, (1, 1))
    assert multisegment._edited(m, (3, 3), (1, 3)) == m.swap(Segment(3, 3), Segment(1, 3))


# -- the one-entry memo of the last scan -------------------------------------

def fresh(m):
    """An equal but distinct copy of m."""
    return Multisegment(dict(m.entries))


def plain(result):
    """A result as a value that compares the order of the entries too."""
    return list(result.entries.items()) if isinstance(result, Multisegment) else result


def ref_epsilon(i, m):
    return ref_A_extremes(i, m)[0]


A_OPS = [(epsilon, ref_epsilon), (etilde, ref_etilde), (ftilde, ref_ftilde)]
THETA_OPS = [(theta_epsilon, ref_theta_epsilon), (theta_Etilde, ref_theta_Etilde),
             (theta_Ftilde, ref_theta_Ftilde)]


@pytest.mark.parametrize("ops, msegs, indices", [(A_OPS, TYPE_A, WIN5),
                                                 (THETA_OPS, THETA, THETA_K)])
def test_consecutive_calls_sharing_only_the_index_read_no_stale_scan(ops, msegs, indices):
    for i in indices:
        for op, ref in ops:
            got = [plain(op(i, m)) for m in msegs]
            assert got == [plain(ref(i, m)) for m in msegs], (op.__name__, i)


@pytest.mark.parametrize("ops, msegs, indices", [(A_OPS, TYPE_A, WIN5),
                                                 (THETA_OPS, THETA, THETA_K)])
def test_a_copy_made_and_dropped_for_each_call_reads_no_stale_scan(ops, msegs, indices):
    """Each call gets its own copy, dropped when the call returns, so the
    next call's copy may get its id.  Operator by operator, that copy is of
    the next multisegment; multisegment by multisegment, an equal one."""
    for i in indices:
        want = [[plain(ref(i, m)) for m in msegs] for _, ref in ops]
        got = [[plain(op(i, fresh(m))) for m in msegs] for op, _ in ops]
        assert got == want, i
        got = [[plain(op(i, fresh(m))) for op, _ in ops] for m in msegs]
        assert got == [list(row) for row in zip(*want)], i


def test_crystal_operators_switching_between_type_a_and_theta_read_no_stale_scan():
    """crystal_eps / crystal_E / crystal_F at k and -k in turn, on m and on
    fresh copies of it, go back and forth between the two memos."""
    for m in THETA:
        for k in THETA_K:
            want = {k: [plain(ref(k, m)) for _, ref in A_OPS],
                    -k: [plain(ref(k, m)) for _, ref in THETA_OPS]}
            for n in (m, fresh(m), m):
                for slot, op in enumerate((crystal_eps, crystal_E, crystal_F)):
                    for i in (k, -k, k):
                        assert plain(op(i, n)) == want[i][slot], (m, i, op.__name__)


def test_the_signature_routes_read_no_closed_formula_helper_or_memo():
    """The two crystal routes share no helper, so the signature rule checks
    an independent computation; the memos belong to the closed formulas."""
    closed = {"_A_extremes", "_theta_extremes", "_edited", "_A_last", "_theta_last",
              "epsilon", "etilde", "ftilde", "a_epsilon", "a_etilde", "a_ftilde",
              "theta_epsilon", "theta_Etilde", "theta_Ftilde"}
    for fn in (multisegment.signature_ops, theta._theta_signature, theta.theta_signature_ops):
        assert closed.isdisjoint(fn.__code__.co_names), fn.__name__
