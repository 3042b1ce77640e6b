"""Acceptance gate: nine criteria, one pass/fail line each, exact arithmetic.

Criteria 2-3 run the combinatorial oracles exhaustively on the wide window
{-5..5}; criteria 5-9 exercise the algebra and module blocks on the window
{-3,-1,1,3} at the stated degrees.  Every comparison is exact in Q(q).
"""

import sys

import pytest

from symcrys.canonical import (
    balanced_split,
    bar_matrix,
    global_lower,
    global_upper,
    multiplicity_polys,
    q1_specialization,
    theta_block,
    typeA_block,
)
from symcrys.cli import build_graph
from symcrys.linalg import rank
from symcrys.multisegment import (
    Multisegment,
    Segment,
    cmp_cry,
    cmp_pbw,
    enumerate_multisegments,
    epsilon as a_epsilon,
    etilde as a_etilde,
    ftilde as a_ftilde,
    signature_ops as a_signature_ops,
)
from symcrys.ratfunc import RatFunc
from symcrys.theta import (
    crystal_E,
    crystal_F,
    crystal_eps,
    enumerate_theta,
    theta_Etilde,
    theta_Ftilde,
    theta_epsilon,
    theta_signature_ops,
)
from symcrys.thetamodule import ThetaModule
from symcrys.verify import suite_qboson_relations, suite_serre
from symcrys.wordalg import WordAlgebra

WIN = (-3, -1, 1, 3)
WIDE = tuple(range(-5, 6, 2))


def M(*pairs):
    return Multisegment({Segment(i, j): m for (i, j, m) in pairs})


def report(num, title, ok):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {title}"
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def alg():
    return WordAlgebra(WIN)


@pytest.fixture(scope="module")
def mod():
    return ThetaModule(WIN)


def test_criterion_1_orderings():
    ok = (
        cmp_pbw(Segment(1, 1), Segment(-1, 1)) == 1
        and cmp_pbw(Segment(-1, 1), Segment(-1, -1)) == 1
        and cmp_cry(Segment(-1, 1), Segment(1, 1)) == 1
        and cmp_cry(Segment(1, 1), Segment(-1, -1)) == 1
    )
    report(1, "PBW and crystal orderings on the worked segment examples", ok)


def test_criterion_2_typeA_oracle():
    mismatches = 0
    for m in enumerate_multisegments(WIDE, 6):
        for i in WIDE:
            if (a_epsilon(i, m), a_etilde(i, m), a_ftilde(i, m)) != a_signature_ops(i, m):
                mismatches += 1
    report(
        2,
        "type-A crystal: closed formulas agree with the signature algorithm "
        "(window -5..5, degree <= 6)",
        mismatches == 0,
    )


def test_criterion_3_theta_oracle_and_axioms():
    bad = 0
    for m in enumerate_theta(WIDE, 6):
        for k in (1, 3, 5):
            a = (theta_epsilon(k, m), theta_Etilde(k, m), theta_Ftilde(k, m))
            if a != theta_signature_ops(k, m):
                bad += 1
        for i in WIDE:
            f = crystal_F(i, m)
            if crystal_E(i, f) != m:
                bad += 1
            e = crystal_E(i, m)
            if e is not None and crystal_F(i, e) != m:
                bad += 1
            n, cur = 0, m
            while (cur := crystal_E(i, cur)) is not None:
                n += 1
            if n != crystal_eps(i, m):
                bad += 1
    report(
        3,
        "theta crystal: formula/signature agreement and crystal axioms "
        "(window -5..5, degree <= 6)",
        bad == 0,
    )


def test_criterion_4_worked_graphs():
    ok = True
    # (a) the -1 chain for 8 steps in the (a,b) encoding
    expected = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0)]
    m = Multisegment.empty()
    chain = [(0, 0)]
    for _ in range(8):
        m = theta_Ftilde(1, m)
        chain.append((m.mult(-1, 1), m.mult(1, 1)))
    ok &= chain == expected
    # (b) the double ladder at n = 3 up to 4<3>
    for k in range(0, 4):
        cur = M((3, 3, k)) if k else Multisegment.empty()
        up = M((3, 3, k + 1))
        ok &= theta_Ftilde(3, cur) == up
        ok &= a_ftilde(3, cur) == up
    # (c) the combined +-1 diagram at degree <= 3 covers the enumerated crystal
    nodes, _ = build_graph("theta", (-1, 1), 3)
    ok &= set(nodes) == set(enumerate_theta((-1, 1), 3))
    report(4, "worked crystal-graph fragments reproduced exactly", ok)


def test_criterion_5_algebra_relations(alg, mod):
    ok = True
    _, fails = suite_serre("typeA", WIN, 5)
    ok &= not fails
    _, fails = suite_qboson_relations("typeA", WIN, 5)
    ok &= not fails
    _, fails = suite_qboson_relations("theta", WIN, 5)
    ok &= not fails
    report(
        5,
        "Serre/distant relations and q-boson operator identities on all blocks "
        "of degree <= 5",
        ok,
    )


def test_criterion_6_basis_theorems(alg, mod):
    ok = True
    for ck in alg.block_keys(4):
        g = alg.gram_matrix(dict(ck))
        ok &= rank(g) == len(g)
    for key in mod.block_keys(4):
        try:
            block = mod.block(key)
            ok &= len(block["theta_basis"]) >= 1
        except ArithmeticError:
            ok = False
    report(
        6,
        "PBW Gram matrices nonsingular and quotient block dimensions match the "
        "restricted multisegment counts (degree <= 4)",
        ok,
    )


def _compat_ok(coords, target):
    if target is None:
        return all(c.in_qZq() for c in coords.values())
    if target not in coords:
        return False
    for mm, c in coords.items():
        d = c - RatFunc(1) if mm == target else c
        if not (d.is_zero() or d.in_qZq()):
            return False
        if not c.in_A0():
            return False
    return True


def test_criterion_7_crystal_pbw_compat(alg, mod):
    ok = True
    for m in enumerate_multisegments(WIN, 4):
        for i in WIN:
            x = alg.pbw_element(m)
            ok &= _compat_ok(alg.pbw_coords(alg.mod_ftilde(i, x)), a_ftilde(i, m))
            # Etilde^n vanishes mod qL exactly beyond epsilon
            eps = a_epsilon(i, m)
            cur, n = x, 0
            target = m
            while True:
                cur = alg.mod_etilde(i, cur)
                n += 1
                target = a_etilde(i, target) if target is not None else None
                coords = alg.pbw_coords(cur) if not cur.is_zero() else {}
                if n <= eps:
                    ok &= _compat_ok(coords, target)
                else:
                    ok &= all(c.in_qZq() for c in coords.values())
                    break
    for m in enumerate_theta(WIN, 4):
        v = mod.ptheta_vector(m)
        for i in WIN:
            et, ft = mod.theta_mod_ops(i, v)
            ok &= _compat_ok(mod.theta_coords(ft), crystal_F(i, m))
            eps = crystal_eps(i, m)
            cur, n, target = v, 0, m
            while True:
                cur = mod.theta_mod_etilde(i, cur)
                n += 1
                target = crystal_E(i, target) if target is not None else None
                coords = mod.theta_coords(cur) if not cur.rep.is_zero() else {}
                if n <= eps:
                    ok &= _compat_ok(coords, target)
                else:
                    ok &= all(c.in_qZq() for c in coords.values())
                    break
    report(
        7,
        "modified operators compatible with the combinatorial crystal mod qL, "
        "with the exact nilpotency threshold (degree <= 4)",
        ok,
    )


def test_criterion_8_global_bases(alg, mod):
    import random

    ok = True
    rng = random.Random(23)
    ctxs = [typeA_block(alg, dict(ck)) for ck in alg.block_keys(4)]
    ctxs += [theta_block(mod, dict(ck)) for ck in mod.block_keys(4)]
    for ctx in ctxs:
        try:
            B = bar_matrix(ctx)  # asserts unitriangularity + Laurent entries
            C = global_lower(ctx, B)  # asserts exact bar-invariance
            n = len(C.basis)
            for r in range(n):
                for c in range(n):
                    x = C.entries[r][c]
                    if r == c:
                        ok &= x == RatFunc(1)
                    else:
                        ok &= x.is_zero() or x.in_qZq()
            global_upper(ctx, C)  # asserts Gram(G) duality
            # balancedness witness on a deterministic Laurent vector
            coords = [
                RatFunc.q_power(rng.randint(-3, 3)) * RatFunc(rng.randint(-2, 2))
                for _ in range(n)
            ]
            pos, neg = balanced_split(ctx, coords)
            back = [RatFunc.zero()] * n
            for r in range(n):
                for c in range(n):
                    back[r] = back[r] + C.entries[r][c] * (pos[c] + neg[c])
            ok &= back == coords
            ok &= all(p.is_zero() or p.in_A0() for p in pos)
            ok &= all(v.is_zero() or v.in_Ainf() for v in neg)
        except ArithmeticError:
            ok = False
    report(
        8,
        "bar matrices unitriangular, lower basis bar-invariant with q-corrections, "
        "balanced splits and upper duality exact (degree <= 4)",
        ok,
    )


def test_criterion_9_multiplicity_polys(alg, mod):
    ok = True
    ctxs = [typeA_block(alg, dict(ck)) for ck in alg.block_keys(3)]
    ctxs += [theta_block(mod, dict(ck)) for ck in mod.block_keys(3)]
    ctxs += [typeA_block(alg, {}), theta_block(mod, {})]
    for ctx in ctxs:
        for i in WIN:
            for side in ("E", "F"):
                try:
                    ctx.shifted(i, -1 if side == "E" else +1)
                except ValueError:
                    continue
                try:
                    polys = multiplicity_polys(i, ctx, side)  # cross-checks routes
                except ArithmeticError:
                    ok = False
                    continue
                table, _ = q1_specialization(polys)
                ok &= all(v.denominator == 1 for v in table.values())
    report(
        9,
        "multiplicity polynomials: direct and adjoint routes agree, q=1 values "
        "integral (degree <= 3)",
        ok,
    )
