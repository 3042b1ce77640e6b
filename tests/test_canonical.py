import pytest

from symcrys.canonical import (
    TransitionMatrix,
    TriangularityError,
    balanced_split,
    bar_matrix,
    global_lower,
    global_upper,
    lower_inverse,
    multiplicity_polys,
    q1_specialization,
    theta_block,
    typeA_block,
)
from symcrys import linalg
from symcrys.linalg import identity, inverse, mat_mul
from symcrys.multisegment import Multisegment, Segment
from symcrys.ratfunc import RatFunc, parse_ratfunc
from symcrys.thetamodule import ThetaModule
from symcrys.wordalg import WordAlgebra

WIN = (-3, -1, 1, 3)


@pytest.fixture(scope="module")
def alg():
    return WordAlgebra(WIN)


@pytest.fixture(scope="module")
def mod():
    return ThetaModule(WIN)


def R(text):
    return parse_ratfunc(text)


def M(*pairs):
    return Multisegment({Segment(i, j): m for (i, j, m) in pairs})


# -- bar matrices ------------------------------------------------------------

def test_bar_matrix_singleton(alg):
    tm = bar_matrix(typeA_block(alg, {1: 1}))
    assert tm.entries == [[R("1")]]


def test_bar_matrix_typeA_13(alg):
    tm = bar_matrix(typeA_block(alg, {1: 1, 3: 1}))
    assert tm.basis == [M((1, 3, 1)), M((1, 1, 1), (3, 3, 1))]
    assert tm.entry(M((1, 3, 1)), M((1, 3, 1))) == R("1")
    assert tm.entry(M((1, 1, 1), (3, 3, 1)), M((1, 3, 1))) == R("q - q^-1")
    assert tm.entry(M((1, 3, 1)), M((1, 1, 1), (3, 3, 1))).is_zero()


def test_bar_matrix_theta_block(mod):
    tm = bar_matrix(theta_block(mod, {1: 2}))
    assert tm.basis == [M((-1, 1, 1)), M((1, 1, 2))]
    assert tm.entries[0][0] == R("1") and tm.entries[1][1] == R("1")
    assert tm.entries[0][1].is_zero()
    assert tm.entries[1][0].in_A()


def test_bar_is_involution(alg, mod):
    for ctx in [
        typeA_block(alg, {1: 2, 3: 1}),
        typeA_block(alg, {-1: 1, 1: 1, 3: 1}),
        theta_block(mod, {1: 2}),
        theta_block(mod, {1: 1, 3: 1}),
        theta_block(mod, {1: 3}),
    ]:
        B = bar_matrix(ctx).entries
        barB = [[x.bar() for x in row] for row in B]
        prod = mat_mul(B, barB)
        n = len(B)
        for r in range(n):
            for c in range(n):
                assert prod[r][c] == (R("1") if r == c else RatFunc.zero())


# -- lower global basis ------------------------------------------------------

def test_global_lower_typeA_13(alg):
    ctx = typeA_block(alg, {1: 1, 3: 1})
    C = global_lower(ctx)
    assert C.entry(M((1, 3, 1)), M((1, 3, 1))) == R("1")
    assert C.entry(M((1, 1, 1), (3, 3, 1)), M((1, 3, 1))) == R("q")
    # G^low(<1,3>) = f_1 f_3, manifestly bar-invariant
    vec = alg.zero()
    for r, m in enumerate(C.basis):
        vec = vec + alg.pbw_element(m).scale(C.entries[r][0])
    assert vec == alg.f(1, 3)


def test_global_lower_theta_2x2_hand_check(mod):
    """Solve the 2x2 bar-fixation by hand: the correction c must satisfy
    c - bar(c) = -(bar entry) with c in qQ[q]."""
    ctx = theta_block(mod, {1: 2})
    B = bar_matrix(ctx)
    C = global_lower(ctx, B)
    r = B.entries[1][0]
    c = C.entries[1][0]
    # bar-invariance row by row: c = B10 * bar(1) + 1 * bar(c), so c - bar(c) = r
    assert c - c.bar() == r
    assert c.is_zero() or c.in_qZq()


def test_global_lower_offdiag_in_qZq(alg, mod):
    for ctx in [
        typeA_block(alg, {1: 2, 3: 1}),
        theta_block(mod, {1: 3}),
        theta_block(mod, {1: 1, 3: 1}),
    ]:
        C = global_lower(ctx)
        n = len(C.basis)
        for r in range(n):
            for c in range(n):
                x = C.entries[r][c]
                if r == c:
                    assert x == R("1")
                else:
                    assert x.is_zero() or x.in_qZq()


def test_global_lower_deterministic(alg):
    ctx = typeA_block(alg, {1: 2, 3: 1})
    a = global_lower(ctx).entries
    b = global_lower(ctx).entries
    assert a == b


# -- upper basis and duality -------------------------------------------------

def test_global_upper_duality(alg, mod):
    for ctx in [
        typeA_block(alg, {1: 1, 3: 1}),
        typeA_block(alg, {1: 2}),
        theta_block(mod, {1: 2}),
        theta_block(mod, {1: 1, 3: 1}),
    ]:
        C = global_lower(ctx)
        U = global_upper(ctx, C)  # raises on any duality failure
        n = len(C.basis)
        G = ctx.gram()
        # (G^up(b), G^low(b')) = delta, spelled out
        for b in range(n):
            for bp in range(n):
                acc = RatFunc.zero()
                for r in range(n):
                    for s in range(n):
                        acc = acc + U.entries[r][b] * G[r][s] * C.entries[s][bp]
                assert acc == (R("1") if b == bp else RatFunc.zero())


def test_upper_singleton_normalization(alg):
    ctx = typeA_block(alg, {1: 1})
    U = global_upper(ctx)
    p = alg.form(alg.f(1), alg.f(1))
    assert U.entries[0][0] * p == R("1")


# -- balancedness ------------------------------------------------------------

def test_balanced_split_round_trip(alg):
    ctx = typeA_block(alg, {1: 1, 3: 1})
    C = global_lower(ctx)
    coords = [R("q^2 + q^-1"), R("3 - q^-3")]
    pos, neg = balanced_split(ctx, coords, C)
    for a in pos:
        assert a.is_zero() or a.in_A0()
    for a in neg:
        assert a.is_zero() or (a.in_Ainf() and not a.in_A0())
    # recombining reproduces the input
    n = len(C.basis)
    back = [RatFunc.zero()] * n
    for r in range(n):
        for c in range(n):
            back[r] = back[r] + C.entries[r][c] * (pos[c] + neg[c])
    assert back == coords


# -- multiplicity polynomials ------------------------------------------------

def test_multiplicity_typeA_example(alg):
    ctx = typeA_block(alg, {})
    polys = multiplicity_polys(1, ctx, "F")
    assert polys == {(Multisegment.empty(), M((1, 1, 1))): R("1")}


def test_multiplicity_theta_example(mod):
    ctx = theta_block(mod, {})
    polys = multiplicity_polys(-1, ctx, "F")
    assert polys == {(Multisegment.empty(), M((1, 1, 1))): R("1")}


def test_multiplicity_cross_check_blocks(alg, mod):
    # the two routes are cross-checked inside multiplicity_polys; exercise
    # several blocks and both sides
    for ctx, idx in [
        (typeA_block(alg, {1: 1, 3: 1}), 1),
        (typeA_block(alg, {1: 2}), 1),
        (theta_block(mod, {1: 2}), 1),
        (theta_block(mod, {1: 1, 3: 1}), -3),
    ]:
        for side in ("E", "F"):
            polys = multiplicity_polys(idx, ctx, side)
            table, warnings = q1_specialization(polys)
            assert warnings == []
            for v in table.values():
                assert v.denominator == 1 and v >= 0


def test_q1_integrality(mod):
    ctx = theta_block(mod, {1: 2})
    polys = multiplicity_polys(-1, ctx, "F")
    table, _ = q1_specialization(polys)
    for v in table.values():
        assert v.denominator == 1


# -- per-algebra memo of block contexts and their matrices -------------------

# (block factory, algebra constructor, an index raising the letter 1) per setting
SETTINGS = [(typeA_block, lambda: WordAlgebra(WIN), 1),
            (theta_block, lambda: ThetaModule(WIN), -1)]


@pytest.mark.parametrize("factory,make,idx", SETTINGS)
def test_block_factory_returns_one_context_per_key(factory, make, idx):
    a = make()
    ctx = factory(a, {1: 1, 3: 1})
    assert factory(a, {3: 1, 1: 1, -3: 0}) is ctx  # zero counts are dropped
    assert ctx.shifted(idx, +1) is factory(a, {1: 2, 3: 1})
    assert ctx.shifted(idx, -1) is factory(a, {3: 1})
    assert factory(make(), {1: 1, 3: 1}) is not ctx


def _count_bar_columns(ctx, calls):
    inner = ctx.bar_column

    def counted(idx):
        calls.append((ctx.label, idx))
        return inner(idx)

    ctx.bar_column = counted


@pytest.mark.parametrize("factory,make,idx", SETTINGS)
def test_multiplicity_reuses_the_memoized_bases(factory, make, idx):
    ctx = factory(make(), {1: 1, 3: 1})
    tgt = ctx.shifted(idx, +1)
    calls = []
    _count_bar_columns(ctx, calls)
    _count_bar_columns(tgt, calls)
    first = multiplicity_polys(idx, ctx, "F")
    # every bar column of both blocks is computed exactly once
    assert sorted(calls) == sorted(
        [(ctx.label, k) for k in range(len(ctx.basis()))]
        + [(tgt.label, k) for k in range(len(tgt.basis()))]
    )

    ctx = factory(make(), {1: 1, 3: 1})
    tgt = ctx.shifted(idx, +1)
    global_upper(ctx)
    global_upper(tgt)
    calls = []
    _count_bar_columns(ctx, calls)
    _count_bar_columns(tgt, calls)
    assert multiplicity_polys(idx, ctx, "F") == first
    assert multiplicity_polys(idx, tgt, "E")
    assert calls == []


@pytest.mark.parametrize("factory,make,idx", SETTINGS)
def test_multiplicity_solves_nothing_once_the_inverses_are_stored(factory, make, idx,
                                                                  monkeypatch):
    ctx = factory(make(), {1: 1, 3: 1})
    tgt = ctx.shifted(idx, +1)
    for c in (ctx, tgt):
        global_upper(c)
        assert c.upper_inv == inverse(c.upper.entries)
        assert lower_inverse(c) == inverse(c.lower.entries)
    calls = []
    real_solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    assert multiplicity_polys(idx, ctx, "F")
    assert multiplicity_polys(idx, tgt, "E")
    assert calls == []


@pytest.mark.parametrize("factory,make,idx", SETTINGS)
def test_explicit_bar_and_lower_are_used_not_stored(factory, make, idx):
    ctx = factory(make(), {1: 1, 3: 1})
    n = len(ctx.basis())
    assert n >= 2
    ident = TransitionMatrix(ctx.label, ctx.basis(), identity(n))
    # the identity is a valid bar matrix whose lower basis is the identity
    assert global_lower(ctx, ident).entries == identity(n)
    assert ctx.bar is None and ctx.lower is None
    U_ident = global_upper(ctx, ident)
    assert ctx.lower is None and ctx.upper is None
    C = global_lower(ctx)
    assert C.entries != identity(n)
    assert ctx.bar is bar_matrix(ctx) and ctx.lower is C
    U = global_upper(ctx)
    assert U.entries != U_ident.entries
    assert ctx.upper is U and global_upper(ctx) is U
    # passing the block's own memoized matrices is the same as passing none
    assert global_lower(ctx, ctx.bar) is C and global_upper(ctx, C) is U


@pytest.mark.parametrize("factory,make,letters", [
    (typeA_block, lambda: WordAlgebra(WIN), WIN),
    (theta_block, lambda: ThetaModule(WIN), (1, 3)),
])
def test_memoized_matrices_equal_fresh_ones(factory, make, letters):
    keys = [{}] + [{a: 1} for a in letters] + [
        {a: 2} if a == b else {a: 1, b: 1} for a in letters for b in letters if a <= b
    ]
    shared = make()
    # fill the memo through multiplicity_polys and shifted contexts first
    for key in keys:
        if sum(key.values()) < 2:
            for i in WIN:
                multiplicity_polys(i, factory(shared, key), "F")
    for key in keys:
        ctx = factory(shared, key)
        fresh = factory(make(), key)
        assert bar_matrix(ctx).entries == bar_matrix(fresh).entries
        assert global_lower(ctx).entries == global_lower(fresh).entries
        assert global_upper(ctx).entries == global_upper(fresh).entries
