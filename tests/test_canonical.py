import dataclasses
import re

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
from symcrys import canonical, cli, linalg
from symcrys.linalg import identity, inverse, mat_mul
from symcrys.multisegment import Multisegment, Segment
from symcrys.ratfunc import RatFunc, parse_ratfunc
from symcrys.thetamodule import ThetaModule
from symcrys.verify import SUITES, _space
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
    pos, neg = balanced_split(ctx, coords)
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
    # a type-A block that is its own representative, so it computes its bases
    content = {-3: 1, -1: 1} if factory is typeA_block else {1: 1, 3: 1}
    ctx = factory(make(), content)
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

    ctx = factory(make(), content)
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


@pytest.mark.parametrize("factory,make", [s[:2] for s in SETTINGS])
def test_balanced_split_solves_nothing(factory, make, monkeypatch):
    """The split reads the stored C^{-1}."""
    ctx = factory(make(), {1: 1, 3: 1})
    C = global_lower(ctx)
    lower_inverse(ctx)
    coords = [RatFunc.q_power(k) - RatFunc(k) for k in range(C.size())]
    calls = []
    real_solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    pos, neg = balanced_split(ctx, coords)
    assert any(pos)
    assert calls == []


def test_typeA_blocks_are_inverted_without_elimination(monkeypatch):
    """The Gram matrix of every type-A block is diagonal, C unitriangular and
    G C lower triangular: the word tables read R = diag(1/G[m][m]) off the
    checked diagonal, and `global_upper` and `lower_inverse` invert by
    substitution, so no block is eliminated."""
    fresh = WordAlgebra(WIN)
    calls = []
    real_solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    keys = fresh.block_keys(3)
    assert len(keys) == 34
    for key in keys:
        ctx = typeA_block(fresh, key)
        global_upper(ctx)
        lower_inverse(ctx)
    assert calls == []


def _copy(tm):
    return TransitionMatrix(tm.label, tm.basis, [list(row) for row in tm.entries])


@pytest.mark.parametrize("factory,make,idx", SETTINGS)
def test_foreign_bar_and_lower_are_refused(factory, make, idx):
    """A `bar=` or `lower=` other than the block's own stored matrix raises
    ValueError naming the block, before and after the block's own are
    stored, and stores nothing: the identity, and a copy equal in value."""
    ctx = factory(make(), {1: 1, 3: 1})
    n = len(ctx.basis())
    assert n >= 2
    ident = TransitionMatrix(ctx.label, ctx.basis(), identity(n))
    refused = pytest.raises(ValueError, match="^" + re.escape(ctx.label) + ": ")

    def refuse_all(bar, lower):
        with refused:
            global_lower(ctx, bar)
        with refused:
            global_upper(ctx, lower)

    refuse_all(ident, ident)
    assert (ctx.bar, ctx.lower, ctx.upper, ctx.lower_inv) == (None, None, None, None)
    B = bar_matrix(ctx)
    C = global_lower(ctx)
    U = global_upper(ctx)
    assert C.entries != identity(n)
    assert _copy(B) == B and _copy(C) == C
    for bar, lower in [(ident, ident), (_copy(B), _copy(C))]:
        refuse_all(bar, lower)
    assert ctx.bar is B and ctx.lower is C and ctx.upper is U
    assert ctx.lower_inv is None


@pytest.mark.parametrize("factory,make,idx", SETTINGS)
def test_benchmark_call_shapes_return_the_stored_matrices(factory, make, idx):
    """The block's own matrices handed back, as the benchmark and `verify`
    do, are the same as no argument: the stored objects come back."""
    ctx = factory(make(), {1: 1, 3: 1})
    B = bar_matrix(ctx)
    C = global_lower(ctx, bar_matrix(ctx))
    assert ctx.bar is B and ctx.lower is C
    U = global_upper(ctx, global_lower(ctx))
    assert ctx.upper is U
    assert global_lower(ctx, B) is C and global_lower(ctx) is C
    assert global_upper(ctx, C) is U and global_upper(ctx) is U
    coords = [RatFunc.q_power(k) - RatFunc(k) for k in range(C.size())]
    split = balanced_split(ctx, coords)
    inv = ctx.lower_inv
    assert inv is not None and lower_inverse(ctx) is inv
    assert balanced_split(ctx, coords) == split and ctx.lower_inv is inv


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


def test_transition_matrix_keeps_the_dataclass_contract():
    """TransitionMatrix is a plain slotted class.  It behaves as the
    three-field dataclass it was: equal by class and fields, unhashable, with
    the dataclass repr."""
    Reference = dataclasses.make_dataclass("TransitionMatrix", ["label", "basis", "entries"])
    m, n = Multisegment({Segment(1, 1): 1}), Multisegment({Segment(3, 3): 1})
    args = ("A(1)", [m, n], [[RatFunc(1), RatFunc(0)], [parse_ratfunc("q"), RatFunc(1)]])
    tm = TransitionMatrix(*args)
    assert repr(tm) == repr(Reference(*args))
    assert tm == TransitionMatrix(label=args[0], basis=list(args[1]), entries=args[2])
    assert not tm != TransitionMatrix(*args)
    assert tm != TransitionMatrix("A(3)", *args[1:])
    assert tm != TransitionMatrix(args[0], args[1], [[RatFunc(1), RatFunc(0)], [RatFunc(0), RatFunc(1)]])
    assert tm != args and args != tm
    assert tm != Reference(*args)
    with pytest.raises(TypeError):
        hash(tm)
    assert not hasattr(tm, "__dict__")
    with pytest.raises(AttributeError):
        tm.note = "x"
    assert (tm.entry(n, m), tm.size()) == (parse_ratfunc("q"), 2)
    assert tm.to_json_obj() == {
        "label": "A(1)",
        "basis": [m.to_json_obj(), n.to_json_obj()],
        "entries": [["1", "0"], ["q", "1"]],
    }


# -- planted faults: each self-check names the block ---------------------------

REP = {-3: 1, -1: 1}  # a representative block of WIN with a 2-element basis


def _plant_bar_entry(monkeypatch, row, col, value):
    """Make `bar_column` put `value` at (row, col) of the bar matrix of REP."""
    real = WordAlgebra.bar_column

    def bar_column(self, m, key):
        out = real(self, m, key)
        if dict(key) == REP and m == self.basis_of_content(key)[col]:
            out = list(out)
            out[row] = value
        return out

    monkeypatch.setattr(WordAlgebra, "bar_column", bar_column)


def test_a_bar_component_on_a_crystal_larger_element_is_refused(monkeypatch):
    _plant_bar_entry(monkeypatch, 0, 1, RatFunc(1))
    ctx = typeA_block(WordAlgebra(WIN), REP)
    big, small = ctx.basis()
    with pytest.raises(TriangularityError, match=re.escape(
            f"content {REP}: bar({small}) has a component on the crystal-larger {big}")):
        bar_matrix(ctx)


def test_a_non_laurent_bar_entry_is_refused(monkeypatch):
    x = RatFunc(1) / R("1 + q")
    _plant_bar_entry(monkeypatch, 1, 0, x)
    ctx = typeA_block(WordAlgebra(WIN), REP)
    big, small = ctx.basis()
    with pytest.raises(TriangularityError, match=re.escape(
            f"content {REP}: bar entry {x} at ({small}, {big}) is not a Laurent polynomial")):
        bar_matrix(ctx)


@pytest.mark.parametrize("entry, why", [
    (RatFunc(1) / R("1 + q"), "is not a Laurent polynomial"),
    (R("q"), "is not bar-antisymmetric"),
])
def test_a_correction_term_that_cannot_be_split_fails_its_block(entry, why):
    """The lower basis splits each correction term r = c - bar(c); a stored
    bar matrix whose entry below the diagonal is not Laurent, or not
    bar-antisymmetric, makes that split fail, and the global-basis suite
    reports it on the block.  Its translates share its bar matrix, and each
    fails under its own label."""
    spaces = {}
    ctx = typeA_block(_space("typeA", WIN, spaces), REP)
    B = bar_matrix(ctx)
    entries = [list(row) for row in B.entries]
    entries[1][0] = entry
    ctx.bar = TransitionMatrix(B.label, B.basis, entries)
    checked, fails = SUITES["global-basis"]("typeA", WIN, 2, spaces)
    assert checked == 11
    assert fails == [f"content {c}: correction term {entry} {why}"
                     for c in (REP, {-1: 1, 1: 1}, {1: 1, 3: 1})]


@pytest.mark.parametrize("entry, why", [
    (RatFunc(1) / R("1 + q"), "is not a Laurent polynomial"),
    (R("q"), "is not bar-antisymmetric"),
])
def test_a_correction_term_that_cannot_be_split_names_its_block(entry, why):
    """`global_lower` itself names the block in a split failure, once."""
    ctx = typeA_block(WordAlgebra(WIN), REP)
    B = bar_matrix(ctx)
    entries = [list(row) for row in B.entries]
    entries[1][0] = entry
    ctx.bar = TransitionMatrix(B.label, B.basis, entries)
    message = f"content {REP}: correction term {entry} {why}"
    with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
        global_lower(ctx)


def test_global_basis_prints_the_block_of_a_split_failure(monkeypatch, capsys):
    """`symcrys global-basis` prints the split failure with the block's label:
    a bar entry q below the diagonal passes the triangularity check and
    is not bar-antisymmetric."""
    _plant_bar_entry(monkeypatch, 1, 0, R("q"))
    code = cli.main(["global-basis", "--mode", "typeA", "--window=-3,-1,1,3",
                     '{"-3":1,"-1":1}'])
    assert (code, capsys.readouterr().err) == (
        1, f"error: content {REP}: correction term q is not bar-antisymmetric\n")


def test_a_lower_basis_that_is_not_bar_invariant_is_refused(monkeypatch):
    real = canonical._split_antisymmetric
    monkeypatch.setattr(canonical, "_split_antisymmetric", lambda r: real(r) + R("q"))
    with pytest.raises(ArithmeticError, match=re.escape(
            f"content {REP}: lower global basis is not bar-invariant")):
        global_lower(typeA_block(WordAlgebra(WIN), REP))


def test_balanced_split_refuses_a_vector_that_is_not_A_integral():
    ctx = typeA_block(WordAlgebra(WIN), REP)
    with pytest.raises(ArithmeticError, match=re.escape(
            f"content {REP}: coordinate vector is not A-integral in the G basis")):
        balanced_split(ctx, [RatFunc(1) / R("1 + q"), RatFunc.zero()])


def test_a_non_laurent_multiplicity_is_refused(monkeypatch):
    """Scaling every e'_i and f_i block matrix by 1/(1 + q) scales both
    routes alike, so they agree, and the table is refused as not Laurent."""
    scale = RatFunc(1) / R("1 + q")
    for name in ("lower_matrix", "raise_matrix"):
        real = getattr(WordAlgebra, name)
        monkeypatch.setattr(WordAlgebra, name, lambda self, i, key, real=real: [
            [scale * c for c in row] for row in real(self, i, key)])
    with pytest.raises(ArithmeticError, match=r"^content \{-3: 1\}, side F, index -1: "
                       r"multiplicity .* is not a Laurent polynomial$"):
        multiplicity_polys(-1, typeA_block(WordAlgebra(WIN), {-3: 1}), "F")
