"""Blocks, and (index, block) pairs, that differ by a shift of the window
share their records.

A translate of a content block reuses its representative's word table,
canonical data, PBW elements and pairing rows, and a lone segment those of
its translate at the window's start; a translate of a pair (i, key) reuses the
e'_i / f_i block matrices and the multiplicity tables of its representative
pair.  Each shared record must equal the one computed directly, in a fresh
algebra whose window starts at the lowest letter of the block (for a pair:
of the key and i), where it is its own representative.
"""

from collections import Counter

import pytest

from symcrys import canonical, wordalg
from symcrys.canonical import (
    bar_matrix,
    global_lower,
    global_upper,
    lower_inverse,
    multiplicity_polys,
    typeA_block,
)
from symcrys.multisegment import Multisegment, window_segments
from symcrys.thetamodule import ThetaModule
from symcrys.wordalg import WordAlgebra, content_key, contents_up_to

WIN = (-3, -1, 1, 3)


def _block_records(alg, key):
    """Everything a block shares with its translates, as computed on `alg`."""
    ctx = typeA_block(alg, key)
    basis = alg.basis_of_content(key)
    return {
        "basis": basis,
        "gram": alg.gram_matrix(key),
        "table": alg._table(key)[1],
        "bar": bar_matrix(ctx),
        "lower": global_lower(ctx),
        "upper": global_upper(ctx),
        "upper_inv": ctx.upper_inv,
        "lower_inv": lower_inverse(ctx),
        "pbw": [(inv_d, tilde.terms) for inv_d, tilde in map(alg._pbw_parts, basis)],
        "rows": [alg._row_tilde(m) for m in basis],
    }


def _pair_records(alg, i, key):
    """Everything a pair (i, key) shares with its translates, as computed on
    `alg`; the tables as item lists, so their order is compared too."""
    ctx = typeA_block(alg, key)
    out = {
        "fmul": alg.fmul_matrix(i, key),
        "mult F": list(multiplicity_polys(i, ctx, "F").items()),
    }
    if dict(key).get(i):
        out["eprime"] = alg.eprime_matrix(i, key)
        out["mult E"] = list(multiplicity_polys(i, ctx, "E").items())
    return out


@pytest.mark.parametrize("window,degree", [(WIN, 4), (tuple(range(-5, 6, 2)), 3)])
def test_shared_records_equal_direct_ones(window, degree):
    shared = WordAlgebra(window)
    fresh = {}

    def direct(low):
        if low not in fresh:
            fresh[low] = WordAlgebra(range(low, window[-1] + 1, 2))
        return fresh[low]

    translates = below = 0
    for key in contents_up_to(window, degree):
        low = key[0][0]
        assert direct(low).representative(key) == (key, 0)
        rep, shift = shared.representative(key)
        assert shift == low - window[0] and rep[0][0] == window[0]
        assert _block_records(shared, key) == _block_records(direct(low), key), key
        for i in window:
            # F-side pairs with i below the key shift by less than the block
            pair_low = min(i, low)
            assert direct(pair_low).representative(key, i) == (key, 0)
            rep, shift = shared.representative(key, i)
            assert shift == pair_low - window[0]
            assert rep == tuple((k - shift, n) for k, n in key)
            translates += shift != 0
            below += shift != 0 and i < low
            assert _pair_records(shared, i, key) == _pair_records(direct(pair_low), i, key), (
                i, key)
    assert translates > 0 and below > 0
    # a lone segment translates like every multisegment: P~ and Phi~
    for seg in window_segments(window):
        lone = Multisegment({seg: 1})
        assert direct(seg.i).translation_shift(lone) == 0
        assert shared.translation_shift(lone) == seg.i - window[0]
        records = [(alg._pbw_parts(lone)[1].terms, alg._row_tilde(lone))
                   for alg in (shared, direct(seg.i))]
        assert records[0] == records[1], seg


def test_representatives():
    alg = WordAlgebra(WIN)
    assert alg.representative(content_key({1: 2, 3: 1})) == (content_key({-3: 2, -1: 1}), 4)
    assert alg.representative(content_key({-1: 1})) == (content_key({-3: 1}), 2)
    for key in [(), content_key({-3: 1, 3: 1}), content_key({5: 1}), content_key({1: 1, 5: 1})]:
        assert alg.representative(key) == (key, 0)
    # a pair shifts by its lowest letter among the key's and i
    key = content_key({1: 2, 3: 1})
    assert alg.representative(key, 3) == alg.representative(key, 1) == alg.representative(key)
    assert alg.representative(key, -1) == (content_key({-1: 2, 1: 1}), 2)
    assert alg.representative(key, -3) == (key, 0)
    assert alg.representative((), 1) == ((), 4)
    assert alg.representative((), 5) == ((), 0)
    mod = ThetaModule(WIN)
    assert mod.representative(content_key({3: 1})) == (content_key({3: 1}), 0)
    assert mod.representative(content_key({3: 1}), 1) == (content_key({3: 1}), 0)


def test_a_translate_reuses_the_records_of_its_representative():
    alg = WordAlgebra(WIN)
    rep, key = content_key({-3: 1, -1: 1}), content_key({1: 1, 3: 1})
    assert alg.gram_matrix(key) is alg.gram_matrix(rep)
    assert alg.eprime_matrix(3, key) is alg.eprime_matrix(-1, rep)
    assert alg.fmul_matrix(3, key) is alg.fmul_matrix(-1, rep)
    # the pair (-1, key) shifts by 2, less than the block: it shares the
    # matrix of (-3, {-1: 1, 1: 1}); the pair (-3, key) is its own
    assert alg.fmul_matrix(-1, key) is alg.fmul_matrix(-3, content_key({-1: 1, 1: 1}))
    assert ("fmul", -7, rep) not in alg._operator_mats
    assert len(alg.fmul_matrix(-3, key)) == len(alg.basis_of_content({-3: 1, 1: 1, 3: 1}))
    C = global_lower(typeA_block(alg, key))
    assert C.entries is global_lower(typeA_block(alg, rep)).entries
    assert C.label == "content {1: 1, 3: 1}" and C.basis is alg.basis_of_content(key)
    table = multiplicity_polys(3, typeA_block(alg, key), "E")
    assert table == {(b.shifted(4), bp.shifted(4)): c
                     for (b, bp), c in multiplicity_polys(-1, typeA_block(alg, rep), "E").items()}
    assert multiplicity_polys(3, typeA_block(alg, key), "E") is table


def test_a_sweep_computes_and_checks_each_pair_class_once(monkeypatch):
    """Every block of degree <= 3 on -3..3, every index and side whose target
    has degree <= 3: 120 multiplicity requests fall into 60 pair classes, so
    60 tables are computed, each direct/adjoint check runs once, on the
    class's representative, and 30 f_i matrices are built for 40 pairs."""
    computed, built = [], []
    real_mult = canonical._multiplicity_polys
    real_build = wordalg._image_matrix
    monkeypatch.setattr(canonical, "_multiplicity_polys", lambda i, ctx, side: (
        computed.append((i, ctx.key, side)) or real_mult(i, ctx, side)))
    # the direct build of a block matrix, below the cache of `operator_matrix`
    monkeypatch.setattr(wordalg, "_image_matrix", lambda space, i, key, step, image: (
        built.append((step, i, key)) or real_build(space, i, key, step, image)))
    alg = WordAlgebra(WIN)
    requests = 0
    for key in [()] + contents_up_to(WIN, 3):
        ctx = typeA_block(alg, key)
        for i in WIN:
            for side in ("E", "F") if dict(key).get(i) else ("F",):
                if side == "F" and sum(n for _, n in key) == 3:
                    continue
                assert multiplicity_polys(i, ctx, side) is multiplicity_polys(i, ctx, side)
                requests += 1
    assert requests == 120
    assert len(computed) == len(set(computed)) == 60
    assert all(alg.representative(key, i) == (key, 0) for i, key, _ in computed)
    assert len(built) == len(set(built)) == 60
    assert len([b for b in built if b[0] == +1]) == 30


def test_a_sweep_compares_each_translate_basis_once(monkeypatch):
    """Every block of degree <= 3 on -3..3, with its Gram matrix, canonical
    bases and inverses, and every e'_i and f_i matrix whose target has degree
    <= 3: the basis guard compares each of the 19 translate blocks with its
    representative's shifted basis once.  A comparison shifts the whole
    representative basis up into the translate block, and nothing else in
    this sweep shifts a multisegment up (a translate's PBW element shifts
    its multisegment down to its representative's)."""
    up = Counter()
    real = Multisegment.shifted

    def shifted(m, step):
        out = real(m, step)
        if step > 0:
            up[content_key(out.content())] += 1
        return out

    monkeypatch.setattr(Multisegment, "shifted", shifted)
    alg = WordAlgebra(WIN)
    for key in contents_up_to(WIN, 3):
        ctx = typeA_block(alg, key)
        alg.gram_matrix(key)
        global_upper(ctx)
        lower_inverse(ctx)
        for i in WIN:
            if dict(key).get(i):
                alg.eprime_matrix(i, key)
            if sum(n for _, n in key) < 3:
                alg.fmul_matrix(i, key)
    translates = [key for key in contents_up_to(WIN, 3) if alg.representative(key)[1]]
    assert len(translates) == 19
    assert up == {key: len(alg.basis_of_content(key)) for key in translates}


@pytest.mark.parametrize("corrupt, call, label", [
    ({-3: 1, -1: 1}, lambda alg: alg.gram_matrix({1: 1, 3: 1}), "content {1: 1, 3: 1}"),
    ({-3: 1, -1: 1}, lambda alg: alg.eprime_matrix(3, {1: 1, 3: 1}), "content {1: 1, 3: 1}"),
    ({-3: 1, -1: 1}, lambda alg: global_lower(typeA_block(alg, {1: 1, 3: 1})),
     "content {1: 1, 3: 1}"),
    # the guard on the target block of a shared matrix
    ({-3: 1, -1: 2}, lambda alg: alg.fmul_matrix(3, {1: 1, 3: 1}), "content {1: 1, 3: 2}"),
    # a multiplicity table: its source block, then its target block
    ({-3: 1, -1: 1}, lambda alg: multiplicity_polys(3, typeA_block(alg, {1: 1, 3: 1}), "E"),
     "content {1: 1, 3: 1}"),
    ({-3: 1, -1: 1}, lambda alg: multiplicity_polys(1, typeA_block(alg, {-1: 1}), "F"),
     "content {-1: 1, 1: 1}"),
    # pairs with i below the key, which shift by less than their block
    ({-3: 1, -1: 1, 1: 1}, lambda alg: alg.fmul_matrix(-1, {1: 1, 3: 1}),
     "content {-1: 1, 1: 1, 3: 1}"),
    ({-3: 1, -1: 1, 1: 1},
     lambda alg: multiplicity_polys(-1, typeA_block(alg, {1: 1, 3: 1}), "F"),
     "content {-1: 1, 1: 1, 3: 1}"),
], ids=["word-table", "block-matrix", "canonical", "matrix-target", "multiplicity",
        "multiplicity-target", "pair-matrix-target", "pair-multiplicity-target"])
def test_the_basis_guard_refuses_a_corrupted_representative_basis(corrupt, call, label):
    alg = WordAlgebra(WIN)
    key = content_key(corrupt)
    alg._basis[key] = alg.basis_of_content(key)[::-1]
    with pytest.raises(ArithmeticError, match=f"^{label}: basis is not the basis of "):
        call(alg)


def test_a_translate_of_a_failing_representative_is_computed_directly(monkeypatch):
    """A representative that raises is not reported for its translate: the
    translate computes its own record, which here succeeds, and an error
    from its own computation names it."""
    rep, key = content_key({-3: 1, -1: 1}), content_key({1: 1, 3: 1})
    real_column = WordAlgebra.bar_column

    def bar_column(self, m, k):
        if k == rep:
            raise ArithmeticError("broken representative")
        return real_column(self, m, k)

    monkeypatch.setattr(WordAlgebra, "bar_column", bar_column)
    alg = WordAlgebra(WIN)
    assert global_upper(typeA_block(alg, key)) == global_upper(
        typeA_block(WordAlgebra((1, 3)), key))
    with pytest.raises(ArithmeticError, match="broken representative"):
        bar_matrix(typeA_block(alg, rep))

    def word_table(self, k):
        raise ArithmeticError(f"{self.block_label(k)}: no table")

    monkeypatch.setattr(WordAlgebra, "_word_table", word_table)
    with pytest.raises(ArithmeticError, match=r"^content \{1: 1, 3: 1\}: no table$"):
        WordAlgebra(WIN).gram_matrix(key)


def test_a_program_error_in_a_representative_is_not_hidden(monkeypatch):
    """Only a failed check (ArithmeticError) of the representative lets a
    translate compute its own record; any other error is a fault of the
    program and reaches the caller."""
    rep, key = content_key({-3: 1, -1: 1}), content_key({1: 1, 3: 1})
    real_column = WordAlgebra.bar_column

    def bar_column(self, m, k):
        if k == rep:
            raise TypeError("planted fault")
        return real_column(self, m, k)

    monkeypatch.setattr(WordAlgebra, "bar_column", bar_column)
    with pytest.raises(TypeError, match="planted fault"):
        global_upper(typeA_block(WordAlgebra(WIN), key))


def test_a_translate_of_a_failing_representative_pair_is_computed_directly(monkeypatch):
    """A representative pair that raises is not reported for its translate
    pairs: each computes its own block matrix and multiplicity table, which
    here succeed, and an error from its own computation names it."""
    rep = content_key({-1: 1})  # the pair (-3, rep) represents (-1, {1: 1}) and (1, {3: 1})
    real_build = wordalg.operator_matrix
    real_mult = canonical._multiplicity_polys

    def build(space, name, i, key, *rest):
        if (i, key) == (-3, rep):
            raise ArithmeticError("broken representative pair")
        return real_build(space, name, i, key, *rest)

    def mult(i, ctx, side):
        if (i, ctx.key) == (-3, rep):
            raise ArithmeticError("broken representative pair")
        return real_mult(i, ctx, side)

    monkeypatch.setattr(wordalg, "operator_matrix", build)
    monkeypatch.setattr(canonical, "_multiplicity_polys", mult)
    alg = WordAlgebra(WIN)
    for i, key in [(-1, {1: 1}), (1, {3: 1})]:
        direct = WordAlgebra(range(i, 5, 2))
        assert alg.fmul_matrix(i, key) == direct.fmul_matrix(i, key)
        assert multiplicity_polys(i, typeA_block(alg, key), "F") == multiplicity_polys(
            i, typeA_block(direct, key), "F")
    with pytest.raises(ArithmeticError, match="broken representative pair"):
        alg.fmul_matrix(-3, rep)
    with pytest.raises(ArithmeticError, match="broken representative pair"):
        multiplicity_polys(-3, typeA_block(alg, rep), "F")

    def no_table(i, ctx, side):
        raise ArithmeticError(f"{ctx.label}: no table")

    monkeypatch.setattr(canonical, "_multiplicity_polys", no_table)
    with pytest.raises(ArithmeticError, match=r"^content \{1: 1\}: no table$"):
        multiplicity_polys(-1, typeA_block(WordAlgebra(WIN), {1: 1}), "F")
