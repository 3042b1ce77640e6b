"""Blocks that differ by a shift of the window share their records.

A translate of a content block reuses its representative's word table,
e'_i / f_i block matrices and canonical data.  Each shared record must equal
the one computed directly, in a fresh algebra whose window starts at the
block's lowest letter, where the block is its own representative.
"""

import pytest

from symcrys.canonical import (
    bar_matrix,
    global_lower,
    global_upper,
    lower_inverse,
    multiplicity_polys,
    typeA_block,
)
from symcrys.thetamodule import ThetaModule
from symcrys.wordalg import WordAlgebra, content_key, contents_up_to

WIN = (-3, -1, 1, 3)


def _records(alg, key, indices):
    """Everything a block shares with its translates, as computed on `alg`."""
    ctx = typeA_block(alg, key)
    out = {
        "basis": alg.basis_of_content(key),
        "gram": alg.gram_matrix(key),
        "table": alg._table(key)[1],
        "bar": bar_matrix(ctx),
        "lower": global_lower(ctx),
        "upper": global_upper(ctx),
        "upper_inv": ctx.upper_inv,
        "lower_inv": lower_inverse(ctx),
    }
    for i in indices:
        out["fmul", i] = alg.fmul_matrix(i, key)
        out["mult F", i] = multiplicity_polys(i, ctx, "F")
        if dict(key).get(i):
            out["eprime", i] = alg.eprime_matrix(i, key)
            out["mult E", i] = multiplicity_polys(i, ctx, "E")
    return out


@pytest.mark.parametrize("window,degree", [(WIN, 4), (tuple(range(-5, 6, 2)), 3)])
def test_shared_records_equal_direct_ones(window, degree):
    shared = WordAlgebra(window)
    fresh = {}
    translates = 0
    for key in contents_up_to(window, degree):
        low = key[0][0]
        if low not in fresh:
            fresh[low] = WordAlgebra(range(low, window[-1] + 1, 2))
        direct = fresh[low]
        assert direct.representative(key) == (key, 0)
        rep, shift = shared.representative(key)
        assert shift == low - window[0] and rep[0][0] == window[0]
        translates += shift != 0
        indices = direct.window  # every index the fresh window can apply
        assert _records(shared, key, indices) == _records(direct, key, indices), key
    assert translates > 0


def test_representatives():
    alg = WordAlgebra(WIN)
    assert alg.representative(content_key({1: 2, 3: 1})) == (content_key({-3: 2, -1: 1}), 4)
    assert alg.representative(content_key({-1: 1})) == (content_key({-3: 1}), 2)
    for key in [(), content_key({-3: 1, 3: 1}), content_key({5: 1}), content_key({1: 1, 5: 1})]:
        assert alg.representative(key) == (key, 0)
    mod = ThetaModule(WIN)
    assert mod.representative(content_key({3: 1})) == (content_key({3: 1}), 0)


def test_a_translate_reuses_the_records_of_its_representative():
    alg = WordAlgebra(WIN)
    rep, key = content_key({-3: 1, -1: 1}), content_key({1: 1, 3: 1})
    assert alg.gram_matrix(key) is alg.gram_matrix(rep)
    assert alg.eprime_matrix(3, key) is alg.eprime_matrix(-1, rep)
    assert alg.fmul_matrix(3, key) is alg.fmul_matrix(-1, rep)
    # f_{-3} on the translate has no representative index (-3 - 4 is no
    # letter), so the translate computes it
    assert ("fmul", -7, rep) not in alg._operator_mats
    assert len(alg.fmul_matrix(-3, key)) == len(alg.basis_of_content({-3: 1, 1: 1, 3: 1}))
    C = global_lower(typeA_block(alg, key))
    assert C.entries is global_lower(typeA_block(alg, rep)).entries
    assert C.label == "content {1: 1, 3: 1}" and C.basis is alg.basis_of_content(key)


@pytest.mark.parametrize("corrupt, call, label", [
    ({-3: 1, -1: 1}, lambda alg: alg.gram_matrix({1: 1, 3: 1}), "content {1: 1, 3: 1}"),
    ({-3: 1, -1: 1}, lambda alg: alg.eprime_matrix(3, {1: 1, 3: 1}), "content {1: 1, 3: 1}"),
    ({-3: 1, -1: 1}, lambda alg: global_lower(typeA_block(alg, {1: 1, 3: 1})),
     "content {1: 1, 3: 1}"),
    # the guard on the target block of a shared matrix
    ({-3: 1, -1: 2}, lambda alg: alg.fmul_matrix(3, {1: 1, 3: 1}), "content {1: 1, 3: 2}"),
], ids=["word-table", "block-matrix", "canonical", "matrix-target"])
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
