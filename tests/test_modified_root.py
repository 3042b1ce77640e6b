"""The modified root operators in block coordinates
(`wordalg.modified_root_column` and the `modified_root_op` wrapper over it),
and the P_theta coordinates a theta class vector keeps, against the word
route they replace."""

import pytest

from symcrys.ratfunc import RatFunc
from symcrys.thetamodule import ThetaClassVector, ThetaModule
from symcrys.verify import SUITES, _space
from symcrys.wordalg import (
    WordAlgebra,
    content_key,
    modified_root_column,
    modified_root_op,
    qboson_split,
    raise_divided,
)
from test_linalg import structure

WIN = (-3, -1, 1, 3)


def structures(mapping):
    """A dict of RatFuncs, each value as its `structure`."""
    return {k: structure(v) for k, v in mapping.items()}


def reference_op(space, i, x, key, step):
    """The operator as one function over the word route: the q-boson split
    of x's coordinate column (`coord_vector`), each part raised in block
    coordinates, the sum built once with `from_coords`.  Returns the
    coordinates given to `from_coords` and the vector it built."""
    cols = [
        raise_divided(space, i, sub, u, n + step)
        for n, sub, u in qboson_split(space, i, key, space.coord_vector(x, key))
        if n + step >= 0
    ]
    if not cols:
        return {}, space.from_coords({})
    basis = space.basis_of_content(space.shifted_key(key, i, step))
    total = [sum(c, RatFunc.zero()) for c in zip(*cols)]
    coords = {m: c for m, c in zip(basis, total) if c}
    return coords, space.from_coords(coords)


def plain(space, x):
    """x with no coordinates kept: a theta class vector rebuilt from its
    representative alone, so its coordinates take the fibre route."""
    return ThetaClassVector(x.rep, space) if isinstance(space, ThetaModule) else x


def basis_vector(space, m):
    if isinstance(space, ThetaModule):
        return space.ptheta_vector(m)
    return space.pbw_element(m)


def terms(space, x):
    return (x.rep if isinstance(space, ThetaModule) else x).terms


@pytest.mark.parametrize("space", [WordAlgebra, ThetaModule])
def test_the_column_kernel_and_the_wrapper_give_the_word_route(space):
    """On every basis vector of degree <= 4, index and step, the kernel on
    the unit column and the wrapper on the vector give the coordinates, and
    the vector, of the word route, coefficient types included."""
    space = space(WIN)
    cases = 0
    for key in [()] + space.block_keys(4):
        basis = space.basis_of_content(key)
        for r, m in enumerate(basis):
            unit = [RatFunc(1) if c == r else RatFunc.zero() for c in range(len(basis))]
            x = basis_vector(space, m)
            for i in WIN:
                for step in (-1, +1):
                    want, want_vec = reference_op(space, i, plain(space, x), key, step)
                    col = modified_root_column(space, i, key, unit, step)
                    if col is None:
                        got = {}
                    else:
                        tgt = space.basis_of_content(space.shifted_key(key, i, step))
                        got = {b: c for b, c in zip(tgt, col) if c}
                    assert structures(got) == structures(want), (m, i, step)
                    out = modified_root_op(space, i, x, key, step)
                    assert structures(terms(space, out)) == structures(terms(space, want_vec))
                    if isinstance(space, ThetaModule):
                        assert structures(out.coords) == structures(want), (m, i, step)
                    cases += 1
    assert cases == {WordAlgebra: 1056, ThetaModule: 272}[type(space)]


def test_carried_coordinates_are_the_fibre_coordinates():
    """Every P_theta(m)phi of degree <= 4, and every `from_coords` result
    (the modified root operators' images and one combination per block),
    carries the coordinates the fibre route reads off its representative."""
    mod = ThetaModule(WIN)
    checked = 0

    def check(v):
        nonlocal checked
        assert v.coords is not None
        key = v.sym_key()
        assert mod.coord_vector(v, key) == mod.coord_vector(plain(mod, v), key)
        checked += 1

    for key in [()] + mod.block_keys(4):
        basis = mod.basis_of_content(key)
        for m in basis:
            check(mod.ptheta_vector(m))
            for i in WIN:
                for v in (mod.theta_mod_etilde(i, mod.ptheta_vector(m)),
                          mod.theta_mod_ftilde(i, mod.ptheta_vector(m))):
                    if v.coords:
                        check(v)
        check(mod.from_coords({m: RatFunc.q_power(k) - RatFunc(k)
                               for k, m in enumerate(basis)}))
    assert checked == 34 + 88 + 136 + 15  # P_theta, etilde and ftilde images, blocks


def test_coordinates_outside_the_block_take_the_fibre_route():
    """Carried coordinates answer only for the block that holds them: asked
    for another block, `coord_vector` reads the fibre, which refuses the
    class as before."""
    mod = ThetaModule(WIN)
    m = mod.basis_of_content(content_key({1: 1}))[0]
    with pytest.raises(ValueError, match="outside the block"):
        mod.coord_vector(mod.ptheta_vector(m), content_key({3: 1}))


def test_vector_operations_carry_no_coordinates():
    mod = ThetaModule(WIN)
    basis = mod.basis_of_content(content_key({1: 1, 3: 1}))
    u = mod.ptheta_vector(basis[0])
    given = {basis[-1]: RatFunc.q_power(1)}
    w = mod.from_coords(given)
    given.clear()  # from_coords keeps a copy
    assert u.coords == {basis[0]: RatFunc(1)} and w.coords == {basis[-1]: RatFunc.q_power(1)}
    results = [u + w, u - w, -u, u.scale(RatFunc.q_power(2)), mod.bar_theta(u),
               mod.phi(), mod.from_words(u.rep)]
    results += [op(i, u) for i in WIN for op in (mod.E_op, mod.F_op, mod.T_op)]
    assert [v.coords for v in results] == [None] * len(results)


@pytest.mark.parametrize("mode, label", [("typeA", "content"), ("theta", "symmetrized")])
def test_a_corrupted_raising_matrix_fails_the_compatibility_check(mode, label):
    """pbw-crystal-compat runs in block coordinates, so it reads the cached
    raising matrices: F_1 on the block {1: 2} scaled by q makes the modified
    ftilde_1 of each of the block's basis vectors q times too large, and each
    fails, named by (m, i).  No other check of degree <= 2 raises through
    that block."""
    spaces = {}
    checked, fails = SUITES["pbw-crystal-compat"](mode, WIN, 2, spaces)
    assert fails == []
    space = _space(mode, WIN, spaces)
    key = content_key({1: 2})
    assert space.block_label(key).startswith(label)
    cache_key = (+1, 1, key)
    q = RatFunc.q_power(1)
    space._operator_mats[cache_key] = [[q * x for x in row]
                                       for row in space._operator_mats[cache_key]]
    again, fails = SUITES["pbw-crystal-compat"](mode, WIN, 2, spaces)
    assert again == checked
    assert fails == [f"modified ftilde incompatible with the crystal at {m}, index 1"
                     for m in space.basis_of_content(key)]
