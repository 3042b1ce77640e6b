"""The q-boson split x = sum_n F_i^(n) u_n with E_i u_n = 0, read off from
the top by `wordalg.qboson_split`, against a kernel-and-solve reference."""

import random

import pytest

from symcrys import canonical, linalg, thetamodule, wordalg
from symcrys.linalg import identity, mat_vec, nullspace, solve_rect
from symcrys.ratfunc import RatFunc, qfact
from symcrys.thetamodule import ThetaModule
from symcrys.wordalg import WordAlgebra, qboson_split

WIN = (-3, -1, 1, 3)


def kernel_split(space, i, key, column):
    """The q-boson split by linear algebra: a kernel basis of E_i on every
    sub-block key - n letters, each basis vector lifted by F_i^(n), and one
    solve of the rectangular system those lifts make.  Returns what
    `qboson_split` returns: (n, block key of u_n, column of u_n) for every
    nonzero u_n, n ascending."""
    letter = space.letter(i)
    columns, tags = [], []
    sub = key
    for n in range(dict(key).get(letter, 0) + 1):
        if n:
            sub = space.shifted_key(sub, i, -1)
        size = len(space.basis_of_content(sub))
        if not size:
            continue
        if dict(sub).get(letter):
            kern = nullspace(space.lower_matrix(i, sub), ncols=size)
        else:
            kern = identity(size)
        scale = RatFunc(1) / RatFunc(qfact(n))
        for vec in kern:
            lifted, cur = vec, sub
            for _ in range(n):
                lifted = mat_vec(space.raise_matrix(i, cur), lifted)
                cur = space.shifted_key(cur, i, +1)
            columns.append([scale * v for v in lifted])
            tags.append((n, vec, sub))
    matrix = [[col[r] for col in columns] for r in range(len(column))]
    lam = solve_rect(matrix, column)
    parts = {}
    for coef, (n, vec, sub) in zip(lam, tags):
        if not coef.is_zero():
            acc = parts.setdefault(n, [[RatFunc.zero()] * len(vec), sub])
            acc[0] = [a + coef * b for a, b in zip(acc[0], vec)]
    return [(n, sub, col) for n, (col, sub) in sorted(parts.items()) if any(col)]


def _columns(rng, size):
    """Every unit column of the size, and one seeded integer combination."""
    units = [[RatFunc(int(r == c)) for r in range(size)] for c in range(size)]
    return units + [[RatFunc(rng.choice((-2, -1, 1, 2, 3))) for _ in range(size)]]


@pytest.mark.parametrize("space", [WordAlgebra, ThetaModule])
def test_split_from_the_top_is_the_kernel_and_solve_split(space):
    space = space(WIN)
    rng = random.Random(7)
    cases = 0
    for key in space.block_keys(4):
        for column in _columns(rng, len(space.basis_of_content(key))):
            for i in WIN:
                parts = qboson_split(space, i, key, column)
                assert parts == kernel_split(space, i, key, column), (key, i, column)
                cases += 1
    assert cases == {WordAlgebra: 800, ThetaModule: 188}[type(space)]


def _skewed(space):
    """The space with its lowering block matrices scaled by q, which breaks
    the relation E_i F_i = q^-2 F_i E_i + 1 the split rests on."""

    class Skewed(space):
        def lower_matrix(self, i, key):
            q = RatFunc.q_power(1)
            return [[q * x for x in row] for row in super().lower_matrix(i, key)]

    return Skewed(WIN)


@pytest.mark.parametrize("space,label", [
    (WordAlgebra, "content {1: 2}"), (ThetaModule, "symmetrized content {1: 2}"),
])
def test_a_broken_relation_stops_the_split(space, label):
    space = _skewed(space)
    key = wordalg.content_key({1: 2})
    column = [RatFunc(1)] * len(space.basis_of_content(key))  # E_1 does not kill it
    with pytest.raises(ArithmeticError, match=label):
        qboson_split(space, 1, key, column)


def test_the_split_makes_no_solve(monkeypatch):
    """Once the blocks are built, the modified root operators read the split
    from the cached block matrices: no solve, kernel or rectangular solve."""
    alg = WordAlgebra(WIN)
    mod = ThetaModule(WIN, alg)
    runs = [
        (alg.mod_ftilde, [alg.pbw_element(m) for key in [()] + alg.block_keys(3)
                          for m in alg.basis_of_content(key)]),
        (mod.theta_mod_ftilde, [mod.ptheta_vector(m) for key in [()] + mod.block_keys(3)
                                for m in mod.basis_of_content(key)]),
    ]
    for op, vectors in runs:  # builds every block and block matrix they use
        for x in vectors:
            for i in WIN:
                op(i, x)
    calls = []
    for module in (linalg, wordalg, thetamodule, canonical):
        for name in ("solve", "nullspace", "solve_rect"):
            real = getattr(module, name, None)
            if real is not None:
                monkeypatch.setattr(module, name, lambda *a, _f=real, _n=name, **k: (
                    calls.append(_n) or _f(*a, **k)))
    for op, vectors in runs:
        for x in vectors:
            for i in WIN:
                op(i, x)
    assert calls == []
