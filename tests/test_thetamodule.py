import random

import pytest

from symcrys import linalg, thetamodule
from symcrys.linalg import echelon_form, mat_vec, rank, solve_vector
from symcrys.multisegment import Multisegment, Segment
from symcrys.ratfunc import RatFunc, parse_ratfunc, qfact, qint
from symcrys.theta import crystal_E, crystal_F, enumerate_theta
from symcrys.thetamodule import ThetaClassVector, ThetaModule, theta_scale
from symcrys.verify import suite_theta_dims
from symcrys.wordalg import content_key, shift_key
from test_linalg import reference_nullspace, structure

WIN = (-3, -1, 1, 3)


@pytest.fixture(scope="module")
def mod():
    return ThetaModule(WIN)


def R(text):
    return parse_ratfunc(text)


def M(*pairs):
    return Multisegment({Segment(i, j): m for (i, j, m) in pairs})


def test_window_must_be_symmetric():
    with pytest.raises(ValueError):
        ThetaModule((-1, 1, 3))


# -- generators and operators: frozen examples -------------------------------

def test_F_op_examples(mod):
    phi = mod.phi()
    assert mod.F_op(1, phi) == mod.from_words({(1,): R("1")})
    # f_1 phi = f_{-1} phi in the quotient
    assert mod.F_op(1, phi) == mod.F_op(-1, phi)
    assert mod.F_op(1, mod.from_words({(3,): R("1")})).rep == mod.alg.f(1, 3)
    assert mod.F_op(3, phi) == mod.ptheta_vector(M((3, 3, 1)))


def test_E_op_examples(mod):
    phi = mod.phi()
    assert mod.E_op(1, phi).rep.is_zero()
    f1 = mod.F_op(1, phi)
    fm1 = mod.F_op(-1, phi)
    assert mod.E_op(1, f1) == phi
    assert mod.E_op(1, fm1) == phi
    f13 = mod.from_words({(1, 3): R("1")})
    assert mod.E_op(3, f13) == mod.from_words({(1,): R("q")})


def test_T_op_examples(mod):
    phi = mod.phi()
    assert mod.T_op(1, phi) == phi
    f1 = mod.F_op(1, phi)
    # (alpha_1 + alpha_{-1}, alpha_1) = 2 - 1 = 1 since -1 and 1 are adjacent
    assert mod.T_op(1, f1).rep == f1.rep.scale(R("q^-1"))
    f3 = mod.F_op(3, phi)
    assert mod.T_op(1, f3).rep == f3.rep.scale(R("q"))


def test_T_op_matches_block_scalar(mod):
    v = mod.from_words({(1, 3, -1): R("1")})
    key = v.sym_key()
    assert mod.T_op(3, v).rep == v.rep.scale(mod.T_scalar(3, key))


# -- theta PBW vectors -------------------------------------------------------

def test_ptheta_examples(mod):
    assert mod.ptheta_vector(Multisegment.empty()) == mod.phi()
    p = mod.ptheta_vector(M((-1, 1, 1)))
    want = (mod.alg.f(-1, 1) - mod.alg.f(1, -1).scale(R("q"))).scale(
        R("1") / R("q + q^-1")
    )
    assert p.rep == want
    p2 = mod.ptheta_vector(M((1, 1, 2)))
    assert p2.rep == mod.alg.f(1, 1).scale(R("1") / R("q + q^-1"))


def reference_ptheta(alg, m):
    """P_theta(m) as the ordered product of segment powers, each divided by
    [a]!, or by prod_{nu<=a} [2 nu] for a symmetric segment <-j,j>."""
    out = alg.one()
    for seg in m.segments_desc_pbw():
        mult = m.entries[seg]
        piece = alg.pbw_segment(seg.i, seg.j)
        for _ in range(mult):
            out = alg.mul(out, piece)
        if seg.i == -seg.j:
            norm = RatFunc(1)
            for nu in range(1, mult + 1):
                norm = norm * RatFunc(qint(2 * nu))
        else:
            norm = RatFunc(qfact(mult))
        out = out.scale(RatFunc(1) / norm)
    return out


@pytest.mark.parametrize("window,degree", [(WIN, 4), (tuple(range(-5, 6, 2)), 3)])
def test_ptheta_is_the_scaled_pbw_element(window, degree):
    module = ThetaModule(window)
    msegs = enumerate_theta(window, degree)
    assert any(theta_scale(m) != RatFunc(1) for m in msegs)
    for m in msegs:
        assert module.ptheta_vector(m).rep == reference_ptheta(module.alg, m), m


def test_ptheta_rejects_unrestricted(mod):
    with pytest.raises(ValueError):
        mod.ptheta_vector(M((-1, -1, 1)))


# -- coordinates -------------------------------------------------------------

def test_theta_coords_examples(mod):
    m = M((-1, 1, 1), (3, 3, 1))
    assert mod.theta_coords(mod.ptheta_vector(m)) == {m: R("1")}
    v = mod.from_words({(-1,): R("1")})
    assert mod.theta_coords(v) == {M((1, 1, 1)): R("1")}
    v2 = mod.from_words({(1, 1): R("1")})
    assert mod.theta_coords(v2) == {M((1, 1, 2)): R("q + q^-1")}


def test_block_dimensions(mod):
    # quotient dimension equals the number of restricted multisegments per block
    for sym in [{1: 1}, {1: 2}, {1: 3}, {3: 2}, {1: 2, 3: 1}, {1: 1, 3: 2}]:
        mod.block(content_key(sym))  # raises on any mismatch


def test_E_op_well_defined_on_ideal(mod):
    assert mod.ideal_generators(()) == []  # the ideal has no degree-0 part
    for sym in [{1: 1}, {1: 2}, {3: 1}, {1: 1, 3: 1}, {1: 3}]:
        for gen in mod.ideal_generators(content_key(sym)):
            for i in WIN:
                img = mod.E_op(i, ThetaClassVector(gen, mod))
                assert img.rep.is_zero() or mod.is_zero_class(img)


# -- the bilinear form -------------------------------------------------------

def test_theta_form_examples(mod):
    phi = mod.phi()
    assert mod.theta_form(phi, phi) == R("1")
    f1 = mod.F_op(1, phi)
    fm1 = mod.F_op(-1, phi)
    assert mod.theta_form(f1, f1) == R("1")
    assert mod.theta_form(f1, fm1) == R("1")


def test_theta_form_adjunction(mod):
    rng = random.Random(3)
    msegs = enumerate_theta(WIN, 3)
    for _ in range(12):
        m = rng.choice(msegs)
        i = rng.choice(WIN)
        u = mod.ptheta_vector(m)
        v = mod.ptheta_vector(rng.choice(msegs))
        lhs = mod.theta_form(mod.E_op(i, u), v)
        rhs = mod.theta_form(u, mod.F_op(i, v))
        assert lhs == rhs


def test_theta_form_symmetric(mod):
    msegs = [m for m in enumerate_theta(WIN, 3) if m.degree() == 3]
    for a in msegs[:4]:
        for b in msegs[:4]:
            u, v = mod.ptheta_vector(a), mod.ptheta_vector(b)
            assert mod.theta_form(u, v) == mod.theta_form(v, u)


# -- bar ---------------------------------------------------------------------

def test_bar_examples(mod):
    phi = mod.phi()
    assert mod.bar_theta(phi) == phi
    v = mod.from_words({(1,): R("q")})
    assert mod.bar_theta(v).rep == mod.alg.f(1).scale(R("q^-1"))
    coords = mod.theta_coords(mod.bar_theta(mod.ptheta_vector(M((-1, 1, 1)))))
    assert coords.get(M((-1, 1, 1))) == R("1")
    for m, c in coords.items():
        assert c.in_A()


def test_bar_triangular_blocks(mod):
    from symcrys.multisegment import cmp_cry_multiseg_raw

    for sym in [{1: 2}, {1: 3}, {1: 1, 3: 1}, {3: 2}]:
        key = content_key(sym)
        for m in mod.block(key)["theta_basis"]:
            coords = mod.theta_coords(mod.bar_theta(mod.ptheta_vector(m)))
            assert coords.get(m) == RatFunc(1)
            for n, c in coords.items():
                if n != m:
                    assert cmp_cry_multiseg_raw(n, m) == -1
                assert c.in_A()


# -- modified operators ------------------------------------------------------

def test_mod_ops_examples(mod):
    phi = mod.phi()
    _, ft = mod.theta_mod_ops(-1, phi)
    assert ft == mod.ptheta_vector(M((1, 1, 1)))
    et, _ = mod.theta_mod_ops(1, mod.ptheta_vector(M((1, 1, 1))))
    assert et == phi
    # the double-ladder step, up to q L
    _, ft3 = mod.theta_mod_ops(-3, mod.ptheta_vector(M((3, 3, 1))))
    coords = mod.theta_coords(ft3)
    assert coords.get(M((3, 3, 2))) is not None
    for m, c in coords.items():
        d = c - RatFunc(1) if m == M((3, 3, 2)) else c
        assert d.is_zero() or d.in_qZq()


def test_crystal_compat_small(mod):
    for m in enumerate_theta(WIN, 2):
        v = mod.ptheta_vector(m)
        for i in WIN:
            et, ft = mod.theta_mod_ops(i, v)
            fcoords = mod.theta_coords(ft)
            target = crystal_F(i, m)
            assert target in fcoords
            for mm, c in fcoords.items():
                d = c - RatFunc(1) if mm == target else c
                assert d.is_zero() or d.in_qZq()
                assert c.in_A0()
            etarget = crystal_E(i, m)
            ecoords = mod.theta_coords(et)
            if etarget is None:
                for c in ecoords.values():
                    assert c.in_qZq()
            else:
                assert etarget in ecoords
                for mm, c in ecoords.items():
                    d = c - RatFunc(1) if mm == etarget else c
                    assert d.is_zero() or d.in_qZq()


def test_A_integrality_of_word_coordinates(mod):
    """Coordinates of f-word classes in the P_theta basis stay Laurent."""
    rng = random.Random(19)
    for _ in range(10):
        length = rng.randint(1, 4)
        word = tuple(rng.choice(WIN) for _ in range(length))
        coords = mod.theta_coords(mod.from_words({word: RatFunc(1)}))
        for m, c in coords.items():
            # clear the divided-power normalizations of P_theta(m), then the
            # coefficient must be a Laurent polynomial
            from symcrys.ratfunc import qint

            den = RatFunc(1)
            for seg, mult in m:
                if seg.i == -seg.j:
                    for nu in range(1, mult + 1):
                        den = den * RatFunc(qint(2 * nu))
                else:
                    den = den * RatFunc(qfact(mult))
            assert (c * den).in_A()


# -- the stored coordinate rows against the per-vector block solve ---------------

def word_ideal_basis(mod, key):
    """A basis of the block's ideal from the word generators w (f_k - f_{-k}):
    the reduced echelon rows of their fibre vectors, read through the type-A
    word-coordinate tables."""
    block = mod.block(key)
    words = [mod._fiber_vector(g, block) for g in mod.ideal_generators(key)]
    rows, pivots = echelon_form(words, ncols=block["dim"])
    return [rows[prow] for prow, _ in pivots]


def reference_matrix(mod, key):
    """The block's basis-change matrix [P_theta columns | ideal basis], with
    the fibre vectors of the P_theta(m) phi and the word-generator ideal."""
    block = mod.block(key)
    cols = [mod._fiber_vector(mod.ptheta_vector(m).rep, block)
            for m in block["theta_basis"]]
    return [list(row) for row in zip(*(cols + word_ideal_basis(mod, key)))]


def reference_coords(mod, v, key):
    """The per-vector route: the fibre vector of v from Gram solves on each
    content of the fibre, then the theta part of the solve against the
    reference basis-change matrix."""
    block = mod.block(key)
    fibre = [RatFunc.zero()] * block["dim"]
    for ck, part in v.rep.homogeneous_parts().items():
        content = dict(ck)
        rhs = [mod.alg.form(mod.alg.pbw_element(m), part)
               for m in mod.alg.basis_of_content(content)]
        col = solve_vector(mod.alg.gram_matrix(content), rhs)
        fibre[block["offsets"][ck]:block["offsets"][ck] + len(col)] = col
    return solve_vector(reference_matrix(mod, key), fibre)[: len(block["theta_basis"])]


def ideal_elements(mod, key):
    """The classes w (f_k - f_{-k}) of the block, all zero in V_theta(0)."""
    return [ThetaClassVector(g, mod) for g in mod.ideal_generators(key)]


def test_coord_vector_matches_the_block_solve(mod):
    rng = random.Random(29)
    blocks = mod.block_keys(3)
    assert len(blocks) == 9
    for key in blocks:
        vectors = [mod.bar_theta(mod.ptheta_vector(m)) for m in mod.basis_of_content(key)]
        for _ in range(2):
            words = [w for ck in mod.fiber_contents(key)
                     for w in mod.alg.words_of_content(dict(ck))]
            chosen = rng.sample(words, min(4, len(words)))
            vectors.append(mod.from_words(
                {w: RatFunc(rng.choice((-3, -2, -1, 1, 2, 3))) for w in chosen}))
        for v in vectors:
            assert mod.coord_vector(v, key) == reference_coords(mod, v, key), (key, v)


def test_pbw_ideal_spans_the_word_generators(mod):
    """The ideal rows of each block, the fibre vectors of P(m)(f_k - f_{-k}),
    span the fibre vectors of the word generators
    w (f_k - f_{-k}): equal ranks, and no generator raises the rank.  The
    stored coordinate rows kill both."""
    blocks = mod.block_keys(4)
    assert len(blocks) == 14
    for key in blocks:
        block = mod.block(key)
        k = len(block["theta_basis"])
        ideal = mod._ideal_rows(key, block)
        words = word_ideal_basis(mod, key)
        assert rank(ideal) == len(words) == block["dim"] - k, key
        assert rank(ideal + words) == len(words), key
        for row in block["coord_rows"]:
            assert not any(mat_vec(ideal + words, row)), key


def test_cold_theta_blocks_make_no_solve(monkeypatch):
    """A block's one elimination is the ideal's kernel: no basis-change
    matrix is stored or solved."""
    def no_solve(*args):
        raise AssertionError("linalg.solve called")

    monkeypatch.setattr(linalg, "solve", no_solve)
    fresh = ThetaModule(WIN)
    blocks = [()] + fresh.block_keys(4)
    for key in blocks:
        assert set(fresh.block(key)) == {"offsets", "dim", "theta_basis", "coord_rows"}
    assert len(fresh._blocks) == len(blocks)


# A private copy of the ideal rows as they were built through the type-A block
# matrices R_k of right multiplication by f_k: the columns of R_k - R_{-k} on
# the PBW bases of the sub-fibre contents, placed at the fibre offsets.

def _rmul_matrix(alg, i, ck):
    tgt = shift_key(ck, i, 1)
    cols = [alg.coord_vector(alg.mul(alg.pbw_element(m), alg.f(i)), tgt)
            for m in alg.basis_of_content(ck)]
    return [[col[r] for col in cols] for r in range(len(alg.basis_of_content(tgt)))]


def _rk_ideal_rows(mod, sym_key, block):
    rows = []
    for k, _ in sym_key:
        for ck in mod.fiber_contents(shift_key(sym_key, k, -1)):
            plus = _rmul_matrix(mod.alg, k, ck)
            minus = _rmul_matrix(mod.alg, -k, ck)
            p_off = block["offsets"][shift_key(ck, k, 1)]
            m_off = block["offsets"][shift_key(ck, -k, 1)]
            for n in range(len(mod.alg.basis_of_content(ck))):
                row = [RatFunc.zero()] * block["dim"]
                for r, line in enumerate(plus):
                    row[p_off + r] = line[n]
                for r, line in enumerate(minus):
                    row[m_off + r] = -line[n]
                rows.append(row)
    return rows


@pytest.mark.parametrize("window,degree", [
    (WIN, 4), ((-1, 1), 6), (tuple(range(-5, 6, 2)), 3),
])
def test_ideal_rows_are_the_right_multiplication_columns(monkeypatch, window, degree):
    """The rows P(m)(f_k - f_{-k}) are the columns of R_k - R_{-k}, entry for
    entry and in the same order, and a block built from either set stores
    the same coordinate rows."""
    new = ThetaModule(window)
    keys = [()] + new.block_keys(degree)
    for key in keys:
        block = new.block(key)
        assert new._ideal_rows(key, block) == _rk_ideal_rows(new, key, block), key
    monkeypatch.setattr(ThetaModule, "_ideal_rows", _rk_ideal_rows)
    old = ThetaModule(window)
    for key in keys:
        assert new.block(key)["coord_rows"] == old.block(key)["coord_rows"], key


@pytest.mark.parametrize("window,degree,blocks", [
    (WIN, 4, 15), ((-1, 1), 6, 7), (tuple(range(-5, 6, 2)), 3, 20),
])
def test_coord_rows_match_the_fraction_free_reference(monkeypatch, window, degree, blocks):
    """The coordinate rows read off the reduced echelon form are the rows,
    built alike, that the fraction-free reference elimination gives every
    block."""
    new = ThetaModule(window)
    keys = [()] + new.block_keys(degree)
    rows = {key: new.block(key)["coord_rows"] for key in keys}
    monkeypatch.setattr(thetamodule, "nullspace", reference_nullspace)
    old = ThetaModule(window)
    for key in keys:
        assert structure(rows[key]) == structure(old.block(key)["coord_rows"]), key
    assert len(keys) == blocks


def test_theta_blocks_store_no_operator_matrix():
    fresh = ThetaModule(WIN)
    for key in [()] + fresh.block_keys(4):
        fresh.block(key)
    assert fresh._operator_mats == {} and fresh.alg._operator_mats == {}


@pytest.mark.parametrize("wrong", ["dropped", "swapped"])
def test_block_check_fires_on_a_wrong_theta_basis(monkeypatch, wrong):
    """Drop a theta multisegment of the block {1: 2}, or swap <-1,1> for
    <-1> + <1>, whose class is (q + q^-1) P_theta(2<1>) phi: either way the
    P_theta no longer form a basis, and a cold block raises naming the
    block, which the theta-dims suite reports as a FAIL."""
    real = thetamodule.theta_of_symmetrized_content
    key = content_key({1: 2})

    def patched(window, sym):
        msegs = list(real(window, sym))
        if content_key(sym) == key:
            at = msegs.index(M((-1, 1, 1)))
            if wrong == "dropped":
                del msegs[at]
            else:
                msegs[at] = M((-1, -1, 1), (1, 1, 1))
        return msegs

    monkeypatch.setattr(thetamodule, "theta_of_symmetrized_content", patched)
    with pytest.raises(ArithmeticError, match=r"^block \{1: 2\}: "):
        ThetaModule(WIN).block(key)
    checked, fails = suite_theta_dims("theta", WIN, 2)
    assert checked == len(ThetaModule(WIN).block_keys(2)) - 1
    assert len(fails) == 1 and fails[0].startswith("block {1: 2}: "), fails


def test_is_zero_class_matches_the_block_solve(mod):
    rng = random.Random(31)
    for key in mod.block_keys(3):
        zeros = ideal_elements(mod, key)
        assert zeros
        combo = zeros[0]
        for g in rng.sample(zeros, min(3, len(zeros))):
            combo = combo + g.scale(RatFunc.q_power(rng.randint(-2, 2)) * RatFunc(2))
        nonzero = [mod.ptheta_vector(m) + combo for m in mod.basis_of_content(key)]
        for v in zeros + [combo] + nonzero:
            want = all(c.is_zero() for c in reference_coords(mod, v, key))
            assert mod.is_zero_class(v) == want, (key, v)
        assert all(mod.is_zero_class(v) for v in zeros + [combo])
        assert not any(mod.is_zero_class(v) for v in nonzero)


def test_stored_rows_make_no_further_solves(monkeypatch):
    fresh = ThetaModule(WIN)
    key = content_key({1: 2, 3: 1})
    fresh.block(key)  # stores the block's rows and those of its fibre contents
    calls = []
    real_solve = linalg.solve
    monkeypatch.setattr(linalg, "solve", lambda *a: calls.append(a) or real_solve(*a))
    for m in fresh.basis_of_content(key):
        v = fresh.bar_theta(fresh.ptheta_vector(m))
        fresh.theta_coords(v)
        fresh.coord_vector(v, key)
        assert not fresh.is_zero_class(v)
    for v in ideal_elements(fresh, key):
        assert fresh.is_zero_class(v)
    assert calls == []


def test_a_theta_gram_matrix_is_computed_once_per_block(monkeypatch):
    """The Gram matrix is kept with its block: a second request makes no
    E_op call and returns the same matrix."""
    module = ThetaModule(WIN)
    key = content_key({1: 2, 3: 1})
    module.block(key)
    calls = []
    real = ThetaModule.E_op
    monkeypatch.setattr(ThetaModule, "E_op",
                        lambda self, i, v: calls.append(1) or real(self, i, v))
    gram = module.gram_matrix(key)
    made = len(calls)
    assert made
    assert module.gram_matrix(key) is gram
    assert len(calls) == made


def _peel(module, u, w):
    """A private copy of the word-by-word peeling: (u, w) is the ()
    coefficient of E_{w_n} ... E_{w_1} u."""
    if not w:
        return u.rep.terms.get((), RatFunc.zero())
    return _peel(module, module.E_op(w[0], u), w[1:])


@pytest.mark.parametrize("window, degree", [(WIN, 4), ((-1, 1), 6)])
def test_theta_gram_rows_by_prefix_tree_are_the_peeled_pairings(window, degree):
    """Each row of a theta Gram matrix comes from one walk over the prefix
    tree of the block's words; it equals the pairing peeled word by word."""
    module = ThetaModule(window)
    for key in module.block_keys(degree):
        vecs = [module.ptheta_vector(m) for m in module.basis_of_content(key)]
        want = [
            [sum((c * _peel(module, u, w) for w, c in v.rep.terms.items()), RatFunc.zero())
             for v in vecs]
            for u in vecs
        ]
        assert module.gram_matrix(key) == want, key
        assert module.theta_form(vecs[0], vecs[-1]) == want[0][-1], key
