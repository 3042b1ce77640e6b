"""The invariant suites behind `symcrys verify`.

Each suite takes (mode, window, max_degree) and returns the number of
identities it checked and the list of failure messages.  The two crystal
suites compare the crystal routes of `multisegment` and `theta`; the others
build the type-A algebra (`WordAlgebra`) or, in theta mode, the symmetric
module (`ThetaModule`) and run over its blocks through the graded-block
protocol the two classes share, so each check is written once for both
modes.  Only `serre` (always type A) and `theta-dims` (always theta) ignore
the mode.  `pbw-crystal-compat` works in block coordinates throughout: it
runs the modified ftilde_i on the unit column of each basis vector
(`wordalg.modified_root_column`) and reads the result's column directly.

Every suite also takes an optional `spaces` dict.  Suites given the same
dict share one algebra and one module per run, filled on first use, so a run
of several suites builds each block, block matrix and bar matrix once;
without it a suite builds its own.
"""

from __future__ import annotations

import sys

from .canonical import (
    bar_matrix,
    block_context,
    global_lower,
    global_upper,
    multiplicity_polys,
    q1_specialization,
)
from .linalg import mat_mul
from .multisegment import (
    cartan,
    enumerate_multisegments,
    epsilon as a_epsilon,
    etilde as a_etilde,
    ftilde as a_ftilde,
    signature_ops as a_signature_ops,
)
from .ratfunc import RatFunc
from .theta import (
    crystal_E,
    crystal_F,
    crystal_eps,
    enumerate_theta,
    theta_epsilon,
    theta_Etilde,
    theta_Ftilde,
    theta_signature_ops,
)
from .thetamodule import ThetaModule, closed_form_norm_theta
from .wordalg import WordAlgebra, closed_form_norm, modified_root_column


class UsageError(Exception):
    """Bad arguments or malformed input; the CLI exits with code 2."""


def require_symmetric(window, who="theta mode"):
    if set(window) != {-i for i in window}:
        raise UsageError(f"{who} needs a negation-symmetric window, got {list(window)}")
    return window


def _space(mode, window, spaces=None):
    """The type-A algebra, or in theta mode the symmetric module, on the
    window: the one `spaces` holds for the mode, else a new one, which is
    added to `spaces`.  The module is built on the algebra `spaces` holds
    and stored as its algebra, so a run has one algebra."""
    spaces = {} if spaces is None else spaces
    if mode not in spaces:
        if mode == "theta":
            module = ThetaModule(require_symmetric(window), spaces.get("typeA"))
            spaces[mode], spaces["typeA"] = module, module.alg
        else:
            spaces[mode] = WordAlgebra(window)
    return spaces[mode]


def _contexts(mode, window, max_degree, spaces):
    space = _space(mode, window, spaces)
    return [block_context(space, key) for key in space.block_keys(max_degree)]


def crystal_ops(mode, window):
    """(epsilon, Etilde, Ftilde) of the mode's crystal: the theta crystal,
    which needs a negation-symmetric window, or the type-A one."""
    if mode == "theta":
        require_symmetric(window)
        return crystal_eps, crystal_E, crystal_F
    return a_epsilon, a_etilde, a_ftilde


def _block_failure(ctx, error):
    """The failure message of an error raised on a block, which names the
    block once: `canonical` names it in its own errors, the layers below
    it do not."""
    message = str(error)
    return message if message.startswith(f"{ctx.label}: ") else f"{ctx.label}: {message}"


def _each_block(mode, window, max_degree, spaces, check):
    """(checked, fails) of `check(ctx)`, a generator of failure messages, run
    on the context of every block of degree <= max_degree.  A block counts
    once its check returns; an ArithmeticError it raises is one more
    failure (`_block_failure`), after the messages it yielded before."""
    checked = 0
    fails = []
    for ctx in _contexts(mode, window, max_degree, spaces):
        try:
            for message in check(ctx):
                fails.append(message)
            checked += 1
        except ArithmeticError as e:
            fails.append(_block_failure(ctx, e))
    return checked, fails


# ---------------------------------------------------------------------------
# crystal suites (no algebra; any window)
# ---------------------------------------------------------------------------

def suite_crystal_axioms(mode, window, max_degree, spaces=None):
    checked = 0
    fails = []
    eps_f, E_f, F_f = crystal_ops(mode, window)
    enumerate_fn = enumerate_theta if mode == "theta" else enumerate_multisegments
    for m in enumerate_fn(window, max_degree):
        for i in window:
            eps = eps_f(i, m)
            e = E_f(i, m)
            if (eps == 0) != (e is None):
                fails.append(f"epsilon/Etilde mismatch at {m}, index {i}")
            if e is not None and F_f(i, e) != m:
                fails.append(f"F(E(m)) != m at {m}, index {i}")
            if E_f(i, F_f(i, m)) != m:
                fails.append(f"E(F(m)) != m at {m}, index {i}")
            # epsilon equals the E-nilpotency degree
            n, cur = 0, m
            while True:
                cur = E_f(i, cur)
                if cur is None:
                    break
                n += 1
            if n != eps:
                fails.append(f"epsilon != nilpotency degree at {m}, index {i}")
            checked += 4
    return checked, fails


def suite_oracle_cross_check(mode, window, max_degree, spaces=None):
    checked = 0
    fails = []
    if mode == "theta":
        require_symmetric(window)
        for m in enumerate_theta(window, max_degree):
            for k in (i for i in window if i > 0):
                a = (theta_epsilon(k, m), theta_Etilde(k, m), theta_Ftilde(k, m))
                b = theta_signature_ops(k, m)
                checked += 1
                if a != b:
                    fails.append(f"formula/signature mismatch at {m}, index -{k}")
    else:
        for m in enumerate_multisegments(window, max_degree):
            for i in window:
                a = (a_epsilon(i, m), a_etilde(i, m), a_ftilde(i, m))
                b = a_signature_ops(i, m)
                checked += 1
                if a != b:
                    fails.append(f"formula/signature mismatch at {m}, index {i}")
    return checked, fails


# ---------------------------------------------------------------------------
# algebra and module suites
# ---------------------------------------------------------------------------

def suite_serre(mode, window, max_degree, spaces=None):
    alg = _space("typeA", window, spaces)
    checked = 0
    fails = []
    for i in window:
        for j in window:
            if abs(i - j) == 2:
                checked += 1
                if not alg.is_zero_in_uq(alg.serre_element(i, j)):
                    fails.append(f"Serre element at ({i},{j}) is nonzero")
            elif i != j:
                checked += 1
                if not alg.is_zero_in_uq(alg.distant_commutator(i, j)):
                    fails.append(f"distant commutator at ({i},{j}) is nonzero")
    return checked, fails


def suite_gram(mode, window, max_degree, spaces=None):
    """Each Gram matrix is exactly the diagonal of the closed-form norms of
    its basis: N_A(m) of the PBW basis in type A, N_theta(m) of the P_theta
    basis in theta mode.  A type-A Gram matrix, read from the block's table
    (built from pairing rows by shuffles), must also equal
    form(P(m), P(n)), which pairs the words of P(m) and P(n) one by one."""
    if mode == "theta":
        norm, name = closed_form_norm_theta, "N_theta(m)"
    else:
        norm, name = closed_form_norm, "N_A(m)"

    def check(ctx):
        g = ctx.gram()  # raises on a type-A block that cannot be inverted
        want = [
            [norm(m) if r == c else RatFunc.zero() for c in range(len(g))]
            for r, m in enumerate(ctx.basis())
        ]
        if g != want:
            yield f"Gram matrix on {ctx.label} is not diag({name})"
        if mode != "theta":
            space, pbw = ctx.space, [ctx.space.pbw_element(m) for m in ctx.basis()]
            if g != [[space.form(x, y) for y in pbw] for x in pbw]:
                yield f"Gram matrix on {ctx.label} is not form(P(m), P(n))"

    return _each_block(mode, window, max_degree, spaces, check)


def suite_theta_dims(mode, window, max_degree, spaces=None):
    module = _space("theta", window, spaces)
    checked = 0
    fails = []
    for key in module.block_keys(max_degree):
        try:
            module.block(key)
            checked += 1
        except ArithmeticError as e:
            fails.append(str(e))
    return checked, fails


def suite_pbw_crystal_compat(mode, window, max_degree, spaces=None):
    """The modified ftilde_i of each PBW basis vector P(m) of degree <=
    max_degree is P(F_i m) modulo q times the PBW lattice.  The operator
    runs in block coordinates (`modified_root_column`) on the unit column
    of m, so no vector is built from coordinates or read back."""
    space = _space(mode, window, spaces)
    crystal_f = crystal_ops(mode, window)[2]
    checked = 0
    fails = []
    for key in [()] + space.block_keys(max_degree):
        basis = space.basis_of_content(key)
        for r, m in enumerate(basis):
            unit = [RatFunc(1) if c == r else RatFunc.zero() for c in range(len(basis))]
            for i in window:
                tgt = space.shifted_key(key, i, +1)
                col = modified_root_column(space, i, key, unit, +1)
                target = crystal_f(i, m)
                checked += 1
                ok = target in space.basis_of_content(tgt)
                for b, c in zip(space.basis_of_content(tgt), col):
                    d = c - RatFunc(1) if b == target else c
                    if not (d.is_zero() or d.in_qZq()):
                        ok = False
                if not ok:
                    fails.append(
                        f"modified ftilde incompatible with the crystal at {m}, index {i}"
                    )
    return checked, fails


def suite_bar_triangular(mode, window, max_degree, spaces=None):
    def check(ctx):
        bar_matrix(ctx)
        return ()

    return _each_block(mode, window, max_degree, spaces, check)


def suite_global_basis(mode, window, max_degree, spaces=None):
    def check(ctx):
        C = global_lower(ctx)
        for c in range(len(C.basis)):
            for r in range(len(C.basis)):
                x = C.entries[r][c]
                if r == c:
                    ok = x == RatFunc(1)
                else:
                    ok = x.is_zero() or x.in_qZq()
                if not ok:
                    yield f"{ctx.label}: C entry {x} at ({r},{c})"
        global_upper(ctx)

    return _each_block(mode, window, max_degree, spaces, check)


def _commutation_holds(lhs, rhs, qc, delta, rows, n):
    Z = RatFunc.zero()
    for r in range(rows):
        for c in range(n):
            l = lhs[r][c] if lhs is not None else Z
            rr = rhs[r][c] if rhs is not None else Z
            if l != qc * rr + (delta if r == c else Z):
                return False
    return True


def suite_qboson_relations(mode, window, max_degree, spaces=None):
    """E_i F_j = q^{-(alpha_i, alpha_j)} F_j E_i + scalar, as block matrices,
    on every block of degree <= max_degree."""
    space = _space(mode, window, spaces)
    checked = 0
    fails = []
    for key in [()] + space.block_keys(max_degree):
        n = len(space.basis_of_content(key))
        for i in window:
            for j in window:
                fj = space.raise_matrix(j, key)
                sup = space.shifted_key(key, j, +1)
                lhs = (
                    mat_mul(space.lower_matrix(i, sup), fj)
                    if dict(sup).get(space.letter(i))
                    else None
                )
                rhs = None
                if dict(key).get(space.letter(i)):
                    sub = space.shifted_key(key, i, -1)
                    rhs = mat_mul(space.raise_matrix(j, sub), space.lower_matrix(i, key))
                qc = RatFunc.q_power(-cartan(i, j))
                delta = space.relation_scalar(i, j, key)
                rows = len(lhs) if lhs is not None else (len(rhs) if rhs is not None else n)
                checked += 1
                if not _commutation_holds(lhs, rhs, qc, delta, rows, n):
                    fails.append(f"E_{i} F_{j} relation fails on {space.block_label(key)}")
    return checked, fails


def suite_multiplicity_consistency(mode, window, max_degree, spaces=None):
    checked = 0
    fails = []
    for ctx in _contexts(mode, window, max_degree, spaces):
        for i in window:
            for side in ("E", "F"):
                try:
                    ctx.shifted(i, -1 if side == "E" else +1)
                except ValueError:
                    continue
                try:
                    polys = multiplicity_polys(i, ctx, side)
                    _, warnings = q1_specialization(polys)
                    for w in warnings:
                        print(f"warning: {ctx.label}: {w}", file=sys.stderr)
                    checked += 1
                except ArithmeticError as e:
                    # canonical's mismatch message already names the block
                    msg = str(e)
                    if not msg.startswith(f"{ctx.label}, "):
                        msg = f"{ctx.label}, index {i}, side {side}: {msg}"
                    fails.append(msg)
    return checked, fails


SUITES = {
    "crystal-axioms": suite_crystal_axioms,
    "oracle-cross-check": suite_oracle_cross_check,
    "serre": suite_serre,
    "gram": suite_gram,
    "pbw-crystal-compat": suite_pbw_crystal_compat,
    "bar-triangular": suite_bar_triangular,
    "global-basis": suite_global_basis,
    "theta-dims": suite_theta_dims,
    "qboson-relations": suite_qboson_relations,
    "multiplicity-consistency": suite_multiplicity_consistency,
}


# suites that never build an algebra, and so accept any window
CRYSTAL_SUITES = {"crystal-axioms", "oracle-cross-check"}
# suites that ignore the mode, with the one they run in
FIXED_MODES = {"serre": "typeA", "theta-dims": "theta"}
