from collections import Counter

import pytest

from symcrys.multisegment import Multisegment, Segment, enumerate_multisegments
from symcrys.theta import enumerate_theta
from symcrys.thetamodule import ThetaModule, sym_key_of_content
from symcrys.ratfunc import RatFunc
from symcrys import verify
from symcrys.canonical import TransitionMatrix
from symcrys.verify import SUITES, _space, suite_gram
from symcrys.wordalg import WordAlgebra, content_key

WIN = (-3, -1, 1, 3)

# identities checked by each suite on WIN at degree <= 3, per mode
COUNTS = {
    "typeA": {
        "bar-triangular": 34, "crystal-axioms": 832, "global-basis": 34, "gram": 34,
        "multiplicity-consistency": 196, "oracle-cross-check": 208,
        "pbw-crystal-compat": 208, "qboson-relations": 560, "serre": 12, "theta-dims": 9,
    },
    "theta": {
        "bar-triangular": 9, "crystal-axioms": 272, "global-basis": 9, "gram": 9,
        "multiplicity-consistency": 60, "oracle-cross-check": 34,
        "pbw-crystal-compat": 68, "qboson-relations": 160, "serre": 12, "theta-dims": 9,
    },
}


# the graded-block protocol: the methods that the code written once over both
# spaces (`wordalg.operator_matrix`, `qboson_split`, `modified_root_op`,
# `canonical.BlockContext` and the suites) calls on a space
PROTOCOL = [
    "basis_of_content", "coord_vector", "gram_matrix", "bar_column", "lower_matrix",
    "raise_matrix", "from_coords", "letter", "shifted_key", "block_keys",
    "block_label", "relation_scalar", "representative",
]


def plant_fault(alg, key, gram_entry=None, word_factor=None):
    """Plant a fault in the record of the type-A block `key`; the one place
    in these tests that knows the record's shape.  `gram_entry` = (row,
    column, value) overwrites that entry of its Gram matrix; `word_factor` =
    (word, factor) multiplies that word's coordinate column by the factor."""
    gram, table = alg._table(key)
    if gram_entry is not None:
        row, col, value = gram_entry
        gram = [list(r) for r in gram]
        gram[row][col] = value
    if word_factor is not None:
        word, factor = word_factor
        table = dict(table)
        table[word] = [(m, c * factor) for m, c in table[word]]
    alg._tables[key] = (gram, table)


@pytest.mark.parametrize("space", [WordAlgebra, ThetaModule])
def test_both_spaces_define_the_block_protocol(space):
    assert [name for name in PROTOCOL if name not in space.__dict__] == []


@pytest.mark.parametrize("mode", sorted(COUNTS))
def test_every_suite_passes_with_its_identity_count(mode):
    checked = {}
    for name, suite in SUITES.items():
        checked[name], fails = suite(mode, WIN, 3)
        assert fails == [], name
    assert checked == COUNTS[mode]


@pytest.mark.parametrize("mode, name", [("typeA", "a_ftilde"), ("theta", "crystal_F")])
def test_crystal_axioms_check_E_of_F_on_top_degree_inputs(monkeypatch, mode, name):
    """An F that is wrong only on inputs of the top degree, whose F(m) lies
    one degree above --max-degree, makes the suite fail."""
    real = getattr(verify, name)

    def broken(i, m):
        return m.add(Segment(abs(i), abs(i))) if m.degree() == 3 else real(i, m)

    monkeypatch.setattr(verify, name, broken)
    checked, fails = verify.suite_crystal_axioms(mode, WIN, 3)
    assert checked == COUNTS[mode]["crystal-axioms"]
    assert fails and all(f.startswith("E(F(m)) != m at ") for f in fails)


def test_suites_of_one_run_share_its_space(monkeypatch):
    """Suites given one `spaces` dict build each theta block once, and check
    the same identities as suites run on their own spaces."""
    builds = []
    real_block = ThetaModule.block

    def counted(self, key):
        if key not in self._blocks:
            builds.append(key)
        return real_block(self, key)

    monkeypatch.setattr(ThetaModule, "block", counted)
    spaces = {}
    checked = {}
    for name, suite in SUITES.items():
        checked[name], fails = suite("theta", WIN, 3, spaces)
        assert fails == [], name
    assert checked == COUNTS["theta"]
    assert len(builds) == len(set(builds)) == 15
    assert set(spaces) == {"theta", "typeA"}
    assert spaces["typeA"] is spaces["theta"].alg


def test_gram_suite_checks_the_closed_form_diagonal():
    """In type A the suite compares each Gram matrix with diag(N_A(m)), so a
    Gram matrix of full rank that is not that diagonal fails; it is not
    form(P(m), P(n)) either, and the independent route fails it too."""
    spaces = {}
    alg = _space("typeA", WIN, spaces)
    plant_fault(alg, content_key({1: 1, 3: 1}), gram_entry=(0, 1, RatFunc.q_power(1)))
    checked, fails = suite_gram("typeA", WIN, 2, spaces)
    assert checked == 14
    assert fails == [
        "Gram matrix on content {1: 1, 3: 1} is not diag(N_A(m))",
        "Gram matrix on content {1: 1, 3: 1} is not form(P(m), P(n))",
    ]


def test_gram_suite_checks_the_table_against_the_word_pair_form(monkeypatch):
    """In type A the suite also compares each Gram matrix, read from the
    table built by shuffles, with form(P(m), P(n)) through the word-pair
    recursion: a fault in that route alone fails the one block whose words
    it hits, and names it."""
    real = WordAlgebra._form_words

    def form(self, w, v):
        f = real(self, w, v)
        return f + RatFunc.q_power(1) if (w, v) == ((1, 3), (1, 3)) else f

    monkeypatch.setattr(WordAlgebra, "_form_words", form)
    checked, fails = suite_gram("typeA", WIN, 2)
    assert checked == 14
    assert fails == ["Gram matrix on content {1: 1, 3: 1} is not form(P(m), P(n))"]


def test_theta_gram_suite_checks_the_closed_form_diagonal(monkeypatch):
    """In theta mode the suite compares each Gram matrix with diag(N_theta(m));
    a wrong closed form on one block is a failure that names the block."""
    real = verify.closed_form_norm_theta
    wrong = content_key({1: 2})

    def norm(m):
        n = real(m)
        return n * RatFunc.q_power(1) if sym_key_of_content(m.content()) == wrong else n

    assert suite_gram("theta", WIN, 3) == (9, [])
    assert suite_gram("theta", (-1, 1), 5) == (5, [])
    monkeypatch.setattr(verify, "closed_form_norm_theta", norm)
    checked, fails = suite_gram("theta", WIN, 3)
    assert checked == 9
    assert fails == ["Gram matrix on symmetrized content {1: 2} is not diag(N_theta(m))"]


def test_a_singular_block_is_a_failed_check():
    """linalg.SingularMatrixError is an ArithmeticError, so a suite reports a
    singular block matrix as a failure instead of stopping: a Gram matrix
    with a zero on its diagonal makes G C singular in `global_upper`.  The
    translates of the block share its Gram matrix, and each fails under its
    own label."""
    spaces = {}
    alg = _space("typeA", WIN, spaces)
    plant_fault(alg, content_key({-3: 1, -1: 1}), gram_entry=(0, 0, RatFunc.zero()))
    checked, fails = SUITES["global-basis"]("typeA", WIN, 2, spaces)
    assert checked == 11
    assert fails == [
        f"content {c}: upper/lower duality failed"
        for c in ({-3: 1, -1: 1}, {-1: 1, 1: 1}, {1: 1, 3: 1})
    ]


def test_a_gram_matrix_that_is_not_diagonal_is_a_failed_check(monkeypatch):
    """The word-coordinate table needs a diagonal Gram matrix, so a pairing
    row of the lone segment <-3,-1> that pairs it with the other PBW element
    of its block makes the table build fail, and the gram suite reports it
    on that block.  Lone segments translate like every multisegment, so the
    faulty row also reaches <-1,1> and <1,3>: each translate, computed
    directly after its representative fails, fails under its own label."""
    real = WordAlgebra._row_tilde
    lone = Multisegment({(-3, -1): 1})

    def row_tilde(self, m):
        row = real(self, m)
        if m != lone:
            return row
        row = dict(row)
        row[-1, -3] = row.get((-1, -3), RatFunc.zero()) + RatFunc.q_power(1)
        return row

    monkeypatch.setattr(WordAlgebra, "_row_tilde", row_tilde)
    checked, fails = suite_gram("typeA", WIN, 2)
    assert checked == 11
    assert fails == [
        f"content {c}: Gram matrix is not an invertible diagonal in the row of {seg}"
        for c, seg in [({-3: 1, -1: 1}, "<-3,-1>"), ({-1: 1, 1: 1}, "<-1,1>"),
                       ({1: 1, 3: 1}, "<1,3>")]
    ]


@pytest.mark.parametrize("suite", ["bar-triangular", "global-basis"])
def test_a_failure_in_canonical_names_its_block_once(monkeypatch, suite):
    """`canonical` names the block in its own errors, and the suites add no
    second label; an error from below it is labelled by the suite.  The
    fault is in a representative, so its translates are computed directly
    and pass."""
    real = WordAlgebra.bar_column
    key = content_key({-3: 1, -1: 1})

    def bar_column(self, m, k):
        col = real(self, m, k)
        if k == key and m == self.basis_of_content(k)[0]:
            col = [RatFunc(2)] + col[1:]
        return col

    monkeypatch.setattr(WordAlgebra, "bar_column", bar_column)
    checked, fails = SUITES[suite]("typeA", WIN, 2)
    assert checked == 13
    assert fails == ["content {-3: 1, -1: 1}: diagonal bar entry at <-3,-1> is 2"]

    monkeypatch.setattr(WordAlgebra, "bar_column", lambda self, m, k: 1 / RatFunc.zero())
    checked, fails = SUITES[suite]("typeA", (1,), 1)
    assert (checked, fails) == (0, ["content {1: 1}: division by zero in Q(q)"])


@pytest.mark.parametrize("suite", ["bar-triangular", "global-basis"])
def test_a_fault_in_a_representative_is_reported_for_each_translate(suite):
    """The translates of a block share its word table, so a fault planted in
    the representative's table fails the representative and each translate,
    every one under its own label."""
    spaces = {}
    alg = _space("typeA", WIN, spaces)
    plant_fault(alg, content_key({-3: 1, -1: 1}), word_factor=((-1, -3), RatFunc(2)))
    checked, fails = SUITES[suite]("typeA", WIN, 2, spaces)
    assert checked == 11
    assert fails == [
        "content {-3: 1, -1: 1}: diagonal bar entry at <-1> + <-3> is 2",
        "content {-1: 1, 1: 1}: diagonal bar entry at <1> + <-1> is 2",
        "content {1: 1, 3: 1}: diagonal bar entry at <3> + <1> is 2",
    ]


def test_a_fault_in_a_representative_pair_is_reported_for_each_translate_pair():
    """The translates of the pair (-1, {-3: 1}) share its f_{-1} matrix, so a
    fault planted there fails the multiplicity tables that read it, as the
    operator (side F) or as the partner (side E), on the representative pair
    and on each translate pair, every one under its own label."""
    spaces = {}
    alg = _space("typeA", WIN, spaces)
    key = content_key({-3: 1})
    matrix = alg.fmul_matrix(-1, key)
    alg._operator_mats[+1, -1, key] = [[c * RatFunc(2) for c in row] for row in matrix]
    checked, fails = SUITES["multiplicity-consistency"]("typeA", WIN, 2, spaces)
    assert checked == 76 - 6  # the suite checks 76 tables on WIN at degree <= 2
    assert fails == [
        f"{label}, side {side}, index {i}: direct and adjoint multiplicity computations disagree"
        for label, side, i in [
            ("content {-3: 1}", "F", -1), ("content {-3: 1, -1: 1}", "E", -1),
            ("content {-1: 1}", "F", 1), ("content {-1: 1, 1: 1}", "E", 1),
            ("content {1: 1}", "F", 3), ("content {1: 1, 3: 1}", "E", 3),
        ]
    ]


def test_a_run_builds_one_algebra_in_either_order():
    """The module of a run is built on the run's algebra, whichever of the
    two a suite asks for first."""
    for order in (("typeA", "theta"), ("theta", "typeA")):
        spaces = {}
        first = _space(order[0], WIN, spaces)
        _space(order[1], WIN, spaces)
        assert spaces["typeA"] is spaces["theta"].alg
        assert spaces[order[0]] is first
    with pytest.raises(ValueError):
        ThetaModule(WIN, WordAlgebra((-1, 1)))


def _enumerated_keys(msegs, letter):
    """Block keys by enumeration: the contents of the multisegments of degree >= 1."""
    keys = set()
    for m in msegs:
        if m.degree():
            c = Counter()
            for k, n in m.content().items():
                c[letter(k)] += n
            keys.add(content_key(c))
    return sorted(keys)


@pytest.mark.parametrize("window", [(1,), (-1, 1), WIN, tuple(range(-5, 6, 2))])
@pytest.mark.parametrize("degree", [1, 2, 4])
def test_block_keys_are_the_enumerated_contents(window, degree):
    assert WordAlgebra(window).block_keys(degree) == _enumerated_keys(
        enumerate_multisegments(window, degree), lambda k: k)
    if window != (1,):
        assert ThetaModule(window).block_keys(degree) == _enumerated_keys(
            enumerate_theta(window, degree), abs)


def test_a_multiplicity_mismatch_names_its_block_once(monkeypatch, capsys):
    """canonical's MultiplicityMismatch already starts with the block label
    and is reported as it is; an error that does not name the block gets the
    suite's label, index and side."""
    from symcrys.canonical import MultiplicityMismatch
    from symcrys.cli import main

    def mismatch(i, ctx, side):
        raise MultiplicityMismatch(
            f"{ctx.label}, side {side}, index {i}: direct and adjoint "
            "multiplicity computations disagree"
        )

    monkeypatch.setattr(verify, "multiplicity_polys", mismatch)
    argv = ["verify", "--mode", "typeA", "--window=-1,1", "--max-degree", "1",
            "--suite", "multiplicity-consistency"]
    assert main(argv) == 1
    assert capsys.readouterr().out.splitlines() == [
        "multiplicity-consistency: FAIL (0 identities checked)",
        "  counterexample: content {-1: 1}, side E, index -1: direct and adjoint "
        "multiplicity computations disagree",
    ]

    def not_laurent(i, ctx, side):
        raise ArithmeticError("multiplicity 1/q at (<1>, 0) is not a Laurent polynomial")

    monkeypatch.setattr(verify, "multiplicity_polys", not_laurent)
    checked, fails = SUITES["multiplicity-consistency"]("typeA", (-1, 1), 1)
    assert (checked, fails[0]) == (
        0, "content {-1: 1}, index -1, side E: multiplicity 1/q at (<1>, 0) "
           "is not a Laurent polynomial",
    )


# -- failure branches of the crystal and per-block suites ----------------------

CRYSTALS = {"typeA": ("a_epsilon", "a_etilde", "a_ftilde"),
            "theta": ("crystal_eps", "crystal_E", "crystal_F")}


@pytest.mark.parametrize("mode", sorted(CRYSTALS))
def test_crystal_axioms_report_an_epsilon_that_is_not_the_E_string(monkeypatch, mode):
    """An epsilon that is 1 on the empty multisegment, where no E applies,
    disagrees with Etilde and with the nilpotency degree there."""
    name = CRYSTALS[mode][0]
    real = getattr(verify, name)
    empty = Multisegment.empty()
    monkeypatch.setattr(verify, name,
                        lambda i, m: real(i, m) + (m == empty and i == WIN[0]))
    checked, fails = verify.suite_crystal_axioms(mode, WIN, 3)
    assert checked == COUNTS[mode]["crystal-axioms"]
    assert fails == [f"epsilon/Etilde mismatch at 0, index {WIN[0]}",
                     f"epsilon != nilpotency degree at 0, index {WIN[0]}"]


@pytest.mark.parametrize("mode", sorted(CRYSTALS))
def test_crystal_axioms_report_an_F_that_does_not_undo_E(monkeypatch, mode):
    """An F that sends the empty multisegment two steps up along index 1:
    F(E(m)) != m at the one m with E(m) empty, and E(F(m)) != m at the
    empty multisegment."""
    name = CRYSTALS[mode][2]
    real = getattr(verify, name)
    empty = Multisegment.empty()

    def broken(i, m):
        return real(i, real(i, m)) if (i, m) == (1, empty) else real(i, m)

    monkeypatch.setattr(verify, name, broken)
    checked, fails = verify.suite_crystal_axioms(mode, WIN, 3)
    assert checked == COUNTS[mode]["crystal-axioms"]
    assert sorted(fails) == [
        "E(F(m)) != m at 0, index 1",
        f"F(E(m)) != m at {real(1, empty)}, index 1",
    ]


@pytest.mark.parametrize("mode", sorted(CRYSTALS))
def test_pbw_crystal_compat_reports_a_wrong_crystal_target(monkeypatch, mode):
    """A crystal F whose target lies outside the block of the modified
    ftilde fails the one (m, i) it is wrong at."""
    name = CRYSTALS[mode][2]
    real = getattr(verify, name)
    empty = Multisegment.empty()
    monkeypatch.setattr(verify, name, lambda i, m: (
        real(i, real(i, m)) if (i, m) == (1, empty) else real(i, m)))
    checked, fails = SUITES["pbw-crystal-compat"](mode, WIN, 3)
    assert checked == COUNTS[mode]["pbw-crystal-compat"]
    assert fails == ["modified ftilde incompatible with the crystal at 0, index 1"]


def _plant_C_entry(monkeypatch, key, value):
    """Make the suite read `value` at entry (1, 0) of the lower basis of the
    block `key`; the stored matrix is left as it is."""
    real = verify.global_lower

    def global_lower(ctx):
        C = real(ctx)
        if ctx.key != key:
            return C
        entries = [list(row) for row in C.entries]
        entries[1][0] = value
        return TransitionMatrix(C.label, C.basis, entries)

    monkeypatch.setattr(verify, "global_lower", global_lower)


def test_global_basis_reports_a_C_entry_outside_qZq(monkeypatch):
    key = content_key({-3: 1, -1: 1})
    _plant_C_entry(monkeypatch, key, RatFunc.q_power(-1))
    checked, fails = SUITES["global-basis"]("typeA", WIN, 2)
    assert checked == 14
    assert fails == [f"content {{-3: 1, -1: 1}}: C entry {RatFunc.q_power(-1)} at (1,0)"]


def test_a_block_keeps_its_C_entry_failure_when_duality_then_fails(monkeypatch):
    """A C-entry failure found before `global_upper` raises stays in the
    report, before the block's duality failure; the translates, which
    share the faulty Gram matrix, fail duality under their own labels."""
    spaces = {}
    alg = _space("typeA", WIN, spaces)
    key = content_key({-3: 1, -1: 1})
    plant_fault(alg, key, gram_entry=(0, 0, RatFunc.zero()))
    _plant_C_entry(monkeypatch, key, RatFunc(2))
    checked, fails = SUITES["global-basis"]("typeA", WIN, 2, spaces)
    assert checked == 11
    assert fails == ["content {-3: 1, -1: 1}: C entry 2 at (1,0)"] + [
        f"content {c}: upper/lower duality failed"
        for c in ({-3: 1, -1: 1}, {-1: 1, 1: 1}, {1: 1, 3: 1})
    ]
