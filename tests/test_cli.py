import json
import os
import re
import subprocess
import sys

import pytest

from symcrys import cli, verify
from symcrys.cli import build_parser, main
from symcrys.multisegment import Multisegment, cry_sort_key, ftilde
from symcrys.theta import crystal_F


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- crystal-graph -----------------------------------------------------------

def test_graph_theta_pm1_degree2(capsys):
    code, out, _ = run(
        capsys, "crystal-graph", "--mode", "theta", "--window=-1,1",
        "--max-degree", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    nodes = [tuple(sorted((r["i"], r["j"], r["mult"]) for r in n)) for n in doc["nodes"]]
    assert len(nodes) == 4
    assert ((-1, 1, 1),) in nodes  # <-1,1>
    assert ((1, 1, 2),) in nodes  # 2<1>
    # the -1 chain: {} -> <1> -> <-1,1>
    labels = {k: n for k, n in enumerate(doc["nodes"])}
    by_content = {tuple(sorted((r["i"], r["j"], r["mult"]) for r in n)): k for k, n in labels.items()}
    empty, one, mix = by_content[()], by_content[((1, 1, 1),)], by_content[((-1, 1, 1),)]
    edges = {(e["source"], e["target"], e["index"]) for e in doc["edges"]}
    assert (empty, one, -1) in edges
    assert (one, mix, -1) in edges


def test_graph_pm3_double_ladder(capsys):
    code, out, _ = run(
        capsys, "crystal-graph", "--mode", "theta", "--window=-3,3",
        "--max-degree", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 3  # {}, <3>, 2<3>
    edges = [(e["source"], e["target"], e["index"]) for e in doc["edges"]]
    # every step doubled: arrows for 3 and -3 in parallel
    for a, b in ((0, 1), (1, 2)):
        assert (a, b, 3) in edges and (a, b, -3) in edges


def test_graph_typeA_chain(capsys):
    code, out, _ = run(
        capsys, "crystal-graph", "--mode", "typeA", "--window", "1",
        "--max-degree", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 3
    assert len(doc["edges"]) == 2


def test_graph_dot_is_well_formed(capsys):
    code, out, _ = run(
        capsys, "crystal-graph", "--mode", "theta", "--window=-1,1",
        "--max-degree", "2", "--format", "dot",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "digraph crystal {"
    assert lines[-1] == "}"
    node_re = re.compile(r'^  n(\d+) \[label="[^"]+"\];$')
    edge_re = re.compile(r'^  n(\d+) -> n(\d+) \[label="-?\d+"\];$')
    ids = set()
    for line in lines[1:-1]:
        m = node_re.match(line)
        if m:
            ids.add(int(m.group(1)))
            continue
        m = edge_re.match(line)
        assert m, f"unparsable DOT line: {line!r}"
        assert int(m.group(1)) in ids and int(m.group(2)) in ids
    # compact labels on the +-1 window
    assert '[label="{0,0}"]' in out


def test_graph_determinism(capsys):
    args = ("crystal-graph", "--mode", "theta", "--window=-3,-1,1,3",
            "--max-degree", "3", "--format", "json")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def reference_build_graph(mode, window, max_degree):
    """The crystal graph by a breadth-first search that reads each node's
    degree, kept as the reference for `cli.build_graph`."""
    if mode == "theta":
        cli.require_symmetric(window)
        F = crystal_F
    else:
        F = ftilde
    start = Multisegment.empty()
    nodes = {start}
    frontier = [start]
    edges = set()
    while frontier:
        nxt = []
        for m in frontier:
            if m.degree() >= max_degree:
                continue
            for i in window:
                m2 = F(i, m)
                if m2.degree() > max_degree:
                    continue
                edges.add((m, m2, i))
                if m2 not in nodes:
                    nodes.add(m2)
                    nxt.append(m2)
        frontier = nxt
    order = sorted(nodes, key=cry_sort_key, reverse=True)
    order = sorted(order, key=lambda m: m.degree())
    index = {m: k for k, m in enumerate(order)}
    edge_list = sorted(((index[a], index[b], i) for a, b, i in edges),
                       key=lambda e: (e[0], e[1], e[2]))
    return order, edge_list


@pytest.mark.parametrize("fmt", ["text", "json", "dot"])
@pytest.mark.parametrize("mode, window, degree", [
    ("typeA", "-5,-3,-1,1,3,5", 3), ("typeA", "1,5,7", 3), ("typeA", "1", 0),
    ("theta", "-5,-3,-1,1,3,5", 4), ("theta", "-1,1", 6), ("theta", "-3,3", 2),
])
def test_graph_by_levels_prints_what_the_degree_search_prints(
        capsys, monkeypatch, mode, window, degree, fmt):
    argv = ("crystal-graph", "--mode", mode, "--window=" + window,
            "--max-degree", str(degree), "--format", fmt)
    got = run(capsys, *argv)
    monkeypatch.setattr(cli, "build_graph", reference_build_graph)
    assert got == run(capsys, *argv)
    assert got[0] == 0 and got[1]


# -- expand / coords ---------------------------------------------------------

def test_expand_example(capsys):
    code, out, _ = run(capsys, "expand", '[{"i":1,"j":3,"mult":1}]')
    assert code == 0
    assert out.strip() == "f[1]·f[3] - q·f[3]·f[1]"


def test_coords_example(capsys):
    code, out, _ = run(capsys, "coords", "[1,3]")
    assert code == 0
    assert out.splitlines() == ["<1,3>: 1", "<3> + <1>: q"]


def test_coords_theta_mode(capsys):
    code, out, _ = run(capsys, "coords", "--mode", "theta", "[1,1]")
    assert code == 0
    assert out.strip() == "2<1>: q + q^-1"


# -- matrices ----------------------------------------------------------------

def test_global_basis_example(capsys):
    code, out, _ = run(capsys, "global-basis", '{"1":1,"3":1}', "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1", "0"], ["q", "1"]]


def test_bar_matrix_example(capsys):
    code, out, _ = run(capsys, "bar-matrix", '{"1":1,"3":1}', "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["entries"] == [["1", "0"], ["q - q^-1", "1"]]


def test_multiplicity_example(capsys):
    code, out, _ = run(
        capsys, "multiplicity", "{}", "--index", "1", "--side", "F", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc == [{"b": "0", "b_prime": "<1>", "poly": "1", "at_q1": "1"}]
    assert run(capsys, "multiplicity", "{}", "--index", "1", "--side", "F") == (
        0, "(0 ; <1>): 1   [q=1: 1]\n", "")


# -- verify ------------------------------------------------------------------

def test_verify_pass(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "serre", "--mode", "typeA",
    )
    assert code == 0
    assert "serre: PASS" in out
    # serre runs in type A whatever the mode, so it takes any window
    code, out, _ = run(
        capsys, "verify", "--suite", "serre", "--mode", "theta", "--window", "1,3",
    )
    assert (code, out) == (0, "serre: PASS (2 identities checked)\n")


def test_verify_failure_prints_the_first_counterexample(capsys, monkeypatch):
    def failing(mode, window, max_degree, spaces=None):
        return 2, ["<first>", "<second>"]

    monkeypatch.setitem(verify.SUITES, "serre", failing)
    assert run(capsys, "verify", "--suite", "serre") == (
        1, "serre: FAIL (2 identities checked)\n  counterexample: <first>\n", "")


def test_verify_small_crystal_suite(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "crystal-axioms", "--max-degree", "3",
    )
    assert code == 0
    assert "PASS" in out
    # the crystal suites build no algebra, so a gapped window is accepted
    code, out, _ = run(
        capsys, "verify", "--suite", "crystal-axioms", "--mode", "theta",
        "--window=-3,3", "--max-degree", "2",
    )
    assert code == 0
    assert "PASS" in out


# -- error handling ----------------------------------------------------------

def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "coords", "not-json")
    assert code == 2
    assert "cannot parse" in err
    code, _, err = run(capsys, "coords", "[7]")
    assert code == 2
    assert "7" in err
    code, _, err = run(
        capsys, "crystal-graph", "--mode", "theta", "--window", "1,3"
    )
    assert code == 2
    assert "symmetric" in err


def test_out_of_window_segment_named(capsys):
    code, _, err = run(capsys, "expand", '[{"i":5,"j":5,"mult":1}]')
    assert code == 2
    assert "5" in err


@pytest.mark.parametrize("argv,named", [
    (["bar-matrix", "--window", "1,3", '{"5":1}'], "5"),
    (["bar-matrix", "--window", "1,3", '{"1":-1}'], "-1"),
    (["bar-matrix", "--window", "1,5", '{"1":1}'], "1,5"),
    (["bar-matrix", "--mode", "theta", "--window=-1,1", '{"-1":1}'], "-1"),
    (["multiplicity", "--window", "1,3", '{"1":1}', "--index", "5"], "--index 5"),
    (["multiplicity", "--window", "1,3", "{}", "--index", "1", "--side", "E"], "letter 1"),
    (["verify", "--suite", "gram", "--mode", "typeA", "--window", "1,5"], "1,5"),
    # counts, letters and multiplicities must be JSON integers
    (["bar-matrix", "--window=-1,1", '{"1":1.5}'], "1.5"),
    (["multiplicity", "--window=-1,1", '{"1":0.9}', "--index", "1", "--side", "F"], "0.9"),
    (["coords", "--window=-1,1", "[1.5]"], "[1.5]"),
    (["coords", "--window=-1,1", "[true]"], "[true]"),
    (["expand", "--window=-1,1", '[{"i":1,"j":1,"mult":1.5}]'], "1.5"),
    (["expand", "--window=-1,1", '[{"i":true,"j":true,"mult":1}]'], "true"),
    (["expand", "--window=-1,1", '[{"i":1.0,"j":1,"mult":1}]'], "1.0"),
    # a segment record has the keys i, j and mult, and no other
    (["expand", "--window=1,3", '[{"i":1,"j":3,"mult":1,"x":2}]'], 'unknown key "x"'),
    # a window lists each index once
    (["verify", "--suite", "crystal-axioms", "--mode", "typeA", "--window", "1,1,3",
      "--max-degree", "2"], "repeats index 1"),
    (["verify", "--suite", "oracle-cross-check", "--window=-1,1,-1"], "repeats index -1"),
    (["crystal-graph", "--mode", "typeA", "--window", "1,1"], "repeats index 1"),
    (["bar-matrix", "--window", "1,1,3", '{"1":1}'], "repeats index 1"),
    (["coords", "--window", "1,3,3", "[1]"], "repeats index 3"),
    # a content map names each index once
    (["bar-matrix", '{"1":1,"01":1}'], "index 1 is given more than once"),
    (["bar-matrix", '{"1":1,"1":2}'], "index 1 is given more than once"),
    # a suite that needs a symmetric window is named before any suite runs
    (["verify", "--mode", "typeA", "--window", "1"], "suite theta-dims needs"),
    (["verify", "--mode", "theta", "--window", "1,3"], "suite bar-triangular needs"),
    (["verify", "--suite", "theta-dims", "--mode", "typeA", "--window", "1,3"],
     "suite theta-dims needs"),
    (["verify", "--suite", "crystal-axioms", "--window", "1,5"], "suite crystal-axioms needs"),
    # unparsable options and JSON
    (["verify", "--max-degree", "-1"], "--max-degree"),
    (["verify", "--window", "a,b"], "cannot parse window 'a,b'"),
    (["verify", "--window", "2"], "nonempty odd integers, got '2'"),
    (["bar-matrix", "{1"], "cannot parse content map '{1'"),
    (["expand", "[{"], "cannot parse multisegment '[{'"),
])
def test_malformed_requests_exit_2(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error:") and named in err


@pytest.mark.parametrize("argv,message", [
    (["bar-matrix", "[]"],
     "cannot parse content map '[]': a content map must be a JSON object of index -> count"),
    (["bar-matrix", '{"a":1}'],
     """cannot parse content map '{"a":1}': index "a" is not an integer"""),
    (["expand", "[1]"],
     "cannot parse multisegment '[1]': segment 1 is not a JSON object with keys i, j, mult"),
    (["expand", '[{"i":1,"j":1}]'],
     'cannot parse multisegment \'[{"i":1,"j":1}]\': segment {"i": 1, "j": 1} has no key "mult"'),
])
def test_malformed_json_is_named_not_reported_from_python(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"usage error: {message}\n")


DEEP = "[" * 5000


@pytest.mark.parametrize("argv,message", [
    (["coords", DEEP], f"cannot parse word {DEEP!r} (expect a JSON list of letters)"),
    (["expand", DEEP], f"cannot parse multisegment {DEEP!r}: JSON nested too deeply"),
    (["bar-matrix", DEEP], f"cannot parse content map {DEEP!r}: JSON nested too deeply"),
    (["coords", "[" + "1" * 5000 + "]"], "cannot parse word '[111"),
], ids=["deep-word", "deep-multisegment", "deep-content-map", "long-integer-word"])
def test_json_too_deep_or_too_long_for_the_parser_exits_2(capsys, argv, message):
    """Input that makes `json.loads` give up, by recursion or by the limit on
    integer digits, is malformed input, not an internal error."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage error: {message}"), err[:200]


@pytest.mark.parametrize("records", [
    '[{"i":1,"j":3,"mult":-1}]',
    '[{"i":1,"j":3,"mult":2},{"i":1,"j":3,"mult":-1}]',  # the sum of the records is 1
])
def test_a_negative_multisegment_record_exits_2(capsys, records):
    assert run(capsys, "expand", "--window=1,3", records) == (
        2, "", f"usage error: cannot parse multisegment {records!r}: "
               "negative multiplicity -1 for <1,3>\n")


def test_multisegment_parser_keeps_its_exception_types():
    """The CLI names a bad record before `Multisegment.from_json_obj` sees it;
    the parser itself raises what it raised before."""
    with pytest.raises(TypeError):
        Multisegment.from_json_obj([1])
    with pytest.raises(KeyError):
        Multisegment.from_json_obj([{"i": 1, "j": 1}])


@pytest.mark.parametrize("error,code,message", [
    (KeyError("boom"), 3, "internal error: KeyError: 'boom'\n"),
    (ArithmeticError("boom"), 1, "error: boom\n"),
], ids=["internal-error", "failed-check"])
def test_exit_code_follows_the_error(capsys, monkeypatch, error, code, message):
    """A failed check (the ArithmeticError family) exits 1, any other error 3."""
    def broken(window):
        raise error

    monkeypatch.setattr(cli, "WordAlgebra", broken)
    assert run(capsys, "coords", "[1,3]") == (code, "", message)


def test_debug_adds_the_traceback_of_an_internal_error(capsys, monkeypatch):
    """`--debug` prints the traceback of an exit-3 error before its message
    line; without it the output is that line alone."""
    def broken(window):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "WordAlgebra", broken)
    message = "internal error: KeyError: 'boom'\n"
    assert run(capsys, "coords", "[1,3]") == (3, "", message)
    code, out, err = run(capsys, "--debug", "coords", "[1,3]")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in err and "KeyError: 'boom'\n" in err
    assert err.endswith("\n" + message)
    # the flag changes nothing on a failed check, a usage error or a success
    monkeypatch.setattr(cli, "WordAlgebra", lambda window: 1 / 0)
    assert run(capsys, "--debug", "coords", "[1,3]") == run(capsys, "coords", "[1,3]")
    monkeypatch.undo()
    for argv in (["coords", "[1,9]"], ["expand", '[{"i":1,"j":3,"mult":2}]']):
        assert run(capsys, "--debug", *argv) == run(capsys, *argv)


def test_verify_gram_follows_the_mode(capsys):
    counts = {}
    for mode in ("typeA", "theta"):
        code, out, _ = run(
            capsys, "verify", "--suite", "gram", "--mode", mode, "--max-degree", "3",
        )
        assert code == 0
        counts[mode] = int(re.search(r"gram: PASS \((\d+) identities", out).group(1))
    assert counts == {"typeA": 34, "theta": 9}


def test_multiplicity_consistency_honours_max_degree(capsys):
    checked = []
    for degree in ("3", "4"):
        code, out, _ = run(
            capsys, "verify", "--suite", "multiplicity-consistency", "--mode", "typeA",
            "--window", "1,3", "--max-degree", degree,
        )
        assert code == 0
        checked.append(out)
    assert checked == [
        "multiplicity-consistency: PASS (30 identities checked)\n",
        "multiplicity-consistency: PASS (48 identities checked)\n",
    ]


def test_removed_parallel_flag_is_a_usage_error(capsys):
    for argv, named in [
        (["crystal-graph", "--window", "1", "--parallel", "2"], "--parallel"),
        # each subcommand takes only the options it reads
        (["coords", "--max-degree", "-1", "[1]"], "--max-degree"),
        (["expand", "--max-degree", "2", '[{"i":1,"j":1,"mult":1}]'], "--max-degree"),
        (["bar-matrix", "--max-degree", "2", '{"1":1}'], "--max-degree"),
        (["global-basis", "--max-degree", "2", '{"1":1}'], "--max-degree"),
        (["multiplicity", "--max-degree", "2", "{}", "--index", "1"], "--max-degree"),
        (["expand", "--mode", "theta", '[{"i":1,"j":1,"mult":1}]'], "--mode"),
        (["verify", "--suite", "serre", "--format", "json"], "--format"),
        (["expand", '[{"i":1,"j":1,"mult":1}]', "--format", "dot"], "dot"),
        (["coords", "[1]", "--format", "dot"], "dot"),
        (["bar-matrix", '{"1":1}', "--format", "dot"], "dot"),
        (["global-basis", '{"1":1}', "--format", "dot"], "dot"),
        (["multiplicity", "{}", "--index", "1", "--format", "dot"], "dot"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert named in capsys.readouterr().err, argv


def test_one_parser_serves_requests_across_usage_errors(capsys):
    assert build_parser() is build_parser()
    argv = ["global-basis", "--window", "1,3", '{"1":1,"3":1}', "--upper"]
    before = run(capsys, *argv)
    assert before[0] == 0
    for bad in (["crystal-graph", "--window", "1", "--parallel", "2"],
                ["verify", "--suite", "nope"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
    assert run(capsys, *argv) == before


# -- start-up ----------------------------------------------------------------

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
RARE_MODULES = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "linecache",
    "traceback", "textwrap", "typing",
}


def _modules_loaded_by(code):
    """The names in sys.modules after `code` runs in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(*sys.modules, sep='\\n')"],
        env=env, capture_output=True, text=True, check=True,
    )
    return set(done.stdout.split())


def test_import_loads_no_rarely_used_stdlib_module():
    """A symcrys process loads `traceback` only to print one, and no module
    of the dataclasses/inspect family.  The comparison is with a bare
    interpreter, whose own start-up (site hooks included) may load any."""
    bare = _modules_loaded_by("pass")
    loaded = _modules_loaded_by("import symcrys.cli")
    assert "symcrys.cli" in loaded
    assert sorted((loaded - bare) & RARE_MODULES) == []
