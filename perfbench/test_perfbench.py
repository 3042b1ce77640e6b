"""Tests of the benchmark itself; Tier-1 does not collect them.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracle  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from symcrys import RatFunc  # noqa: E402


def tiny(name, **attrs):
    wl = copy.copy(workloads.WORKLOADS[name])
    wl.__dict__.update(attrs)
    return wl


TINY = {
    "theta-blocks": dict(DEGREE=1),
    "typeA-canonical": dict(DEGREE=1),
    "crystal-combinatorics": dict(EXHAUSTIVE={"typeA": 2, "theta": 3}, GRAPH={"typeA": 2, "theta": 3},
                                  CONTENT_DEGREE={"typeA": 2, "theta": 3}, RANDOM=5),
    "cli-queries": {},
}


def run_tiny(name, seed=5):
    wl = tiny(name, **TINY[name])
    inputs = wl.make_inputs(seed)
    if name == "cli-queries":  # the type-A requests, the {-1,1} window and the malformed ones
        inputs["requests"] = [r for r in inputs["requests"]
                              if r.get("mode") in ("typeA", None) or r.get("window") == workloads.W2
                              or "--window=-1,1" in r["argv"]]
    runner = workloads.Runner()
    out = wl.run_round(inputs, runner)
    return wl, inputs, out, runner


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_passes_its_checks(name):
    wl, inputs, out, runner = run_tiny(name)
    report = []
    assert wl.check(inputs, out, report) == []
    assert runner.attempted > 0
    if name == "cli-queries":
        malformed = sum(1 for r in inputs["requests"] if r["kind"] == "malformed")
        assert malformed == len(workloads.MALFORMED)
        assert runner.failed == malformed  # each exits 1 today, not 2
    else:
        assert runner.failed == 0


def test_rounds_render_identically():
    _, _, out1, _ = run_tiny("theta-blocks")
    _, _, out2, _ = run_tiny("theta-blocks")
    assert workloads.render(out1) == workloads.render(out2)


def test_seed_changes_inputs_but_not_the_operations():
    wl = tiny("cli-queries")
    a, b = wl.make_inputs(1), wl.make_inputs(2)
    assert a != b
    kinds = lambda inp: sorted(r["kind"] for r in inp["requests"])  # noqa: E731
    assert kinds(a) == kinds(b)
    assert wl.make_inputs(1) == a


def test_reference_units_run_outside_the_operations():
    runner = workloads.Runner(reference_every=0.0)
    assert runner.op("sum", sum, [1, 2]) == 3
    runner.op("sum", sum, [3])
    assert len(runner.reference_s) == 2 and all(t > 0 for t in runner.reference_s)
    assert all(t < min(runner.reference_s) for t in runner.latencies)
    assert workloads.Runner().op("sum", sum, [1]) == 1  # no units unless asked
    assert worker.speed([reference.UNIT_S, 3 * reference.UNIT_S]) == pytest.approx(2.0)
    assert worker.speed([]) == 1.0


# -- perturbed outputs must be reported --------------------------------------

def test_changed_bar_entry_is_reported():
    key = ((1, 1), (3, 1))
    wl2 = tiny("typeA-canonical", DEGREE=2)
    inputs = wl2.make_inputs(3)
    out = wl2.run_round(inputs, workloads.Runner())
    assert wl2.check(inputs, out, []) == []
    B = out["bar"][key]
    assert len(B.entries) == 2
    B.entries[1][0] = B.entries[1][0] + RatFunc.q_power(1)
    assert any("B bar(B)" in e for e in wl2.check(inputs, out, []))


def test_block_dimension_off_by_one_is_reported():
    wl, inputs, out, _ = run_tiny("theta-blocks")
    key = ((1, 1),)
    out["block"][key] = dict(out["block"][key])
    out["block"][key]["theta_basis"] = out["block"][key]["theta_basis"] + [
        out["block"][((3, 1),)]["theta_basis"][0]]
    errs = wl.check(inputs, out, [])
    assert any("dimension" in e for e in errs)


def test_dropped_relation_term_is_reported():
    wl, inputs, out, _ = run_tiny("theta-blocks")
    (i, j, key), (lhs, rhs) = next((k, v) for k, v in out["relation"].items()
                                   if v[0] is not None and k[0] == k[1])
    lhs = [list(row) for row in lhs]
    lhs[0][0] = RatFunc(0)
    out["relation"][(i, j, key)] = (lhs, rhs)
    assert any("relation fails" in e for e in wl.check(inputs, out, []))


def test_oracle_counts_and_laurent_parser():
    assert oracle.kostant_count((1, 3, 5), {1: 1, 3: 1, 5: 1}) == 4
    assert oracle.theta_count((-1, 1), {1: 2}) == 2  # <-1,1> and 2<1>
    assert oracle.count_up_to_degree((-1, 1), 2, theta=True) == 4
    assert oracle.parse_laurent("q^3 - 2*q + q^-1") == {3: 1, 1: -2, -1: 1}
    assert oracle.parse_laurent("(1)/(-q^2 + 1)") is None


# -- the tracer ----------------------------------------------------------------

def test_tracer_wraps_every_binding_and_uninstalls():
    tr = tracer.Tracer().install()
    try:
        originals = {id(b[2]) for b in tr.bindings}
        assert len(originals) == len(tracer.TARGETS)
        for mod in tracer.symcrys_modules():
            for key, value in vars(mod).items():
                assert id(value) not in originals, f"{mod.__name__}.{key} is not wrapped"
        for modname, attr, *_ in tracer.TARGETS:
            if "." in attr:
                cls, meth = attr.split(".")
                owner = getattr(sys.modules["symcrys." + modname], cls)
                assert hasattr(vars(owner)[meth], "__wrapped__"), attr
        aliases = {(b[0].__name__, b[1]) for b in tr.bindings if hasattr(b[0], "__file__")}
        assert ("symcrys.canonical", "solve_vector") in aliases
        assert ("symcrys.wordalg", "solve_vector") in aliases
        assert ("symcrys.thetamodule", "echelon_form") in aliases
        assert ("symcrys", "bar_matrix") in aliases
    finally:
        tr.uninstall()
    for owner, key, original, _ in tr.bindings:
        assert getattr(owner, key) is original


def test_tracer_counts_calls_made_through_aliases():
    tr = tracer.Tracer().install()
    try:
        import symcrys

        frame = tr.begin_op("probe")
        alg = symcrys.WordAlgebra((1, 3))
        ctx = symcrys.typeA_block(alg, {1: 1, 3: 1})
        symcrys.global_upper(ctx)
        tr.end_op(frame)
    finally:
        tr.uninstall()
    assert tr.calls["canonical.global_upper"] == 1
    assert tr.calls["linalg.inverse"] == 1          # canonical's own binding
    assert tr.calls["linalg.solve_vector"] > 0      # wordalg's own binding
    assert tr.calls["ratfunc.normalize"] > 0
    name, start, end, parent = tr.spans[0]
    assert (name, parent) == ("bench.probe", -1)
    assert sum(tr.layer_self.values()) == pytest.approx(end - start)
    assert all(v >= 0 for v in tr.layer_self.values())
    m = tr.layer_metrics(1, 0)
    assert m["canonical.global_upper_s"] > 0 and m["linalg.solve_calls"] > 0


def test_run_fails_without_the_program():
    bare = os.path.join(HERE, "results", "bare-checkout")  # BENCHMARK.json and perfbench only
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "theta-blocks", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
