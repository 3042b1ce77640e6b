"""Outside-in tracer for symcrys.

Wraps the public functions and methods of each layer (module) of symcrys,
in every symcrys module namespace that binds them, so a call made through
an alias such as `canonical.solve_vector` is seen as well as a call to
`linalg.solve_vector`.  Nothing is added inside src/symcrys.

Each call inside a benchmark operation becomes a span (name, start, end,
parent).  Spans are kept in memory, up to a cap, and written out when the
run ends.  Calls, self time (duration minus the time covered by child
spans) and inclusive time are aggregated per name as the spans close, so
the figures do not depend on the cap.  Outside an operation the wrappers
call straight through.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Frame fields, kept in a list for speed.
_NAME, _LAYER, _START, _CHILD, _NCHILD, _IDX, _KEYS, _ENUM = range(8)


def _hook_solve(tr, frame, args, result):
    tr.counters["linalg.rhs_columns"] += len(args[1])


def _hook_echelon(tr, frame, args, result):
    matrix = args[0]
    tr.counters["linalg.echelon_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _hook_pbw_element(tr, frame, args, result):
    tr.distinct_pbw.add((tr.op_serial, id(args[0]), args[1]))


def _hook_block(tr, frame, args, result):
    if frame[_NCHILD]:  # a cache hit makes no calls
        tr.counters["thetamodule.block_builds"] += 1
        tr.counters["thetamodule.ideal_rank"] += result["dim"] - len(result["theta_basis"])


def _hook_ideal(tr, frame, args, result):
    tr.counters["thetamodule.ideal_generators"] += len(result)


def _hook_enumerate(tr, frame, args, result):
    tr.counters["multisegment.enumerated"] += len(result)
    for f in tr.stack:
        f[_ENUM] += len(result)


def _hook_yield(prefix):
    def hook(tr, frame, args, result):
        tr.counters[prefix + "_results"] += len(result)
        tr.counters[prefix + "_candidates"] += frame[_ENUM]
    return hook


# (module, attribute or Class.method, traced name, inclusive groups, hook)
TARGETS = [
    ("ratfunc", "RatFunc.__init__", "ratfunc.normalize", (), None),
    ("ratfunc", "poly_gcd", "ratfunc.poly_gcd", (), None),
]
TARGETS += [
    ("linalg", f, f"linalg.{f}", (), hook)
    for f, hook in [
        ("echelon_form", _hook_echelon), ("rank", None), ("solve", _hook_solve),
        ("solve_vector", None), ("inverse", None), ("nullspace", None),
        ("solve_rect", None), ("mat_mul", None), ("mat_vec", None),
        ("identity", None), ("is_identity", None),
    ]
]
TARGETS += [
    ("multisegment", f, f"multisegment.{f}", (), hook)
    for f, hook in [
        ("epsilon", None), ("etilde", None), ("ftilde", None), ("signature_ops", None),
        ("window_segments", None), ("enumerate_multisegments", _hook_enumerate),
        ("multisegments_of_content", _hook_yield("multisegment.of_content")),
    ]
]
TARGETS += [
    ("theta", f, f"theta.{f}", (), hook)
    for f, hook in [
        ("theta_epsilon", None), ("theta_Etilde", None), ("theta_Ftilde", None),
        ("theta_signature_ops", None), ("theta_ops_positive", None),
        ("crystal_eps", None), ("crystal_E", None), ("crystal_F", None),
        ("theta_window_segments", None), ("enumerate_theta", None),
        ("theta_of_symmetrized_content", _hook_yield("theta.of_symcontent")),
    ]
]
TARGETS += [
    ("wordalg", f"WordAlgebra.{m}", f"wordalg.{m}", groups, hook)
    for m, groups, hook in [
        ("mul", (), None), ("ad_t", (), None), ("eprime", (), None), ("estar", (), None),
        ("form", (), None), ("words_of_content", (), None), ("is_zero_in_uq", (), None),
        ("pbw_segment", (), None), ("pbw_element", (), _hook_pbw_element),
        ("basis_of_content", (), None), ("gram_matrix", (), None),
        ("pbw_coords", (), None), ("coord_vector", (), None), ("from_coords", (), None),
        ("eprime_matrix", ("wordalg.block_matrix",), None),
        ("fmul_matrix", ("wordalg.block_matrix",), None),
        ("mod_etilde", (), None), ("mod_ftilde", (), None),
        ("serre_element", (), None), ("distant_commutator", (), None),
    ]
]
TARGETS += [
    ("thetamodule", f"ThetaModule.{m}", f"thetamodule.{m}", groups, hook)
    for m, groups, hook in [
        ("F_op", (), None), ("E_op", (), None), ("T_op", (), None), ("bar_theta", (), None),
        ("ptheta_vector", (), None), ("fiber_contents", (), None),
        ("ideal_generators", (), _hook_ideal), ("block", (), _hook_block),
        ("quotient_dimension", (), None), ("theta_coords", (), None),
        ("coord_vector", (), None), ("from_coords", (), None), ("is_zero_class", (), None),
        ("theta_form", (), None),
        ("E_matrix", ("thetamodule.ef_matrix",), None),
        ("F_matrix", ("thetamodule.ef_matrix",), None),
        ("T_scalar", (), None), ("theta_mod_etilde", (), None),
        ("theta_mod_ftilde", (), None), ("theta_mod_ops", (), None),
    ]
]
TARGETS += [
    ("canonical", f, f"canonical.{f}", (), None)
    for f in ("typeA_block", "theta_block", "bar_matrix", "global_lower", "global_upper",
              "balanced_split", "multiplicity_polys", "q1_specialization")
]
TARGETS += [
    ("cli", f, f"cli.{f}", (), None)
    for f in ("main", "build_parser", "parse_window", "require_symmetric", "mseg_from_arg",
              "content_from_arg", "mseg_label", "build_graph", "cmd_crystal_graph",
              "cmd_expand", "cmd_coords", "cmd_bar_matrix", "cmd_global_basis",
              "cmd_multiplicity", "cmd_verify")
]


def symcrys_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "symcrys" or name.startswith("symcrys."))]


class Tracer:
    """Span recorder; `install` patches symcrys, `uninstall` restores it."""

    def __init__(self, max_spans=100_000):
        self.max_spans = max_spans
        self.active = False
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.calls = Counter()
        self.self_time = defaultdict(float)   # per traced name
        self.layer_self = defaultdict(float)  # per layer
        self.incl = defaultdict(float)        # outermost calls of a name or group
        self.depth = Counter()
        self.counters = Counter()
        self.distinct_pbw = set()
        self.op_serial = 0
        self.bindings = []  # (owner, attribute, original, wrapper)

    # -- spans -----------------------------------------------------------

    def _enter(self, name, layer, keys):
        idx = len(self.spans)
        if idx < self.max_spans:
            self.spans.append(None)
        else:
            idx = -1
            self.dropped += 1
        for k in keys:
            self.depth[k] += 1
        frame = [name, layer, 0.0, 0.0, 0, idx, keys, 0]
        self.stack.append(frame)
        frame[_START] = perf_counter()
        return frame

    def _exit(self, frame):
        end = perf_counter()
        self.stack.pop()
        name = frame[_NAME]
        dur = end - frame[_START]
        own = dur - frame[_CHILD]
        self.calls[name] += 1
        self.self_time[name] += own
        self.layer_self[frame[_LAYER]] += own
        for k in frame[_KEYS]:
            self.depth[k] -= 1
            if not self.depth[k]:
                self.incl[k] += dur
        parent = -1
        if self.stack:
            up = self.stack[-1]
            up[_CHILD] += dur
            up[_NCHILD] += 1
            parent = up[_IDX]
        if frame[_IDX] >= 0:
            self.spans[frame[_IDX]] = (name, frame[_START], end, parent)

    def begin_op(self, name):
        """Open the root span of one benchmark operation and start tracing."""
        self.op_serial += 1
        self.active = True
        return self._enter("bench." + name, "bench", ())

    def end_op(self, frame):
        self._exit(frame)
        self.active = False

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name, keys, hook):
        tr = self
        layer = name.split(".", 1)[0]
        keys = (name,) + tuple(keys)

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            frame = tr._enter(name, layer, keys)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr._exit(frame)
            if hook is not None:
                hook(tr, frame, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every target at every place a symcrys module binds it."""
        for modname in sorted({t[0] for t in TARGETS}):
            importlib.import_module("symcrys." + modname)
        modules = symcrys_modules()
        for modname, attr, name, keys, hook in TARGETS:
            owner = sys.modules["symcrys." + modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._wrap(original, name, keys, hook)
                setattr(cls, meth, wrapper)
                self.bindings.append((cls, meth, original, wrapper))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, keys, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self.bindings.append((mod, key, original, wrapper))
        return self

    def uninstall(self):
        for owner, key, original, _ in reversed(self.bindings):
            setattr(owner, key, original)
        self.bindings = []

    # -- results ---------------------------------------------------------

    def write_spans(self, path):
        """One JSON line per span: name, start, end (seconds) and parent index."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, rounds, output_bytes):
        """The per-layer metrics of BENCHMARK.json, per round of the workload.

        trace.overhead_ratio needs an untraced run, so the caller adds it.
        """
        c, s, inc, k = self.calls, self.self_time, self.incl, self.counters

        def ratio(a, b):
            return a / b if b else 0.0

        crystal = ("epsilon", "etilde", "ftilde", "signature_ops")
        theta_ops = ("theta_epsilon", "theta_Etilde", "theta_Ftilde", "theta_signature_ops",
                     "theta_ops_positive", "crystal_eps", "crystal_E", "crystal_F")
        total = {
            "ratfunc.normalize_calls": c["ratfunc.normalize"],
            "ratfunc.normalize_self_s": s["ratfunc.normalize"],
            "ratfunc.poly_gcd_calls": c["ratfunc.poly_gcd"],
            "ratfunc.poly_gcd_self_s": s["ratfunc.poly_gcd"],
            "linalg.solve_calls": c["linalg.solve"],
            "linalg.rhs_columns": k["linalg.rhs_columns"],
            "linalg.echelon_calls": c["linalg.echelon_form"],
            "linalg.echelon_cells": k["linalg.echelon_cells"],
            "linalg.nullspace_calls": c["linalg.nullspace"],
            "linalg.self_s": self.layer_self["linalg"],
            "wordalg.pbw_element_calls": c["wordalg.pbw_element"],
            "wordalg.pbw_coords_calls": c["wordalg.pbw_coords"],
            "wordalg.form_calls": c["wordalg.form"],
            "wordalg.form_self_s": s["wordalg.form"],
            "wordalg.gram_matrix_s": inc["wordalg.gram_matrix"],
            "wordalg.block_matrix_s": inc["wordalg.block_matrix"],
            "wordalg.self_s": self.layer_self["wordalg"],
            "thetamodule.block_builds": k["thetamodule.block_builds"],
            "thetamodule.block_s": inc["thetamodule.block"],
            "thetamodule.ideal_generators": k["thetamodule.ideal_generators"],
            "thetamodule.coord_vector_calls": c["thetamodule.coord_vector"],
            "thetamodule.coord_vector_s": inc["thetamodule.coord_vector"],
            "thetamodule.ef_matrix_s": inc["thetamodule.ef_matrix"],
            "thetamodule.ptheta_calls": c["thetamodule.ptheta_vector"],
            "canonical.bar_matrix_s": inc["canonical.bar_matrix"],
            "canonical.global_lower_s": inc["canonical.global_lower"],
            "canonical.global_upper_s": inc["canonical.global_upper"],
            "canonical.multiplicity_s": inc["canonical.multiplicity_polys"],
            "canonical.self_s": self.layer_self["canonical"],
            "multisegment.enumerated": k["multisegment.enumerated"],
            "multisegment.crystal_op_calls": sum(c["multisegment." + f] for f in crystal),
            "multisegment.self_s": self.layer_self["multisegment"],
            "theta.crystal_op_calls": sum(c["theta." + f] for f in theta_ops),
            "theta.self_s": self.layer_self["theta"],
            "cli.self_s": self.layer_self["cli"],
            "cli.output_bytes": output_bytes,
        }
        out = {name: value / rounds for name, value in total.items()}
        out["wordalg.pbw_element_distinct_ratio"] = ratio(
            len(self.distinct_pbw), c["wordalg.pbw_element"])
        out["thetamodule.ideal_rank_ratio"] = ratio(
            k["thetamodule.ideal_rank"], k["thetamodule.ideal_generators"])
        out["multisegment.of_content_yield_ratio"] = ratio(
            k["multisegment.of_content_results"], k["multisegment.of_content_candidates"])
        out["theta.of_symcontent_yield_ratio"] = ratio(
            k["theta.of_symcontent_results"], k["theta.of_symcontent_candidates"])
        return out

    def self_time_total(self):
        return sum(self.layer_self.values())
