"""The four benchmark workloads.

A workload makes its inputs from the seed, then runs rounds.  A round
starts from a fresh WordAlgebra / ThetaModule (so every cache starts
empty), calls `runner.op` once per operation, and returns its outputs.
`check` tests the outputs of one round against the independent counts and
properties of `oracle`; it runs outside the timed rounds.  Every round
attempts the same operations, so the share of failed operations does not
depend on the seed or on the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from time import perf_counter

from symcrys import (
    Multisegment,
    RatFunc,
    Segment,
    ThetaModule,
    WordAlgebra,
    bar_matrix,
    crystal_E,
    crystal_eps,
    crystal_F,
    enumerate_multisegments,
    enumerate_theta,
    epsilon,
    etilde,
    ftilde,
    global_lower,
    global_upper,
    multiplicity_polys,
    multisegments_of_content,
    parse_ratfunc,
    signature_ops,
    theta_block,
    theta_Etilde,
    theta_epsilon,
    theta_Ftilde,
    theta_of_symmetrized_content,
    theta_signature_ops,
    typeA_block,
)
from symcrys import cli
from symcrys.linalg import mat_mul

import oracle
import reference

W2 = (-1, 1)
W4 = (-3, -1, 1, 3)
W6 = (-5, -3, -1, 1, 3, 5)


class Runner:
    """Times operations and counts the attempted and failed ones.

    With `reference_every` set, a `reference.unit()` runs after the first
    operation that ends at least that many seconds of operation time after
    the last unit; its times go to `reference_s`, outside every operation.
    `next_unit[k]` is the index in `reference_s` of the first unit run
    after the operation of `latencies[k]`.
    """

    def __init__(self, tracer=None, reference_every=None):
        self.tracer = tracer
        self.latencies = []  # well-formed operations only
        self.next_unit = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.reference_every = reference_every
        self.reference_s = []
        self._since_reference = 0.0

    def op(self, name, fn, *args, ok=None, well_formed=True):
        """Run fn(*args) as one operation; returns its result or the exception.

        `ok(result)` decides success when given; otherwise success means
        that no exception was raised.
        """
        frame = self.tracer.begin_op(name) if self.tracer else None
        t0 = perf_counter()
        try:
            result = fn(*args)
            good = ok(result) if ok is not None else True
        except Exception as e:  # a failed operation is counted, not fatal
            result, good = e, False
        latency = perf_counter() - t0
        if frame is not None:
            self.tracer.end_op(frame)
        self.attempted += 1
        if not good:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{name}: {result!r}")
        if well_formed:
            self.latencies.append(latency)
            self.next_unit.append(len(self.reference_s))
        if self.reference_every is not None:
            self._since_reference += latency
            if self._since_reference >= self.reference_every:
                self.reference_s.append(reference.timed_unit())
                self._since_reference = 0.0
        return result


def key_of(content):
    return tuple(sorted((k, n) for k, n in content.items() if n))


def shift_key(key, letter, step):
    c = Counter(dict(key))
    c[letter] += step
    return None if c[letter] < 0 else key_of(c)


def degree(key):
    return sum(n for _, n in key)


def render(obj):
    """Canonical text of an output structure, for comparing rounds."""
    if isinstance(obj, dict):
        items = sorted((render(k), render(v)) for k, v in obj.items()
                       if not (isinstance(k, str) and k.startswith("_")))
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render(x) for x in obj) + "]"
    if isinstance(obj, Exception):
        return f"error({type(obj).__name__}: {obj})"
    if hasattr(obj, "entries") and hasattr(obj, "basis"):
        return render((obj.label, obj.basis, obj.entries))
    return str(obj)


def _multisegs(segs, max_degree, min_degree=0):
    """All multisets of the (i, j) segments with degree in the range."""
    out = []

    def rec(idx, left, acc):
        if idx == len(segs):
            if max_degree - left >= min_degree:
                out.append(Multisegment({Segment(i, j): n for (i, j), n in acc.items()}))
            return
        i, j = segs[idx]
        size = (j - i) // 2 + 1
        n = 0
        while n * size <= left:
            if n:
                acc[(i, j)] = n
            rec(idx + 1, left - n * size, acc)
            n += 1
        acc.pop((i, j), None)

    rec(0, max_degree, {})
    return out


def _random_mseg(rng, segs, target):
    entries = Counter()
    left = target
    while left:
        fits = [(i, j) for i, j in segs if (j - i) // 2 + 1 <= left]
        i, j = rng.choice(fits)
        entries[Segment(i, j)] += 1
        left -= (j - i) // 2 + 1
    return Multisegment(dict(entries))


def _combination(vectors, coeffs):
    total = None
    for v, c in zip(vectors, coeffs):
        term = v.scale(RatFunc(c))
        total = term if total is None else total + term
    return total


def _coords_match(coords, basis, coeffs):
    want = {m: RatFunc(c) for m, c in zip(basis, coeffs)}
    return coords == want


# ---------------------------------------------------------------------------
# theta-blocks and typeA-canonical
# ---------------------------------------------------------------------------

class BlockWorkload:
    """Shared parts of the two workloads that sweep graded blocks."""

    window = W4
    min_rounds = 3

    def make_inputs(self, seed):
        """Every block up to DEGREE, and seeded coefficients for a coordinate round trip."""
        rng = random.Random(seed)
        keys = [()] + [key_of(c) for c in oracle.contents(self.indices(), self.DEGREE)]
        coeffs = {key: [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(self.dims(key))]
                  for key in keys}
        return {"keys": keys, "coeffs": coeffs}

    def _check_mults(self, out, report, positive):
        errs = []
        negatives = 0
        zero = RatFunc(0)
        for (i, side, key), polys in out["mult"].items():
            if isinstance(polys, Exception):
                continue
            tgt = shift_key(key, self.letter(i), -1 if side == "E" else 1)
            C_src, C_tgt = out["lower"][key], out["lower"].get(tgt)
            partner = self._partner(out, i, side, tgt)
            if C_tgt is None or any(isinstance(x, Exception) for x in (C_src, C_tgt, partner)):
                errs.append(f"block {dict(key)}: no target data for the adjoint route")
                continue
            adj = oracle.adjoint_multiplicities(C_src.entries, C_tgt.entries, partner,
                                                C_src.basis, C_tgt.basis, zero)
            e, neg = oracle.check_multiplicities(
                f"block {dict(key)}, index {i}, side {side}", polys, adj, positive)
            errs += e
            negatives += neg
        report.append(f"{self.name}: {negatives} negative coefficients in "
                      f"{len(out['mult'])} multiplicity tables")
        return errs


class ThetaBlocks(BlockWorkload):
    """Every theta block of degree <= DEGREE on W4, with everything on it."""

    name = "theta-blocks"
    DEGREE = 2

    @staticmethod
    def letter(i):
        return abs(i)

    def indices(self):
        return [k for k in self.window if k > 0]

    def new_system(self):
        return ThetaModule(self.window)

    def run_round(self, inputs, runner):
        M = self.new_system()
        W = self.window
        out = {"_module": M, "block": {}, "E": {}, "F": {}, "relation": {}, "bar": {},
               "lower": {}, "upper": {}, "mult": {}, "coords": {}, "mod_ftilde": {}}
        for key in inputs["keys"]:
            out["block"][key] = runner.op("block", M.block, key)
            for i in W:
                out["F"][(i, key)] = runner.op("F_matrix", M.F_matrix, i, key)
                if dict(key).get(abs(i)):
                    out["E"][(i, key)] = runner.op("E_matrix", M.E_matrix, i, key)
            for i in W:
                for j in W:
                    out["relation"][(i, j, key)] = runner.op(
                        "qboson_relation", self._relation, M, key, i, j)
            ctx = theta_block(M, dict(key))
            B = out["bar"][key] = runner.op("bar_matrix", bar_matrix, ctx)
            C = out["lower"][key] = runner.op("global_lower", global_lower, ctx, B)
            out["upper"][key] = runner.op("global_upper", global_upper, ctx, C)
            for i in W:
                for side, step in (("E", -1), ("F", 1)):
                    tgt = shift_key(key, abs(i), step)
                    if tgt is None or degree(tgt) > self.DEGREE:
                        continue
                    out["mult"][(i, side, key)] = runner.op(
                        "multiplicity", multiplicity_polys, i, ctx, side)
            out["coords"][key] = runner.op(
                "coords", self._coords, M, key, inputs["coeffs"][key],
                ok=lambda r: _coords_match(*r))
            block = out["block"][key]
            for m in [] if isinstance(block, Exception) else block["theta_basis"]:
                for i in W:
                    out["mod_ftilde"][(i, m)] = runner.op(
                        "mod_ftilde", self._mod_ftilde, M, i, m)
        return out

    @staticmethod
    def _mod_ftilde(M, i, m):
        return M.theta_coords(M.theta_mod_ftilde(i, M.ptheta_vector(m)))

    @staticmethod
    def _relation(M, key, i, j):
        sup = shift_key(key, abs(j), 1)
        lhs = mat_mul(M.E_matrix(i, sup), M.F_matrix(j, key)) if dict(sup).get(abs(i)) else None
        sub = shift_key(key, abs(i), -1)
        rhs = mat_mul(M.F_matrix(j, sub), M.E_matrix(i, key)) if sub is not None else None
        return lhs, rhs

    @staticmethod
    def _coords(M, key, coeffs):
        basis = M.block(key)["theta_basis"]
        v = _combination([M.ptheta_vector(m) for m in basis], coeffs)
        return M.theta_coords(v), basis, coeffs

    def dims(self, key):
        return oracle.theta_count(self.window, dict(key))

    def ambient_dim(self, key):
        """Sum of Kostant counts over the genuine contents of the fiber."""
        fibers = [{}]
        for k, n in key:
            fibers = [{**f, k: a, -k: n - a} for f in fibers for a in range(n + 1)]
        return sum(oracle.kostant_count(self.window, f) for f in fibers)

    def check(self, inputs, out, report):
        errs = []
        M = out["_module"]
        W = self.window
        zero, one = RatFunc(0), RatFunc(1)
        for key in inputs["keys"]:
            label = f"theta block {dict(key)}"
            block = out["block"][key]
            if isinstance(block, Exception):
                continue
            if len(block["theta_basis"]) != self.dims(key):
                errs.append(f"{label}: dimension {len(block['theta_basis'])}, "
                            f"the count says {self.dims(key)}")
            if block["dim"] != self.ambient_dim(key):
                errs.append(f"{label}: ambient dimension {block['dim']}, "
                            f"the count says {self.ambient_dim(key)}")
            errs += oracle.check_enumeration(label, block["theta_basis"], self.dims(key),
                                             dict(key), symmetrized=True, theta=True)
            n = self.dims(key)
            for side, step in (("E", -1), ("F", 1)):
                for i in W:
                    mat = out[side].get((i, key))
                    if mat is None or isinstance(mat, Exception):
                        continue
                    rows = self.dims(shift_key(key, abs(i), step))
                    if len(mat) != rows or any(len(r) != n for r in mat):
                        errs.append(f"{label}: {side}_{i} matrix has the wrong shape")
            for i in W:
                for j in W:
                    res = out["relation"][(i, j, key)]
                    if isinstance(res, Exception):
                        continue
                    lhs, rhs = res
                    qc = RatFunc.q_power(-oracle.cartan(i, j))
                    t_exp = -sum(m * (oracle.cartan(i, k) + oracle.cartan(-i, k)) for k, m in key)
                    delta = RatFunc(1 if i == j else 0) + (
                        RatFunc.q_power(t_exp) if j == -i else zero)
                    tgt = shift_key(shift_key(key, abs(j), 1), abs(i), -1)
                    rows = self.dims(tgt) if tgt is not None else 0
                    errs += oracle.check_relation(
                        f"{label}, E_{i} F_{j}", lhs, rhs, qc, delta, rows, n)
            B, C, U = out["bar"][key], out["lower"][key], out["upper"][key]
            if not any(isinstance(x, Exception) for x in (B, C, U)):
                errs += oracle.check_bar(label, B.entries)
                errs += oracle.check_lower(label, B.entries, C.entries)
                gram = theta_block(M, dict(key)).gram()
                errs += oracle.check_dual(label, U.entries, gram, C.entries, zero, one)
        for (i, m), coords in out["mod_ftilde"].items():
            if not isinstance(coords, Exception):
                errs += oracle.check_crystal_compat(
                    f"modified F_{i} on {m}", coords, crystal_F(i, m))
        errs += self._check_mults(out, report, positive=False)
        return errs

    def _partner(self, out, i, side, tgt):
        return out["F" if side == "E" else "E"][(i, tgt)]


# ---------------------------------------------------------------------------
# typeA-canonical
# ---------------------------------------------------------------------------

class TypeACanonical(BlockWorkload):
    """Every type-A content block of degree <= DEGREE on W4."""

    name = "typeA-canonical"
    DEGREE = 3

    @staticmethod
    def letter(i):
        return i

    def indices(self):
        return self.window

    def new_system(self):
        return WordAlgebra(self.window)

    def run_round(self, inputs, runner):
        A = self.new_system()
        out = {"_alg": A, "gram": {}, "bar": {}, "lower": {}, "upper": {}, "mult": {},
               "coords": {}}
        for key in inputs["keys"]:
            content = dict(key)
            out["gram"][key] = runner.op("gram_matrix", A.gram_matrix, content)
            ctx = typeA_block(A, content)
            B = out["bar"][key] = runner.op("bar_matrix", bar_matrix, ctx)
            C = out["lower"][key] = runner.op("global_lower", global_lower, ctx, B)
            out["upper"][key] = runner.op("global_upper", global_upper, ctx, C)
            for i in self.window:
                for side, step in (("E", -1), ("F", 1)):
                    tgt = shift_key(key, i, step)
                    if tgt is None or degree(tgt) > self.DEGREE:
                        continue
                    out["mult"][(i, side, key)] = runner.op(
                        "multiplicity", multiplicity_polys, i, ctx, side)
            out["coords"][key] = runner.op(
                "coords", self._coords, A, key, inputs["coeffs"][key],
                ok=lambda r: _coords_match(*r))
        return out

    @staticmethod
    def _coords(A, key, coeffs):
        basis = A.basis_of_content(dict(key))
        v = _combination([A.pbw_element(m) for m in basis], coeffs)
        return A.pbw_coords(v), basis, coeffs

    def dims(self, key):
        return oracle.kostant_count(self.window, dict(key))

    def _partner(self, out, i, side, tgt):
        A = out["_alg"]
        if side == "E":
            return A.fmul_matrix(i, dict(tgt))
        return A.eprime_matrix(i, dict(tgt))

    def check(self, inputs, out, report):
        errs = []
        zero, one = RatFunc(0), RatFunc(1)
        for key in inputs["keys"]:
            label = f"type-A block {dict(key)}"
            G, B, C, U = (out[k][key] for k in ("gram", "bar", "lower", "upper"))
            if any(isinstance(x, Exception) for x in (G, B, C, U)):
                continue
            n = self.dims(key)
            errs += oracle.check_enumeration(label, B.basis, n, dict(key))
            if len(G) != n or any(G[r][c] != G[c][r] for r in range(n) for c in range(n)):
                errs.append(f"{label}: Gram matrix is not a symmetric {n} x {n} matrix")
            errs += oracle.check_bar(label, B.entries)
            errs += oracle.check_lower(label, B.entries, C.entries)
            errs += oracle.check_dual(label, U.entries, G, C.entries, zero, one)
        errs += self._check_mults(out, report, positive=True)
        return errs


# ---------------------------------------------------------------------------
# crystal-combinatorics
# ---------------------------------------------------------------------------

class CrystalCombinatorics:
    """Crystal operators, axioms, graphs and enumeration on W6, both modes."""

    name = "crystal-combinatorics"
    window = W6
    min_rounds = 3
    EXHAUSTIVE = {"typeA": 5, "theta": 6}   # degree of the exhaustive inputs
    GRAPH = {"typeA": 4, "theta": 6}        # crystal-graph degree
    CONTENT_DEGREE = {"typeA": 4, "theta": 6}
    RANDOM = 150                            # seeded inputs per mode, degree 7..9
    CHUNK = 100                             # multisegments per formula/axiom operation
    CONTENT_CHUNK = 8                       # contents per enumeration operation

    def make_inputs(self, seed):
        rng = random.Random(seed)
        inputs = {}
        for mode in ("typeA", "theta"):
            segs = oracle.segments(self.window, theta=mode == "theta")
            msegs = _multisegs(segs, self.EXHAUSTIVE[mode])
            msegs += [_random_mseg(rng, segs, rng.randint(7, 9)) for _ in range(self.RANDOM)]
            idx = self.window if mode == "typeA" else [k for k in self.window if k > 0]
            contents = oracle.contents(idx, self.CONTENT_DEGREE[mode])
            inputs[mode] = {
                "chunks": [msegs[k:k + self.CHUNK] for k in range(0, len(msegs), self.CHUNK)],
                "content_chunks": [contents[k:k + self.CONTENT_CHUNK]
                                   for k in range(0, len(contents), self.CONTENT_CHUNK)],
            }
        return inputs

    def new_system(self):
        return None

    @staticmethod
    def _formulas(mode, window, chunk):
        out = []
        for m in chunk:
            if mode == "typeA":
                for i in window:
                    out.append(((epsilon(i, m), etilde(i, m), ftilde(i, m)), signature_ops(i, m)))
            else:
                for k in window:
                    if k > 0:
                        out.append(((theta_epsilon(k, m), theta_Etilde(k, m), theta_Ftilde(k, m)),
                                    theta_signature_ops(k, m)))
        return out

    @staticmethod
    def _axioms(mode, window, chunk):
        eps_f, E_f, F_f = ((epsilon, etilde, ftilde) if mode == "typeA"
                           else (crystal_eps, crystal_E, crystal_F))
        out = []
        for m in chunk:
            for i in window:
                e, f = E_f(i, m), F_f(i, m)
                n, cur = 0, e
                while cur is not None:
                    n += 1
                    cur = E_f(i, cur)
                out.append((m, i, eps_f(i, m), e, f, E_f(i, f),
                            F_f(i, e) if e is not None else None, n))
        return out

    def run_round(self, inputs, runner):
        W = self.window
        out = {}
        for mode in ("typeA", "theta"):
            enum = enumerate_multisegments if mode == "typeA" else enumerate_theta
            res = out[mode] = {"formulas": [], "axioms": [], "contents": []}
            res["enumerate"] = runner.op("enumerate", enum, W, self.EXHAUSTIVE[mode])
            for chunk in inputs[mode]["chunks"]:
                res["formulas"].append(runner.op("formulas", self._formulas, mode, W, chunk))
                res["axioms"].append(runner.op("axioms", self._axioms, mode, W, chunk))
            res["graph"] = runner.op("crystal_graph", cli.build_graph, mode, W, self.GRAPH[mode])
            of = multisegments_of_content if mode == "typeA" else theta_of_symmetrized_content
            for chunk in inputs[mode]["content_chunks"]:
                res["contents"].append(runner.op("of_content", self._of_contents, of, W, chunk))
        return out

    @staticmethod
    def _of_contents(of, window, chunk):
        return [of(window, c) for c in chunk]

    def check(self, inputs, out, report):
        errs = []
        W = self.window
        for mode in ("typeA", "theta"):
            theta = mode == "theta"
            res = out[mode]
            if not isinstance(res["enumerate"], Exception):
                d = self.EXHAUSTIVE[mode]
                errs += oracle.check_enumeration(
                    f"{mode} enumeration to degree {d}", res["enumerate"],
                    oracle.count_up_to_degree(W, d, theta), theta=theta, max_degree=d)
            for chunk in res["formulas"]:
                if not isinstance(chunk, Exception) and any(a != b for a, b in chunk):
                    errs.append(f"{mode}: closed formula disagrees with the signature rule")
            for chunk in res["axioms"]:
                if not isinstance(chunk, Exception):
                    errs += self._check_axioms(mode, chunk)
            if not isinstance(res["graph"], Exception):
                errs += self._check_graph(mode, *res["graph"])
            for chunk, results in zip(inputs[mode]["content_chunks"], res["contents"]):
                if isinstance(results, Exception):
                    continue
                for c, msegs in zip(chunk, results):
                    count = oracle.theta_count(W, c) if theta else oracle.kostant_count(W, c)
                    errs += oracle.check_enumeration(f"{mode} content {c}", msegs, count, c,
                                                     symmetrized=theta, theta=theta)
        return errs

    def _step(self, mode, m, i):
        c = Counter(oracle.mseg_content(m, symmetrized=mode == "theta"))
        c[abs(i) if mode == "theta" else i] += 1
        return dict(c)

    def _check_axioms(self, mode, rows):
        for m, i, eps, e, f, ef, fe, n in rows:
            where = f"{mode} crystal at {m}, index {i}"
            if (eps == 0) != (e is None):
                return [f"{where}: epsilon {eps} but Etilde {e}"]
            if fe is not None and fe != m:
                return [f"{where}: F(E(m)) != m"]
            if ef != m:
                return [f"{where}: E(F(m)) != m"]
            if n != eps:
                return [f"{where}: epsilon {eps} != E-string length {n}"]
            if oracle.mseg_content(f, mode == "theta") != self._step(mode, m, i):
                return [f"{where}: F(m) has the wrong content"]
            if mode == "theta" and any(-seg.j > seg.i for seg, _ in f):
                return [f"{where}: F(m) is not theta-restricted"]
        return []

    def _check_graph(self, mode, nodes, edges):
        d = self.GRAPH[mode]
        label = f"{mode} crystal graph to degree {d}"
        errs = oracle.check_enumeration(label, nodes, oracle.count_up_to_degree(
            self.window, d, mode == "theta"), theta=mode == "theta", max_degree=d)
        inner = sum(1 for m in nodes if oracle.mseg_degree(m) < d)
        if len(edges) != inner * len(self.window):
            errs.append(f"{label}: {len(edges)} edges, expected {inner * len(self.window)}")
        for a, b, i in edges:
            if oracle.mseg_content(nodes[b], mode == "theta") != self._step(mode, nodes[a], i):
                errs.append(f"{label}: edge {a} -> {b} (index {i}) changes the wrong letter")
                break
        return errs


# ---------------------------------------------------------------------------
# cli-queries
# ---------------------------------------------------------------------------

MALFORMED = [
    ["bar-matrix", "--window", "1,3", '{"5":1}'],
    ["bar-matrix", "--window", "1,3", '{"1":-1}'],
    ["bar-matrix", "--window", "1,5", '{"1":1}'],
    ["bar-matrix", "--mode", "theta", "--window=-1,1", '{"-1":1}'],
    ["multiplicity", "--window", "1,3", '{"1":1}', "--index", "5"],
]


def _win(w):
    return "--window=" + ",".join(map(str, w))


def _content_arg(content):
    return json.dumps({str(k): n for k, n in sorted(content.items())})


class CliQueries:
    """A seeded mix of symcrys requests through symcrys.cli.main(argv)."""

    name = "cli-queries"
    min_rounds = 3  # at least 100 well-formed requests per run

    MATRIX_BLOCKS = [
        ("typeA", W4, {-1: 1, 1: 1, 3: 1}), ("typeA", W4, {1: 2, 3: 1}),
        ("typeA", W4, {-3: 1, -1: 1, 1: 1}), ("typeA", W4, {1: 1, 3: 1}),
        ("theta", W4, {1: 1, 3: 1}), ("theta", W4, {1: 2}),
        ("theta", W4, {3: 2}), ("theta", W2, {1: 3}),
    ]
    MULTIPLICITIES = [
        ("typeA", W4, {-1: 1, 1: 1, 3: 1}, 1, "E"), ("typeA", W4, {1: 1, 3: 1}, 1, "F"),
        ("typeA", W4, {-1: 1, 1: 1}, -3, "F"), ("typeA", W4, {1: 2}, 1, "E"),
        ("typeA", W4, {1: 1, 3: 1}, 3, "E"),
        ("theta", W4, {1: 1, 3: 1}, -1, "E"), ("theta", W4, {1: 1}, -3, "F"),
        ("theta", W4, {1: 2}, 1, "E"), ("theta", W2, {1: 2}, -1, "F"),
        ("theta", W2, {1: 1}, 1, "F"),
    ]
    COORDS = [
        ("typeA", W4, [-1, 1, 3]), ("typeA", W4, [1, 1, 3]), ("typeA", W4, [-3, -1, 1]),
        ("typeA", W4, [1, 3]),
        ("theta", W4, [1, 3]), ("theta", W4, [1, 1]), ("theta", W2, [1, 1, 1]),
        ("theta", W4, [3, 1]),
    ]
    EXPAND = [{-1: 1, 1: 1, 3: 1}, {1: 2, 3: 1}, {-3: 1, -1: 1, 1: 1, 3: 1}]
    GRAPHS = [("typeA", W4, 3, "json"), ("typeA", W4, 2, "dot"),
              ("theta", W4, 3, "json"), ("theta", W2, 4, "text")]

    def make_inputs(self, seed):
        rng = random.Random(seed)
        reqs = []

        def add(kind, argv, **meta):
            reqs.append(dict(kind=kind, argv=argv, expect=0, well_formed=True, **meta))

        for mode, w, content in self.MATRIX_BLOCKS:
            base = ["--mode", mode, _win(w), _content_arg(content), "--format", "json"]
            meta = dict(mode=mode, window=w, content=content)
            add("bar", ["bar-matrix"] + base, **meta)
            add("lower", ["global-basis"] + base, **meta)
            add("upper", ["global-basis"] + base + ["--upper"], **meta)
        add("text", ["global-basis", "--mode", "typeA", _win(W4), '{"-3":1,"-1":1}'], lines=4)
        add("text", ["bar-matrix", "--mode", "theta", _win(W4), '{"1":1}'], lines=3)
        for mode, w, content, i, side in self.MULTIPLICITIES:
            add("mult", ["multiplicity", "--mode", mode, _win(w), _content_arg(content),
                         "--index", str(i), "--side", side, "--format", "json"], mode=mode)
        for mode, w, letters in self.COORDS:
            word = list(letters)
            rng.shuffle(word)
            if mode == "theta":
                word = [k * rng.choice((-1, 1)) for k in word]
            add("coords", ["coords", "--mode", mode, _win(w), json.dumps(word),
                           "--format", "json"], mode=mode, window=w, word=word)
        for content in self.EXPAND:
            segs = oracle.segments(W4)
            choices = [m for m in _multisegs(segs, sum(content.values()), sum(content.values()))
                       if oracle.mseg_content(m) == content]
            m = rng.choice(sorted(choices, key=str))
            add("expand", ["expand", _win(W4), m.to_json(), "--format", "json"], mseg=m)
        for mode, w, d, fmt in self.GRAPHS:
            add("graph", ["crystal-graph", "--mode", mode, _win(w), "--max-degree", str(d),
                          "--format", fmt], mode=mode, window=w, degree=d, fmt=fmt)
        for argv in MALFORMED:
            reqs.append(dict(kind="malformed", argv=argv, expect=2, well_formed=False))
        rng.shuffle(reqs)
        return {"requests": reqs}

    def new_system(self):
        return None

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(argv))
            except SystemExit as e:  # argparse rejects the arguments
                code = e.code
        return code, out.getvalue(), err.getvalue()

    def run_round(self, inputs, runner):
        out = []
        for req in inputs["requests"]:
            res = runner.op(req["argv"][0], self._call, req["argv"],
                            ok=lambda r, want=req["expect"]: r[0] == want,
                            well_formed=req["well_formed"])
            out.append(res)
        return out

    @staticmethod
    def output_bytes(out):
        return sum(len(r[1].encode()) for r in out if isinstance(r, tuple))

    def check(self, inputs, out, report):
        errs = []
        matrices = {}
        for req, res in zip(inputs["requests"], out):
            if isinstance(res, Exception) or req["kind"] == "malformed" or res[0] != 0:
                continue
            text = res[1]
            label = " ".join(req["argv"])
            try:
                if req["kind"] in ("bar", "lower", "upper"):
                    key = (req["mode"], req["window"], key_of(req["content"]))
                    matrices.setdefault(key, {})[req["kind"]] = json.loads(text)
                elif req["kind"] == "text":
                    if len(text.splitlines()) != req["lines"]:
                        errs.append(f"{label}: {len(text.splitlines())} lines")
                else:
                    errs += getattr(self, "_check_" + req["kind"])(req, text, label)
            except (ValueError, KeyError, TypeError) as e:
                errs.append(f"{label}: unreadable output ({e})")
        for key, docs in sorted(matrices.items(), key=str):
            errs += self._check_matrices(key, docs)
        return errs

    def _check_matrices(self, key, docs):
        mode, window, ck = key
        label = f"cli {mode} {dict(ck)}"
        count = (oracle.theta_count(window, dict(ck)) if mode == "theta"
                 else oracle.kostant_count(window, dict(ck)))
        B = [[oracle.parse_laurent(x) for x in row] for row in docs["bar"]["entries"]]
        C = [[oracle.parse_laurent(x) for x in row] for row in docs["lower"]["entries"]]
        errs = []
        if len(B) != count:
            return [f"{label}: {len(B)} basis elements, the count says {count}"]
        if any(x is None for row in B + C for x in row):
            return [f"{label}: a bar or lower-basis entry is not a Laurent polynomial"]
        errs += oracle.check_bar(label, B)
        errs += oracle.check_lower(label, B, C)
        U = [[parse_ratfunc(x) for x in row] for row in docs["upper"]["entries"]]
        Cr = [[parse_ratfunc(x) for x in row] for row in docs["lower"]["entries"]]
        if mode == "theta":
            G = theta_block(ThetaModule(window), dict(ck)).gram()
        else:
            G = WordAlgebra(window).gram_matrix(dict(ck))
        errs += oracle.check_dual(label, U, G, Cr, RatFunc(0), RatFunc(1))
        return errs

    def _check_mult(self, req, text, label):
        errs = []
        for row in json.loads(text):
            poly = oracle.parse_laurent(row["poly"])
            if poly is None:
                errs.append(f"{label}: multiplicity {row['poly']} is not in Z[q, q^-1]")
                continue
            if str(oracle.at_one(poly)) != row["at_q1"]:
                errs.append(f"{label}: q=1 value {row['at_q1']} of {row['poly']}")
            if req["mode"] == "typeA" and any(c < 0 for c in poly.values()):
                errs.append(f"{label}: negative type-A multiplicity {row['poly']}")
        return errs

    def _check_coords(self, req, text, label):
        coords = [(Multisegment.from_json_obj(r["multisegment"]), parse_ratfunc(r["coefficient"]))
                  for r in json.loads(text)]
        if req["mode"] == "theta":
            M = ThetaModule(req["window"])
            diff = M.from_words({tuple(req["word"]): RatFunc(1)})
            for m, c in coords:
                diff = diff - M.ptheta_vector(m).scale(c)
            ok = M.is_zero_class(diff)
        else:
            A = WordAlgebra(req["window"])
            diff = A.f(*req["word"])
            for m, c in coords:
                diff = diff - A.pbw_element(m).scale(c)
            ok = A.is_zero_in_uq(diff)
        return [] if ok else [f"{label}: the coordinates do not reproduce the word"]

    def _check_expand(self, req, text, label):
        m = req["mseg"]
        content = oracle.mseg_content(m)
        A = WordAlgebra(W4)
        terms = {}
        for word, coef in json.loads(text).items():
            letters = tuple(int(x) for x in word.split(","))
            if dict(Counter(letters)) != content:
                return [f"{label}: word {word} has the wrong content"]
            terms[letters] = parse_ratfunc(coef)
        if A.pbw_coords(A.vector(terms)) != {m: RatFunc(1)}:
            return [f"{label}: the expansion does not have PBW coordinates {m}"]
        return []

    def _check_graph(self, req, text, label):
        count = oracle.count_up_to_degree(req["window"], req["degree"], req["mode"] == "theta")
        if req["fmt"] == "json":
            doc = json.loads(text)
            nodes = {json.dumps(n, sort_keys=True) for n in doc["nodes"]}
            n = len(doc["nodes"]) if len(nodes) == len(doc["nodes"]) else -1
        elif req["fmt"] == "dot":
            n = sum(1 for line in text.splitlines() if "[label=" in line and "->" not in line)
        else:
            n = sum(1 for line in text.splitlines() if line.startswith("node "))
        if n != count:
            return [f"{label}: {n} distinct nodes, the count says {count}"]
        return []


WORKLOADS = {w.name: w for w in (ThetaBlocks(), TypeACanonical(), CrystalCombinatorics(),
                                 CliQueries())}
