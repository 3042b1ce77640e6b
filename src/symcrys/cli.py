"""Command-line front end.

Subcommands: crystal-graph, expand, coords, global-basis, bar-matrix,
multiplicity, verify.  All numeric output uses the canonical rational
function string format, and repeated runs produce byte-identical output.
Exit codes: 0 success, 1 counterexample/verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .canonical import (
    bar_matrix,
    block_context,
    global_lower,
    global_upper,
    multiplicity_polys,
    q1_specialization,
)
from .multisegment import Multisegment, cry_sort_key, ftilde as a_ftilde
from .ratfunc import RatFunc
from .theta import crystal_F
from .thetamodule import ThetaModule
from .verify import CRYSTAL_SUITES, SUITES, UsageError, require_symmetric
from .wordalg import WordAlgebra


def parse_window(text):
    try:
        win = tuple(sorted(int(t) for t in text.split(",") if t.strip()))
    except ValueError:
        raise UsageError(f"cannot parse window {text!r}")
    if not win or any(i % 2 == 0 for i in win):
        raise UsageError(f"window must be nonempty odd integers, got {text!r}")
    return win


def algebra_window(text, mode):
    """A window the algebra (or, in theta mode, the module) can be built on."""
    win = parse_window(text)
    if any(b - a != 2 for a, b in zip(win, win[1:])):
        raise UsageError(f"window must be a contiguous odd interval, got {text!r}")
    if mode == "theta":
        require_symmetric(win)
    return win


def mseg_from_arg(text):
    try:
        return Multisegment.from_json(text)
    except (json.JSONDecodeError, KeyError, ValueError, TypeError) as e:
        raise UsageError(f"cannot parse multisegment {text!r}: {e}")


def content_from_arg(text):
    try:
        content = {int(k): n for k, n in json.loads(text).items()}
    except (json.JSONDecodeError, ValueError, AttributeError) as e:
        raise UsageError(f"cannot parse content map {text!r}: {e}")
    for k, n in content.items():
        if type(n) is not int:  # a JSON integer; no float, string or boolean
            raise UsageError(
                f"cannot parse content map {text!r}: count {json.dumps(n)} of "
                f"index {k} is not an integer"
            )
    return content


def mseg_label(m, compact):
    if not compact:
        return str(m)
    a = m.mult(-1, 1)
    b = m.mult(1, 1)
    return "{%d,%d}" % (a, b)


# ---------------------------------------------------------------------------
# crystal-graph
# ---------------------------------------------------------------------------

def build_graph(mode, window, max_degree):
    if mode == "theta":
        require_symmetric(window)
        F = crystal_F
    else:
        F = lambda i, m: a_ftilde(i, m)
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
    edge_list = sorted(
        ((index[a], index[b], i) for a, b, i in edges),
        key=lambda e: (e[0], e[1], e[2]),
    )
    return order, edge_list


def cmd_crystal_graph(args):
    window = parse_window(args.window)
    nodes, edges = build_graph(args.mode, window, args.max_degree)
    compact = args.mode == "theta" and set(window) == {-1, 1}
    if args.format == "json":
        doc = {
            "mode": args.mode,
            "window": list(window),
            "max_degree": args.max_degree,
            "nodes": [m.to_json_obj() for m in nodes],
            "edges": [{"source": a, "target": b, "index": i} for a, b, i in edges],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "dot":
        lines = ["digraph crystal {"]
        for k, m in enumerate(nodes):
            lines.append(f'  n{k} [label="{mseg_label(m, compact)}"];')
        for a, b, i in edges:
            lines.append(f'  n{a} -> n{b} [label="{i}"];')
        lines.append("}")
        print("\n".join(lines))
    else:
        for k, m in enumerate(nodes):
            print(f"node {k}: {mseg_label(m, compact)}")
        for a, b, i in edges:
            print(f"edge {a} -> {b}  (index {i})")
    return 0


# ---------------------------------------------------------------------------
# expand / coords
# ---------------------------------------------------------------------------

def cmd_expand(args):
    window = algebra_window(args.window, "typeA")
    alg = WordAlgebra(window)
    m = mseg_from_arg(args.multisegment)
    for seg in m.entries:
        for k in seg.indices():
            if k not in window:
                raise UsageError(f"index {k} of segment {seg} outside window {list(window)}")
    vec = alg.pbw_element(m)
    if args.format == "json":
        obj = {
            ",".join(map(str, w)): str(c) for w, c in sorted(vec.terms.items())
        }
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(str(vec))
    return 0


def _coords_to_output(coords, fmt):
    items = sorted(coords.items(), key=lambda kv: cry_sort_key(kv[0]), reverse=True)
    if fmt == "json":
        print(json.dumps(
            [{"multisegment": m.to_json_obj(), "coefficient": str(c)} for m, c in items],
            indent=2,
        ))
    else:
        if not items:
            print("0")
        for m, c in items:
            print(f"{m}: {c}")


def _word_from_arg(text):
    try:
        letters = json.loads(text)
    except json.JSONDecodeError:
        letters = None
    if not isinstance(letters, list) or any(type(k) is not int for k in letters):
        raise UsageError(f"cannot parse word {text!r} (expect a JSON list of letters)")
    return tuple(letters)


def cmd_coords(args):
    window = algebra_window(args.window, args.mode)
    word = _word_from_arg(args.word)
    for k in word:
        if k not in window:
            raise UsageError(f"letter {k} outside window {list(window)}")
    if args.mode == "theta":
        module = ThetaModule(window)
        v = module.from_words({word: RatFunc(1)})
        coords = module.theta_coords(v)
    else:
        alg = WordAlgebra(window)
        coords = alg.pbw_coords(alg.f(*word))
    _coords_to_output(coords, args.format)
    return 0


# ---------------------------------------------------------------------------
# bar-matrix / global-basis / multiplicity
# ---------------------------------------------------------------------------

def _block_context(args):
    """Validate a block request (window, content, --index), then build its block.

    In theta mode the content is a symmetrized content: its keys are the
    positive indices of the window.
    """
    window = algebra_window(args.window, args.mode)
    theta = args.mode == "theta"
    content = content_from_arg(args.content)
    for k, n in content.items():
        if n < 0:
            raise UsageError(f"content count {n} of index {k} is negative")
        if k not in window:
            raise UsageError(f"content index {k} outside window {list(window)}")
        if theta and k < 0:
            raise UsageError(
                f"content index {k} is negative; theta mode takes a symmetrized "
                "content, keyed by positive indices"
            )
    index = getattr(args, "index", None)
    if index is not None:
        if index not in window:
            raise UsageError(f"--index {index} outside window {list(window)}")
        letter = abs(index) if theta else index
        if args.side == "E" and not content.get(letter):
            raise UsageError(
                f"--side E needs letter {letter} in the content, got {args.content}"
            )
    return block_context(ThetaModule(window) if theta else WordAlgebra(window), content)


def _print_matrix(tm, fmt):
    if fmt == "json":
        print(json.dumps(tm.to_json_obj(), indent=2))
        return
    print(tm.label)
    names = [str(m) for m in tm.basis]
    cells = [[str(x) for x in row] for row in tm.entries]
    widths = [
        max(len(names[c]), max(len(cells[r][c]) for r in range(len(cells))))
        for c in range(len(names))
    ]
    head = " | ".join(n.rjust(w) for n, w in zip(names, widths))
    print(" " * (max(len(n) for n in names) + 3) + head)
    for r, row in enumerate(cells):
        lead = names[r].rjust(max(len(n) for n in names))
        print(f"{lead} : " + " | ".join(x.rjust(w) for x, w in zip(row, widths)))


def cmd_bar_matrix(args):
    _print_matrix(bar_matrix(_block_context(args)), args.format)
    return 0


def cmd_global_basis(args):
    ctx = _block_context(args)
    _print_matrix(global_upper(ctx) if args.upper else global_lower(ctx), args.format)
    return 0


def cmd_multiplicity(args):
    ctx = _block_context(args)
    polys = multiplicity_polys(args.index, ctx, args.side)
    table, warnings = q1_specialization(polys)
    items = sorted(polys.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1])))
    if args.format == "json":
        print(json.dumps(
            [
                {
                    "b": str(b),
                    "b_prime": str(bp),
                    "poly": str(c),
                    "at_q1": str(table[(b, bp)]),
                }
                for (b, bp), c in items
            ],
            indent=2,
        ))
    else:
        for (b, bp), c in items:
            print(f"({b} ; {bp}): {c}   [q=1: {table[(b, bp)]}]")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args):
    names = [args.suite] if args.suite else sorted(SUITES)
    if set(names) <= CRYSTAL_SUITES:
        window = parse_window(args.window)
    else:
        window = algebra_window(args.window, "typeA")
    bad = 0
    spaces = {}  # one algebra and one module, shared by every suite of the run
    for name in names:
        fn = SUITES.get(name)
        if fn is None:
            raise UsageError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
        checked, fails = fn(args.mode, window, args.max_degree, spaces)
        status = "PASS" if not fails else "FAIL"
        print(f"{name}: {status} ({checked} identities checked)")
        if fails:
            bad += 1
            print(f"  counterexample: {fails[0]}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="symcrys",
        description="Crystal and canonical-basis computations on odd-index windows.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mode_default="theta"):
        sp.add_argument("--mode", choices=["typeA", "theta"], default=mode_default)
        sp.add_argument("--window", default="-3,-1,1,3", help="comma-separated odd indices")
        sp.add_argument("--max-degree", type=int, default=4)
        sp.add_argument("--format", choices=["text", "json", "dot"], default="text")

    sp = sub.add_parser("crystal-graph", help="breadth-first crystal graph from the empty multisegment")
    common(sp)
    sp.set_defaults(fn=cmd_crystal_graph)

    sp = sub.add_parser("expand", help="expand a multisegment's PBW vector into words")
    common(sp, mode_default="typeA")
    sp.add_argument("multisegment", help='JSON, e.g. [{"i":1,"j":3,"mult":1}]')
    sp.set_defaults(fn=cmd_expand)

    sp = sub.add_parser("coords", help="coordinates of a word (applied to phi in theta mode)")
    common(sp, mode_default="typeA")
    sp.add_argument("word", help="JSON list of letters, e.g. [1,3]")
    sp.set_defaults(fn=cmd_coords)

    sp = sub.add_parser("bar-matrix", help="bar involution matrix of a block")
    common(sp, mode_default="typeA")
    sp.add_argument("content", help='index->count JSON map, e.g. {"1":1,"3":1}')
    sp.set_defaults(fn=cmd_bar_matrix)

    sp = sub.add_parser("global-basis", help="lower (or upper) global basis of a block")
    common(sp, mode_default="typeA")
    sp.add_argument("content", help='index->count JSON map')
    sp.add_argument("--upper", action="store_true")
    sp.set_defaults(fn=cmd_global_basis)

    sp = sub.add_parser("multiplicity", help="operator multiplicity polynomials on a block")
    common(sp, mode_default="typeA")
    sp.add_argument("content", help='index->count JSON map of the source block')
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--side", choices=["E", "F"], default="F")
    sp.set_defaults(fn=cmd_multiplicity)

    sp = sub.add_parser("verify", help="run an invariant suite")
    common(sp)
    sp.add_argument("--suite", choices=sorted(SUITES), default=None)
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.max_degree < 0:
            raise UsageError("--max-degree must be nonnegative")
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as e:  # verification failures carry exit code 1
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
