"""Command-line front end.

Subcommands: crystal-graph, expand, coords, global-basis, bar-matrix,
multiplicity, verify.  All numeric output uses the canonical rational
function string format, and repeated runs produce byte-identical output.
Exit codes: 0 success, 1 counterexample/verification failure, 2 usage error,
3 internal error (`--debug`, before the subcommand, adds its traceback).
"""

from __future__ import annotations

import argparse
import functools
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
from .multisegment import Multisegment, cry_sort_key
from .ratfunc import RatFunc
from .thetamodule import ThetaModule
from .verify import CRYSTAL_SUITES, FIXED_MODES, SUITES, UsageError, crystal_ops, require_symmetric
from .wordalg import WordAlgebra


def parse_window(text):
    try:
        win = tuple(sorted(int(t) for t in text.split(",") if t.strip()))
    except ValueError:
        raise UsageError(f"cannot parse window {text!r}")
    if not win or any(i % 2 == 0 for i in win):
        raise UsageError(f"window must be nonempty odd integers, got {text!r}")
    for a, b in zip(win, win[1:]):
        if a == b:
            raise UsageError(f"window repeats index {a}, got {text!r}")
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
    def bad(why):
        return UsageError(f"cannot parse multisegment {text!r}: {why}")

    try:
        obj = json.loads(text)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise bad(e)
    except RecursionError:
        raise bad("JSON nested too deeply")
    if isinstance(obj, list):
        for rec in obj:
            if not isinstance(rec, dict):
                raise bad(f"segment {json.dumps(rec)} is not a JSON object with keys i, j, mult")
            for key in ("i", "j", "mult"):
                if key not in rec:
                    raise bad(f'segment {json.dumps(rec)} has no key "{key}"')
            for key in rec:
                if key not in ("i", "j", "mult"):
                    raise bad(f'segment {json.dumps(rec)} has unknown key {json.dumps(key)}')
    try:
        return Multisegment.from_json_obj(obj)
    except (ValueError, TypeError) as e:
        raise bad(e)


def content_from_arg(text):
    def bad(why):
        return UsageError(f"cannot parse content map {text!r}: {why}")

    try:
        obj = json.loads(text)
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise bad(e)
    except RecursionError:
        raise bad("JSON nested too deeply")
    if not isinstance(obj, dict):
        raise bad("a content map must be a JSON object of index -> count")
    keys = []
    for key, _ in json.loads(text, object_pairs_hook=list):  # every key, repeats kept
        try:
            keys.append(int(key))
        except ValueError:
            raise bad(f"index {json.dumps(key)} is not an integer")
    for k in keys:
        if keys.count(k) > 1:  # "1" twice, or "1" and "01"
            raise bad(f"index {k} is given more than once")
    content = dict(zip(keys, obj.values()))
    for k, n in content.items():
        if type(n) is not int:  # a JSON integer; no float, string or boolean
            raise bad(f"count {json.dumps(n)} of index {k} is not an integer")
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
    """The crystal graph from the empty multisegment up to max_degree, by
    breadth-first search.  Each F adds one letter, so a search level is a
    degree; nodes are ordered by (degree, decreasing crystal order)."""
    F = crystal_ops(mode, window)[2]
    levels = [[Multisegment.empty()]]  # levels[d]: the nodes of degree d
    nodes = set(levels[0])
    edges = set()
    while len(levels) <= max_degree and levels[-1]:
        nxt = []
        for m in levels[-1]:
            for i in window:
                m2 = F(i, m)
                edges.add((m, m2, i))
                if m2 not in nodes:
                    nodes.add(m2)
                    nxt.append(m2)
        levels.append(nxt)
    order = [m for level in levels for m in sorted(level, key=cry_sort_key, reverse=True)]
    index = {m: k for k, m in enumerate(order)}
    edge_list = sorted((index[a], index[b], i) for a, b, i in edges)
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
    for seg, _ in m:
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
    except (ValueError, RecursionError):  # bad JSON, nested too deeply, or a too long integer
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
    for name in names:  # before any suite prints its line
        if FIXED_MODES.get(name, args.mode) == "theta":
            require_symmetric(window, f"suite {name}")
    bad = 0
    spaces = {}  # one algebra and one module, shared by every suite of the run
    for name in names:
        checked, fails = SUITES[name](args.mode, window, args.max_degree, spaces)
        status = "PASS" if not fails else "FAIL"
        print(f"{name}: {status} ({checked} identities checked)")
        if fails:
            bad += 1
            print(f"  counterexample: {fails[0]}")
    return 1 if bad else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache  # argparse parsers keep no state between parse_args calls
def build_parser():
    p = argparse.ArgumentParser(
        prog="symcrys",
        description="Crystal and canonical-basis computations on odd-index windows.",
    )
    p.add_argument("--debug", action="store_true",
                   help="print the traceback of an internal error (exit code 3)")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, fn, help, mode="typeA", max_degree=False, formats=("text", "json")):
        """A subcommand with only the options `fn` reads: `--mode` (None for
        none), `--window`, `--max-degree` and `--format` in `formats`."""
        sp = sub.add_parser(name, help=help)
        if mode:
            sp.add_argument("--mode", choices=["typeA", "theta"], default=mode)
        sp.add_argument("--window", default="-3,-1,1,3", help="comma-separated odd indices")
        if max_degree:
            sp.add_argument("--max-degree", type=int, default=4)
        if formats:
            sp.add_argument("--format", choices=formats, default="text")
        sp.set_defaults(fn=fn)
        return sp

    command("crystal-graph", cmd_crystal_graph,
            "breadth-first crystal graph from the empty multisegment",
            mode="theta", max_degree=True, formats=("text", "json", "dot"))

    sp = command("expand", cmd_expand, "expand a multisegment's PBW vector into words",
                 mode=None)
    sp.add_argument("multisegment", help='JSON, e.g. [{"i":1,"j":3,"mult":1}]')

    sp = command("coords", cmd_coords, "coordinates of a word (applied to phi in theta mode)")
    sp.add_argument("word", help="JSON list of letters, e.g. [1,3]")

    sp = command("bar-matrix", cmd_bar_matrix, "bar involution matrix of a block")
    sp.add_argument("content", help='index->count JSON map, e.g. {"1":1,"3":1}')

    sp = command("global-basis", cmd_global_basis, "lower (or upper) global basis of a block")
    sp.add_argument("content", help='index->count JSON map')
    sp.add_argument("--upper", action="store_true")

    sp = command("multiplicity", cmd_multiplicity, "operator multiplicity polynomials on a block")
    sp.add_argument("content", help='index->count JSON map of the source block')
    sp.add_argument("--index", type=int, required=True)
    sp.add_argument("--side", choices=["E", "F"], default="F")

    sp = command("verify", cmd_verify, "run an invariant suite",
                 mode="theta", max_degree=True, formats=())
    sp.add_argument("--suite", choices=sorted(SUITES), default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "max_degree", 0) < 0:
            raise UsageError("--max-degree must be nonnegative")
        return args.fn(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except ArithmeticError as e:  # a failed mathematical check
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:
        if args.debug:
            import traceback  # only here: a fresh process need not load it

            traceback.print_exc()
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
