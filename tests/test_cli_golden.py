"""The README promises deterministic output: every request in
`data/cli_golden.json` must give its recorded exit code, stdout and stderr,
byte for byte.

The file holds each argv of ARGVS with the (code, stdout, stderr) that
`cli.main` gave for it.  To record it afresh from a checkout:

    PYTHONPATH=src python tests/test_cli_golden.py

which rewrites `tests/data/cli_golden.json`.  Record it only from a tree
whose output is known to be right, since the test then holds later trees
to it.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from symcrys import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")

W4 = "--window=-3,-1,1,3"
W6 = "--window=-5,-3,-1,1,3,5"
W2 = "--window=-1,1"

ARGVS = [
    # crystal-graph: both modes, every format
    ["crystal-graph", "--mode", "theta", W2, "--max-degree", "3"],
    ["crystal-graph", "--mode", "theta", W2, "--max-degree", "3", "--format", "json"],
    ["crystal-graph", "--mode", "theta", W4, "--max-degree", "2", "--format", "dot"],
    ["crystal-graph", "--mode", "theta", W4, "--max-degree", "4"],
    ["crystal-graph", "--mode", "typeA", "--window", "1,3", "--max-degree", "3"],
    ["crystal-graph", "--mode", "typeA", W4, "--max-degree", "2", "--format", "json"],
    ["crystal-graph", "--mode", "typeA", "--window", "1,3", "--max-degree", "2",
     "--format", "dot"],
    # expand
    ["expand", W4, '[{"i":1,"j":3,"mult":1}]'],
    ["expand", W4, '[{"i":-1,"j":1,"mult":1},{"i":3,"j":3,"mult":2}]', "--format", "json"],
    ["expand", "--window", "1", '[{"i":1,"j":1,"mult":3}]', "--format", "json"],
    ["expand", W6, '[{"i":-5,"j":-1,"mult":1}]'],
    ["expand", W6, '[{"i":-1,"j":3,"mult":1}]'],
    ["expand", W6, '[{"i":1,"j":5,"mult":1}]'],
    ["expand", W6, '[{"i":3,"j":5,"mult":1},{"i":3,"j":3,"mult":1}]'],
    # coords
    ["coords", "--mode", "typeA", W4, "[3,1]"],
    ["coords", "--mode", "typeA", W4, "[-1,3,1]", "--format", "json"],
    ["coords", "--mode", "typeA", W4, "[1,1,3]", "--format", "json"],
    ["coords", "--mode", "theta", W4, "[1,3]"],
    ["coords", "--mode", "theta", W4, "[-3,1]", "--format", "json"],
    ["coords", "--mode", "theta", W2, "[1,-1,1]", "--format", "json"],
    ["coords", "--mode", "typeA", W4, "[3,1,3,1]", "--format", "json"],
    ["coords", "--mode", "typeA", W6, "[5,3,1]"],
    ["coords", "--mode", "typeA", W6, "[1,3,-1]", "--format", "json"],
    # bar-matrix
    ["bar-matrix", "--mode", "typeA", W4, '{"1":1,"3":1}'],
    ["bar-matrix", "--mode", "typeA", W4, '{"-1":1,"1":1,"3":1}', "--format", "json"],
    ["bar-matrix", "--mode", "typeA", W4, '{"1":2,"3":1}', "--format", "json"],
    ["bar-matrix", "--mode", "theta", W4, '{"1":1}'],
    ["bar-matrix", "--mode", "theta", W4, '{"1":1,"3":1}', "--format", "json"],
    ["bar-matrix", "--mode", "theta", W2, '{"1":3}', "--format", "json"],
    ["bar-matrix", "--mode", "theta", W4, '{"1":2,"3":1}'],
    ["bar-matrix", "--mode", "typeA", W2, '{"-1":2,"1":2}', "--format", "json"],
    # global-basis, lower and upper
    ["global-basis", "--mode", "typeA", W4, '{"-3":1,"-1":1}'],
    ["global-basis", "--mode", "typeA", W4, '{"1":2,"3":1}', "--format", "json"],
    ["global-basis", "--mode", "typeA", W4, '{"-1":1,"1":1,"3":1}', "--upper"],
    ["global-basis", "--mode", "typeA", W4, '{"1":2,"3":1}', "--upper", "--format", "json"],
    ["global-basis", "--mode", "theta", W4, '{"1":2}'],
    ["global-basis", "--mode", "theta", W4, '{"3":2}', "--format", "json"],
    ["global-basis", "--mode", "theta", W4, '{"1":1,"3":1}', "--upper"],
    ["global-basis", "--mode", "theta", W4, '{"1":2,"3":1}', "--upper", "--format", "json"],
    ["global-basis", "--mode", "theta", W2, '{"1":3}', "--upper", "--format", "json"],
    ["global-basis", "--mode", "theta", W2, '{"1":4}', "--format", "json"],
    # multiplicity
    ["multiplicity", "--mode", "typeA", W4, '{"1":1,"3":1}', "--index", "1"],
    ["multiplicity", "--mode", "typeA", W4, '{"-1":1,"1":1,"3":1}', "--index", "1",
     "--side", "E", "--format", "json"],
    ["multiplicity", "--mode", "typeA", W4, '{"1":2}', "--index", "1", "--side", "E"],
    ["multiplicity", "--mode", "theta", W4, '{"1":1,"3":1}', "--index", "-1",
     "--side", "E", "--format", "json"],
    ["multiplicity", "--mode", "theta", W4, '{"1":1}', "--index", "-3"],
    ["multiplicity", "--mode", "theta", W4, '{"1":1,"3":2}', "--index", "-3", "--side", "E"],
    ["multiplicity", "--mode", "theta", W2, '{"1":2}', "--index", "-1", "--format", "json"],
    # verify: every suite at once in both modes, and single suites
    ["verify", "--mode", "typeA", W2, "--max-degree", "3"],
    ["verify", "--mode", "theta", W2, "--max-degree", "3"],
    ["verify", "--mode", "typeA", W4, "--max-degree", "2", "--suite", "gram"],
    ["verify", "--mode", "theta", W4, "--max-degree", "2", "--suite", "qboson-relations"],
    ["verify", "--mode", "theta", W4, "--max-degree", "2",
     "--suite", "multiplicity-consistency"],
    ["verify", "--mode", "typeA", W4, "--max-degree", "2", "--suite", "global-basis"],
    ["verify", "--mode", "theta", W4, "--max-degree", "3", "--suite", "crystal-axioms"],
    ["verify", "--mode", "theta", W2, "--max-degree", "4",
     "--suite", "multiplicity-consistency"],
    ["verify", "--mode", "typeA", "--window", "1,3", "--max-degree", "4", "--suite", "serre"],
    ["verify", "--mode", "typeA", W4, "--max-degree", "4", "--suite", "pbw-crystal-compat"],
    ["verify", "--mode", "theta", W4, "--max-degree", "4", "--suite", "pbw-crystal-compat"],
    ["verify", "--mode", "typeA", W4, "--max-degree", "4", "--suite", "oracle-cross-check"],
    ["verify", "--mode", "theta", W4, "--max-degree", "4", "--suite", "oracle-cross-check"],
    ["verify", "--mode", "typeA", W4, "--max-degree", "4", "--suite", "crystal-axioms"],
    # malformed requests: exit 2 with a message naming the bad input
    ["bar-matrix", "--window", "1,3", '{"5":1}'],
    ["bar-matrix", "--window", "1,3", '{"1":-1}'],
    ["bar-matrix", "--window", "1,5", '{"1":1}'],
    ["bar-matrix", "--mode", "theta", "--window=-1,1", '{"-1":1}'],
    ["multiplicity", "--window", "1,3", '{"1":1}', "--index", "5"],
    ["global-basis", "--window", "1,1,3", '{"1":1}'],
    ["coords", W4, "[1,5]"],
    ["coords", W4, "not json"],
    ["expand", W4, '[{"i":1,"j":3}]'],
    ["expand", W4, '[{"i":1,"j":5,"mult":1}]'],
    ["bar-matrix", W4, '[1,3]'],
    ["crystal-graph", "--mode", "theta", "--window", "1,3", "--max-degree", "2"],
    ["verify", "--mode", "theta", W2, "--max-degree", "-1"],
]


def call(argv):
    """(exit code, stdout, stderr) of one request through cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_the_argv_list(golden):
    assert [rec["argv"] for rec in golden] == ARGVS


@pytest.mark.parametrize("k", range(len(ARGVS)), ids=lambda k: " ".join(ARGVS[k]))
def test_output_is_byte_identical_to_the_golden_file(golden, k):
    rec = golden[k]
    assert call(ARGVS[k]) == (rec["code"], rec["stdout"], rec["stderr"])


if __name__ == "__main__":
    records = []
    for argv in ARGVS:
        code, out, err = call(argv)
        records.append({"argv": argv, "code": code, "stdout": out, "stderr": err})
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"wrote {len(records)} records to {GOLDEN}", file=sys.stderr)
