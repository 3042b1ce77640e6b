from collections import Counter

import pytest

from symcrys.multisegment import enumerate_multisegments
from symcrys.theta import enumerate_theta
from symcrys.thetamodule import ThetaModule
from symcrys.verify import SUITES
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


@pytest.mark.parametrize("mode", sorted(COUNTS))
def test_every_suite_passes_with_its_identity_count(mode):
    checked = {}
    for name, suite in SUITES.items():
        checked[name], fails = suite(mode, WIN, 3)
        assert fails == [], name
    assert checked == COUNTS[mode]


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
