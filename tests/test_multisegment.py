import copy
import functools
import itertools
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from symcrys.multisegment import (
    Multisegment,
    Segment,
    cmp_cry,
    cmp_cry_multiseg,
    cmp_cry_multiseg_raw,
    cmp_pbw,
    cry_sort_key,
    enumerate_multisegments,
    epsilon,
    etilde,
    ftilde,
    multisegments_of_content,
    signature_ops,
    window_segments,
)
from symcrys.theta import enumerate_theta


def M(*pairs):
    return Multisegment({Segment(i, j): m for (i, j, m) in pairs})


# -- segments and orderings --------------------------------------------------

def test_segment_validation():
    with pytest.raises(ValueError):
        Segment(2, 4)
    with pytest.raises(ValueError):
        Segment(3, 1)


def test_pbw_ordering_examples():
    assert cmp_pbw(Segment(1, 1), Segment(-1, 1)) == 1
    assert cmp_pbw(Segment(-1, 1), Segment(-1, -1)) == 1
    assert cmp_pbw(Segment(3, 3), Segment(3, 3)) == 0


def test_crystal_ordering_examples():
    assert cmp_cry(Segment(-1, 1), Segment(1, 1)) == 1
    assert cmp_cry(Segment(1, 1), Segment(-1, -1)) == 1
    s = Segment(-3, 5)
    assert cmp_cry(s, s) == 0


def test_orderings_differ():
    # the two orders disagree on segments with equal right end
    assert cmp_pbw(Segment(1, 1), Segment(-1, 1)) == 1
    assert cmp_cry(Segment(1, 1), Segment(-1, 1)) == -1


def test_cry_multiseg_requires_equal_content():
    with pytest.raises(ValueError):
        cmp_cry_multiseg(M((1, 1, 1)), M((3, 3, 1)))
    assert cmp_cry_multiseg(M((1, 3, 1)), M((1, 1, 1), (3, 3, 1))) == 1
    # the raw comparator tolerates distinct contents (used for symmetric blocks)
    assert cmp_cry_multiseg_raw(M((1, 1, 1)), M((3, 3, 1))) != 0


@pytest.mark.parametrize("enumerate_fn", [enumerate_multisegments, enumerate_theta])
def test_cry_sort_key_orders_like_the_comparator(enumerate_fn):
    ms = enumerate_fn(tuple(range(-5, 6, 2)), 4)
    assert len({cry_sort_key(m) for m in ms}) == len(ms)
    assert sorted(ms, key=cry_sort_key) == sorted(
        ms, key=functools.cmp_to_key(cmp_cry_multiseg_raw))


segments = st.builds(
    lambda a, b: Segment(2 * min(a, b) + 1, 2 * max(a, b) + 1),
    st.integers(-3, 3),
    st.integers(-3, 3),
)


@given(segments, segments, segments)
@settings(max_examples=100, deadline=None)
def test_orders_are_total(a, b, c):
    for cmp in (cmp_pbw, cmp_cry):
        assert cmp(a, b) == -cmp(b, a)
        if cmp(a, b) >= 0 and cmp(b, c) >= 0:
            assert cmp(a, c) >= 0
        assert (cmp(a, b) == 0) == (a == b)


# -- multisegment basics -----------------------------------------------------

def test_content_and_degree():
    m = M((-1, 3, 1), (3, 3, 2))
    assert dict(m.content()) == {-1: 1, 1: 1, 3: 3}
    assert m.degree() == 5


def test_json_round_trip():
    m = M((-1, 1, 2), (1, 1, 1))
    assert Multisegment.from_json_obj(json.loads(m.to_json())) == m
    assert Multisegment.from_json_obj(json.loads("[]")) == Multisegment.empty()
    for mult in ("1.5", "true", '"1"'):
        with pytest.raises(TypeError, match="not an integer"):
            Multisegment.from_json_obj(json.loads('[{"i":1,"j":1,"mult":%s}]' % mult))
    for i, j in (("true", "true"), ("1.0", "1"), ("1", "3.0"), ('"1"', "1")):
        with pytest.raises(TypeError, match="endpoint .* not an integer"):
            Multisegment.from_json_obj(json.loads('[{"i":%s,"j":%s,"mult":1}]' % (i, j)))


# -- crystal operators: frozen examples -------------------------------------

def test_epsilon_examples():
    assert epsilon(1, Multisegment.empty()) == 0
    assert epsilon(1, M((1, 1, 1))) == 1
    assert epsilon(1, M((3, 3, 1))) == 0


def test_etilde_ftilde_examples():
    assert ftilde(1, Multisegment.empty()) == M((1, 1, 1))
    assert ftilde(1, M((3, 3, 1))) == M((1, 3, 1))
    assert etilde(1, M((1, 3, 1))) == M((3, 3, 1))
    assert etilde(1, Multisegment.empty()) is None


def test_signature_examples():
    assert signature_ops(1, Multisegment.empty()) == (0, None, M((1, 1, 1)))
    assert signature_ops(1, M((3, 3, 1))) == (0, None, M((1, 3, 1)))


# -- oracle cross-check and axioms at test scale -----------------------------

SCALE = enumerate_multisegments(range(-5, 6, 2), 4)


def test_formulas_agree_with_signature():
    for m in SCALE:
        for i in range(-5, 6, 2):
            assert (epsilon(i, m), etilde(i, m), ftilde(i, m)) == signature_ops(i, m), (
                f"mismatch at {m}, index {i}"
            )


def test_crystal_axioms():
    for m in SCALE:
        for i in range(-5, 6, 2):
            f = ftilde(i, m)
            assert etilde(i, f) == m
            e = etilde(i, m)
            if e is not None:
                assert ftilde(i, e) == m
            n, cur = 0, m
            while (cur := etilde(i, cur)) is not None:
                n += 1
            assert n == epsilon(i, m)


def test_operators_shift_content_by_one():
    for m in SCALE[:120]:
        for i in (-1, 1, 3):
            f = ftilde(i, m)
            c, cf = m.content(), f.content()
            assert cf[i] == c[i] + 1
            del cf[i], c[i]
            assert c == cf


# -- enumeration -------------------------------------------------------------

def test_enumerate_small_windows():
    got = {str(m) for m in enumerate_multisegments([1], 2)}
    assert got == {"0", "<1>", "2<1>"}
    got = {str(m) for m in enumerate_multisegments([1, 3], 1)}
    assert got == {"0", "<1>", "<3>"}
    assert len(enumerate_multisegments([1, 3], 2)) == 7


def test_multisegments_of_content():
    ms = multisegments_of_content([1, 3], {1: 1, 3: 1})
    assert set(ms) == {M((1, 3, 1)), M((1, 1, 1), (3, 3, 1))}


WIN5 = tuple(range(-5, 6, 2))


def contents_up_to(keys, max_degree):
    """Every map from keys to counts with total count <= max_degree."""
    for degree in range(max_degree + 1):
        for letters in itertools.combinations_with_replacement(keys, degree):
            yield {k: letters.count(k) for k in set(letters)}


_ENUMERATED = {}


def filtered_of_content(window, content):
    """The enumerate-then-filter search, kept as the reference.

    Each enumeration is made once per (window, degree) and reused.
    """
    content = {k: v for k, v in content.items() if v}
    degree = sum(content.values())
    key = (tuple(window), degree)
    if key not in _ENUMERATED:
        _ENUMERATED[key] = [(m, m.degree(), dict(m.content()))
                            for m in enumerate_multisegments(window, degree)]
    return [m for m, d, c in _ENUMERATED[key] if d == degree and c == content]


def test_of_content_matches_the_filtered_enumeration():
    for content in contents_up_to(WIN5, 5):
        got, want = multisegments_of_content(WIN5, content), filtered_of_content(WIN5, content)
        assert got == want, content
        # entry order too: both build each multisegment segment by segment
        assert [list(m.entries) for m in got] == [list(m.entries) for m in want]


@pytest.mark.parametrize("content", [
    {7: 1}, {1: 1, 7: 2}, {2: 1}, {1: -1}, {1: 2, 3: -1}, {-7: 1, -5: 1},
])
def test_of_content_outside_the_window_or_negative_is_empty(content):
    assert multisegments_of_content(WIN5, content) == []
    assert filtered_of_content(WIN5, content) == []


def test_of_content_zero_counts_and_empty_window():
    assert multisegments_of_content(WIN5, {1: 0, 3: 0}) == [Multisegment.empty()]
    assert multisegments_of_content([], {}) == [Multisegment.empty()]
    assert multisegments_of_content([], {1: 1}) == []
    # a gapped window has no segment across the gap
    assert multisegments_of_content([1, 5], {1: 1, 5: 1}) == [M((1, 1, 1), (5, 5, 1))]


def test_repeated_window_indices_add_nothing():
    assert window_segments([3, 1, 1, 3]) == window_segments([1, 3])
    assert enumerate_multisegments([1, 1], 2) == enumerate_multisegments([1], 2)
    assert multisegments_of_content([1, 1, 3], {1: 1, 3: 1}) == [
        M((1, 3, 1)), M((1, 1, 1), (3, 3, 1))]


def brute_window_segments(window):
    """Every <i,j> with both ends and all letters between them in the window,
    ordered by (i, j)."""
    members = set(window)
    return [Segment(i, j) for i in sorted(members) for j in sorted(members)
            if i <= j and all(k in members for k in range(i, j + 1, 2))]


@pytest.mark.parametrize("window", [
    (), (1,), (5, -3, 1, -1, 3), (7, 1, 3, -5, 11, -3, 9), (1, 1, 3, 3, 1),
    (-5, -3, 1, 3, 7), (13, 1, 5, 9), (3, -1, 3, 1, -1, 7, 9, 9),
])
def test_window_segments_matches_the_brute_force_reference(window):
    assert window_segments(window) == brute_window_segments(window)


GAPPED = (-5, -3, 1, 3, 7)


def test_of_content_on_a_gapped_window():
    found = 0
    for content in contents_up_to(GAPPED, 4):
        got, want = multisegments_of_content(GAPPED, content), filtered_of_content(GAPPED, content)
        assert got == want, content
        assert [list(m.entries) for m in got] == [list(m.entries) for m in want]
        found += len(got)
    assert found == len(enumerate_multisegments(GAPPED, 4))


def test_of_content_leaves_its_input_and_later_calls_intact():
    content = {-1: 2, 1: 3, 3: 1}
    before = dict(content)
    first = multisegments_of_content(WIN5, content)
    assert content == before
    # a failed search midway must not leave counts behind for the next one
    assert multisegments_of_content(WIN5, {-1: 2, 1: 3, 3: 1, 7: 1}) == []
    assert multisegments_of_content(WIN5, content) == first
    assert all(dict(m.content()) == before for m in first)


# -- interned segments and trusted multisegments -----------------------------

def test_segments_are_interned():
    assert Segment(1, 3) is Segment(1, 3)
    assert Segment(i=-1, j=5) is Segment(-1, 5)
    assert hash(Segment(1, 3)) == hash((1, 3))
    assert (Segment(1, 3).i, Segment(1, 3).j) == (1, 3)
    assert str(Segment(1, 3)) == "<1,3>" and str(Segment(3, 3)) == "<3>"
    assert repr(Segment(-1, 3)) == "Segment(i=-1, j=3)"


def test_invalid_segments_raise_and_are_never_interned():
    from symcrys.multisegment import _SEGMENTS

    m = M((1, 3, 1))
    for i, j in ((2, 4), (3, 1), (1, 2), (0, 1)):
        assert m.mult(i, j) == 0
        with pytest.raises(ValueError):
            Segment(i, j)
        assert (i, j) not in _SEGMENTS
        with pytest.raises(ValueError):
            Segment(i, j)
    for i, j in ((1.5, 3), ("1", 3), (None, None), (float("inf"), 1)):
        with pytest.raises(TypeError):
            Segment(i, j)
        assert (i, j) not in _SEGMENTS
    # an integral float names the same segment, stored with int endpoints
    s = Segment(7.0, 9.0)
    assert s is Segment(7, 9) and str(s) == "<7,9>" and type(s.i) is int


def test_segments_are_immutable():
    s = Segment(1, 3)
    with pytest.raises(AttributeError):
        s.i = 5
    with pytest.raises(AttributeError):
        del s.j
    assert (s.i, s.j) == (1, 3)


def test_segments_survive_copy_and_pickle():
    s = Segment(-3, 5)
    assert copy.copy(s) is s
    assert copy.deepcopy(s) is s
    assert pickle.loads(pickle.dumps(s)) is s
    m = M((-3, 5, 2), (1, 1, 1))
    for m2 in (copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert m2 == m and hash(m2) == hash(m)
        assert all(a is b for a, b in zip(m2.entries, m.entries))


def test_equal_multisegments_hash_alike():
    a = M((1, 3, 1), (-1, -1, 2), (5, 5, 1))
    b = M((5, 5, 1), (1, 3, 1), (-1, -1, 2))
    assert list(a.entries) != list(b.entries)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash(frozenset(a.entries.items()))
    for m in SCALE[:200]:
        for seg in (Segment(1, 1), Segment(-1, 3), Segment(5, 5)):
            back = m.add(seg).remove(seg)
            assert back == m and hash(back) == hash(m)
            assert m.add(seg, 0) == m


def test_multisegment_checks_stay_on_the_public_paths():
    with pytest.raises(ValueError):
        Multisegment({Segment(1, 1): -1})
    with pytest.raises(ValueError):
        Multisegment({(2, 4): 1})
    with pytest.raises(ValueError, match="absent"):
        M((1, 1, 1)).remove(Segment(1, 1), 2)
    with pytest.raises(ValueError, match="absent"):
        Multisegment.empty().remove(Segment(3, 3))
    assert Multisegment({Segment(1, 1): 0}) == Multisegment.empty()
    assert M((1, 1, 1)).remove(Segment(1, 1)).entries == {}
    assert M((1, 1, 1)).add((1, 1)) == M((1, 1, 2))


def test_swap_is_remove_then_add():
    a, b = Segment(1, 1), Segment(-1, 1)
    for m in (M((1, 1, 1)), M((1, 1, 2), (-1, 1, 1)), M((1, 1, 1), (3, 3, 1))):
        assert m.swap(a, b) == m.remove(a).add(b)
        assert list(m.swap(a, b).entries) == list(m.remove(a).add(b).entries)
    assert M((1, 1, 1)).swap(a, a) == M((1, 1, 1))
    with pytest.raises(ValueError, match="absent"):
        M((3, 3, 1)).swap(a, b)


def _ref_cmp_cry_multiseg_raw(m1, m2):
    """The crystal comparison by a scan of the segments of m1 and m2 in
    decreasing crystal order: the first segment whose counts differ decides."""
    segs = sorted(set(m1.entries) | set(m2.entries), key=Segment.cry_key, reverse=True)
    for seg in segs:
        a, b = m1.entries.get(seg, 0), m2.entries.get(seg, 0)
        if a != b:
            return 1 if a > b else -1
    return 0


def test_cry_comparator_is_the_segment_scan():
    ms = enumerate_multisegments((-3, -1, 1, 3), 4)
    assert len(ms) == 132
    results = set()
    for m1 in ms:
        for m2 in ms:
            got = cmp_cry_multiseg_raw(m1, m2)
            assert got == _ref_cmp_cry_multiseg_raw(m1, m2), (m1, m2)
            results.add(got)
        assert cmp_cry_multiseg_raw(m1, m1) == 0
        assert cmp_cry_multiseg_raw(m1, Multisegment(dict(m1.entries))) == 0
    assert results == {-1, 0, 1}
