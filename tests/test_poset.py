"""Enumeration, raisings, weak-order graphs, minimal orbits, words."""

import pytest
from hypothesis import given, strategies as st

from dgorbits import poset
from dgorbits.poset import (
    PLAIN,
    RANK_RAISING,
    _RAISES,
    _fixed_by,
    _transpose,
    build_graph,
    desingularization,
    desingularization_table,
    enumerate_orbits,
    is_minimal,
    lower_candidate,
    minimal_orbits,
    raise_candidate,
    replay_word,
)
from dgorbits.young import (
    OrbitDatum,
    dimension,
    rank,
    strata,
    stratum,
    validate,
)

from conftest import nkl_range


DATUM9 = OrbitDatum.make(9, 4, 3, (3, 5, 6, 9), (2, 5), [(7, 9)])
DATUM7 = OrbitDatum.make(7, 3, 4, (2, 5, 7), (3, 4, 6), [(1, 7)])


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_2_1_1():
    data = enumerate_orbits(2, 1, 1)
    assert data == [
        OrbitDatum.make(2, 1, 1, (1,), (1,)),
        OrbitDatum.make(2, 1, 1, (1,), (2,)),
        OrbitDatum.make(2, 1, 1, (2,), (), [(1, 2)]),
        OrbitDatum.make(2, 1, 1, (2,), (1,)),
        OrbitDatum.make(2, 1, 1, (2,), (2,)),
    ]


def test_enumerate_3_1_1():
    assert len(enumerate_orbits(3, 1, 1)) == 12


def test_enumerate_contains_reference_datum():
    assert DATUM9 in enumerate_orbits(9, 4, 3)


def test_enumerate_all_valid_no_duplicates():
    for n, k, l in nkl_range(5):
        data = enumerate_orbits(n, k, l)
        assert len(data) == len(set(data))
        for datum in data:
            assert validate(datum) == []


def test_enumerate_bounds():
    with pytest.raises(ValueError):
        enumerate_orbits(1, 1, 1)
    with pytest.raises(ValueError):
        enumerate_orbits(3, 3, 1)


def test_strata_are_the_strata_of_the_data(orbits_of):
    for n, k, l in nkl_range(6):
        found = {stratum(d) for d in orbits_of(n, k, l)}
        assert set(strata(n, k, l)) == found, (n, k, l)


# ---------------------------------------------------------------------------
# raisings


def test_raise_seven_datum():
    res = raise_candidate(DATUM7, 2)
    assert res is not None
    raised, kind = res
    assert raised == OrbitDatum.make(
        7, 3, 4, (3, 5, 7), (4, 6), [(1, 7), (2, 3)]
    )
    assert kind == RANK_RAISING
    assert dimension(DATUM7) == 18
    assert dimension(raised) == 19


def test_raise_plain_n2():
    datum = OrbitDatum.make(2, 1, 1, (1,), (1,))
    res = raise_candidate(datum, 1)
    assert res == (OrbitDatum.make(2, 1, 1, (2,), (2,)), PLAIN)


def test_raise_rejects_lowering():
    assert raise_candidate(OrbitDatum.make(2, 1, 1, (2,), (2,)), 1) is None


def test_raise_index_bounds():
    for move in (raise_candidate, lower_candidate):
        with pytest.raises(ValueError):
            move(DATUM7, 0)
        with pytest.raises(ValueError):
            move(DATUM7, 7)


@given(st.data())
def test_raise_properties(data):
    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(1, n - 1))
    datum = data.draw(st.sampled_from(enumerate_orbits(n, k, l)))
    i = data.draw(st.integers(1, n - 1))
    res = raise_candidate(datum, i)
    if res is None:
        return
    raised, kind = res
    assert validate(raised) == []
    assert dimension(raised) == dimension(datum) + 1
    assert stratum(raised) == stratum(datum)
    if kind == RANK_RAISING:
        assert rank(raised) == rank(datum) + 1
    else:
        assert kind == PLAIN
        assert rank(raised) == rank(datum)


def reference_raise(datum, i):
    """The defining rule the table in ``poset`` replaces: the (i, i+1)
    merge when i and i+1 carry an unpaired jump of U and a pure jump of W,
    else tau_i; it raises when the result is valid, one dimension up."""
    aset, bset, gset = set(datum.alpha), set(datum.beta), datum.gammas
    j = i + 1
    if (i in aset - bset - gset and j in bset - aset) or (
        i in bset - aset and j in aset - bset - gset
    ):
        cand = OrbitDatum.make(
            datum.n, datum.k, datum.l, (aset - {i}) | {j}, bset - {i, j},
            datum.pairs + ((i, j),),
        )
        kind = RANK_RAISING
    else:
        cand, kind = _transpose(datum, i), PLAIN
    if validate(cand) or dimension(cand) != dimension(datum) + 1:
        return None
    return cand, kind


def reference_mismatches(max_n, orbits=enumerate_orbits):
    """(datum, i) with n <= max_n where the table and the rule differ."""
    return [
        (datum, i)
        for n, k, l in nkl_range(max_n)
        for datum in orbits(n, k, l)
        for i in range(1, n)
        if raise_candidate(datum, i) != reference_raise(datum, i)
    ]


def test_raise_matches_reference(orbits_of):
    assert reference_mismatches(6, orbits_of) == []


@pytest.mark.parametrize("key, kind", [
    (("a", "b", None), PLAIN),
    (("a", "-", None), RANK_RAISING),
], ids=["(a,b)=PLAIN", "(a,-)=RANK_RAISING"])
def test_build_graph_guards_the_table(monkeypatch, key, kind):
    """A table row with the wrong kind makes ``build_graph`` raise.

    A row deleted from the table only drops edges, which this guard
    cannot see; ``test_raise_matches_reference`` catches that, and so
    does ``test_raises_table_symmetries`` unless the row's whole orbit
    under the two symmetries is deleted.
    """
    monkeypatch.setitem(_RAISES, key, kind)
    with pytest.raises(RuntimeError, match="raising"):
        build_graph(4, 2, 2)


def test_raises_table_symmetries():
    """Each row maps to a row of the same kind under the two symmetries of
    Gr(k, V) x Gr(l, V): swapping U and W exchanges a and b; duality (U
    and W to their annihilators, positions reversed) also exchanges d and
    g, and ab and -, and puts position i+1 before position i."""
    swap = {"a": "b", "b": "a"}
    dual = {"a": "b", "b": "a", "d": "g", "g": "d", "ab": "-", "-": "ab"}
    for (x, y, bit), kind in _RAISES.items():
        for image in (
            (swap.get(x, x), swap.get(y, y), bit),
            (dual[y], dual[x], bit),
        ):
            assert _RAISES.get(image) == kind, ((x, y, bit), image)


def test_fixed_transpositions(orbits_of):
    # the shortcut that skips tau_i names exactly the data tau_i fixes
    for n, k, l in nkl_range(5):
        for datum in orbits_of(n, k, l):
            for i in range(1, n):
                fixed = _transpose(datum, i) == datum
                assert _fixed_by(datum, i) == fixed, (datum, i)
                if fixed:
                    assert raise_candidate(datum, i) is None
                    assert all(
                        source != datum
                        for source, _ in lower_candidate(datum, i)
                    )


def test_lowerings_are_incoming_edges(graph_of):
    for n, k, l in nkl_range(6):
        graph = graph_of(n, k, l)
        for vid, datum in enumerate(graph.vertices):
            lowered = {
                (graph.index_of(source), i, kind)
                for i in range(1, n)
                for source, kind in lower_candidate(datum, i)
            }
            assert lowered == {
                (e.source, e.simple_index, e.kind)
                for e in graph.incoming(vid)
            }, datum


# ---------------------------------------------------------------------------
# graphs


def test_graph_2_1_1(graph_of):
    graph = graph_of(2, 1, 1)
    assert len(graph.vertices) == 5
    labeled = {
        (graph.vertices[e.source], graph.vertices[e.target], e.kind)
        for e in graph.edges
    }
    mk = OrbitDatum.make
    assert labeled == {
        (mk(2, 1, 1, (1,), (1,)), mk(2, 1, 1, (2,), (2,)), PLAIN),
        (mk(2, 1, 1, (1,), (2,)), mk(2, 1, 1, (2,), (), [(1, 2)]),
         RANK_RAISING),
        (mk(2, 1, 1, (2,), (1,)), mk(2, 1, 1, (2,), (), [(1, 2)]),
         RANK_RAISING),
    }
    assert sorted(len(v) for v in graph.strata.values()) == [2, 3]


def test_graph_invariants_medium(graph_of):
    graph = graph_of(5, 2, 2)
    for e in graph.edges:
        src, tgt = graph.vertices[e.source], graph.vertices[e.target]
        assert graph.dims[e.target] == graph.dims[e.source] + 1
        assert stratum(src) == stratum(tgt)
        if e.kind == RANK_RAISING:
            assert rank(tgt) == rank(src) + 1
        else:
            assert rank(tgt) == rank(src)
    for d, sink_ids in graph.sinks().items():
        assert len(sink_ids) == 1
        top = graph.dims[sink_ids[0]]
        assert top == max(graph.dims[v] for v in graph.strata[d])
    for d, source_ids in graph.sources().items():
        from_graph = {graph.vertices[v] for v in source_ids}
        assert from_graph == set(minimal_orbits(5, 2, 2, d))
    for vid, datum in enumerate(graph.vertices):
        if not is_minimal(datum):
            assert graph.incoming(vid)


# ---------------------------------------------------------------------------
# minimal orbits


def test_minimal_2_1_1():
    mins0 = minimal_orbits(2, 1, 1, 0)
    assert len(mins0) == 2
    assert all(dimension(m) == 1 for m in mins0)
    mins1 = minimal_orbits(2, 1, 1, 1)
    assert mins1 == [OrbitDatum.make(2, 1, 1, (1,), (1,))]
    assert dimension(mins1[0]) == 0


def test_minimal_9_4_3():
    mins = minimal_orbits(9, 4, 3, 1)
    assert len(mins) == 10
    assert all(dimension(m) == 6 and rank(m) == 0 for m in mins)
    assert all(is_minimal(m) for m in mins)


def test_minimal_bounds():
    with pytest.raises(ValueError):
        minimal_orbits(2, 1, 1, 2)
    with pytest.raises(ValueError):
        minimal_orbits(4, 3, 3, 1)


def test_is_minimal_rejects_others():
    assert not is_minimal(DATUM9)
    assert not is_minimal(OrbitDatum.make(2, 1, 1, (2,), (), [(1, 2)]))


# ---------------------------------------------------------------------------
# desingularization


def test_desing_open_n2():
    datum = OrbitDatum.make(2, 1, 1, (2,), (), [(1, 2)])
    dd = desingularization(datum)
    assert dd.word == (1,)
    assert dd.minimal == OrbitDatum.make(2, 1, 1, (1,), (2,))
    assert dd.bs_first.word == ()
    assert dd.bs_second.word == (1,)
    assert replay_word(dd.minimal, dd.word) == datum


def test_desing_minimal_is_trivial():
    datum = OrbitDatum.make(2, 1, 1, (2,), (1,))
    dd = desingularization(datum)
    assert dd.word == ()
    assert dd.minimal == datum


def test_desing_seven_datum():
    raised = OrbitDatum.make(
        7, 3, 4, (3, 5, 7), (4, 6), [(1, 7), (2, 3)]
    )
    dd = desingularization(raised)
    assert replay_word(dd.minimal, dd.word) == raised
    assert len(dd.word) == dimension(raised) - dimension(dd.minimal)
    assert is_minimal(dd.minimal)


def test_desing_matches_table(graph_of):
    for n, k, l in nkl_range(5):
        graph = graph_of(n, k, l)
        table = desingularization_table(graph)
        for vid, datum in enumerate(graph.vertices):
            word, mid = table[vid]
            dd = desingularization(datum)
            assert (dd.word, dd.minimal) == (word, graph.vertices[mid])


def test_lower_interval_guards_the_strata(monkeypatch):
    """A lowering out of the target's stratum makes ``desingularization``
    raise: the lower interval is checked like the whole graph, not only
    for the dimension step, which this foreign source passes."""
    target = OrbitDatum.make(4, 2, 2, (1, 2), (2, 4))
    foreign = OrbitDatum.make(4, 2, 2, (1, 4), (1, 4))
    assert validate(foreign) == []
    assert (stratum(target), stratum(foreign)) == (1, 2)
    assert dimension(foreign) == dimension(target) - 1
    lower = poset.lower_candidate

    def lower_with_foreign(datum, i):
        found = lower(datum, i)
        if (datum, i) == (target, 1):
            found.append((foreign, PLAIN))
        return found

    monkeypatch.setattr(poset, "lower_candidate", lower_with_foreign)
    with pytest.raises(RuntimeError, match="crossed a GL-stratum"):
        desingularization(target)


def test_desing_replay_exhaustive_small(graph_of):
    graph = graph_of(4, 2, 2)
    table = desingularization_table(graph)
    for vid, datum in enumerate(graph.vertices):
        word, mid = table[vid]
        assert replay_word(graph.vertices[mid], word) == datum
        assert len(word) == graph.dims[vid] - graph.dims[mid]
