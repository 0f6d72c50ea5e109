"""Acceptance gate: the ten headline checks, one test (and one verbose
pass/fail line) per criterion.

Budgets quoted in the assertions are wall-clock targets for a single
CPU; the heavy sweeps print their measured times.
"""

import time
from functools import lru_cache
from math import comb

import pytest

from dgorbits.poset import build_graph, enumerate_orbits, raise_candidate
from dgorbits.verify import (
    check_b_invariance,
    check_desing_replay,
    check_dimension_agreement,
    check_field_sweep,
    check_minimal_orbits,
    check_roundtrip,
)
from dgorbits.young import (
    CommonDiagram,
    OrbitDatum,
    common_diagram,
    dimension,
    hook_union,
    marked_pair,
    rank,
)

from conftest import cell_of, dot_cells, nkl_range, shape


DATUM9 = OrbitDatum.make(9, 4, 3, (3, 5, 6, 9), (2, 5), [(7, 9)])
DATUM7 = OrbitDatum.make(7, 3, 4, (2, 5, 7), (3, 4, 6), [(1, 7)])


@pytest.fixture
def report(capsys):
    def _report(num, detail=""):
        with capsys.disabled():
            print(f"criterion {num:2d}: PASS {detail}".rstrip())

    return _report


@lru_cache(maxsize=None)
def graph_of(n, k, l):
    return build_graph(n, k, l)


def test_criterion_01_reference_marked_pair(report):
    t0 = time.perf_counter()
    mp = marked_pair(DATUM9)
    assert mp.first.rows == (5, 3, 3, 2)
    assert mp.second.rows == (6, 3, 1)
    assert dot_cells(mp, mp.first) == ((1, 4),)
    assert dot_cells(mp, mp.second) == ((1, 5),)
    assert shape(common_diagram(mp)) == (4, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "marked pair and common diagram of the (n=9,4,3) datum")


def test_criterion_02_hook_union_figure(report):
    t0 = time.perf_counter()
    cd = CommonDiagram(
        v_steps=(13, 11, 8, 6, 3),
        h_steps=(1, 2, 4, 5, 7, 9, 10, 12),
        boxes=frozenset(
            (v, h)
            for v in (13, 11, 8, 6, 3)
            for h in (1, 2, 4, 5, 7, 9, 10, 12)
            if h < v
        ),
        dots=frozenset({(11, 9), (8, 1), (6, 5)}),
    )
    assert shape(cd) == (8, 7, 5, 4, 2)
    assert len(cd.boxes) == 26
    h = hook_union(cd)
    assert len(h) == 15
    assert {cell_of(cd, b) for b in h} == {
        (1, 1), (1, 4), (1, 6),
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 1), (3, 4),
        (4, 1), (4, 2), (4, 3), (4, 4),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(2, "#Ycom=26, #H=15, hooks matching the figure box-for-box")


def test_criterion_03_raising_example(report):
    # the raised rank exceeds the source rank by exactly one (1 -> 2;
    # the datum reconstructed from the figure already carries one pair)
    t0 = time.perf_counter()
    res = raise_candidate(DATUM7, 2)
    assert res is not None
    raised, kind = res
    assert raised == OrbitDatum.make(
        7, 3, 4, (3, 5, 7), (4, 6), [(1, 7), (2, 3)]
    )
    assert kind == "RANK_RAISING"
    assert (dimension(DATUM7), dimension(raised)) == (18, 19)
    assert rank(raised) == rank(DATUM7) + 1 == 2
    mp = marked_pair(raised)
    assert mp.first.rows == (4, 3, 2)
    assert mp.second.rows == (3, 3, 2, 2)
    assert set(dot_cells(mp, mp.first)) == {(1, 1), (3, 2)}
    assert set(dot_cells(mp, mp.second)) == {(1, 1), (4, 2)}
    cd = common_diagram(mp)
    assert shape(cd) == (2, 2)
    assert {cell_of(cd, b) for b in cd.dots} == {(1, 1), (2, 2)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(3, "P_2 raising with dim 18->19 and rank up by one")


def test_criterion_04_triple_dimension_agreement(report):
    t0 = time.perf_counter()
    total = 0
    for n, k, l in nkl_range(6):
        checked, failure = check_dimension_agreement(n, k, l)
        assert failure is None, failure
        total += checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(4, f"{total} data, hook = system = oracle ({elapsed:.1f}s)")


@lru_cache(maxsize=1)
def _graph_sweep():
    """One pass over every graph with n <= 8, for criteria 5 and 6."""
    minimal_failures = []
    sink_failures = []
    vertices = 0
    for n, k, l in nkl_range(8):
        graph = build_graph(n, k, l)
        vertices += len(graph.vertices)
        checked, failure = check_minimal_orbits(n, k, l, graph)
        if failure is not None:
            minimal_failures.append(f"({n},{k},{l}): {failure}")
        top = 0
        for d, sink_ids in graph.sinks().items():
            if len(sink_ids) != 1:
                sink_failures.append(f"({n},{k},{l}) stratum {d}: no unique sink")
                continue
            top = max(top, graph.dims[sink_ids[0]])
        if top != k * (n - k) + l * (n - l):
            sink_failures.append(f"({n},{k},{l}): open orbit dim {top}")
    return minimal_failures, sink_failures, vertices


def test_criterion_05_theorem5_minimal_orbits(report):
    t0 = time.perf_counter()
    for n, k, l in nkl_range(8):
        for d in range(max(0, k + l - n), min(k, l) + 1):
            from dgorbits.poset import minimal_orbits

            mins = minimal_orbits(n, k, l, d)
            assert len(mins) == comb(k + l - 2 * d, k - d)
            assert all(
                dimension(m) == (k - d) * (l - d) and rank(m) == 0
                for m in mins
            )
    minimal_failures, _, vertices = _graph_sweep()
    assert minimal_failures == [], minimal_failures
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(
        5, f"counts, dims and graph sources over {vertices} vertices "
           f"({elapsed:.1f}s)"
    )


def test_criterion_06_open_orbits_and_sinks(report):
    t0 = time.perf_counter()
    _, sink_failures, vertices = _graph_sweep()
    assert sink_failures == [], sink_failures
    graph = graph_of(8, 3, 4)
    top = max(
        graph.dims[v[0]]
        for v in graph.sinks().values()
    )
    assert top == 31
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    report(6, f"unique sinks, open-orbit dims over n<=8 ({elapsed:.1f}s)")


def test_criterion_07_b_invariance(report):
    t0 = time.perf_counter()
    total = 0
    for n, k, l in nkl_range(6):
        checked, failure = check_b_invariance(n, k, l)
        assert failure is None, failure
        total += checked
    elapsed = time.perf_counter() - t0
    report(7, f"{total} random GF(1009) trials ({elapsed:.1f}s)")


def test_criterion_08_finite_field_sweep(report):
    t0 = time.perf_counter()
    assert len(enumerate_orbits(2, 1, 1)) == 5
    points = 0
    for q in (2, 3, 5):
        for n, k, l in nkl_range(4):
            checked, failure = check_field_sweep(n, k, l, q)
            assert failure is None, failure
            points += checked
    elapsed = time.perf_counter() - t0
    assert elapsed < 120
    report(8, f"{points} subspace pairs over GF(2,3,5) ({elapsed:.1f}s)")


def test_criterion_09_desingularization_replay(report):
    t0 = time.perf_counter()
    total = 0
    for n, k, l in nkl_range(6):
        checked, failure = check_desing_replay(n, k, l, graph_of(n, k, l))
        assert failure is None, failure
        total += checked
    elapsed = time.perf_counter() - t0
    report(9, f"{total} vertices replayed with reduced words ({elapsed:.1f}s)")


def test_criterion_10_round_trip(report):
    t0 = time.perf_counter()
    total = 0
    for n, k, l in nkl_range(6):
        checked, failure = check_roundtrip(n, k, l)
        assert failure is None, failure
        total += checked
    elapsed = time.perf_counter() - t0
    report(10, f"{total} data round-tripped over Q and GF(5) ({elapsed:.1f}s)")
