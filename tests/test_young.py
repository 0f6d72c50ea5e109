"""Diagram combinatorics: marked pairs, common diagrams, hooks, words."""

import pytest
from hypothesis import given, strategies as st

from dgorbits.young import (
    CommonDiagram,
    OrbitDatum,
    YoungDiagram,
    _dimension_sets,
    common_diagram,
    dimension,
    grassmannian_permutation,
    grassmannian_word,
    hook_union,
    inversion_count,
    is_reduced,
    marked_pair,
    rank,
    stratum,
    validate,
    word_permutation,
)

from conftest import cell_of, dot_cells, nkl_range, shape


DATUM9 = OrbitDatum.make(9, 4, 3, (3, 5, 6, 9), (2, 5), [(7, 9)])
DATUM7 = OrbitDatum.make(7, 3, 4, (2, 5, 7), (3, 4, 6), [(1, 7)])


# ---------------------------------------------------------------------------
# validation


def test_validate_reference_datum():
    assert validate(DATUM9) == []


def test_validate_degenerate_pair():
    bad = validate(OrbitDatum.make(2, 1, 1, (1,), (), [(1, 1)]))
    assert any("delta < gamma" in msg for msg in bad)
    assert any("lies in alpha" in msg for msg in bad)


def test_validate_seven_datum():
    assert validate(DATUM7) == []


def test_validate_catches_overlap():
    bad = validate(OrbitDatum.make(4, 2, 2, (2, 4), (1,), [(1, 4)]))
    assert bad == ["betas, gammas and deltas are not pairwise distinct"]


# ---------------------------------------------------------------------------
# marked pairs


def test_marked_pair_reference():
    mp = marked_pair(DATUM9)
    assert mp.first.rows == (5, 3, 3, 2)
    assert (mp.first.height, mp.first.width) == (4, 5)
    assert mp.second.rows == (6, 3, 1)
    assert (mp.second.height, mp.second.width) == (3, 6)
    assert mp.dots == ((9, 7),)
    assert dot_cells(mp, mp.first) == ((1, 4),)
    assert dot_cells(mp, mp.second) == ((1, 5),)


def test_marked_pair_point_orbit():
    mp = marked_pair(OrbitDatum.make(2, 1, 1, (1,), (1,)))
    assert mp.first.rows == (0,)
    assert mp.second.rows == (0,)
    assert mp.dots == ()


def test_marked_pair_seven():
    mp = marked_pair(DATUM7)
    assert mp.first.rows == (4, 3, 1)
    assert mp.second.rows == (3, 3, 2, 2)
    assert dot_cells(mp, mp.first) == ((1, 1),)
    assert dot_cells(mp, mp.second) == ((1, 1),)


def test_marked_pair_rejects_invalid():
    with pytest.raises(ValueError, match="invalid orbit datum"):
        marked_pair(OrbitDatum.make(2, 1, 1, (1,), (), [(1, 1)]))


# ---------------------------------------------------------------------------
# common diagrams


def test_common_diagram_reference():
    cd = common_diagram(marked_pair(DATUM9))
    assert shape(cd) == (4, 2)
    assert cd.dots == frozenset({(9, 7)})


def test_common_diagram_empty():
    cd = common_diagram(marked_pair(OrbitDatum.make(2, 1, 1, (1,), (1,))))
    assert sum(shape(cd)) == 0
    assert cd.boxes == frozenset()


def test_common_diagram_seven_and_raised():
    cd = common_diagram(marked_pair(DATUM7))
    assert shape(cd) == (1,)
    assert len(cd.dots) == 1
    raised = OrbitDatum.make(
        7, 3, 4, (3, 5, 7), (4, 6), [(1, 7), (2, 3)]
    )
    cd2 = common_diagram(marked_pair(raised))
    assert shape(cd2) == (2, 2)
    cells = {cell_of(cd2, b) for b in cd2.dots}
    assert cells == {(1, 1), (2, 2)}


def test_common_diagram_rejects_stray_dot():
    mp = marked_pair(DATUM9)
    broken = type(mp)(mp.first, mp.second, ((5, 7),))
    with pytest.raises(ValueError, match="corrupted marked pair"):
        common_diagram(broken)


# ---------------------------------------------------------------------------
# inward hooks

# common diagram with rows (8,7,5,4,2) on 13 steps; cells are (row, col)
# from the top left
FIGURE_CD = CommonDiagram(
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


def test_hook_union_figure():
    assert len(FIGURE_CD.boxes) == 26
    assert shape(FIGURE_CD) == (8, 7, 5, 4, 2)
    h = hook_union(FIGURE_CD)
    assert len(h) == 15
    cells = {cell_of(FIGURE_CD, b) for b in h}
    assert cells == {
        (1, 1), (1, 4), (1, 6),
        (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
        (3, 1), (3, 4),
        (4, 1), (4, 2), (4, 3), (4, 4),
    }


def test_hook_union_no_dots():
    cd = CommonDiagram(
        FIGURE_CD.v_steps, FIGURE_CD.h_steps, FIGURE_CD.boxes, frozenset()
    )
    assert hook_union(cd) == frozenset()


def test_hook_union_full_rectangle():
    boxes = frozenset((v, h) for v in (7, 6, 5) for h in (1, 2, 3, 4))
    cd = CommonDiagram(
        (7, 6, 5), (1, 2, 3, 4), boxes, frozenset({(7, 2), (6, 3), (5, 4)})
    )
    assert hook_union(cd) == boxes


# ---------------------------------------------------------------------------
# rank / stratum / dimension


def test_invariants_reference():
    assert rank(DATUM9) == 1
    assert stratum(DATUM9) == 1
    assert dimension(DATUM9) == 13 + 10 - 6 + 3 == 20


def test_dimension_open_orbit_small():
    datum = OrbitDatum.make(2, 1, 1, (2,), (), [(1, 2)])
    assert rank(datum) == 1
    assert stratum(datum) == 0
    assert dimension(datum) == 2


def test_dimension_open_orbit_eight():
    datum = OrbitDatum.make(
        8, 3, 4, (6, 7, 8), (5,), [(2, 8), (3, 7), (4, 6)]
    )
    assert validate(datum) == []
    mp = marked_pair(datum)
    assert mp.first.rows == (5, 5, 5)
    assert mp.second.rows == (4, 4, 4, 4)
    cd = common_diagram(mp)
    assert shape(cd) == (4, 4, 4)
    assert {cell_of(cd, b) for b in cd.dots} == {(1, 2), (2, 3), (3, 4)}
    assert dimension(datum) == 15 + 16 - 12 + 12 == 31


# ---------------------------------------------------------------------------
# paths and diagrams


def test_path_round_trip_example():
    d = YoungDiagram.from_vertical_steps(9, (3, 5, 6, 9))
    assert d.rows == (5, 3, 3, 2)
    assert (d.height, d.width) == (4, 5)
    assert d.vertical_steps() == (3, 5, 6, 9)


@given(st.data())
def test_path_round_trip(data):
    n = data.draw(st.integers(2, 10))
    height = data.draw(st.integers(1, n - 1))
    vertical = data.draw(
        st.sets(st.integers(1, n), min_size=height, max_size=height)
    )
    d = YoungDiagram.from_vertical_steps(n, vertical)
    assert d.vertical_steps() == tuple(sorted(vertical))
    assert d.height + d.width == n
    assert d.size == sum(d.rows)


def test_diagram_rejects_bad_rows():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2), 2, 3)
    with pytest.raises(ValueError):
        YoungDiagram((4,), 1, 3)


# ---------------------------------------------------------------------------
# properties over enumerated data


@given(st.data())
def test_dimension_lower_bound(data):
    from dgorbits.poset import enumerate_orbits

    n = data.draw(st.integers(2, 5))
    k = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(1, n - 1))
    datum = data.draw(st.sampled_from(enumerate_orbits(n, k, l)))
    mp = marked_pair(datum)
    cd = common_diagram(mp)
    base = mp.first.size + mp.second.size - len(cd.boxes)
    dim = dimension(datum)
    assert dim >= base
    assert (dim == base) == (rank(datum) == 0)
    assert _dimension_sets(
        set(datum.alpha), set(datum.w_jumps), datum.pairs
    ) == dim
    assert len(mp.dots) == rank(datum)
    assert frozenset(mp.dots) <= cd.boxes


# ---------------------------------------------------------------------------
# Grassmannian words


def test_word_trivial_cases():
    assert grassmannian_word(2, 1, (1,)) == ()
    assert grassmannian_word(2, 1, (2,)) == (1,)


def test_word_single_row():
    word = grassmannian_word(3, 1, (3,))
    assert word == (2, 1)
    assert is_reduced(3, word)
    assert word_permutation(3, word) == grassmannian_permutation(3, (3,))


def test_word_distinguishes_transposed_shapes():
    row = grassmannian_word(4, 1, (3,))
    col = grassmannian_word(4, 2, (2, 3))
    assert (row, col) == ((2, 1), (1, 2))
    assert word_permutation(4, row) == (3, 1, 2, 4)
    assert word_permutation(4, col) == (2, 3, 1, 4)


@given(st.data())
def test_word_always_reduced(data):
    n = data.draw(st.integers(2, 9))
    height = data.draw(st.integers(1, n - 1))
    vertical = data.draw(
        st.sets(st.integers(1, n), min_size=height, max_size=height)
    )
    word = grassmannian_word(n, height, vertical)
    diagram = YoungDiagram.from_vertical_steps(n, vertical)
    assert isinstance(word, tuple)
    assert len(word) == diagram.size
    assert is_reduced(n, word)
    perm = word_permutation(n, word)
    assert perm == grassmannian_permutation(n, vertical)
    assert inversion_count(perm) == diagram.size


def test_open_orbit_dimension_all_small():
    # the open orbit fills the whole space for every (n, k, l)
    from dgorbits.poset import enumerate_orbits

    for n, k, l in nkl_range(5):
        top = max(dimension(d) for d in enumerate_orbits(n, k, l))
        assert top == k * (n - k) + l * (n - l)
