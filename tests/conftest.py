from functools import lru_cache

import pytest
from hypothesis import strategies as st

from dgorbits.poset import build_graph, enumerate_orbits


@pytest.fixture(scope="session")
def graph_of():
    """Memoized weak-order graphs, shared across the whole run."""
    return lru_cache(maxsize=None)(build_graph)


@pytest.fixture(scope="session")
def orbits_of():
    return lru_cache(maxsize=None)(enumerate_orbits)


def nkl_range(max_n, min_n=2):
    """All parameter triples (n, k, l) with min_n <= n <= max_n."""
    return [
        (n, k, l)
        for n in range(min_n, max_n + 1)
        for k in range(1, n)
        for l in range(1, n)
    ]


def draw_basis(data, p, n, dim):
    """``dim`` columns of GF(p)^n that form a basis by construction.

    Each column gets its own top position, a nonzero entry there and free
    entries below it; every subspace has such a basis, its bottom-pivot
    echelon form.
    """
    tops = data.draw(st.lists(
        st.integers(0, n - 1), min_size=dim, max_size=dim, unique=True
    ))
    cols = []
    for top in tops:
        below = data.draw(st.tuples(*[st.integers(0, p - 1)] * top))
        lead = data.draw(st.integers(1, p - 1))
        cols.append(below + (lead,) + (0,) * (n - 1 - top))
    return cols


# ---------------------------------------------------------------------------
# figure coordinates: where the paper's figures draw boxes and dots


def row_of_step(diagram, v):
    """1-based row (from the top) bounded by vertical step v."""
    return len([x for x in diagram.vertical_steps() if x > v]) + 1


def col_of_step(diagram, h):
    """1-based column whose boxes sit above horizontal step h."""
    vs = set(diagram.vertical_steps())
    return len([x for x in range(1, h + 1) if x not in vs])


def dot_cells(mp, diagram):
    """(row, col) positions, 1-based from the top-left, of the dots of the
    marked pair ``mp`` in one of its diagrams."""
    return tuple(
        (row_of_step(diagram, g), col_of_step(diagram, d)) for g, d in mp.dots
    )


def shape(cd):
    """Row lengths of a common diagram, top row first."""
    return tuple(len([h for h in cd.h_steps if h < v]) for v in cd.v_steps)


def cell_of(cd, box):
    """(row, col) position, 1-based from the top-left, of a box (v, h)."""
    v, h = box
    return (
        len([x for x in cd.v_steps if x > v]) + 1,
        cd.h_steps.index(h) + 1,
    )
