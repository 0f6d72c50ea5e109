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
