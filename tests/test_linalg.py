"""Exact linear algebra kernels and the Subspace layer."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from dgorbits.canonical import canonical_datum
from dgorbits.linalg import (
    Field,
    FieldError,
    QQ,
    SpanReducer,
    int_matrix_rank,
    nullspace,
    rref,
    top_index,
)
from dgorbits.subspace import Subspace

from conftest import draw_basis


GF5 = Field(5)


# ---------------------------------------------------------------------------
# fields


def test_field_rejects_composite():
    for bad in (0, 1, 4, 1001, 2**31 - 3, 2**31, 561, 1009 * 1013):
        with pytest.raises(FieldError, match="not a valid prime"):
            Field(bad)


def test_field_accepts_small_primes():
    for p in (2, 3, 1009):
        assert Field(p).p == p


def test_field_accepts_large_prime():
    assert Field(2**31 - 1).p == 2**31 - 1


def test_field_elem_and_inv():
    assert QQ.elem(3) == Fraction(3)
    assert GF5.elem(7) == 2
    assert GF5.elem(Fraction(1, 2)) == 3  # 2 * 3 = 1 mod 5
    for a in range(1, 5):
        assert GF5.inv(a) * a % 5 == 1
    with pytest.raises(ZeroDivisionError):
        GF5.inv(0)
    for bad in (Fraction(1, 7), Fraction(3, 14)):
        with pytest.raises(FieldError, match="divisible by 7"):
            Field(7).elem(bad)


def test_inv_table_matches_pow():
    p = 1009
    f = Field(p)
    for a in (1, 2, 501, 1008):
        assert f.inv(a) == pow(a, p - 2, p)


# ---------------------------------------------------------------------------
# span reducer


def test_reducer_basics():
    red = SpanReducer(GF5, 3, [(1, 0, 1), (0, 1, 0)])
    assert red.dim == 2
    assert sorted(red.rows) == [1, 2]
    assert red.contains((1, 1, 1))
    assert not red.contains((1, 0, 0))
    assert red.add((2, 2, 2)) is None


def test_reducer_residual_has_minimal_top_index():
    # brute force over GF(2): the residual is the coset member whose top
    # nonzero coordinate is lowest
    n = 4
    vectors = [(1, 0, 1, 1), (0, 1, 1, 0)]
    red = SpanReducer(Field(2), n, vectors)
    span = set()
    for c1, c2 in product(range(2), repeat=2):
        span.add(tuple(
            (c1 * vectors[0][i] + c2 * vectors[1][i]) % 2 for i in range(n)
        ))
    for v in product(range(2), repeat=n):
        res = tuple(red.reduce(list(v)))
        coset = [
            tuple((v[i] + s[i]) % 2 for i in range(n)) for s in span
        ]
        assert res in coset
        best = min(
            (top_index(c) if top_index(c) is not None else -1)
            for c in coset
        )
        assert (top_index(res) if top_index(res) is not None else -1) == best


BOTH_FIELDS = pytest.mark.parametrize("field", [QQ, GF5], ids=["QQ", "GF5"])


def _field_vector(data, field, n):
    entries = st.integers(-4, 4).map(field.elem)
    return list(data.draw(st.tuples(*[entries] * n)))


@BOTH_FIELDS
@given(data=st.data())
def test_reducer_reduce_is_projection(field, data):
    n = data.draw(st.integers(1, 6))
    count = data.draw(st.integers(0, 4))
    red = SpanReducer(field, n)
    for _ in range(count):
        red.add(_field_vector(data, field, n))
    v = _field_vector(data, field, n)
    res = red.reduce(v)
    # residual differs from v by a span member, and is itself reduced
    diff = [field.elem(a - b) for a, b in zip(v, res)]
    assert red.contains(diff)
    assert red.reduce(res) == res


@given(st.data())
def test_reducer_rank_matches_rref(data):
    # a 3- and a 4-dimensional subspace of GF(5)^9: the reducer's rank of
    # the stacked bases equals the rank rref finds for them
    stacked = [
        list(col)
        for col in draw_basis(data, 5, 9, 3) + draw_basis(data, 5, 9, 4)
    ]
    assert SpanReducer(GF5, 9, stacked).dim == len(rref(stacked, GF5, 9)[0])


# ---------------------------------------------------------------------------
# rref / rank / nullspace


def test_rref_known_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [1, 1, 1]]
    red, pivots = rref([[QQ.elem(x) for x in r] for r in rows], QQ, 3)
    assert pivots == [0, 1]
    assert red == [[1, 0, -1], [0, 1, 2]]


@given(st.data())
def test_int_rank_matches_rref_rank(data):
    nrows = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 5))
    rows = data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ))
    qrows = [[QQ.elem(x) for x in r] for r in rows]
    assert int_matrix_rank(rows) == len(rref(qrows, QQ, ncols)[0])


@BOTH_FIELDS
@given(data=st.data())
def test_nullspace_basis(field, data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 5))
    rows = [_field_vector(data, field, m) for _ in range(n)]
    basis = nullspace(rows, field, m)
    assert len(basis) == m - len(rref(rows, field, m)[0])
    for v in basis:
        for r in rows:
            assert not field.elem(sum(r[j] * v[j] for j in range(m)))


# ---------------------------------------------------------------------------
# subspaces


def test_subspace_rejects_dependent_columns():
    with pytest.raises(ValueError, match="column 3"):
        Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


def test_subspace_field_mismatch():
    U = Subspace(QQ, 2, [[0, 1]])
    W = Subspace(GF5, 2, [[1, 1]])
    with pytest.raises(ValueError, match="field mismatch"):
        canonical_datum(U, W)
