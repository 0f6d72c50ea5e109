"""Canonical forms, representative points, and stabilizer systems."""

import pytest
from hypothesis import given, strategies as st

from dgorbits.canonical import (
    canonical_datum,
    canonical_point,
    datum_from_ranks,
    stabilizer_dim_oracle,
    stabilizer_system_prop2,
)
from dgorbits.linalg import Field, QQ
from dgorbits.poset import enumerate_orbits
from dgorbits.subspace import Subspace
from dgorbits.verify import all_subspaces
from dgorbits.young import OrbitDatum, dimension, rank

from conftest import draw_basis, nkl_range


DATUM9 = OrbitDatum.make(9, 4, 3, (3, 5, 6, 9), (2, 5), [(7, 9)])
GF5 = Field(5)
GF7 = Field(7)


def open_pair_n2(field=QQ):
    return (
        Subspace(field, 2, [[0, 1]]),
        Subspace(field, 2, [[1, 1]]),
    )


# ---------------------------------------------------------------------------
# canonical form


def test_canonical_open_orbit_n2():
    U, W = open_pair_n2()
    assert canonical_datum(U, W) == OrbitDatum.make(
        2, 1, 1, (2,), (), [(1, 2)]
    )


def test_canonical_equal_lines():
    U = Subspace(QQ, 2, [[1, 0]])
    assert canonical_datum(U, U) == OrbitDatum.make(2, 1, 1, (1,), (1,))


def test_canonical_two_axes():
    U = Subspace(QQ, 2, [[1, 0]])
    W = Subspace(QQ, 2, [[0, 1]])
    assert canonical_datum(U, W) == OrbitDatum.make(2, 1, 1, (1,), (2,))
    assert canonical_datum(W, U) == OrbitDatum.make(2, 1, 1, (2,), (1,))


def test_canonical_point_reference():
    U, W = canonical_point(DATUM9)
    e = lambda i: tuple(
        QQ.one if j == i - 1 else QQ.zero for j in range(9)
    )
    assert U.columns == (e(3), e(5), e(6), e(9))
    two_term = tuple(
        QQ.one if j in (6, 8) else QQ.zero for j in range(9)
    )
    assert W.columns == (e(2), e(5), two_term)
    assert canonical_datum(U, W) == DATUM9


def test_canonical_point_rejects_invalid():
    with pytest.raises(ValueError, match="invalid orbit datum"):
        canonical_point(OrbitDatum.make(2, 1, 1, (1,), (), [(1, 1)]))


def test_round_trip_small():
    for n, k, l in nkl_range(4):
        for datum in enumerate_orbits(n, k, l):
            for field in (QQ, GF5):
                U, W = canonical_point(datum, field)
                assert canonical_datum(U, W) == datum


def test_canonical_datum_off_canonical_input():
    # a generic non-echelon basis of the same orbit
    U = Subspace(QQ, 4, [[1, 2, 3, 0], [0, 1, 0, 1]])
    W = Subspace(QQ, 4, [[2, 4, 6, 0], [5, 3, 1, 0]])
    datum = canonical_datum(U, W)
    U2, W2 = canonical_point(datum)
    assert canonical_datum(U2, W2) == datum


# ---------------------------------------------------------------------------
# jump sets and the rank-number readout


def test_jump_sets_examples():
    U, W = open_pair_n2()
    read = datum_from_ranks(U, W)
    assert (read.alpha, read.w_jumps) == ((2,), (2,))
    e = lambda i: [int(j == i) for j in range(1, 6)]
    V2 = Subspace(QQ, 5, [e(1), e(2)])
    V3 = Subspace(QQ, 5, [e(1), e(2), e(3)])
    read = datum_from_ranks(V2, V3)
    assert (read.alpha, read.w_jumps) == ((1, 2), (1, 2, 3))
    skew = Subspace(QQ, 4, [[1, 0, 1, 0], [0, 1, 0, 1]])
    assert datum_from_ranks(skew, skew).alpha == (3, 4)


@given(st.data())
def test_jump_sets_match_canonical(data):
    n = 6
    k, l = data.draw(st.integers(1, n - 1)), data.draw(st.integers(1, n - 1))
    U = Subspace(GF7, n, draw_basis(data, 7, n, k))
    W = Subspace(GF7, n, draw_basis(data, 7, n, l))
    assert datum_from_ranks(U, W) == canonical_datum(U, W)


@pytest.mark.parametrize("classify", [canonical_datum, datum_from_ranks])
def test_classifiers_refuse_mismatched_pairs(classify):
    U = Subspace(QQ, 3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="field mismatch"):
        classify(U, Subspace(GF5, 3, [[0, 1, 0]]))
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        classify(U, Subspace(QQ, 4, [[0, 1, 0, 0]]))


def test_rank_readout_open_pair():
    U, W = open_pair_n2()
    datum = canonical_datum(U, W)
    assert datum_from_ranks(U, W) == datum
    # the forgery has the open pair's jump sets, but not its rank numbers
    forged = OrbitDatum.make(2, 1, 1, (2,), (2,))
    assert (forged.alpha, forged.w_jumps) == (datum.alpha, datum.w_jumps)
    assert datum_from_ranks(U, W) != forged


def test_rank_readout_matches_canonical_sweep():
    # every pair of subspaces with n <= 4 over GF(2) and GF(3)
    pairs = 0
    for q in (2, 3):
        field = Field(q)
        for n, k, l in nkl_range(4):
            us = [Subspace(field, n, u) for u in all_subspaces(field, n, k)]
            ws = [Subspace(field, n, w) for w in all_subspaces(field, n, l)]
            for U in us:
                for W in ws:
                    assert datum_from_ranks(U, W) == canonical_datum(U, W), (
                        q, U.columns, W.columns
                    )
                    pairs += 1
    assert pairs == 49222


# ---------------------------------------------------------------------------
# stabilizer systems


def test_prop2_open_orbit_n2():
    datum = OrbitDatum.make(2, 1, 1, (2,), (), [(1, 2)])
    system = stabilizer_system_prop2(datum)
    assert system.variables == ((1, 1), (1, 2), (2, 2))
    eqs = list(system.equations)
    assert {(2, 2): 1, (1, 1): -1} in eqs
    assert {(1, 2): 1} in eqs
    assert system.nullity() == 1
    assert stabilizer_dim_oracle(datum) == 1


def test_stabilizer_minimal_point():
    for n, k, l in ((3, 2, 1), (5, 2, 3)):
        datum = OrbitDatum.make(
            n, k, l, range(1, k + 1), range(1, l + 1)
        )
        full = n * (n + 1) // 2
        assert stabilizer_dim_oracle(datum) == full
        assert stabilizer_system_prop2(datum).nullity() == full
        assert dimension(datum) == 0


def test_stabilizer_reference_datum():
    assert stabilizer_system_prop2(DATUM9).nullity() == 25
    assert stabilizer_dim_oracle(DATUM9) == 25
    assert 9 * 10 // 2 - 25 == dimension(DATUM9)


def test_triple_agreement_small():
    for n, k, l in nkl_range(4):
        full = n * (n + 1) // 2
        for datum in enumerate_orbits(n, k, l):
            dim = dimension(datum)
            assert full - stabilizer_system_prop2(datum).nullity() == dim
            assert full - stabilizer_dim_oracle(datum) == dim


def test_toric_part_dimension():
    # restricted to the diagonal entries, the system only ties the two
    # diagonal entries of each pair, leaving n - #gammas free
    for n, k, l in nkl_range(5, min_n=4):
        for datum in enumerate_orbits(n, k, l)[::7]:
            system = stabilizer_system_prop2(datum)
            diag = [
                eq for eq in system.equations
                if all(i == j for i, j in eq)
            ]
            assert len(diag) == rank(datum)
            tied = {v for eq in diag for v in eq}
            assert len(tied) == 2 * rank(datum)
