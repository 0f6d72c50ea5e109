"""Cross-check suites tying the combinatorics to the linear-algebra oracles.

Each suite checks one bridge for a single parameter triple (n, k, l):
the hook dimension formula against the two stabilizer systems, the
minimal-orbit classification against the raising graph, invariance of
the canonical form under random upper-triangular changes of basis, the
exhaustive finite-field point sweep, desingularization word replay, and
the canonical point round trip, in which both the canonical form and the
rank-number readout must give back the datum.  :func:`run_suites`
bundles them into machine-readable results for the command line.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

from .canonical import (
    _canonical_datum,
    canonical_datum,
    canonical_point,
    datum_from_ranks,
    stabilizer_dim_oracle,
    stabilizer_system_prop2,
)
from .linalg import Field, QQ, SpanReducer
from .poset import (
    VERTEX_ORDER,
    WeakOrderGraph,
    build_graph,
    desingularization_table,
    enumerate_orbits,
    is_minimal,
    minimal_orbits,
    replay_word,
)
from .young import (
    check_bounds,
    dimension,
    grassmannian_permutation,
    grassmannian_word,
    is_reduced,
    rank,
    word_permutation,
)


# The primes of run_suites' exhaustive field sweeps, and the largest number
# of subspace pairs those sweeps may reduce in one call: 18,125 at (4,2,2)
# take seconds, while (6,3,3) would take about 1.15e9 pairs, over a day.
SWEEP_PRIMES = (2, 3)
SWEEP_PAIR_BUDGET = 10**7
# The most B-invariance trials run_suites runs; 1,000 take 0.13 s at
# (4,2,2) and 0.24 s at (6,3,3) on a 2-CPU Xeon.
TRIALS_BUDGET = 10**5
# The largest n at which run_suites runs the stabilizer-oracle suite.
DIM_CHECK_MAX_N = 6


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checked: int
    seconds: float
    detail: str = ""

    def as_dict(self):
        return {
            "suite": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "seconds": round(self.seconds, 3),
            "detail": self.detail,
        }


def all_subspaces(field: Field, n: int, k: int):
    """All k-dimensional subspaces of GF(q)^n, one echelon basis each.

    Enumerates reduced echelon bases by pivot pattern; each subspace
    appears exactly once.  Yields tuples of basis vectors.
    """
    if field.p is None:
        raise ValueError("subspace enumeration needs a finite field")
    q = field.p
    for pivs in combinations(range(n), k):
        pivset = set(pivs)
        free_pos = [
            (r, c)
            for r, p in enumerate(pivs)
            for c in range(p + 1, n)
            if c not in pivset
        ]
        for vals in product(range(q), repeat=len(free_pos)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivs):
                rows[r][p] = 1
            for (r, c), v in zip(free_pos, vals):
                rows[r][c] = v
            yield tuple(tuple(r) for r in rows)


def _gaussian_binomial(n, k, q) -> int:
    """[n k]_q: the number of k-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def check_dimension_agreement(n, k, l):
    """Hook formula vs the two stabilizer systems, for every datum."""
    total = n * (n + 1) // 2
    checked = 0
    for datum in enumerate_orbits(n, k, l):
        hook = dimension(datum)
        prop = total - stabilizer_system_prop2(datum).nullity()
        oracle = total - stabilizer_dim_oracle(datum)
        if not hook == prop == oracle:
            return checked, (
                f"dimension mismatch at {datum}: "
                f"hook={hook} system={prop} oracle={oracle}"
            )
        checked += 1
    return checked, None


def check_minimal_orbits(n, k, l, graph: WeakOrderGraph):
    """Minimal-orbit shape, dimension, rank, and graph sources; the count
    is checked by :func:`minimal_orbits` itself."""
    checked = 0
    for d, source_ids in graph.sources().items():
        mins = minimal_orbits(n, k, l, d)
        for m in mins:
            if dimension(m) != (k - d) * (l - d):
                return checked, f"minimal dimension off at {m}"
            if rank(m) != 0 or not is_minimal(m):
                return checked, f"minimal shape off at {m}"
            checked += 1
        from_graph = sorted(
            (graph.vertices[v] for v in source_ids), key=VERTEX_ORDER
        )
        if from_graph != mins:
            return checked, (
                f"stratum {d}: graph sources differ from the minimal orbits"
            )
    return checked, None


def check_b_invariance(n, k, l, prime=1009, trials=1000):
    """canonical_datum is constant under random upper-triangular action."""
    field = Field(prime)
    rng = random.Random(f"0:{n}:{k}:{l}:{prime}")
    p = field.p
    checked = 0
    for _ in range(trials):
        ucols = _random_independent(rng, field, n, k)
        wcols = _random_independent(rng, field, n, l)
        b = _random_upper_triangular(rng, p, n)
        bu = [_apply(b, col, p) for col in ucols]
        bw = [_apply(b, col, p) for col in wcols]
        before = _canonical_datum(field, n, ucols, wcols)
        after = _canonical_datum(field, n, bu, bw)
        if before != after:
            return checked, (
                f"B-invariance broken: {before} != {after} for U={ucols} "
                f"W={wcols} b={b}"
            )
        checked += 1
    return checked, None


def _random_independent(rng, field, n, k):
    p = field.p
    while True:
        cols = [
            tuple(rng.randrange(p) for _ in range(n)) for _ in range(k)
        ]
        if SpanReducer(field, n, cols).dim == k:
            return cols


def _random_upper_triangular(rng, p, n):
    rows = []
    for i in range(n):
        row = [0] * i + [rng.randrange(1, p)] + [
            rng.randrange(p) for _ in range(n - i - 1)
        ]
        rows.append(row)
    return rows


def _apply(rows, col, p):
    return tuple(
        sum(r[j] * col[j] for j in range(len(col)) if r[j]) % p for r in rows
    )


def check_field_sweep(n, k, l, q):
    """Every F_q-point lands on an enumerated datum, and each datum gets
    (q-1)^rank q^(dim-rank) points: the size of its orbit over F_q."""
    field = Field(q)
    data = enumerate_orbits(n, k, l)
    expected = set(data)
    useq = list(all_subspaces(field, n, k))
    wseq = useq if l == k else list(all_subspaces(field, n, l))
    ured = [SpanReducer(field, n, u) for u in useq]
    wred = ured if l == k else [SpanReducer(field, n, w) for w in wseq]
    counts = Counter()
    checked = 0
    for ucols, ra in zip(useq, ured):
        for wcols, rb in zip(wseq, wred):
            datum = _canonical_datum(
                field, n, ucols, wcols, (ra.copy(), rb.copy())
            )
            if datum not in expected:
                return checked, (
                    f"sweep produced a non-enumerated datum {datum} "
                    f"for U={ucols} W={wcols}"
                )
            counts[datum] += 1
            checked += 1
    for datum in data:
        r, dim = rank(datum), dimension(datum)
        want = (q - 1) ** r * q ** (dim - r)
        if counts[datum] != want:
            return checked, (
                f"{datum} has {counts[datum]} points over GF({q}), "
                f"expected (q-1)^{r} q^{dim - r} = {want}"
            )
    return checked, None


def check_desing_replay(n, k, l, graph: WeakOrderGraph):
    """Word replay, word length, and the two reduced Schubert words."""
    table = desingularization_table(graph)
    checked = 0
    for vid, datum in enumerate(graph.vertices):
        word, mid = table[vid]
        minimal = graph.vertices[mid]
        if replay_word(minimal, word) != datum:
            return checked, f"replay failed at {datum}"
        if len(word) != graph.dims[vid] - graph.dims[mid]:
            return checked, f"word length off at {datum}"
        for height, vertical in (
            (k, minimal.alpha), (l, minimal.w_jumps)
        ):
            gw = grassmannian_word(n, height, vertical)
            if len(gw.word) != gw.target_length or not is_reduced(n, gw.word):
                return checked, f"word for {vertical} not reduced"
            if word_permutation(n, gw.word) != grassmannian_permutation(
                n, vertical
            ):
                return checked, f"word for {vertical} has the wrong product"
        checked += 1
    return checked, None


def check_roundtrip(n, k, l):
    """canonical_point round trip over Q and GF(5): the canonical form and
    the rank-number readout of each canonical point both give its datum."""
    checked = 0
    for datum in enumerate_orbits(n, k, l):
        for field in (QQ, Field(5)):
            U, W = canonical_point(datum, field)
            back = canonical_datum(U, W)
            if back != datum:
                return checked, f"round trip broke: {datum} -> {back}"
            read = datum_from_ranks(field, n, U.columns, W.columns)
            if read != datum:
                return checked, f"rank numbers of {datum} read {read}"
        checked += 1
    return checked, None


def run_suites(n, k, l, prime=1009, trials=1000) -> list[SuiteResult]:
    """Run every suite for one (n, k, l); results in a fixed order.

    Refuses, before any work, bad bounds, fewer than one or more than
    ``TRIALS_BUDGET`` B-invariance trials, and a run whose field sweeps
    would reduce more than ``SWEEP_PAIR_BUDGET`` pairs.
    """
    check_bounds(n, k, l)
    if trials < 1:
        raise ValueError(f"need at least 1 B-invariance trial, got {trials}")
    if trials > TRIALS_BUDGET:
        raise ValueError(
            f"{trials:,} B-invariance trials are over the budget "
            f"TRIALS_BUDGET={TRIALS_BUDGET:,}"
        )
    pairs = sum(
        _gaussian_binomial(n, k, q) * _gaussian_binomial(n, l, q)
        for q in SWEEP_PRIMES
    )
    if pairs > SWEEP_PAIR_BUDGET:
        raise ValueError(
            f"the field sweeps over "
            f"{', '.join(f'GF({q})' for q in SWEEP_PRIMES)} would reduce "
            f"{pairs:,} subspace pairs at (n,k,l)=({n},{k},{l}), over the "
            f"budget of {SWEEP_PAIR_BUDGET:,}"
        )
    graph = build_graph(n, k, l)
    jobs = [
        ("minimal_orbits", check_minimal_orbits, (n, k, l, graph)),
        ("desing_replay", check_desing_replay, (n, k, l, graph)),
        ("b_invariance", check_b_invariance, (n, k, l, prime, trials)),
        ("roundtrip", check_roundtrip, (n, k, l)),
    ]
    if n <= DIM_CHECK_MAX_N:
        jobs.insert(
            0, ("dimension_agreement", check_dimension_agreement, (n, k, l))
        )
    for q in SWEEP_PRIMES:
        jobs.append(
            (f"field_sweep_q{q}", check_field_sweep, (n, k, l, q))
        )
    results = []
    for name, fn, args in jobs:
        t0 = time.perf_counter()
        checked, failure = fn(*args)
        results.append(
            SuiteResult(
                name=name,
                passed=failure is None,
                checked=checked,
                seconds=time.perf_counter() - t0,
                detail=failure or "",
            )
        )
    return results
