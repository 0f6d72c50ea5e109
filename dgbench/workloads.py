"""The four workloads: seeded inputs, one operation, and the output checks.

Each workload has three parts.  ``setup(prog, rng)`` makes one round of
inputs from the seeded ``rng`` with this package's own code, and hands
the program only those inputs; ``op(prog, inp)`` is one operation, the
unit that ``op_p50_ms`` times; ``check(prog, inputs, outputs)`` checks
one round of outputs with :mod:`checks` and returns its problems.
``prog`` holds the program's modules; every call looks its function up
on the module at call time, so that the tracer's wrappers are seen.

The sizes below are the benchmark's definition; the tests build the
same workloads at smaller sizes.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations, product

from checks import (
    branch_mix,
    cell_of,
    check_desing,
    check_graph,
    check_sweep,
    check_verify,
    orbit_data,
)


def plain(datum):
    """An :class:`OrbitDatum` as the plain tuple the checks use."""
    return datum.alpha, datum.beta, datum.pairs


def stratified_sample(rng, data, per_cell):
    """``per_cell(size)`` seeded picks from every (stratum, rank) cell."""
    cells = {}
    for datum in data:
        cells.setdefault(cell_of(datum), []).append(datum)
    picked = []
    for cell in sorted(cells):
        members = cells[cell]
        count = min(len(members), per_cell(len(members)))
        picked += rng.sample(members, count)
    rng.shuffle(picked)
    return picked


class Workload:
    def json_bytes(self, outputs):
        """Graph JSON bytes in one round of outputs."""
        return 0

    def makeup(self, inputs, outputs):
        """What one round holds, for the run's record."""
        return {}


class WeakOrder(Workload):
    """Whole-graph requests: graph, desingularization table, JSON text."""

    name = "weak_order"
    # Nine graphs of 1,071 to 4,375 vertices, about 5 s a round on the
    # reference machine (README); a mid-sized one sets op_p50_ms.  The seed
    # orders them: choosing the triples by seed would change the amount of
    # work from run to run.
    TRIPLES = ((7, 2, 3), (7, 3, 2), (7, 2, 4), (7, 4, 2), (7, 2, 5),
               (7, 3, 3), (7, 3, 4), (7, 4, 3), (8, 2, 2))

    def __init__(self, triples=TRIPLES):
        self.triples = triples

    def setup(self, prog, rng):
        order = list(self.triples)
        rng.shuffle(order)
        return order

    def op(self, prog, triple):
        graph = prog.poset.build_graph(*triple)
        table = prog.poset.desingularization_table(graph)
        return json.dumps(prog.serialize.graph_to_json(graph)), table

    def json_bytes(self, outputs):
        return sum(len(out[0]) for out in outputs if isinstance(out, tuple))

    def makeup(self, inputs, outputs):
        return {"triples": inputs}

    def check(self, prog, inputs, outputs):
        problems = []
        for (n, k, l), (text, table) in zip(inputs, outputs):
            def minimal(d):
                return [plain(m) for m in prog.poset.minimal_orbits(n, k, l, d)]
            problems += [
                f"graph {n, k, l}: {p}"
                for p in check_graph(n, k, l, text, table, minimal)
            ]
        return problems


class Desing(Workload):
    """``dgorbits desing``: one target datum, no prebuilt graph."""

    name = "desing"
    TRIPLE = (8, 2, 2)
    PER_CELL = 2   # targets per (stratum, rank) cell: 6 cells at (8,2,2)

    def __init__(self, triple=TRIPLE, per_cell=PER_CELL):
        self.triple = triple
        self.per_cell = per_cell

    def setup(self, prog, rng):
        n, k, l = self.triple
        picked = stratified_sample(rng, orbit_data(n, k, l),
                                   lambda size: self.per_cell)
        return [prog.young.OrbitDatum(n, k, l, *datum) for datum in picked]

    def op(self, prog, datum):
        dd = prog.poset.desingularization(datum)
        return json.dumps(prog.serialize.desing_to_json(dd))

    def makeup(self, inputs, outputs):
        return {"cells": Counter(str(cell_of(plain(d))) for d in inputs)}

    def check(self, prog, inputs, outputs):
        n, k, l = self.triple

        def replay(minimal, word):
            end = prog.poset.replay_word(
                prog.young.OrbitDatum(n, k, l, *minimal), word
            )
            return None if end is None else plain(end)

        problems = []
        for datum, text in zip(inputs, outputs):
            problems += [
                f"desing {plain(datum)}: {p}"
                for p in check_desing(n, k, l, plain(datum), text, replay)
            ]
        return problems


def subspace_bases(q, n, k):
    """One basis per k-subspace of GF(q)^n: rows of its reduced echelon
    form with leftmost pivots."""
    out = []
    for pivots in combinations(range(n), k):
        free = [(r, c) for r, p in enumerate(pivots) for c in range(p + 1, n)
                if c not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for r, p in enumerate(pivots):
                rows[r][p] = 1
            for (r, c), v in zip(free, values):
                rows[r][c] = v
            out.append(rows)
    return out


def random_basis(rng, q, rows):
    """Another basis of the same span: rows times L U, with L unit lower
    and U upper triangular with a nonzero diagonal, so always invertible."""
    k = len(rows)
    lower = [[1 if i == j else rng.randrange(q) if j < i else 0
              for j in range(k)] for i in range(k)]
    upper = [[rng.randrange(1, q) if i == j else rng.randrange(q) if j > i
              else 0 for j in range(k)] for i in range(k)]
    mix = [[sum(lower[i][t] * upper[t][j] for t in range(k)) % q
            for j in range(k)] for i in range(k)]
    n = len(rows[0])
    return [[sum(mix[i][j] * rows[j][c] for j in range(k)) % q
             for c in range(n)] for i in range(k)]


class SweepGF(Workload):
    """``canonical_datum`` on every F_q-point pair of a double Grassmannian."""

    name = "sweep_gf"
    # 130 x 130 = 16,900 pairs, about 1.1 s a round on the reference
    # machine; every branch of the case analysis occurs (see README).
    N, K, L, Q = 4, 2, 2, 3

    def __init__(self, n=N, k=K, l=L, q=Q):
        self.n, self.k, self.l, self.q = n, k, l, q

    def setup(self, prog, rng):
        field = prog.linalg.Field(self.q)

        def points(dim):
            spaces = [
                prog.subspace.Subspace(field, self.n,
                                       random_basis(rng, self.q, rows))
                for rows in subspace_bases(self.q, self.n, dim)
            ]
            rng.shuffle(spaces)
            return spaces

        us = points(self.k)
        ws = points(self.l)
        return [(u, w) for u in us for w in ws]

    def op(self, prog, pair):
        return prog.canonical.canonical_datum(*pair)

    def makeup(self, inputs, outputs):
        return {"branch_mix": branch_mix(self.n, map(plain, outputs))}

    def check(self, prog, inputs, outputs):
        n, k, l = self.n, self.k, self.l

        def dimension(datum):
            young = prog.young
            return young.dimension(young.OrbitDatum(n, k, l, *datum))

        return [
            f"sweep GF({self.q}) {n, k, l}: {p}"
            for p in check_sweep(n, k, l, self.q, [plain(d) for d in outputs],
                                 dimension)
        ]


class VerifyQ(Workload):
    """Three dimension routes and a B-moved dense pair, over Q."""

    name = "verify_q"
    # One eighth of every (stratum, rank) cell of the 4,375 data of
    # (7,3,3): 547 data, about 1.5 s a round on the reference machine.
    TRIPLE = (7, 3, 3)
    FRACTION = 8
    ENTRY = 3   # B: diagonal in ±[1, ENTRY], entries above in [-ENTRY, ENTRY]

    def __init__(self, triple=TRIPLE, fraction=FRACTION):
        self.triple = triple
        self.fraction = fraction

    def setup(self, prog, rng):
        n, k, l = self.triple
        qq = prog.linalg.QQ
        picked = stratified_sample(
            rng, orbit_data(n, k, l),
            lambda size: max(1, round(size / self.fraction)),
        )
        inputs = []
        for alpha, beta, pairs in picked:
            ucols = [_unit(n, a) for a in alpha]
            wcols = [_unit(n, b) for b in beta]
            for d, g in pairs:
                col = _unit(n, d)
                col[g - 1] = 1
                wcols.append(col)
            b = self._upper_triangular(rng, n)
            moved = [
                prog.subspace.Subspace(qq, n, [_apply(b, c) for c in cols])
                for cols in (ucols, wcols)
            ]
            datum = prog.young.OrbitDatum(n, k, l, alpha, beta, pairs)
            inputs.append((datum, *moved))
        return inputs

    def _upper_triangular(self, rng, n):
        e = self.ENTRY
        return [
            [0] * i + [rng.choice([-1, 1]) * rng.randint(1, e)]
            + [rng.randint(-e, e) for _ in range(n - i - 1)]
            for i in range(n)
        ]

    def op(self, prog, inp):
        datum, u, w = inp
        total = datum.n * (datum.n + 1) // 2
        hook = prog.young.dimension(datum)
        system = total - prog.canonical.stabilizer_system_prop2(datum).nullity()
        oracle = total - prog.canonical.stabilizer_dim_oracle(datum)
        text = prog.serialize.format_matrix_text(u, w)
        back = prog.canonical.canonical_datum(
            *prog.serialize.parse_matrix_text(text)
        )
        return hook, system, oracle, back

    def makeup(self, inputs, outputs):
        return {
            "cells": Counter(str(cell_of(plain(i[0]))) for i in inputs),
            "branch_mix": branch_mix(self.triple[0],
                                     (plain(o[3]) for o in outputs)),
        }

    def check(self, prog, inputs, outputs):
        return check_verify([
            (plain(inp[0]), hook, system, oracle, plain(back))
            for inp, (hook, system, oracle, back) in zip(inputs, outputs)
        ])


def _unit(n, r):
    col = [0] * n
    col[r - 1] = 1
    return col


def _apply(matrix, col):
    return [sum(a * x for a, x in zip(row, col)) for row in matrix]


WORKLOADS = {w.name: w for w in (WeakOrder(), Desing(), SweepGF(), VerifyQ())}
