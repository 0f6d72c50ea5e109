"""Canonical form of a pair of subspaces, and stabilizer dimensions.

``canonical_datum`` runs the inductive case analysis that classifies a
pair (U, W) under the upper-triangular group: walk the standard flag,
label each flag position by how the current flag vector sits relative
to U and W in the quotient by everything consumed so far, and emit a
(delta, gamma) pair whenever the flag vector needs a two-term partner
inside U.  The recursion over quotient spaces is flattened: instead of
actually forming V/Z we keep the consumed span Z inside the reducers
(U+Z, W+Z, U+W+Z) and track which original flag indices remain.

``datum_from_ranks`` is a second classifier with no case analysis: it
reads the datum off B-invariant rank numbers.

The two stabilizer computations live here as well: the explicit linear
system on upper-triangular matrix entries, and an independent oracle
that computes the annihilator conditions A.U <= U, A.W <= W directly
from a canonical point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .linalg import QQ, SpanReducer, int_matrix_rank, nullspace
from .subspace import Subspace
from .young import OrbitDatum, validate


def _basis_vector(field, n, r):
    v = [field.zero] * n
    v[r - 1] = field.one
    return v


def canonical_datum(U: Subspace, W: Subspace) -> OrbitDatum:
    """Classify the pair (U, W) relative to the standard flag."""
    U._check_compatible(W)
    return _canonical_datum(U.field, U.n, U.columns, W.columns)


def _canonical_datum(field, n, ucols, wcols, prebuilt=None) -> OrbitDatum:
    """Case analysis on explicit columns.

    ``prebuilt`` may carry already-echelonized reducers for the two
    column sets (they are consumed, not shared); the point sweeps reuse
    per-subspace reducers this way.
    """
    k, l = len(ucols), len(wcols)
    if prebuilt is None:
        A = SpanReducer(field, n, ucols)      # U + Z
        B = SpanReducer(field, n, wcols)      # W + Z
    else:
        A, B = prebuilt
    C = A.copy()                              # U + W + Z
    for row in list(B.rows.values()):
        C.add(row)
    alpha, beta, pairs = [], [], []
    remaining = list(range(1, n + 1))
    while remaining:
        r = remaining.pop(0)
        er = _basis_vector(field, n, r)
        ra = A.reduce(er)
        in_a = not any(ra)
        rb = B.reduce(er)
        in_b = not any(rb)
        if in_a and in_b:
            alpha.append(r)
            beta.append(r)
            continue
        if in_a:
            alpha.append(r)
            B.add_reduced(rb)
            continue
        if in_b:
            beta.append(r)
            A.add_reduced(ra)
            continue
        rc = C.reduce(er)
        if not any(rc):
            # two-term case: the flag vector needs a partner u in U+Z with
            # e_r + u in W+Z; the partner of lowest top index wins.  U+Z is
            # in bottom-pivot echelon form, so the members of U+Z with top
            # index at most t are spanned by its rows of pivot at most t:
            # add those rows to W+Z in pivot order, and the first that
            # brings e_r into the span is the partner's top index.
            D = B.copy()
            for piv in sorted(A.rows):
                D.add(A.rows[piv])
                if D.contains(er):
                    break
            else:
                raise RuntimeError("flag vector not in U+W despite case test")
            j = piv + 1
            if j not in remaining:
                raise RuntimeError(
                    f"partner position {j} of flag position {r} was "
                    "already consumed"
                )
            remaining.remove(j)
            pairs.append((r, j))
            alpha.append(j)
            # consuming e_r and its partner grows U+Z and W+Z by e_r only:
            # the partner already lies in U+Z, and it is -e_r modulo W+Z;
            # the total span U+W+Z is unchanged
            A.add_reduced(ra)
            B.add_reduced(rb)
        else:
            # flag vector independent of U+W: consume it without a label
            A.add_reduced(ra)
            B.add_reduced(rb)
            C.add_reduced(rc)
    datum = OrbitDatum.make(n, k, l, alpha, beta, pairs)
    bad = validate(datum)
    if bad:
        raise RuntimeError(
            "canonical form produced an invalid datum: " + "; ".join(bad)
        )
    return datum


def canonical_point(datum: OrbitDatum, field=QQ):
    """The canonical representative pair for a valid datum."""
    bad = validate(datum)
    if bad:
        raise ValueError("invalid orbit datum: " + "; ".join(bad))
    n = datum.n
    ucols = [_basis_vector(field, n, a) for a in datum.alpha]
    wcols = [_basis_vector(field, n, b) for b in datum.beta]
    for d, g in datum.pairs:
        v = _basis_vector(field, n, d)
        v[g - 1] = field.one
        wcols.append(v)
    return Subspace(field, n, ucols), Subspace(field, n, wcols)


def datum_from_ranks(field, n, ucols, wcols) -> OrbitDatum:
    """Read the datum of (U, W) off B-invariant rank numbers.

    With a(j) = dim(U cap V_j) and r(i, j) = dim(W cap (V_i + U cap V_j))
    for i <= j: alpha is the set of jumps of a, the W-jumps are the jumps
    of r(j, j), alpha cap beta is the set of jumps of r(0, j), and (d, g)
    is a pair exactly when the mixed difference of r at (d, g) is 1
    (r(i, j) counts the pairs with d <= i and g <= j, plus beta terms that
    have no mixed difference at d < g).  B fixes every V_i.
    """
    urows = SpanReducer(field, n, ucols).rows
    aset = {piv + 1 for piv in urows}
    a = [len([x for x in aset if x <= j]) for j in range(n + 1)]
    l = len(wcols)
    r = {}
    wv = SpanReducer(field, n, wcols)             # W + V_i
    for i in range(n + 1):
        if i:
            wv.add(_basis_vector(field, n, i))
        span = wv.copy()                          # W + V_i + (U cap V_j)
        for j in range(i, n + 1):
            if j in aset:
                span.add(urows[j - 1])
            r[i, j] = l + i + a[j] - a[i] - span.dim
    wjumps = {j for j in range(1, n + 1) if r[j, j] > r[j - 1, j - 1]}
    ab = {j for j in range(1, n + 1) if r[0, j] > r[0, j - 1]}
    gammas = (aset & wjumps) - ab
    pairs = [
        (d, g)
        for g in range(2, n + 1)
        for d in range(1, g)
        if r[d, g] - r[d - 1, g] - r[d, g - 1] + r[d - 1, g - 1] == 1
    ]
    return OrbitDatum.make(n, len(ucols), l, aset, wjumps - gammas, pairs)


# ---------------------------------------------------------------------------
# stabilizer systems


@dataclass(frozen=True)
class LinearSystem:
    """Linear equations on the upper-triangular entries of an n x n matrix.

    Variables are the positions (i, j) with i <= j; each equation maps a
    subset of them to integer coefficients.
    """

    n: int
    equations: tuple

    @property
    def variables(self) -> tuple:
        return tuple(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i, self.n + 1)
        )

    def rank(self) -> int:
        index = {v: c for c, v in enumerate(self.variables)}
        rows = []
        for eq in self.equations:
            row = [0] * len(index)
            for v, coeff in eq.items():
                row[index[v]] = coeff
            rows.append(row)
        return int_matrix_rank(rows)

    def nullity(self) -> int:
        return len(self.variables) - self.rank()


def stabilizer_system_prop2(datum: OrbitDatum) -> LinearSystem:
    """Explicit equations cutting out the stabilizer of the canonical point.

    Emits, in order: the diagonal ties for each pair; the zero column
    pattern of the first diagram; the zero pattern of the pure columns of
    the second diagram; the beta-column ties; the two-term column ties;
    and the cross relations between two pairs in each of the three
    possible interleavings.  Entries below the diagonal are structurally
    zero and are simply dropped from the equations.
    """
    bad = validate(datum)
    if bad:
        raise ValueError("invalid orbit datum: " + "; ".join(bad))
    n = datum.n
    aset = set(datum.alpha)
    bset = set(datum.beta)
    excluded = bset | datum.gammas | datum.deltas
    eqs = []
    for d, g in datum.pairs:                                   # (a)
        eqs.append({(g, g): 1, (d, d): -1})
    for a in datum.alpha:                                      # (b)
        for i in range(1, a):
            if i not in aset:
                eqs.append({(i, a): 1})
    for b in datum.beta:                                       # (c)
        for j in range(1, b):
            if j not in excluded:
                eqs.append({(j, b): 1})
    for b in datum.beta:                                       # (d)
        for d, g in datum.pairs:
            if g < b:
                eqs.append({(g, b): 1, (d, b): -1})
            elif d < b:
                # the gamma entry falls below the diagonal, so the tie
                # degenerates to a vanishing delta entry
                eqs.append({(d, b): 1})
    for d, g in datum.pairs:                                   # (e)
        for j in range(1, g):
            if j in excluded:
                continue
            if j < d:
                eqs.append({(j, g): 1, (j, d): 1})
            else:
                eqs.append({(j, g): 1})
    pairs = sorted(datum.pairs, key=lambda p: p[1])
    for x in range(len(pairs)):                                # (f)
        for y in range(x + 1, len(pairs)):
            d1, g1 = pairs[x]
            d2, g2 = pairs[y]
            if d2 < d1:
                eqs.append({(g1, g2): 1})
                eqs.append({(d1, g2): 1})
                eqs.append({(d2, g1): 1})
                eqs.append({(d2, d1): 1})
            elif d2 < g1:
                eqs.append({(d2, g1): 1})
                eqs.append({(d1, g2): 1})
                eqs.append({(g1, g2): 1, (d1, d2): -1})
            else:
                eqs.append({(d1, g2): 1})
                eqs.append({(g1, g2): 1, (g1, d2): 1, (d1, d2): -1})
    return LinearSystem(n, tuple(eqs))


def _annihilator_rows(cols, n):
    """Integer basis of the functionals vanishing on the span of ``cols``."""
    rows = [[QQ.elem(col[i]) for i in range(n)] for col in cols]
    out = []
    for v in nullspace(rows, QQ, n):
        denom = lcm(*(x.denominator for x in v))
        out.append([int(x * denom) for x in v])
    return out


def stabilizer_dim_oracle(datum: OrbitDatum, field=QQ) -> int:
    """Dimension of the upper-triangular stabilizer of the canonical point.

    Computed as the nullity of the conditions A.U <= U and A.W <= W on
    the n(n+1)/2 upper-triangular entries; the orbit dimension is
    n(n+1)/2 minus this value.  Exact characteristic-zero arithmetic
    only.
    """
    if field != QQ:
        raise ValueError("the stabilizer oracle runs over Q only")
    U, W = canonical_point(datum, field)
    n = datum.n
    eqs = []
    for space in (U, W):
        cols = [[int(x) for x in col] for col in space.columns]
        for y in _annihilator_rows(cols, n):
            for u in cols:
                eq = {
                    (i, j): y[i - 1] * u[j - 1]
                    for i in range(1, n + 1) if y[i - 1]
                    for j in range(i, n + 1) if u[j - 1]
                }
                if eq:
                    eqs.append(eq)
    return LinearSystem(n, tuple(eqs)).nullity()
