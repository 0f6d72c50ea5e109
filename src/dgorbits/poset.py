"""Enumeration of orbit data and the weak order under parabolic raisings.

Vertices of the weak-order graph are all valid orbit data for a given
(n, k, l); a directed edge labeled i means the i-th minimal parabolic
raises the source orbit to the target.  A raising either merges an
adjacent indentation/spike pattern of the two paths into a new dotted
box (rank goes up by one) or just swaps the roles of positions i and
i+1 everywhere (rank unchanged).  Which one, if any, depends only on
the types of positions i and i+1 (the minimal-parabolic case analysis
of Richardson-Springer), so raising is a lookup in :data:`_RAISES`.
:func:`raise_candidate` is the public definition of one raising, on
orbit data.  :func:`build_graph` raises on integer keys instead: each
vertex is encoded once as a word of one digit per flag position, and a
step table derived from :data:`_RAISES` turns the two digits at i and
i+1 into the kind of the raising and the amount to add to the key; the
tests check this table against :func:`raise_candidate`.
A desingularization word needs only the data below its target, which a
downward search with the inverse raising, :func:`lower_candidate`, finds
without building the whole graph.  One builder, :func:`_checked_graph`,
makes both the whole graph and a lower interval, and checks every edge
of either: it ends at a vertex of the same stratum, one dimension
higher, and each stratum has one sink.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations
from math import comb
from operator import attrgetter, lt

from .young import (
    OrbitDatum,
    _dimension_sets,
    check_bounds,
    check_stratum,
    grassmannian_word,
    stratum,
    validate,
)

RANK_RAISING = "RANK_RAISING"
PLAIN = "PLAIN"

# The most minimal orbits minimal_orbits builds for one stratum: (18,9,9)
# has 48,620 at d = 0, built in under a second, and (40,20,20) about 1.4e11.
MINIMAL_BUDGET = 10**5
# The most lowering steps, one lower_candidate call each, that a
# desingularization may search: the open (12,2,2) orbit needs 114,345 and
# is answered in 1.3 s; the open (n,2,2) orbit is refused within 1.5 s for
# n = 16 to 1000, where with no bound n = 100 would run for hours.
DESING_BUDGET = 250_000

# The order of every vertex list: enumerate_orbits, minimal_orbits and
# lower intervals, so that vertex ids compare alike in all of them.
VERTEX_ORDER = attrgetter("alpha", "beta", "pairs")


def enumerate_orbits(n, k, l) -> list[OrbitDatum]:
    """All valid orbit data for (n, k, l), sorted by :data:`VERTEX_ORDER`.

    Choose alpha, a subset gamma of alpha, an injective assignment of a
    smaller partner delta outside alpha to each gamma, and finally beta
    among the positions not used by any pair.
    """
    check_bounds(n, k, l)
    out = []
    indices = range(1, n + 1)
    for alpha in combinations(indices, k):
        aset = set(alpha)
        non_alpha = [x for x in indices if x not in aset]
        for r in range(0, min(k, l) + 1):
            if l - r > n - 2 * r:
                continue
            for gammas in combinations(alpha, r):
                for deltas in permutations(non_alpha, r):
                    if not all(map(lt, deltas, gammas)):
                        continue
                    used = set(gammas) | set(deltas)
                    rest = [x for x in indices if x not in used]
                    pairs = tuple(sorted(zip(deltas, gammas)))
                    for beta in combinations(rest, l - r):
                        out.append(
                            OrbitDatum(n, k, l, alpha, beta, pairs)
                        )
    out.sort(key=VERTEX_ORDER)
    return out


def _dimensions(vertices) -> tuple:
    """The dimension of each datum, one :func:`_dimension_sets` call each."""
    return tuple(
        _dimension_sets(set(d.alpha), set(d.beta) | d.gammas, d.pairs)
        for d in vertices
    )


def _check_index(datum: OrbitDatum, i: int):
    if not 1 <= i <= datum.n - 1:
        raise ValueError(f"simple index {i} out of range for n={datum.n}")


def _transpose(datum: OrbitDatum, i: int) -> OrbitDatum:
    """tau_i(datum): positions i and i+1 swapped in alpha, beta and pairs."""
    tau = {i: i + 1, i + 1: i}
    return OrbitDatum.make(
        datum.n, datum.k, datum.l,
        [tau.get(x, x) for x in datum.alpha],
        [tau.get(x, x) for x in datum.beta],
        [tuple(sorted((tau.get(d, d), tau.get(g, g)))) for d, g in datum.pairs],
    )


# The type of a flag position: "a" in alpha only, "b" in beta only, "ab"
# in both, "d" a delta, "g" a gamma, "-" none of these.  A key is (type of
# i, type of i+1, partner(i) < partner(i+1) when both are in pairs, else
# None); every key not listed does not raise.
_RAISES = {
    ("a", "b", None): RANK_RAISING,  # U at i and W at i+1 make pair (i, i+1)
    ("b", "a", None): RANK_RAISING,  # W at i and U at i+1 make pair (i, i+1)
    ("a", "-", None): PLAIN,         # a jump of U moves up
    ("b", "-", None): PLAIN,         # a pure jump of W moves up
    ("ab", "-", None): PLAIN,        # a shared jump moves up
    ("ab", "a", None): PLAIN,        # W's jump moves up past U's
    ("ab", "b", None): PLAIN,        # U's jump moves up past W's
    ("d", "-", None): PLAIN,         # a delta moves up
    ("a", "d", None): PLAIN,         # a delta moves down past a jump of U
    ("b", "d", None): PLAIN,         # a delta moves down past W's pure jump
    ("ab", "d", None): PLAIN,        # a delta moves down past a shared jump
    ("g", "-", None): PLAIN,         # a gamma moves up
    ("g", "a", None): PLAIN,         # a gamma moves up past a jump of U
    ("g", "b", None): PLAIN,         # a gamma moves up past W's pure jump
    ("ab", "g", None): PLAIN,        # a gamma moves down past a shared jump
    ("d", "d", True): PLAIN,         # two deltas cross: the pairs nest
    ("g", "g", True): PLAIN,         # two gammas cross: the pairs nest
    ("g", "d", True): PLAIN,         # a gamma moves up past another delta
}


def _position_type(datum: OrbitDatum, x: int):
    """(type of position x, its partner or None); see :data:`_RAISES`."""
    for d, g in datum.pairs:
        if x == d:
            return "d", g
        if x == g:
            return "g", d
    if x in datum.alpha:
        return ("ab" if x in datum.beta else "a"), None
    return ("b" if x in datum.beta else "-"), None


def raise_candidate(datum: OrbitDatum, i: int):
    """Result of letting the i-th minimal parabolic act, if it raises.

    Returns (raised_datum, kind) or None.  kind is RANK_RAISING when a
    new (i, i+1) pair appears, PLAIN when the data is just transposed.
    The answer is the :data:`_RAISES` entry for the types of positions i
    and i+1; that the raised datum is a vertex, of dimension one higher,
    is the invariant :func:`_checked_graph` checks.  This is the public
    definition of a raising: :func:`replay_word` and
    :func:`lower_candidate` call it, and the key steps of
    :func:`build_graph` are tested against it.
    """
    _check_index(datum, i)
    ti, pi = _position_type(datum, i)
    tj, pj = _position_type(datum, i + 1)
    kind = _RAISES.get(
        (ti, tj, None if pi is None or pj is None else pi < pj)
    )
    if kind is None:
        return None
    if kind == PLAIN:
        return _transpose(datum, i), kind
    return OrbitDatum.make(
        datum.n, datum.k, datum.l,
        (set(datum.alpha) - {i}) | {i + 1}, set(datum.beta) - {i, i + 1},
        datum.pairs + ((i, i + 1),),
    ), kind


def lower_candidate(datum: OrbitDatum, i: int):
    """Inverse of :func:`raise_candidate`: every (source, kind) with
    ``raise_candidate(source, i) == (datum, kind)``, source valid.

    The sources to try are tau_i(datum) (PLAIN, unless tau_i fixes datum:
    positions i and i+1 of one type, in no pair) and, when (i, i+1) is a
    pair of ``datum``, the datum without that pair with either i+1 moved
    from alpha to beta and i put into alpha, or i put into beta
    (RANK_RAISING).  Each is kept only when raising it gives ``datum``
    back, so raising keeps its single definition.
    """
    _check_index(datum, i)
    n, k, l = datum.n, datum.k, datum.l
    ti, pi = _position_type(datum, i)
    tj, pj = _position_type(datum, i + 1)
    fixed = ti == tj and pi is None and pj is None
    tries = [] if fixed else [(_transpose(datum, i), PLAIN)]
    if (i, i + 1) in datum.pairs:
        aset, bset = set(datum.alpha), set(datum.beta)
        pairs = [p for p in datum.pairs if p != (i, i + 1)]
        tries += [
            (OrbitDatum.make(n, k, l, (aset - {i + 1}) | {i},
                             bset | {i + 1}, pairs), RANK_RAISING),
            (OrbitDatum.make(n, k, l, aset, bset | {i}, pairs),
             RANK_RAISING),
        ]
    return [
        (source, kind)
        for source, kind in tries
        if not validate(source)
        and raise_candidate(source, i) == (datum, kind)
    ]


@dataclass(frozen=True)
class RaisingEdge:
    source: int
    target: int
    simple_index: int
    kind: str


@dataclass(frozen=True, eq=False)
class WeakOrderGraph:
    """Weak-order raising graph on orbit data for one (n, k, l): all of
    them, or the lower interval of one datum."""

    n: int
    k: int
    l: int
    vertices: tuple
    dims: tuple
    edges: tuple
    strata: dict

    def index_of(self, datum: OrbitDatum) -> int:
        return self._index[datum]

    @cached_property
    def _index(self):
        return {d: i for i, d in enumerate(self.vertices)}

    def incoming(self, vid):
        return self._adjacency[1][vid]

    @cached_property
    def _adjacency(self):
        out = [[] for _ in self.vertices]
        inc = [[] for _ in self.vertices]
        for e in self.edges:
            out[e.source].append(e)
            inc[e.target].append(e)
        return out, inc

    def sinks(self):
        """Per-stratum list of vertices with no outgoing edge."""
        out, _ = self._adjacency
        return {
            d: [v for v in vs if not out[v]]
            for d, vs in sorted(self.strata.items())
        }

    def sources(self):
        """Per-stratum list of vertices with no incoming edge."""
        _, inc = self._adjacency
        return {
            d: [v for v in vs if not inc[v]]
            for d, vs in sorted(self.strata.items())
        }


def _checked_graph(n, k, l, vertices, index, raisings) -> WeakOrderGraph:
    """The graph on ``vertices`` with an edge for each (source id, i,
    target, kind) in ``raisings``, in that order; ``index`` maps each
    target to its vertex id.

    Every edge is checked to end at a vertex of the same stratum, one
    dimension higher, so the graph is acyclic; each stratum is checked to
    have one sink.  A failed check is a ``RuntimeError`` naming the edge
    or the stratum.
    """
    dims = _dimensions(vertices)
    strata_of = tuple(stratum(d) for d in vertices)
    by_stratum = {}
    for vid, d in enumerate(strata_of):
        by_stratum.setdefault(d, []).append(vid)
    edges = []
    for vid, i, cand, kind in raisings:
        target = index.get(cand)
        if target is None:
            raise RuntimeError(
                f"raising {vertices[vid]} by s_{i} ({kind}) does not give "
                "a vertex"
            )
        edge = RaisingEdge(vid, target, i, kind)
        if strata_of[target] != strata_of[vid]:
            raise RuntimeError(f"raising {edge} crossed a GL-stratum")
        if dims[target] != dims[vid] + 1:
            raise RuntimeError(
                f"raising {edge} goes from dimension {dims[vid]} "
                f"to {dims[target]}"
            )
        edges.append(edge)
    graph = WeakOrderGraph(n, k, l, vertices, dims, tuple(edges), by_stratum)
    for d, sink_ids in graph.sinks().items():
        if len(sink_ids) != 1:
            raise RuntimeError(f"stratum {d} has {len(sink_ids)} sinks")
    return graph


# The digit word of a datum has one digit per flag position x, in base
# B = 2n + 5: 0 for "-", 1 for "a", 2 for "b", 3 for "ab", 4 + g for a
# delta whose gamma is g, and 5 + n + d for a gamma whose delta is d.  Its
# key is the sum of digit(x) * B**(x - 1), so two data have one key
# exactly when they are equal.


def _digit_word(datum: OrbitDatum) -> list:
    """The digit of each flag position 1..n of ``datum``."""
    n = datum.n
    word = [0] * n
    for x in datum.alpha:
        word[x - 1] = 1
    for x in datum.beta:
        word[x - 1] += 2
    for d, g in datum.pairs:
        word[d - 1] = 4 + g
        word[g - 1] = 5 + n + d
    return word


def _digit_type(digit, n):
    """(type, partner or None) of a position with this digit."""
    if digit < 4:
        return ("-", "a", "b", "ab")[digit], None
    if digit < 5 + n:
        return "d", digit - 4
    return "g", digit - 5 - n


def _key_step(n, i, p, q):
    """(kind, key delta) of raising by s_i a datum whose digits at i and
    i+1 are p and q; kind is None when :data:`_RAISES` does not raise.

    RANK_RAISING rewrites the two digits to the pair (i, i+1).  PLAIN is
    tau_i: the two digits swap places, and each partner index i or i+1,
    in them or in their partners' digits, moves by tau_i.  A step that
    breaks a datum's rules, as :func:`raise_candidate` does under a wrong
    table row, gives the key of no vertex, or the source's own key when
    (i, i+1) is already a pair; either fails a check of
    :func:`_checked_graph`.
    """
    (ti, pi), (tj, pj) = _digit_type(p, n), _digit_type(q, n)
    kind = _RAISES.get(
        (ti, tj, None if pi is None or pj is None else pi < pj)
    )
    if kind is None:
        return None, 0
    if kind == RANK_RAISING:
        change = {i: 5 + i - p, i + 1: 5 + n + i - q}
    else:
        tau = {i: i + 1, i + 1: i}
        change = {i: q - p, i + 1: p - q}
        for x, partner in ((i, pi), (i + 1, pj)):
            if partner is not None:
                # the digit that names x as its partner, now at tau(partner)
                place = tau.get(partner, partner)
                change[place] = change.get(place, 0) + tau[x] - x
    base = 2 * n + 5
    return kind, sum(c * base ** (x - 1) for x, c in change.items())


def build_graph(n, k, l) -> WeakOrderGraph:
    """All raisings between the orbit data for (n, k, l), checked by
    :func:`_checked_graph`.

    Each vertex is encoded once by its digit word's key, and a raising
    adds the key delta :func:`_key_step` derives from :data:`_RAISES`
    for the digits at i and i+1; the step table is filled per call, on a
    miss, so it always reads the table as it stands.
    """
    vertices = tuple(enumerate_orbits(n, k, l))
    base = 2 * n + 5
    words = [_digit_word(d) for d in vertices]
    keys = []
    for word in words:
        key = 0
        for digit in reversed(word):
            key = key * base + digit
        keys.append(key)
    steps = {}

    def raisings():
        for vid, (word, key) in enumerate(zip(words, keys)):
            for code in zip(range(1, n), word, word[1:]):
                kind, delta = steps.get(code) or steps.setdefault(
                    code, _key_step(n, *code)
                )
                if kind is not None:
                    yield vid, code[0], key + delta, kind

    index = {key: vid for vid, key in enumerate(keys)}
    return _checked_graph(n, k, l, vertices, index, raisings())


# ---------------------------------------------------------------------------
# minimal orbits


def minimal_orbits(n, k, l, d) -> list[OrbitDatum]:
    """The weak-order minimal data of the stratum dim(U cap W) = d, if
    there are at most ``MINIMAL_BUDGET`` of them."""
    check_stratum(n, k, l, d)
    count = comb(k + l - 2 * d, k - d)
    if count > MINIMAL_BUDGET:
        raise ValueError(
            f"stratum d={d} of (n,k,l)=({n},{k},{l}) has {count:,} minimal "
            f"orbits, over the budget MINIMAL_BUDGET={MINIMAL_BUDGET:,}"
        )
    shared = tuple(range(1, d + 1))
    window = range(d + 1, k + l - d + 1)
    out = []
    for extra in combinations(window, k - d):
        alpha = shared + extra
        beta = shared + tuple(x for x in window if x not in set(extra))
        out.append(OrbitDatum.make(n, k, l, alpha, beta, ()))
    out.sort(key=VERTEX_ORDER)
    if len(out) != count:
        raise RuntimeError(f"stratum {d} has {len(out)} minimal orbits")
    return out


def is_minimal(datum: OrbitDatum) -> bool:
    """Whether the datum has the minimal-orbit shape of its stratum."""
    if datum.pairs:
        return False
    aset, bset = set(datum.alpha), set(datum.beta)
    d = len(aset & bset)
    return (
        aset | bset == set(range(1, datum.k + datum.l - d + 1))
        and aset & bset == set(range(1, d + 1))
    )


# ---------------------------------------------------------------------------
# desingularization words


@dataclass(frozen=True)
class DesingularizationData:
    """Raising word from a minimal orbit plus its two Schubert words.

    Applying ``word`` left to right through :func:`raise_candidate`,
    starting at ``minimal``, reproduces ``target``; the two reduced
    words resolve the Schubert factors of the minimal orbit.
    """

    target: OrbitDatum
    minimal: OrbitDatum
    word: tuple[int, ...]
    bs_first: tuple[int, ...]
    bs_second: tuple[int, ...]


def desingularization_table(graph: WeakOrderGraph) -> dict:
    """Per-vertex lexicographically smallest raising word from a minimal orbit.

    Dynamic programming over the (acyclic) graph in order of increasing
    dimension: a minimal-shape vertex gets the empty word; any other
    vertex takes the smallest (word + label, source-minimal id) over its
    incoming edges.  Every path from a fixed vertex to another has the
    same length, so these are automatically shortest words.  A vertex's
    entry depends only on the vertices below it, so on a lower interval
    whose ids keep the whole graph's order it is the whole graph's entry.
    """
    best = {}
    order = sorted(range(len(graph.vertices)), key=lambda v: graph.dims[v])
    for vid in order:
        if is_minimal(graph.vertices[vid]):
            best[vid] = ((), vid)
            continue
        options = []
        for e in graph.incoming(vid):
            if e.source in best:
                word, mid = best[e.source]
                options.append((word + (e.simple_index,), mid))
        if not options:
            raise RuntimeError(
                f"vertex {vid} has no raising path from a minimal orbit"
            )
        best[vid] = min(options)
    return best


def _lower_interval(datum: OrbitDatum) -> WeakOrderGraph:
    """The subgraph of ``build_graph`` on the data at or below ``datum``.

    Found by searching down from ``datum`` with :func:`lower_candidate`,
    so it holds every incoming edge of each of its vertices, and checked
    like the whole graph by :func:`_checked_graph`.  A search that would
    take more than ``DESING_BUDGET`` lowering steps is refused with a
    ``ValueError`` as soon as it passes the budget.  Vertices are sorted
    by :data:`VERTEX_ORDER`, so that vertex ids compare as they do in the
    whole graph.
    """
    raised = {}  # (source, i) -> (target, kind)
    seen = {datum}
    todo = [datum]
    steps = 0
    while todo:
        target = todo.pop()
        steps += datum.n - 1
        if steps > DESING_BUDGET:
            raise ValueError(
                f"desingularizing {datum} takes more than "
                f"DESING_BUDGET={DESING_BUDGET:,} lowering steps"
            )
        for i in range(1, datum.n):
            for source, kind in lower_candidate(target, i):
                raised[source, i] = (target, kind)
                if source not in seen:
                    seen.add(source)
                    todo.append(source)
    vertices = tuple(sorted(seen, key=VERTEX_ORDER))
    index = {d: v for v, d in enumerate(vertices)}
    # sorted by (source id, i), the order build_graph finds edges in
    raisings = sorted(
        (index[source], i, target, kind)
        for (source, i), (target, kind) in raised.items()
    )
    return _checked_graph(
        datum.n, datum.k, datum.l, vertices, index, raisings
    )


def desingularization(datum: OrbitDatum) -> DesingularizationData:
    """Combinatorial desingularization data for the orbit closure of ``datum``.

    Runs :func:`desingularization_table` on :func:`_lower_interval`: every
    raising path from a minimal orbit to ``datum`` lies in that interval,
    so the answer is the whole graph's.
    """
    bad = validate(datum)
    if bad:
        raise ValueError("invalid orbit datum: " + "; ".join(bad))
    graph = _lower_interval(datum)
    word, mid = desingularization_table(graph)[graph.index_of(datum)]
    minimal = graph.vertices[mid]
    return DesingularizationData(
        target=datum,
        minimal=minimal,
        word=word,
        bs_first=grassmannian_word(datum.n, datum.k, minimal.alpha),
        bs_second=grassmannian_word(datum.n, datum.l, minimal.beta),
    )


def replay_word(minimal: OrbitDatum, word) -> OrbitDatum | None:
    """Apply a raising word left to right; None if any step fails to raise."""
    state = minimal
    for i in word:
        res = raise_candidate(state, i)
        if res is None:
            return None
        state = res[0]
    return state
