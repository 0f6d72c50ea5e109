"""Combinatorics of B-orbit data in a double Grassmannian.

A Borel orbit of a pair (U, W) of subspaces of K^n, dim U = k, dim W = l,
is classified by:

  * alpha -- the k positions along the standard flag where U jumps,
  * beta  -- the positions where W jumps with a pure basis vector,
  * pairs -- a list of (delta, gamma) with delta < gamma, gamma in alpha,
             one for each two-term vector v_delta + v_gamma of W.

Everything in this module is pure combinatorics on those index sets:
lattice paths and the Young diagrams they bound, the marked pair of
diagrams with dotted boxes, the common diagram of two paths, inward
hooks, and the rank / dimension / stratum formulas.  All values are
immutable; all functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


Pair = tuple[int, int]


# ---------------------------------------------------------------------------
# orbit data


@dataclass(frozen=True)
class OrbitDatum:
    """Combinatorial classifier of a single B-orbit on Gr(k,n) x Gr(l,n).

    ``alpha`` and ``beta`` are sorted tuples of flag positions in [1, n];
    ``pairs`` is a sorted tuple of (delta, gamma) transposition supports.
    Construct through :meth:`make` to get the canonical sorted form.
    """

    n: int
    k: int
    l: int
    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    pairs: tuple[Pair, ...]

    @staticmethod
    def make(n, k, l, alpha, beta, pairs=()) -> "OrbitDatum":
        return OrbitDatum(
            n, k, l,
            tuple(sorted(alpha)),
            tuple(sorted(beta)),
            tuple(sorted((d, g) for d, g in pairs)),
        )

    @property
    def gammas(self) -> frozenset:
        return frozenset(g for _, g in self.pairs)

    @property
    def deltas(self) -> frozenset:
        return frozenset(d for d, _ in self.pairs)

    @property
    def w_jumps(self) -> tuple[int, ...]:
        """Sorted positions where W jumps: beta together with all gammas."""
        return tuple(sorted(set(self.beta) | self.gammas))


# Largest n any reader or command accepts: at n = 1000 a dimension or a
# minimal desingularization takes ms, and n = 10**6 takes 100 MiB in `dim`.
MAX_N = 1000


def check_bounds(n, k, l):
    """Refuse (n, k, l) unless 0 < k < n, 0 < l < n and n <= MAX_N."""
    if not (0 < k < n and 0 < l < n):
        raise ValueError(
            f"need 0 < k < n and 0 < l < n, got n={n} k={k} l={l}"
        )
    if n > MAX_N:
        raise ValueError(f"n={n} is over the limit MAX_N={MAX_N}")


def strata(n, k, l) -> range:
    """The strata d = dim(U cap W) of (n, k, l), after :func:`check_bounds`."""
    check_bounds(n, k, l)
    return range(max(0, k + l - n), min(k, l) + 1)


def validate(datum: OrbitDatum) -> list[str]:
    """Return descriptions of every violated invariant (empty list = valid)."""
    bad = []
    n, k, l = datum.n, datum.k, datum.l
    try:
        check_bounds(n, k, l)
    except ValueError as exc:
        bad.append(str(exc))
    alpha, beta, pairs = datum.alpha, datum.beta, datum.pairs
    aset, bset = set(alpha), set(beta)
    if len(alpha) != len(aset) or len(aset) != k:
        bad.append("alpha must have exactly k distinct elements")
    if len(beta) != len(bset) or len(bset) + len(pairs) != l:
        bad.append("need |beta| + #pairs = l")
    if not all(1 <= x <= n for x in aset | bset):
        bad.append("alpha and beta must lie in [1, n]")
    gammas = [g for _, g in pairs]
    deltas = [d for d, _ in pairs]
    for d, g in pairs:
        if not (1 <= d <= n and 1 <= g <= n):
            bad.append(f"pair ({d},{g}) out of range")
        if d >= g:
            bad.append(f"pair ({d},{g}) needs delta < gamma")
        if g not in aset:
            bad.append(f"gamma {g} not in alpha")
        if d in aset:
            bad.append(f"delta {d} lies in alpha")
    support = gammas + deltas + list(beta)
    if len(support) != len(set(support)):
        bad.append("betas, gammas and deltas are not pairwise distinct")
    return bad


def rank(datum: OrbitDatum) -> int:
    """Codimension of the toric part of the stabilizer: the number of pairs."""
    return len(datum.pairs)


def stratum(datum: OrbitDatum) -> int:
    """dim(U cap W) for the GL-orbit containing this B-orbit."""
    d = len(set(datum.alpha) & set(datum.beta))
    n, k, l = datum.n, datum.k, datum.l
    if not max(0, k + l - n) <= d <= min(k, l):
        raise RuntimeError(f"stratum {d} out of range for {datum}")
    return d


# ---------------------------------------------------------------------------
# diagrams and paths


@dataclass(frozen=True)
class YoungDiagram:
    """Young diagram in a height x width box, rows top-down, weakly decreasing.

    The diagram is bounded from below by a lattice path of ``height + width``
    steps from the bottom-left to the top-right corner of the box; step j is
    vertical exactly when j lies in :meth:`vertical_steps`.
    """

    rows: tuple[int, ...]
    height: int
    width: int

    def __post_init__(self):
        if len(self.rows) != self.height:
            raise ValueError("rows must list one length per box row")
        if any(r < 0 or r > self.width for r in self.rows):
            raise ValueError("row lengths must fit the bounding box")
        if any(a < b for a, b in zip(self.rows, self.rows[1:])):
            raise ValueError("row lengths must be weakly decreasing")

    @staticmethod
    def from_vertical_steps(n, vertical) -> "YoungDiagram":
        """Diagram bounded by the path whose vertical steps are ``vertical``."""
        vs = sorted(vertical)
        height = len(vs)
        # i-th vertical step from the bottom has (vs[i] - 1 - i) horizontal
        # steps before it; that is the width of the row just above it.
        rows = tuple(vs[i] - 1 - i for i in range(height))[::-1]
        return YoungDiagram(rows, height, n - height)

    def vertical_steps(self) -> tuple[int, ...]:
        """Ascending step indices where the bounding path goes up."""
        widths = self.rows[::-1]
        return tuple(widths[i] + i + 1 for i in range(self.height))

    @property
    def size(self) -> int:
        return sum(self.rows)


@dataclass(frozen=True)
class MarkedPair:
    """Two bounded Young diagrams with one dotted box per sigma-pair.

    Each dot is recorded as the step-index pair (gamma, delta): the dotted
    box sits above the delta-th step and to the left of the gamma-th step
    in both diagrams.
    """

    first: YoungDiagram
    second: YoungDiagram
    dots: tuple[Pair, ...]


def marked_pair(datum: OrbitDatum) -> MarkedPair:
    """Build the marked pair of diagrams classifying ``datum``."""
    bad = validate(datum)
    if bad:
        raise ValueError("invalid orbit datum: " + "; ".join(bad))
    first = YoungDiagram.from_vertical_steps(datum.n, datum.alpha)
    second = YoungDiagram.from_vertical_steps(datum.n, datum.w_jumps)
    dots = tuple(sorted((g, d) for d, g in datum.pairs))
    return MarkedPair(first, second, dots)


@dataclass(frozen=True)
class CommonDiagram:
    """Intersection shape of two bounding paths.

    Rows are indexed by the steps vertical in both paths (descending),
    columns by the steps horizontal in both paths (ascending); the box
    (v, h) exists exactly when h < v.
    """

    v_steps: tuple[int, ...]
    h_steps: tuple[int, ...]
    boxes: frozenset
    dots: frozenset


def common_diagram(mp: MarkedPair) -> CommonDiagram:
    """Common diagram of a marked pair, with the dots carried over."""
    vs1 = set(mp.first.vertical_steps())
    vs2 = set(mp.second.vertical_steps())
    n = mp.first.height + mp.first.width
    v_steps = tuple(sorted(vs1 & vs2, reverse=True))
    h_steps = tuple(
        j for j in range(1, n + 1) if j not in vs1 and j not in vs2
    )
    hset = set(h_steps)
    boxes = frozenset((v, h) for v in v_steps for h in h_steps if h < v)
    dots = frozenset(mp.dots)
    if not dots <= boxes:
        raise ValueError("corrupted marked pair: dot outside the common diagram")
    return CommonDiagram(v_steps, h_steps, boxes, dots)


def hook_union(cd: CommonDiagram) -> frozenset:
    """Boxes covered by the inward hooks of the dotted boxes.

    The inward hook of a box is the box itself, all boxes above it in its
    column, and all boxes to its left in its row.  Rows sit higher when
    their vertical step index is larger.
    """
    covered = set()
    for g, d in cd.dots:
        covered.update((v, d) for v in cd.v_steps if v >= g)
        covered.update((g, h) for h in cd.h_steps if h <= d)
    return frozenset(covered)


# ---------------------------------------------------------------------------
# dimension


def dimension(datum: OrbitDatum) -> int:
    """Orbit dimension: #Y1 + #Y2 - #Ycom + #H for the marked pair."""
    mp = marked_pair(datum)
    cd = common_diagram(mp)
    return mp.first.size + mp.second.size - len(cd.boxes) + len(hook_union(cd))


def _diagram_size(vertical) -> int:
    # sum over the i-th smallest vertical step a of (a - 1 - i)
    return sum(a - 1 - i for i, a in enumerate(sorted(vertical)))


def _dimension_sets(aset, wset, pairs) -> int:
    """Same value as :func:`dimension`, computed without building diagrams.

    ``aset``/``wset`` are the vertical-step sets of the two paths; used in
    hot loops (graph construction).  Equality with the diagram pipeline is
    a tested invariant.
    """
    both_v = aset & wset
    union_v = aset | wset
    ycom = 0
    for v in both_v:
        ycom += v - 1 - len([x for x in union_v if x < v])
    covered = set()
    for d, g in pairs:
        for v in both_v:
            if v >= g:
                covered.add((v, d))
        for h in range(1, d + 1):
            if h not in union_v:
                covered.add((g, h))
    return (
        _diagram_size(aset) + _diagram_size(wset) - ycom + len(covered)
    )


# ---------------------------------------------------------------------------
# Grassmannian permutations and their reduced words


def grassmannian_permutation(n, vertical_set) -> tuple[int, ...]:
    """One-line permutation sending 1..h to the sorted vertical set."""
    vs = sorted(vertical_set)
    rest = [j for j in range(1, n + 1) if j not in set(vs)]
    return tuple(vs + rest)


def word_permutation(n, word) -> tuple[int, ...]:
    """Product s_{i_1} ... s_{i_r} of the simple transpositions in ``word``.

    Evaluated on the identity by swapping adjacent one-line positions,
    left to right.
    """
    line = list(range(1, n + 1))
    for i in word:
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def inversion_count(perm) -> int:
    return sum(
        1
        for i, j in combinations(range(len(perm)), 2)
        if perm[i] > perm[j]
    )


def is_reduced(n, word) -> bool:
    return inversion_count(word_permutation(n, word)) == len(word)


@dataclass(frozen=True)
class GrassPermutationWord:
    """Reduced word for the Grassmannian permutation of a diagram."""

    n: int
    word: tuple[int, ...]
    target_length: int


def grassmannian_word(n, height, vertical_set) -> GrassPermutationWord:
    """Reduced word for the Grassmannian permutation of ``vertical_set``.

    The box in row r (from the top) and column c contributes the simple
    index height - r + c; rows are scanned bottom-up, each row right to
    left.  The resulting word, evaluated by :func:`word_permutation`,
    multiplies out to :func:`grassmannian_permutation` and has length
    equal to the number of boxes.
    """
    if len(set(vertical_set)) != height:
        raise ValueError("vertical set size must equal the diagram height")
    diagram = YoungDiagram.from_vertical_steps(n, vertical_set)
    word = []
    for r in range(diagram.height, 0, -1):
        row_len = diagram.rows[r - 1]
        for c in range(row_len, 0, -1):
            word.append(diagram.height - r + c)
    return GrassPermutationWord(n, tuple(word), diagram.size)
