"""Checks on the program's outputs that do not trust the program.

Everything here works on plain data: an orbit datum is a tuple
``(alpha, beta, pairs)`` of sorted tuples, exactly as the JSON output
and :class:`OrbitDatum` spell it.  The expected values come from the
definitions and from F_q point counting, worked out by this module's
own code:

* the orbit data of (n, k, l) are enumerated from their definition;
* the F_q-points of a B-orbit of dimension ``dim`` and rank ``r`` number
  (q-1)^r q^(dim-r), and the orbits of the GL-stratum dim(U cap W) = d
  together hold [n k]_q q^((k-d)(l-d)) [k d]_q [n-k, l-d]_q points, so
  summing over the stratum gives a polynomial identity in q;
* the open B-orbit of stratum d has the dimension of the GL-orbit,
  k(n-k) + d(k-d) + (l-d)(n-l);
* the minimal orbits of stratum d are the C(k+l-2d, k-d) data with
  alpha cap beta = [1, d], alpha cup beta = [1, k+l-d] and no pairs,
  of dimension (k-d)(l-d).

Every ``check_*`` function returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import combinations, permutations
from math import comb

MAX_PROBLEMS = 10


# ---------------------------------------------------------------------------
# orbit data from the definition


def orbit_data(n, k, l):
    """Every orbit datum of (n, k, l), built from the definition."""
    out = []
    positions = range(1, n + 1)
    for alpha in combinations(positions, k):
        outside = [x for x in positions if x not in alpha]
        for r in range(min(k, l) + 1):
            for gammas in combinations(alpha, r):
                for deltas in permutations(outside, r):
                    if any(d >= g for d, g in zip(deltas, gammas)):
                        continue
                    used = set(gammas) | set(deltas)
                    rest = [x for x in positions if x not in used]
                    pairs = tuple(sorted(zip(deltas, gammas)))
                    for beta in combinations(rest, l - r):
                        out.append((alpha, beta, pairs))
    return out


def is_datum(n, k, l, datum):
    """Whether a plain datum satisfies the definition of an orbit datum."""
    alpha, beta, pairs = datum
    aset = set(alpha)
    support = list(beta) + [x for pair in pairs for x in pair]
    return (
        list(alpha) == sorted(aset) and len(alpha) == k
        and list(beta) == sorted(set(beta)) and len(beta) + len(pairs) == l
        and list(pairs) == sorted(pairs)
        and all(1 <= x <= n for x in list(alpha) + support)
        and all(d < g and g in aset and d not in aset for d, g in pairs)
        and len(support) == len(set(support))
    )


def stratum_of(datum):
    alpha, beta, _ = datum
    return len(set(alpha) & set(beta))


def cell_of(datum):
    """(stratum, rank): the cells over which inputs are spread."""
    return stratum_of(datum), len(datum[2])


def branch_mix(n, data):
    """Flag positions per branch of the canonical-form case analysis.

    Position r is 'both' when e_r lies in U+Z and W+Z, 'U only' or 'W
    only' when in one, 'two-term' when it is the delta of a pair (its
    gamma partner is then consumed with it and counted as 'U only'),
    and 'free' when it lies in neither U+W+Z.
    """
    mix = Counter()
    for alpha, beta, pairs in data:
        both = len(set(alpha) & set(beta))
        mix["both"] += both
        mix["U only"] += len(alpha) - both
        mix["W only"] += len(beta) - both
        mix["two-term"] += len(pairs)
        mix["free"] += n - len(set(alpha) | set(beta)) - len(pairs)
    return dict(mix)


def is_minimal_shape(k, l, datum):
    alpha, beta, pairs = datum
    d = stratum_of(datum)
    return (
        not pairs
        and set(alpha) & set(beta) == set(range(1, d + 1))
        and set(alpha) | set(beta) == set(range(1, k + l - d + 1))
    )


def open_orbit_dim(n, k, l, d):
    """Dimension of the GL-orbit of pairs with dim(U cap W) = d."""
    return k * (n - k) + d * (k - d) + (l - d) * (n - l)


# ---------------------------------------------------------------------------
# polynomials in q: coefficient lists, lowest degree first


def _padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out)


def _trim(a):
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def gaussian_binomial(n, k):
    """[n k]_q by the recursion [n k] = [n-1 k-1] + q^k [n-1 k]."""
    if k < 0 or k > n:
        return [0]
    row = [[1]]  # row[j] = [m j]_q for the current m
    for m in range(1, n + 1):
        new = []
        for j in range(m + 1):
            left = row[j - 1] if j >= 1 else [0]
            right = [0] * j + row[j] if j < m else [0]
            new.append(_padd(left, right))
        row = new
    return row[k]


def orbit_point_count(dim, rank):
    """(q-1)^rank q^(dim-rank) as a polynomial in q."""
    poly = [1]
    for _ in range(rank):
        poly = _pmul(poly, [-1, 1])
    return [0] * (dim - rank) + poly


def stratum_point_count(n, k, l, d):
    """F_q-points of Gr(k,n) x Gr(l,n) with dim(U cap W) = d."""
    poly = _pmul(gaussian_binomial(n, k), gaussian_binomial(k, d))
    poly = _pmul(poly, gaussian_binomial(n - k, l - d))
    return [0] * ((k - d) * (l - d)) + poly


def _summed_point_counts(n, k, l, dims_by_datum, problems):
    """Compare Σ (q-1)^rank q^(dim-rank), stratum by stratum and in total."""
    by_stratum = {}
    for datum, dim in dims_by_datum.items():
        d = stratum_of(datum)
        by_stratum[d] = _padd(
            by_stratum.get(d, [0]), orbit_point_count(dim, len(datum[2]))
        )
    total = [0]
    for d in range(max(0, k + l - n), min(k, l) + 1):
        got = by_stratum.pop(d, [0])
        total = _padd(total, got)
        if got != stratum_point_count(n, k, l, d):
            problems.append(f"stratum {d}: F_q point count {got} is wrong")
    if by_stratum:
        problems.append(f"data in impossible strata {sorted(by_stratum)}")
    expected = _pmul(gaussian_binomial(n, k), gaussian_binomial(n, l))
    if total != expected:
        problems.append(
            f"sum of (q-1)^rank q^(dim-rank) is {total}, "
            f"[n k]_q [n l]_q is {expected}"
        )


# ---------------------------------------------------------------------------
# permutations


def word_product(n, word):
    """s_{i_1} ... s_{i_r} in one-line notation, by swapping positions."""
    line = list(range(1, n + 1))
    for i in word:
        if not 1 <= i < n:
            return None
        line[i - 1], line[i] = line[i], line[i - 1]
    return tuple(line)


def inversions(perm):
    return sum(1 for i, j in combinations(range(len(perm)), 2)
               if perm[i] > perm[j])


def grassmannian_perm(n, vertical):
    vs = sorted(vertical)
    return tuple(vs + [j for j in range(1, n + 1) if j not in set(vs)])


def _schubert_word_problems(n, word, vertical, label):
    perm = word_product(n, word)
    if perm is None:
        return [f"{label} word {word} has a letter outside [1, n-1]"]
    problems = []
    if inversions(perm) != len(word):
        problems.append(f"{label} word {word} is not reduced")
    if perm != grassmannian_perm(n, vertical):
        problems.append(
            f"{label} word {word} multiplies to {perm}, not to the "
            f"Grassmannian permutation of {tuple(vertical)}"
        )
    return problems


# ---------------------------------------------------------------------------
# workload checks


def json_datum(obj):
    return (
        tuple(obj["alpha"]),
        tuple(obj["beta"]),
        tuple(tuple(p) for p in obj["sigma_pairs"]),
    )


def check_graph(n, k, l, text, table, minimal_orbits):
    """A serialized weak-order graph and its desingularization table.

    ``minimal_orbits(d)`` gives the program's minimal orbits of stratum d
    as plain data; the graph's sources must equal them.
    """
    problems = []
    obj = json.loads(text)
    if (obj["n"], obj["k"], obj["l"]) != (n, k, l):
        return [f"graph header {obj['n'], obj['k'], obj['l']} != {n, k, l}"]
    nodes = obj["nodes"]
    if [nd["id"] for nd in nodes] != list(range(len(nodes))):
        return ["node ids are not 0..N-1 in order"]
    data = [json_datum(nd["datum"]) for nd in nodes]
    dims = [nd["dim"] for nd in nodes]
    ranks = [nd["rank"] for nd in nodes]
    strata = [nd["stratum"] for nd in nodes]
    expected = orbit_data(n, k, l)
    if set(data) != set(expected) or len(set(data)) != len(data):
        problems.append(
            f"graph has {len(data)} nodes ({len(set(data))} distinct), not "
            f"the {len(expected)} orbit data of {n, k, l}"
        )
    for datum, rank, st in zip(data, ranks, strata):
        if rank != len(datum[2]) or st != stratum_of(datum):
            problems.append(f"rank/stratum of {datum} recorded as {rank}/{st}")
    _summed_point_counts(n, k, l, dict(zip(data, dims)), problems)

    out_deg = [0] * len(nodes)
    in_deg = [0] * len(nodes)
    step = {}
    for e in obj["edges"]:
        s, t, i, kind = e["source"], e["target"], e["simpleIndex"], e["kind"]
        if not (0 <= s < len(nodes) and 0 <= t < len(nodes) and 1 <= i < n):
            problems.append(f"edge {e} out of range")
            continue
        out_deg[s] += 1
        in_deg[t] += 1
        step[s, i] = t
        if dims[t] != dims[s] + 1:
            problems.append(f"edge {e} raises dim {dims[s]} -> {dims[t]}")
        if strata[t] != strata[s]:
            problems.append(f"edge {e} crosses strata")
        want = "RANK_RAISING" if ranks[t] == ranks[s] + 1 else "PLAIN"
        if kind != want or ranks[t] not in (ranks[s], ranks[s] + 1):
            problems.append(f"edge {e} has kind {kind}, ranks "
                            f"{ranks[s]} -> {ranks[t]}")

    sources_of = {}
    for d in sorted(set(strata)):
        members = [v for v in range(len(nodes)) if strata[v] == d]
        sinks = [v for v in members if not out_deg[v]]
        if len(sinks) != 1:
            problems.append(f"stratum {d} has {len(sinks)} sinks")
        elif dims[sinks[0]] != open_orbit_dim(n, k, l, d):
            problems.append(
                f"stratum {d}: open orbit has dim {dims[sinks[0]]}, "
                f"expected {open_orbit_dim(n, k, l, d)}"
            )
        sources = {v for v in members if not in_deg[v]}
        sources_of[d] = sources
        mins = set(minimal_orbits(d))
        if {data[v] for v in sources} != mins:
            problems.append(f"stratum {d}: sources differ from minimal_orbits")
        if len(mins) != comb(k + l - 2 * d, k - d):
            problems.append(f"stratum {d}: {len(mins)} minimal orbits")
        for v in sources:
            if not is_minimal_shape(k, l, data[v]) or (
                dims[v] != (k - d) * (l - d)
            ):
                problems.append(f"source {data[v]} dim {dims[v]} is not "
                                f"a minimal orbit of stratum {d}")

    if set(table) != set(range(len(nodes))):
        return problems + ["desingularization table does not match the graph"]
    for v, (word, mid) in sorted(table.items()):
        if mid not in sources_of[strata[v]]:
            problems.append(f"vertex {v}: start {mid} is not a source of its "
                            "stratum")
            continue
        if len(word) != dims[v] - dims[mid]:
            problems.append(f"vertex {v}: word length {len(word)} != "
                            f"{dims[v]} - {dims[mid]}")
        at = mid
        for i in word:
            at = step.get((at, i))
            if at is None:
                break
        if at != v:
            problems.append(f"vertex {v}: word {word} from {mid} ends at {at}")
        if len(problems) > MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]


def check_desing(n, k, l, target, text, replay):
    """One ``desing`` answer; ``replay(minimal, word)`` runs the raisings."""
    problems = []
    obj = json.loads(text)
    got_target = json_datum(obj["target"])
    minimal = json_datum(obj["minimal"])
    word = tuple(obj["word"])
    if got_target != target:
        problems.append(f"answer is for {got_target}, asked for {target}")
    d = stratum_of(target)
    for name, part in (("target", obj["target"]), ("minimal", obj["minimal"])):
        if (part["n"], part["k"], part["l"]) != (n, k, l):
            problems.append(f"{name} has the wrong (n, k, l)")
        datum = json_datum(part)
        derived = part["derived"]
        if derived["rank"] != len(datum[2]) or (
            derived["stratum"] != stratum_of(datum)
        ):
            problems.append(f"{name} derived block {derived} is wrong")
    mdim = obj["minimal"]["derived"]["dim"]
    tdim = obj["target"]["derived"]["dim"]
    if not is_minimal_shape(k, l, minimal) or stratum_of(minimal) != d:
        problems.append(f"minimal {minimal} is not a minimal orbit of "
                        f"stratum {d}")
    if mdim != (k - d) * (l - d) or obj["minimal"]["derived"]["rank"] != 0:
        problems.append(f"minimal orbit has dim {mdim}, expected "
                        f"{(k - d) * (l - d)} and rank 0")
    if len(word) != tdim - mdim:
        problems.append(f"word length {len(word)} != {tdim} - {mdim}")
    if replay(minimal, word) != target:
        problems.append(f"word {word} from {minimal} does not reach {target}")
    problems += _schubert_word_problems(n, obj["bsFirst"], minimal[0], "first")
    problems += _schubert_word_problems(n, obj["bsSecond"], minimal[1],
                                        "second")
    return problems


def check_sweep(n, k, l, q, results, dimension):
    """Canonical data of every F_q-point pair, one result per pair.

    Each orbit datum must be hit (q-1)^rank q^(dim-rank) times, with
    ``dimension(datum)`` the program's hook formula, and the hits must
    add up to [n k]_q [n l]_q.
    """
    problems = []
    hits = Counter(results)
    bad = [datum for datum in hits if not is_datum(n, k, l, datum)]
    if bad:
        problems.append(f"{len(bad)} results are not orbit data, "
                        f"e.g. {bad[0]}")
    expected = set(orbit_data(n, k, l))
    missing = expected - set(hits)
    if missing:
        problems.append(f"{len(missing)} orbit data never hit, "
                        f"e.g. {min(missing)}")
    for datum in sorted(expected & set(hits)):
        rank = len(datum[2])
        want = (q - 1) ** rank * q ** (dimension(datum) - rank)
        if hits[datum] != want:
            problems.append(f"{datum} hit {hits[datum]} times, "
                            f"expected {want}")
        if len(problems) > MAX_PROBLEMS:
            break
    gn = gaussian_binomial(n, k)
    gl = gaussian_binomial(n, l)
    total = sum(c * q ** i for i, c in enumerate(_pmul(gn, gl)))
    if len(results) != total:
        problems.append(f"{len(results)} pairs classified, "
                        f"[n k]_q [n l]_q = {total} at q = {q}")
    return problems[:MAX_PROBLEMS]


def check_verify(results):
    """(datum, hook, system, oracle, classified) records over Q."""
    problems = []
    for datum, hook, system, oracle, back in results:
        if not hook == system == oracle:
            problems.append(f"{datum}: hook {hook}, system {system}, "
                            f"oracle {oracle}")
        if back != datum:
            problems.append(f"B-moved point of {datum} classified as {back}")
        if len(problems) > MAX_PROBLEMS:
            break
    return problems[:MAX_PROBLEMS]
