"""JSON, DOT, and matrix-text serialization.

Orbit data serialize to flat JSON objects with sorted index arrays and
the sigma pairs as [delta, gamma] lists; the optional derived block is
checked against recomputation when reading.  Graphs are written, not
read: as DOT (for rendering) or JSON.  The matrix text format feeds
explicit subspace pairs to the command line:

    field Q          (or: field 5)
    n k l
    <k columns of U, column-major>
                     (blank line)
    <l columns of W, column-major>

The prime p and the sizes are ASCII digits; entries are integers or a/b
in ASCII digits, like -3/4.  Over GF(p) entries are reduced mod p, and a
denominator divisible by p is refused.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .linalg import Field, QQ
from .poset import DesingularizationData, WeakOrderGraph
from .subspace import Subspace
from .young import (
    CANONICAL_MAX_N_GF,
    CANONICAL_MAX_N_Q,
    OrbitDatum,
    check_bounds,
    dimension,
    rank,
    stratum,
    validate,
)


# ---------------------------------------------------------------------------
# orbit data


def datum_to_json(datum: OrbitDatum, derived: bool = False) -> dict:
    obj = {
        "n": datum.n,
        "k": datum.k,
        "l": datum.l,
        "alpha": list(datum.alpha),
        "beta": list(datum.beta),
        "sigma_pairs": [[d, g] for d, g in datum.pairs],
    }
    if derived:
        obj["derived"] = {
            "dim": dimension(datum),
            "rank": rank(datum),
            "stratum": stratum(datum),
        }
    return obj


def _json_int(value, what):
    """``value`` if it is a JSON integer; refuses bools, floats, strings."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


# The keys datum_to_json writes; datum_from_json refuses any other.
_DATUM_KEYS = {"n", "k", "l", "alpha", "beta", "sigma_pairs", "derived"}


def datum_from_json(obj: dict) -> OrbitDatum:
    try:
        n, k, l = (_json_int(obj[key], key) for key in ("n", "k", "l"))
        datum = OrbitDatum.make(
            n, k, l,
            [_json_int(a, "alpha entry") for a in obj["alpha"]],
            [_json_int(b, "beta entry") for b in obj["beta"]],
            [
                (_json_int(d, "delta"), _json_int(g, "gamma"))
                for d, g in obj.get("sigma_pairs", [])
            ],
        )
        derived = obj.get("derived")
        if derived is not None:
            derived = {
                key: _json_int(derived[key], key)
                for key in ("dim", "rank", "stratum")
            }
        unknown = [key for key in obj if key not in _DATUM_KEYS] + [
            key for key in obj.get("derived") or () if key not in derived
        ]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed orbit datum JSON: {exc}") from exc
    bad = validate(datum)
    if bad:
        raise ValueError("invalid orbit datum: " + "; ".join(bad))
    if derived is not None:
        fresh = datum_to_json(datum, derived=True)["derived"]
        if derived != fresh:
            raise ValueError(
                f"derived block {derived} does not match recomputation {fresh}"
            )
    return datum


# ---------------------------------------------------------------------------
# graphs


def _vertex_strata(graph: WeakOrderGraph) -> list:
    """The stratum of each vertex, read from ``graph.strata``."""
    out = [None] * len(graph.vertices)
    for d, vids in graph.strata.items():
        for vid in vids:
            out[vid] = d
    return out


def graph_to_json(graph: WeakOrderGraph) -> dict:
    strata_of = _vertex_strata(graph)
    return {
        "n": graph.n,
        "k": graph.k,
        "l": graph.l,
        "nodes": [
            {
                "id": vid,
                "datum": datum_to_json(datum),
                "dim": graph.dims[vid],
                "rank": rank(datum),
                "stratum": strata_of[vid],
            }
            for vid, datum in enumerate(graph.vertices)
        ],
        "edges": [
            {
                "source": e.source,
                "target": e.target,
                "simpleIndex": e.simple_index,
                "kind": e.kind,
            }
            for e in graph.edges
        ],
    }


def _dot_label(datum: OrbitDatum) -> str:
    parts = [
        "a=" + ",".join(map(str, datum.alpha)),
        "b=" + ",".join(map(str, datum.beta)),
    ]
    if datum.pairs:
        parts.append(
            "s=" + ",".join(f"({d} {g})" for d, g in datum.pairs)
        )
    return " ".join(parts)


def graph_to_dot(graph: WeakOrderGraph) -> str:
    lines = [f'digraph weak_order_{graph.n}_{graph.k}_{graph.l} {{']
    lines.append("  rankdir=BT;")
    strata_of = _vertex_strata(graph)
    for vid, datum in enumerate(graph.vertices):
        lines.append(
            f'  v{vid} [label="{_dot_label(datum)}" dim={graph.dims[vid]} '
            f"rank={rank(datum)} stratum={strata_of[vid]}];"
        )
    for e in graph.edges:
        lines.append(
            f'  v{e.source} -> v{e.target} '
            f'[label="{e.simple_index}" kind={e.kind}];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def desing_to_json(dd: DesingularizationData) -> dict:
    return {
        "target": datum_to_json(dd.target, derived=True),
        "minimal": datum_to_json(dd.minimal, derived=True),
        "word": list(dd.word),
        "bsFirst": list(dd.bs_first),
        "bsSecond": list(dd.bs_second),
    }


# ---------------------------------------------------------------------------
# matrix text format


_ENTRY = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_DIGITS = re.compile(r"[0-9]+")


def _parse_scalar(token: str, field: Field):
    match = _ENTRY.fullmatch(token)
    if match is None:
        raise ValueError(f"bad matrix entry {token!r}: not an integer or a/b")
    num, den = match.groups()
    try:
        return field.elem(Fraction(int(num), int(den)) if den else int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad matrix entry {token!r}: {exc}") from exc


def parse_matrix_text(text: str):
    """Parse the matrix text format into a Subspace pair (U, W).

    n is refused above :data:`~dgorbits.young.CANONICAL_MAX_N_Q` over Q
    and :data:`~dgorbits.young.CANONICAL_MAX_N_GF` over GF(p), before any
    entry is read.
    """
    lines = text.splitlines()
    header = [ln for ln in lines[:2]]
    if len(header) < 2:
        raise ValueError("matrix file needs a field line and a size line")
    field_parts = header[0].split()
    if len(field_parts) != 2 or field_parts[0] != "field":
        raise ValueError(f"bad field line {header[0]!r}: expected 'field Q|q'")
    if field_parts[1] in ("Q", "QQ"):
        field = QQ
    elif not _DIGITS.fullmatch(field_parts[1]):
        raise ValueError(
            f"bad field {field_parts[1]!r}: not Q or ASCII digits"
        )
    else:
        try:
            field = Field(int(field_parts[1]))
        except ValueError as exc:
            raise ValueError(f"bad field {field_parts[1]!r}: {exc}") from exc
    sizes = header[1].split()
    for token in sizes:
        if not _DIGITS.fullmatch(token):
            raise ValueError(
                f"bad size {token!r} in {header[1]!r}: not ASCII digits"
            )
    try:
        n, k, l = (int(x) for x in sizes)
    except ValueError as exc:
        raise ValueError(f"bad size line {header[1]!r}: {exc}") from exc
    check_bounds(n, k, l)
    name, limit = (
        ("CANONICAL_MAX_N_Q", CANONICAL_MAX_N_Q) if field.p is None
        else ("CANONICAL_MAX_N_GF", CANONICAL_MAX_N_GF)
    )
    if n > limit:
        raise ValueError(
            f"n={n} is over the limit {name}={limit} for a matrix pair "
            f"over {field_parts[1]}"
        )
    blocks = []
    current = []
    for ln in lines[2:]:
        if ln.strip():
            current.extend(ln.split())
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    if len(blocks) != 2:
        raise ValueError(
            f"expected two blank-line-separated blocks (U then W), "
            f"got {len(blocks)}"
        )
    spaces = []
    for block, count, name in ((blocks[0], k, "U"), (blocks[1], l, "W")):
        if len(block) != n * count:
            raise ValueError(
                f"block for {name} has {len(block)} entries, "
                f"expected {n} x {count}"
            )
        cols = [
            [_parse_scalar(block[j * n + i], field) for i in range(n)]
            for j in range(count)
        ]
        try:
            spaces.append(Subspace(field, n, cols))
        except ValueError as exc:
            raise ValueError(f"bad basis for {name}: {exc}") from exc
    return spaces[0], spaces[1]


def format_matrix_text(U: Subspace, W: Subspace) -> str:
    """Inverse of :func:`parse_matrix_text` for canonical points."""
    U._check_compatible(W)
    field = "Q" if U.field.p is None else str(U.field.p)
    out = [f"field {field}", f"{U.n} {U.dim} {W.dim}"]
    for space in (U, W):
        for col in space.columns:
            out.append(" ".join(str(x) for x in col))
        out.append("")
    return "\n".join(out)
