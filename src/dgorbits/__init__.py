"""B-orbits in a product of two Grassmannians Gr(k, V) x Gr(l, V).

Combinatorial orbit data, hook-formula dimensions, the weak-order
raising graph, minimal orbits and desingularization words, all
cross-checked against exact linear algebra over Q and GF(p).
"""

from .canonical import (
    canonical_datum,
    canonical_point,
    datum_from_ranks,
    stabilizer_dim_oracle,
    stabilizer_system_prop2,
)
from .linalg import Field, FieldError, QQ
from .poset import (
    PLAIN,
    RANK_RAISING,
    DesingularizationData,
    RaisingEdge,
    WeakOrderGraph,
    build_graph,
    desingularization,
    desingularization_table,
    enumerate_orbits,
    is_minimal,
    lower_candidate,
    minimal_orbits,
    raise_candidate,
    replay_word,
)
from .subspace import Subspace
from .young import (
    CommonDiagram,
    MarkedPair,
    OrbitDatum,
    YoungDiagram,
    common_diagram,
    dimension,
    grassmannian_permutation,
    grassmannian_word,
    hook_union,
    marked_pair,
    rank,
    stratum,
    validate,
)

__all__ = [
    "CommonDiagram",
    "DesingularizationData",
    "Field",
    "FieldError",
    "MarkedPair",
    "OrbitDatum",
    "PLAIN",
    "QQ",
    "RANK_RAISING",
    "RaisingEdge",
    "Subspace",
    "WeakOrderGraph",
    "YoungDiagram",
    "build_graph",
    "canonical_datum",
    "canonical_point",
    "common_diagram",
    "datum_from_ranks",
    "desingularization",
    "desingularization_table",
    "dimension",
    "enumerate_orbits",
    "grassmannian_permutation",
    "grassmannian_word",
    "hook_union",
    "is_minimal",
    "lower_candidate",
    "marked_pair",
    "minimal_orbits",
    "raise_candidate",
    "rank",
    "replay_word",
    "stabilizer_dim_oracle",
    "stabilizer_system_prop2",
    "stratum",
    "validate",
]
