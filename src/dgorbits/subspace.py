"""Subspaces of K^n in standard-flag coordinates.

A :class:`Subspace` is a checked basis: its columns have length n, lie
in the field, and are linearly independent.  The matrix-text reader and
:func:`~dgorbits.canonical.canonical_point` return subspaces, and
:func:`~dgorbits.canonical.canonical_datum` classifies a pair of them;
all linear algebra on a subspace works on its columns.
"""

from __future__ import annotations

# rref is not called here: the benchmark's tracer wraps it at subspace.rref
from .linalg import Field, SpanReducer, rref


class Subspace:
    """Column span of an exact-arithmetic basis matrix."""

    __slots__ = ("field", "n", "columns")

    def __init__(self, field: Field, n: int, columns):
        cols = [tuple(field.elem(x) for x in col) for col in columns]
        for col in cols:
            if len(col) != n:
                raise ValueError(f"column of length {len(col)} in ambient {n}")
        red = SpanReducer(field, n)
        for j, col in enumerate(cols):
            if red.add(col) is None:
                raise ValueError(f"basis column {j + 1} depends on the others")
        self.field = field
        self.n = n
        self.columns = tuple(cols)

    @property
    def dim(self) -> int:
        return len(self.columns)

    def __repr__(self):
        return f"Subspace({self.field}, n={self.n}, dim={self.dim})"

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")
