"""Subspaces of K^n in standard-flag coordinates.

A :class:`Subspace` stores an explicit basis (as column vectors) and a
cached reduced row echelon form; two subspaces compare equal exactly
when they are the same subspace, which makes them usable as dictionary
keys in orbit-partition sweeps.
"""

from __future__ import annotations

from .linalg import Field, QQ, SpanReducer, rref


class Subspace:
    """Column span of an exact-arithmetic basis matrix."""

    __slots__ = ("field", "n", "columns", "_reduced")

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
        self._reduced = None

    @staticmethod
    def spanned_by(field, n, columns) -> "Subspace":
        """Span of arbitrary vectors; dependent ones are dropped."""
        red = SpanReducer(field, n)
        kept = []
        for col in columns:
            col = tuple(field.elem(x) for x in col)
            if red.add(col) is not None:
                kept.append(col)
        return Subspace(field, n, kept)

    @staticmethod
    def flag_member(field, n, i) -> "Subspace":
        """The flag subspace V_i spanned by the first i coordinates."""
        cols = [[field.one if r == j else field.zero for r in range(n)]
                for j in range(i)]
        return Subspace(field, n, cols)

    @property
    def dim(self) -> int:
        return len(self.columns)

    def reduced(self):
        """Unique reduced row echelon basis (tuple of row tuples)."""
        if self._reduced is None:
            rows, _ = rref([list(c) for c in self.columns], self.field, self.n)
            self._reduced = tuple(tuple(r) for r in rows)
        return self._reduced

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.n == other.n
            and self.reduced() == other.reduced()
        )

    def __hash__(self):
        return hash((self.field, self.n, self.reduced()))

    def __repr__(self):
        return f"Subspace({self.field}, n={self.n}, dim={self.dim})"

    def _check_compatible(self, other):
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.n != other.n:
            raise ValueError("ambient dimension mismatch")

    def sum(self, other) -> "Subspace":
        self._check_compatible(other)
        return Subspace.spanned_by(
            self.field, self.n, list(self.columns) + list(other.columns)
        )

    def intersection(self, other) -> "Subspace":
        """Zassenhaus: in the rref of the rows (u | u) for u in self and
        (w | 0) for w in other, the rows (0 | x) span the intersection."""
        self._check_compatible(other)
        n = self.n
        zeros = [self.field.zero] * n
        rows = [list(u) * 2 for u in self.columns]
        rows += [list(w) + zeros for w in other.columns]
        red, pivots = rref(rows, self.field, 2 * n)
        return Subspace(
            self.field, n,
            [row[n:] for row, pc in zip(red, pivots) if pc >= n],
        )

    def jumps(self) -> tuple[int, ...]:
        """Positions i where dim(self cap V_i) > dim(self cap V_{i-1}).

        These are exactly the bottom pivots of the basis.
        """
        red = SpanReducer(self.field, self.n, self.columns)
        return tuple(piv + 1 for piv in red.pivots())
