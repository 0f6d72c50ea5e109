"""Exact linear algebra over Q and prime fields.

Vectors are tuples/lists of field elements: ``Fraction`` over Q, plain
ints in [0, p) over GF(p).  No floating point anywhere.  :class:`Field`
owns the arithmetic and fixes it once per field; the elimination kernels
(``SpanReducer``, ``rref``, ``nullspace``) are written once, in terms of
its row operations, and never ask which field they run over.  The central
helper is :class:`SpanReducer`, a row-space accumulator kept in echelon
form with pivots at the *highest* nonzero coordinate; with the standard
flag V_i = <e_1, ..., e_i> this makes flag-relative questions (jump
positions, minimal flag member of a coset) single reductions.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


class FieldError(ValueError):
    pass


class Field:
    """Exact field: Q (``p is None``) or GF(p) for a prime p < 2**31.

    The field owns the arithmetic.  Construction fixes, once per field,
    ``zero``, ``one`` and the two row operations the kernels below are
    written with: ``scale(row, c)``, a new row c * row, and
    ``subtract(v, c, row, stop)``, which sets v[j] -= c * row[j] in place
    for j < stop.  Over GF(p) both reduce mod p.
    """

    __slots__ = ("p", "zero", "one", "scale", "subtract", "_inv_table")

    def __init__(self, p=None):
        if p is not None:
            if not (2 <= p < 2**31) or not _is_prime(p):
                raise FieldError(f"not a valid prime: {p}")
        self.p = p
        self._inv_table = None
        if p is None:
            self.zero, self.one = Fraction(0), Fraction(1)

            def scale(row, c):
                return [x * c for x in row]

            def subtract(v, c, row, stop):
                for j in range(stop):
                    if row[j]:
                        v[j] -= c * row[j]
        else:
            self.zero, self.one = 0, 1
            if p <= 4096:
                self._inv_table = [0] + [pow(a, p - 2, p) for a in range(1, p)]

            def scale(row, c):
                return [x * c % p for x in row]

            def subtract(v, c, row, stop):
                for j in range(stop):
                    if row[j]:
                        v[j] = (v[j] - c * row[j]) % p
        self.scale = scale
        self.subtract = subtract

    def __eq__(self, other):
        return isinstance(other, Field) and self.p == other.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"

    def elem(self, m):
        """Field element from an integer or Fraction."""
        if self.p is None:
            return Fraction(m)
        m = Fraction(m)
        den = m.denominator % self.p
        if not den:
            raise FieldError(
                f"{m} has no value in GF({self.p}): "
                f"its denominator is divisible by {self.p}"
            )
        return m.numerator * self.inv(den) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        if self.p is None:
            return 1 / a
        if self._inv_table is not None:
            return self._inv_table[a]
        return pow(a, self.p - 2, self.p)


QQ = Field()


def _is_prime(m):
    return m >= 2 and all(m % q for q in range(2, isqrt(m) + 1))


class SpanReducer:
    """Accumulates a row space in bottom-pivot echelon form.

    Rows are normalized so the entry at the pivot (the highest nonzero
    coordinate) is 1; reducing a vector eliminates its top coordinate
    repeatedly, so the residual of v is the member of v + span with the
    lowest possible top coordinate.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field, n, vectors=()):
        self.field = field
        self.n = n
        self.rows = {}  # pivot index (0-based) -> normalized row (list)
        for v in vectors:
            self.add(v)

    def copy(self):
        r = SpanReducer.__new__(SpanReducer)
        r.field = self.field
        r.n = self.n
        r.rows = {piv: row[:] for piv, row in self.rows.items()}
        return r

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residual of v modulo the span; a fresh list."""
        v = list(v)
        rows = self.rows
        subtract = self.field.subtract
        for idx in range(self.n - 1, -1, -1):
            c = v[idx]
            if c and idx in rows:
                subtract(v, c, rows[idx], idx + 1)
        return v

    def contains(self, v):
        return not any(self.reduce(v))

    def add(self, v):
        """Insert v; return its pivot index, or None if already in the span."""
        return self.add_reduced(self.reduce(v))

    def add_reduced(self, r):
        """Insert an already-reduced residual (as produced by :meth:`reduce`)."""
        piv = top_index(r)
        if piv is None:
            return None
        if r[piv] == 1:
            self.rows[piv] = list(r)
            return piv
        field = self.field
        self.rows[piv] = field.scale(r, field.inv(r[piv]))
        return piv


def top_index(v):
    """Highest index with a nonzero entry, or None for the zero vector."""
    for idx in range(len(v) - 1, -1, -1):
        if v[idx]:
            return idx
    return None


def rref(rows, field, ncols):
    """Reduced row echelon form (leftmost pivots); zero rows dropped.

    Returns (rref_rows, pivot_column_indices).
    """
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = field.scale(mat[r], field.inv(mat[r][c]))
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                field.subtract(mat[i], mat[i][c], mat[r], len(mat[r]))
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [mat[i] for i in range(r)], pivots


def nullspace(rows, field, ncols):
    """Basis of {x : M x = 0} with M given by ``rows`` of length ``ncols``."""
    red, pivots = rref(rows, field, ncols)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [field.zero] * ncols
        v[free] = field.one
        # the pivot variable of each row is minus the row's free entry
        for pc, x in zip(pivots, field.scale([row[free] for row in red], -1)):
            v[pc] = x
        basis.append(v)
    return basis


def int_matrix_rank(rows):
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    mat = [list(r) for r in rows if any(r)]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, len(mat)):
            ri = mat[i]
            f = ri[c]
            for j in range(c, ncols):
                ri[j] = (pr[c] * ri[j] - f * pr[j]) // prev
        prev = pr[c]
        rank += 1
        if rank == len(mat):
            break
    return rank
