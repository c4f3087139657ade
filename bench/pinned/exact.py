"""Exact rational linear algebra.

Everything in this package is computed over ``fractions.Fraction``: no
floating point, no rounding, arbitrary-precision integers underneath.  All
functions here are pure, so identical inputs always give bit-identical
outputs.  Kernel vectors are canonicalized (integer entries, content 1,
first nonzero entry positive) so they can be frozen in golden tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

Rational = Fraction

__all__ = [
    "Rational",
    "RationalMatrix",
    "parse_rational",
    "integer_vector",
    "span_dimension",
]


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer literal into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def integer_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Canonicalize a rational vector up to scale.

    Scales to integer entries with content 1 and first nonzero entry
    positive.  The zero vector maps to itself.
    """
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for v in fracs:
        denom = denom * v.denominator // gcd(denom, v.denominator)
    ints = [int(v * denom) for v in fracs]
    g = 0
    for v in ints:
        g = gcd(g, abs(v))
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v != 0:
            if v < 0:
                ints = [-u for u in ints]
            break
    return tuple(ints)


class RationalMatrix:
    """Dense matrix over the rationals, stored row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Iterable[Fraction | int]):
        data = tuple(Fraction(e) for e in entries)
        if len(data) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(data)}")
        self.rows = rows
        self.cols = cols
        self.entries = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Fraction | int]]) -> "RationalMatrix":
        if not rows:
            raise ValueError("matrix needs at least one row")
        width = len(rows[0])
        for r in rows:
            if len(r) != width:
                raise ValueError("ragged rows")
        return cls(len(rows), width, [e for r in rows for e in r])

    def at(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"RationalMatrix({self.rows}x{self.cols}: {body})"

    def _rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form; returns (rows, pivot columns)."""
        m = [list(self.row(i)) for i in range(self.rows)]
        pivots: list[int] = []
        r = 0
        for c in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot is None:
                continue
            m[r], m[pivot] = m[pivot], m[r]
            inv = m[r][c]
            m[r] = [e / inv for e in m[r]]
            for i in range(self.rows):
                if i != r and m[i][c] != 0:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        """Exact rank over the rationals, by Gaussian elimination."""
        return len(self._rref()[1])

    def kernel_basis(self) -> list[tuple[int, ...]]:
        """Canonical basis of the right null space.

        One basis vector per free column, in ascending column order.  The
        dimension is ``cols - rank``; each vector is canonicalized with
        :func:`integer_vector`.
        """
        m, pivots = self._rref()
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = [Fraction(0)] * self.cols
            vec[free] = Fraction(1)
            for r, pc in enumerate(pivots):
                vec[pc] = -m[r][free]
            basis.append(integer_vector(vec))
        return basis

    def inverse(self) -> "RationalMatrix":
        """Exact inverse of a square matrix; raises on a singular input."""
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        aug = RationalMatrix.from_rows(
            [list(self.row(i)) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        )
        m, pivots = aug._rref()
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix.from_rows([m[i][n:] for i in range(n)])

    def apply(self, vec: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length does not match column count")
        v = [Fraction(x) for x in vec]
        return tuple(
            sum((self.at(i, j) * v[j] for j in range(self.cols)), Fraction(0))
            for i in range(self.rows)
        )


def span_dimension(points: Sequence[Sequence[Fraction | int]]) -> int:
    """Projective dimension of the span of the given points.

    Each point is a nonzero homogeneous coordinate vector; the result is
    rank of the stacked matrix minus one.  Rejects zero vectors, since a
    zero vector is not a projective point.
    """
    if not points:
        raise ValueError("span of an empty point set is undefined")
    for p in points:
        if all(Fraction(x) == 0 for x in p):
            raise ValueError("zero vector is not a projective point")
    return RationalMatrix.from_rows(points).rank() - 1
