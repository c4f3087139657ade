"""Exact linear algebra.

Every decision is made by one fraction-free elimination over the integers,
:func:`echelon`: no floating point, no rounding, arbitrary-precision
integers underneath.  Rational input is scaled to integers first.  All
functions here are pure, so identical inputs always give bit-identical
outputs.  Vectors are canonicalized (integer entries, content 1, first
nonzero entry positive) so they can be frozen in golden tests.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

# nonzero rows of a reduced echelon form, and their pivot columns
EchelonForm = tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]

__all__ = [
    "Rational",
    "RationalMatrix",
    "parse_rational",
    "integer_vector",
]


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer literal into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _cleared(vec: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """The vector times the lcm of its denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in vec))
    return [v.numerator * (scale // v.denominator) for v in vec], scale


def integer_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Canonicalize a rational vector up to scale.

    Scales to integer entries with content 1 and first nonzero entry
    positive.  The zero vector maps to itself.
    """
    ints = list(vec)
    if not all(type(v) is int for v in ints):
        ints = _cleared([Fraction(v) for v in ints])[0]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def _reduce(basis: Iterable[tuple[int, tuple[int, ...]]], vec: Sequence[int]) -> Sequence[int]:
    """Clear the pivot column of every (pivot, row) pair from an integer
    vector by integer row operations; zero exactly when vec is in their span."""
    for pivot, row in basis:
        f = vec[pivot]
        if f:
            vec = [row[pivot] * a - f * b for a, b in zip(vec, row)]
    return vec


def echelon(rows: Iterable[Sequence[int]]) -> EchelonForm:
    """Reduced row echelon form of integer rows, without fractions.

    Returns the nonzero rows, each scaled by :func:`integer_vector` to
    content 1 with a positive pivot, in ascending pivot order, and their
    pivot columns.  The form is unique for a row space, so it doubles as
    the key of a span; its length is the rank.
    """
    basis: dict[int, tuple[int, ...]] = {}  # pivot column -> row
    for row in rows:
        vec = _reduce(basis.items(), row)
        lead = next((k for k, x in enumerate(vec) if x), None)
        if lead is None:
            continue
        vec = integer_vector(vec)
        for pivot, other in basis.items():
            f = other[lead]
            if f:
                basis[pivot] = integer_vector(
                    [vec[lead] * a - f * b for a, b in zip(other, vec)]
                )
        basis[lead] = vec
    pivots = tuple(sorted(basis))
    return tuple(basis[p] for p in pivots), pivots


def in_span(form: EchelonForm, vec: Sequence[int]) -> bool:
    """Whether an integer vector lies in the row space of an echelon form."""
    rows, pivots = form
    return not any(_reduce(zip(pivots, rows), vec))


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

    def rank(self) -> int:
        """Exact rank over the rationals.

        Clearing each row's denominators scales the row, which leaves the
        rank unchanged.
        """
        return len(echelon(_cleared(self.row(i))[0] for i in range(self.rows))[1])

    def inverse(self) -> "RationalMatrix":
        """Exact inverse of a square matrix; raises on a singular input.

        With the rows scaled to integers, A_int = diag(s) A, the inverse is
        A_int^-1 diag(s); A_int^-1 is read off the echelon form of
        [A_int | I].
        """
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        cleared = [_cleared(self.row(i)) for i in range(n)]
        rows, pivots = echelon(
            ints + [int(i == j) for j in range(n)] for i, (ints, _) in enumerate(cleared)
        )
        if pivots != tuple(range(n)):
            raise ValueError("matrix is singular")
        return RationalMatrix(
            n,
            n,
            [
                Fraction(row[n + j] * cleared[j][1], row[i])
                for i, row in enumerate(rows)
                for j in range(n)
            ],
        )
