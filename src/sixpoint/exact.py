"""Exact linear algebra.

Every rank, span, span membership and inverse comes from one fraction-free
elimination over the integers, :func:`echelon`: no floating point, no
rounding, arbitrary-precision integers underneath.  A vector lies in a span
exactly when adding it to the span's echelon rows leaves the rank unchanged.
The plane is the exception: its lines and its conic test (in ``stability``)
and its projective frames (in ``strata``) are cross products; six points lie
on a conic when a bracket identity between products of 3 x 3 determinants
holds.  Rational input is scaled to integers first.  All functions here are
pure, so identical inputs always give bit-identical outputs.  Vectors are
canonicalized (integer entries, content 1, first nonzero entry positive) so
they can be frozen in golden tests.

Also here is ``_Value``, the base of the library's immutable value types.
A subclass lists its fields as class annotations; the base gives equality
with instances of the same class whose fields are equal, a hash of the
tuple of fields, a ``Name(field=value, ...)`` repr, and refuses assignment
and deletion with ``AttributeError``.  A subclass that declares fields and
no ``__init__`` gets one compiled for them; one with its own ``__init__``
sets its fields with ``object.__setattr__``.
"""

from __future__ import annotations

import numbers
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction

# a matrix as a tuple of integer rows
IntegerMatrix = tuple[tuple[int, ...], ...]

# nonzero rows of a reduced echelon form, and their pivot columns
EchelonForm = tuple[IntegerMatrix, tuple[int, ...]]

__all__ = [
    "Rational",
    "RationalMatrix",
    "parse_rational",
    "integer_vector",
]


class _Value:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__dict__.get("__annotations__", ()))
        cls._fields += own
        if own and "__init__" not in cls.__dict__:
            body = "".join(f"\n    _set(self, {f!r}, {f})" for f in cls._fields)
            namespace = {"_set": object.__setattr__}
            exec(f"def __init__(self, {', '.join(cls._fields)}):{body}", namespace)
            cls.__init__ = namespace["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or a plain integer literal into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def _rational(value) -> Fraction:
    """An exact rational (int, Fraction or any ``numbers.Rational``) as a
    Fraction.  Anything else raises TypeError: a binary floating-point
    value is not the decimal it was typed as, so it is never converted."""
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"expected an exact rational, got {type(value).__name__} {value!r}")
    return Fraction(value)


def _cleared(vec: Sequence[Fraction | int]) -> tuple[tuple[int, ...], int]:
    """The vector times the lcm of its denominators, and that lcm."""
    scale = lcm(*(v.denominator for v in vec))
    return tuple(v.numerator * (scale // v.denominator) for v in vec), scale


def integer_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Canonicalize a rational vector up to scale.

    Scales to integer entries with content 1 and first nonzero entry
    positive.  The zero vector maps to itself.  The divisor is the content,
    negated when the first nonzero entry is negative, so an integer vector
    is divided once, and not at all when it is already canonical.
    """
    ints = tuple(vec)
    if set(map(type, ints)) != {int}:
        ints = _cleared([_rational(v) for v in ints])[0]
    g = gcd(*ints)
    for v in ints:
        if v:
            g = g if v > 0 else -g
            break
    return ints if g in (0, 1) else tuple(v // g for v in ints)


def echelon(rows: Iterable[Sequence[int]]) -> EchelonForm:
    """Reduced row echelon form of integer rows, without fractions.

    Returns the nonzero rows, each scaled to content 1 with a positive
    pivot (the normalization of :func:`integer_vector`), in ascending pivot
    order, and their pivot columns.  The form is unique for a row space, so
    it doubles as the key of a span; its length is the rank.  Rows are read
    only until every column holds a pivot.
    """
    basis: dict[int, tuple[int, ...]] = {}  # pivot column -> row
    for vec in rows:
        for pivot, other in basis.items():
            f = vec[pivot]
            if f:
                p = other[pivot]
                vec = [p * a - f * b for a, b in zip(vec, other)]
        for lead, x in enumerate(vec):
            if x:
                break
        else:
            continue  # a zero row
        g = gcd(*vec) if x > 0 else -gcd(*vec)
        vec = tuple(vec) if g == 1 else tuple(v // g for v in vec)
        top = vec[lead]  # vec is 0 in each pivot column, so pivots stay positive
        for pivot, other in basis.items():
            f = other[lead]
            if f:
                other = [top * a - f * b for a, b in zip(other, vec)]
                g = gcd(*other)
                basis[pivot] = tuple(other) if g == 1 else tuple(v // g for v in other)
        basis[lead] = vec
        if len(basis) == len(vec):
            break
    pivots = tuple(sorted(basis))
    return tuple(basis[p] for p in pivots), pivots


def _inverse_up_to_scale(rows: Sequence[Sequence[int]]) -> tuple[IntegerMatrix, int]:
    """s * A^-1 as integer rows, and the scale s > 0, for a square integer
    matrix A; raises on a singular input.  Backs RationalMatrix.inverse.

    Row i of the echelon form of [A | I] is its positive pivot p_i times
    row i of [I | A^-1], so scaling each row by s / p_i with s = lcm(p_i)
    gives s * A^-1 without a fraction (a fraction-free inverse up to scale,
    as in Bareiss 1968).
    """
    n = len(rows)
    form, pivots = echelon(
        list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)
    )
    if pivots != tuple(range(n)):
        raise ValueError("matrix is singular")
    scale = lcm(*(row[i] for i, row in enumerate(form)))
    return tuple(tuple(x * (scale // row[i]) for x in row[n:]) for i, row in enumerate(form)), scale


class RationalMatrix:
    """Dense matrix over the rationals, stored row-major.

    Nothing in the library builds one: projective transformations are
    integer rows.  It remains the rational rank and inverse against which
    the tests check the integer kernel.
    """

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
        A_int^-1 diag(s), and A_int^-1 is an integer matrix over a scale.
        """
        if self.rows != self.cols:
            raise ValueError("inverse needs a square matrix")
        n = self.rows
        cleared = [_cleared(self.row(i)) for i in range(n)]
        inverse, scale = _inverse_up_to_scale([ints for ints, _ in cleared])
        return RationalMatrix(
            n,
            n,
            [Fraction(inverse[i][j] * cleared[j][1], scale) for i in range(n) for j in range(n)],
        )
