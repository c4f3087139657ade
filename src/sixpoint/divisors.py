"""Symmetric divisor arithmetic on the moduli space of stable n-pointed
rational curves.

The S_n-invariant Neron-Severi space is spanned by the boundary classes
B_2, ..., B_{floor(n/2)} (with the identification B_i = B_{n-i}, applied at
construction time).  For n = 6 the space is two dimensional and this module
carries the full chamber engine (stable base locus, birational model and
the canonical quotient polarization), read off exact F-curve pairings.
All coefficients are exact rationals, never floating point.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterator, Mapping

from .exact import _cleared, _rational, _Value

__all__ = [
    "SymmetricDivisor",
    "FCurve",
    "CCurve",
    "Model",
    "BaseLocus",
    "ChamberReport",
    "boundary",
    "total_boundary",
    "canonical_divisor",
    "psi_divisor",
    "from_k_psi",
    "canonical_polarization",
    "intersect_f_curve",
    "intersect_c_curve",
    "four_part_partitions",
    "is_f_nonnegative",
    "is_effective",
    "stable_base_locus",
    "mori_model",
]


class SymmetricDivisor:
    """A symmetric divisor class in the boundary basis.

    Coefficients are indexed by i in 2..floor(n/2); any index i given in the
    unfolded range (up to n-2) is folded onto n-i, and coefficients arriving
    on both sides of a fold are added, because they name the same class.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Fraction | int] | None = None):
        if n < 4:
            raise ValueError(f"need at least four marked points, got n={n}")
        self.n = n
        acc = {i: Fraction(0) for i in range(2, n // 2 + 1)}
        for i, c in (coeffs or {}).items():
            if not 2 <= i <= n - 2:
                raise ValueError(f"boundary index {i} out of range 2..{n - 2}")
            acc[min(i, n - i)] += _rational(c)
        self.coeffs = tuple(acc[i] for i in range(2, n // 2 + 1))

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of B_i, folding i onto n-i when needed."""
        if not 2 <= i <= self.n - 2:
            raise ValueError(f"boundary index {i} out of range 2..{self.n - 2}")
        return self.coeffs[min(i, self.n - i) - 2]

    def _check_same_space(self, other: "SymmetricDivisor") -> None:
        if self.n != other.n:
            raise ValueError(f"mixed marked point counts: {self.n} vs {other.n}")

    def __add__(self, other: "SymmetricDivisor") -> "SymmetricDivisor":
        self._check_same_space(other)
        return SymmetricDivisor(
            self.n, {i + 2: a + b for i, (a, b) in enumerate(zip(self.coeffs, other.coeffs))}
        )

    def __sub__(self, other: "SymmetricDivisor") -> "SymmetricDivisor":
        return self + (-other)

    def __neg__(self) -> "SymmetricDivisor":
        return SymmetricDivisor(self.n, {i + 2: -c for i, c in enumerate(self.coeffs)})

    def __mul__(self, scalar) -> "SymmetricDivisor":
        s = _rational(scalar)
        return SymmetricDivisor(self.n, {i + 2: s * c for i, c in enumerate(self.coeffs)})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymmetricDivisor)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.coeffs))

    def __repr__(self) -> str:
        return f"SymmetricDivisor(n={self.n}, {self})"

    def __str__(self) -> str:
        return _linear_form((c, f"B{i}") for i, c in enumerate(self.coeffs, start=2))


def _linear_form(pairs) -> str:
    """The nonzero (coefficient, symbol) pairs as ``c*x`` terms joined by
    `` + `` and `` - ``: a unit coefficient is left off, a negative one's
    sign becomes the joint, and no terms at all read ``0``."""
    out = ""
    for c, symbol in pairs:
        if c:
            term = symbol if abs(c) == 1 else f"{abs(c)}*{symbol}"
            out += (" - " if c < 0 else " + ") + term
    if not out:
        return "0"
    return out[3:] if out[1] == "+" else "-" + out[3:]


def boundary(n: int, i: int) -> SymmetricDivisor:
    """The boundary class B_i."""
    return SymmetricDivisor(n, {i: 1})


def total_boundary(n: int) -> SymmetricDivisor:
    """B = sum of all B_i, i = 2..floor(n/2)."""
    return SymmetricDivisor(n, {i: 1 for i in range(2, n // 2 + 1)})


def canonical_divisor(n: int) -> SymmetricDivisor:
    """Canonical class K in the boundary basis.

    K = sum over i of (i(n-i)/(n-1) - 2) B_i.  For n = 6 this is
    -2/5 B2 - 1/5 B3.
    """
    return SymmetricDivisor(
        n, {i: Fraction(i * (n - i), n - 1) - 2 for i in range(2, n // 2 + 1)}
    )


def psi_divisor(n: int) -> SymmetricDivisor:
    """The total cotangent class psi = K + 2B."""
    return canonical_divisor(n) + 2 * total_boundary(n)


def from_k_psi(n: int, a: Fraction | int, b: Fraction | int) -> SymmetricDivisor:
    """The divisor a*K + b*psi, expressed back in the boundary basis."""
    return _rational(a) * canonical_divisor(n) + _rational(b) * psi_divisor(n)


def canonical_polarization() -> SymmetricDivisor:
    """Pullback of the natural quotient polarization, for n = 6.

    This is the unique symmetric class meeting F(1,1,1,3) in 1/2 and
    F(1,1,2,2) in 0; it equals -K/2 = 1/5 B2 + 1/10 B3.
    """
    return Fraction(-1, 2) * canonical_divisor(6)


class FCurve(_Value):
    """An F-curve class, recorded by its partition sizes (a1,a2,a3,a4).

    Only the four part sizes matter against symmetric divisors; the
    partition is stored sorted ascending and must consist of positive parts.
    """

    partition: tuple[int, int, int, int]

    def __init__(self, partition):
        parts = tuple(sorted(int(p) for p in partition))
        if len(parts) != 4 or any(p < 1 for p in parts):
            raise ValueError(f"need four positive parts, got {partition}")
        object.__setattr__(self, "partition", parts)

    @property
    def n(self) -> int:
        return sum(self.partition)

    def __str__(self) -> str:
        return "F(" + ",".join(str(p) for p in self.partition) + ")"


class CCurve(_Value):
    """The sliding-node curve family C_j: a j-pointed component with the
    attaching node of the complementary tail moving along it."""

    j: int

    def __init__(self, j: int):
        if j < 2:
            raise ValueError(f"curve index must be at least 2, got {j}")
        object.__setattr__(self, "j", j)

    def __str__(self) -> str:
        return f"C{self.j}"


def _folded_coefficient(div: SymmetricDivisor, k: int) -> Fraction:
    # r_1 = 0 and r_k = r_{n-k}; valid for k in 1..n-1
    k = min(k, div.n - k)
    if k == 1:
        return Fraction(0)
    return div.coefficient(k)


def intersect_f_curve(div: SymmetricDivisor, curve: FCurve) -> Fraction:
    """Exact intersection number of a symmetric divisor with an F-curve.

    With D = sum r_i B_i, r_1 = 0 and r_{a+b} = r_{n-a-b}:

        F . D = -r_{a1} - r_{a2} - r_{a3} - r_{a4}
                + r_{a1+a2} + r_{a1+a3} + r_{a1+a4}
    """
    if curve.n != div.n:
        raise ValueError(f"curve partition sums to {curve.n}, divisor has n={div.n}")
    a1, a2, a3, a4 = curve.partition
    r = lambda k: _folded_coefficient(div, k)
    return -r(a1) - r(a2) - r(a3) - r(a4) + r(a1 + a2) + r(a1 + a3) + r(a1 + a4)


def intersect_c_curve(div: SymmetricDivisor, curve: CCurve) -> Fraction:
    """Exact intersection number of a symmetric divisor with C_j.

    With r as in ``intersect_f_curve``: C_j . D = j r_{j-1} - (j-2) r_j.
    """
    n, j = div.n, curve.j
    if not 2 <= j <= n - 2:
        raise ValueError(f"curve index {j} out of range 2..{n - 2}")
    r = lambda k: _folded_coefficient(div, k)
    return j * r(j - 1) - (j - 2) * r(j)


def four_part_partitions(n: int) -> Iterator[tuple[int, int, int, int]]:
    """All partitions of n into four positive parts, sorted ascending."""
    for a in range(1, n // 4 + 1):
        for b in range(a, (n - a) // 3 + 1):
            for c in range(b, (n - a - b) // 2 + 1):
                d = n - a - b - c
                if d >= c:
                    yield (a, b, c, d)


def is_f_nonnegative(div: SymmetricDivisor) -> tuple[bool, list[tuple[int, int, int, int]]]:
    """Whether D meets every F-curve nonnegatively, plus the violators.

    For n <= 7 this is equivalent to nefness (Keel-McKernan).  For larger n
    it is only the necessary direction, so treat a True answer as
    "F-nonnegative", not as a nefness certificate.
    """
    violations = [
        p for p in four_part_partitions(div.n) if intersect_f_curve(div, FCurve(p)) < 0
    ]
    return (not violations, violations)


def is_effective(div: SymmetricDivisor) -> bool:
    """Symmetric effectivity: every boundary coefficient is nonnegative."""
    return all(c >= 0 for c in div.coeffs)


class Model(str, Enum):
    """Birational models reachable from the six-pointed space."""

    AMPLE = "AmpleModel_M06"
    SEGRE_CUBIC = "SegreCubic"
    IGUSA_QUARTIC = "IgusaQuartic"
    POINT = "Point"
    OUTSIDE = "OutsideEffectiveCone"


class BaseLocus(str, Enum):
    EMPTY = "Empty"
    B2 = "B2"
    B3 = "B3"
    WHOLE_DIVISOR = "WholeDivisor"


class ChamberReport(_Value):
    """The chamber of a symmetric divisor: the birational model it maps
    to, its stable base locus, and whether it lies on a chamber wall."""

    model: Model
    stable_base_locus: BaseLocus
    boundary_case: bool


# F . B_i for each F-class of six points, i = 2, 3; F . D follows by linearity
_F_DOT_B = {
    p: tuple(int(intersect_f_curve(boundary(6, i), FCurve(p))) for i in (2, 3))
    for p in four_part_partitions(6)
}

# the one recorded chamber fact: the model that contracts each F-class
_CONTRACTION = {(1, 1, 2, 2): Model.IGUSA_QUARTIC, (1, 1, 1, 3): Model.SEGRE_CUBIC}


def mori_model(div: SymmetricDivisor) -> ChamberReport:
    """Chamber lookup for a symmetric divisor on the six-pointed space.

    An effective D meets at most one F-class V negatively; two would force a
    negative coefficient.  The stable base locus is the B_i that V meets
    negatively, and the nef part is N = D - (V.D / V.B_i) B_i; with no such
    V the locus is empty and N = D.  The model contracts the F-classes that
    N meets in 0: none leaves the space itself, one gives that class's
    contraction, both (N = 0) give a point.  D is a wall case when some F.D
    or some coefficient of D is 0.  Non-effective D is reported as outside.
    """
    if div.n != 6:
        raise ValueError(f"chamber decomposition is implemented for n=6, got n={div.n}")
    if not is_effective(div):
        return ChamberReport(Model.OUTSIDE, BaseLocus.WHOLE_DIVISOR, False)
    # a positive multiple of D lies in the same chamber and has integer coefficients
    coeffs = _cleared(div.coeffs)[0]
    pairing = {p: sum(map(mul, coeffs, row)) for p, row in _F_DOT_B.items()}
    locus, nef = BaseLocus.EMPTY, pairing
    for curve, value in pairing.items():
        if value < 0:
            k = next(j for j, f in enumerate(_F_DOT_B[curve]) if f < 0)
            locus = BaseLocus(f"B{k + 2}")
            # F.N times -V.B_i > 0, which keeps it integral
            nef = {p: value * row[k] - _F_DOT_B[curve][k] * pairing[p]
                   for p, row in _F_DOT_B.items()}
    contracted = [_CONTRACTION[curve] for curve, value in nef.items() if value == 0]
    model = Model.POINT if len(contracted) > 1 else (contracted or [Model.AMPLE])[0]
    return ChamberReport(model, locus, 0 in pairing.values() or 0 in coeffs)


def stable_base_locus(div: SymmetricDivisor) -> BaseLocus:
    """Stable base locus of an effective symmetric divisor, n = 6 (see ``mori_model``)."""
    if not is_effective(div):
        raise ValueError(f"divisor {div} is not effective; no stable base locus")
    return mori_model(div).stable_base_locus
