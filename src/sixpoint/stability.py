"""GIT stability for weighted point configurations in projective space.

A configuration of n points in P^d with weights a_1..a_n is semistable
(stable) when every proper linear subspace W carries total weight at most
(strictly less than) dim W + 1.  It suffices to check spans of point
subsets: shrinking a subspace to the span of the points it contains never
decreases the carried weight nor increases the dimension.

Also here: Lie-algebra stabilizer dimensions, diagonal one-parameter
subgroup limits, exact projective transformations, and the conic membership
test for six points in the plane.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .exact import EchelonForm, RationalMatrix, _cleared, echelon, in_span, integer_vector

__all__ = [
    "PointConfiguration",
    "WeightVector",
    "symmetric_weights",
    "Status",
    "Witness",
    "StabilityVerdict",
    "stability_status",
    "stabilizer_dimension",
    "OneParameterSubgroup",
    "one_parameter_limit",
    "apply_transformation",
    "random_transformation",
    "move_flag_to_standard_position",
    "lies_on_conic",
]


@dataclass(frozen=True)
class PointConfiguration:
    """An ordered tuple of n points of P^d with exact coordinates.

    Every point is canonically scaled: integer coordinates, content 1,
    first nonzero coordinate positive.  Zero vectors are rejected.
    """

    d: int
    points: tuple[tuple[int, ...], ...]

    def __init__(self, d: int, points: Sequence[Sequence[Fraction | int]]):
        if d < 1:
            raise ValueError(f"ambient dimension must be at least 1, got {d}")
        canon = []
        for p in points:
            if len(p) != d + 1:
                raise ValueError(f"point {tuple(p)} does not have {d + 1} coordinates")
            v = integer_vector(p)
            if all(x == 0 for x in v):
                raise ValueError("zero vector is not a projective point")
            canon.append(v)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "points", tuple(canon))

    @property
    def n(self) -> int:
        return len(self.points)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Distinct points, in order of first appearance."""
        seen: dict[tuple[int, ...], None] = {}
        for p in self.points:
            seen.setdefault(p, None)
        return tuple(seen)


@dataclass(frozen=True)
class WeightVector:
    """A normalized linearization: weights a_i with 0 < a_i <= 1 summing to
    d + 1, i.e. a point of the hypersimplex of effective linearizations."""

    d: int
    weights: tuple[Fraction, ...]

    def __init__(self, d: int, weights: Sequence[Fraction | int]):
        ws = tuple(Fraction(w) for w in weights)
        if any(w <= 0 or w > 1 for w in ws):
            raise ValueError("weights must satisfy 0 < a_i <= 1")
        if sum(ws) != d + 1:
            raise ValueError(f"weights must sum to {d + 1}, got {sum(ws)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)


def symmetric_weights(n: int, d: int) -> WeightVector:
    """The unique symmetric linearization: all weights (d+1)/n."""
    return WeightVector(d, [Fraction(d + 1, n)] * n)


class Status(str, Enum):
    STABLE = "Stable"
    STRICTLY_SEMISTABLE = "StrictlySemistable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class Witness:
    """A tight or violated subspace: its dimension, the indices of all
    marks lying on it, and their total weight."""

    dim: int
    marks: tuple[int, ...]
    weight: Fraction
    violation: bool


@dataclass(frozen=True)
class StabilityVerdict:
    status: Status
    witnesses: tuple[Witness, ...]

    def equality_witnesses(self) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if not w.violation)


def stability_status(config: PointConfiguration, weights: WeightVector) -> StabilityVerdict:
    """Exhaustive subspace check of the weighted stability criterion.

    Enumerates spans of point subsets of projective dimension at most
    d - 1, collects every mark lying on each span (not just the generating
    subset) and compares the carried weight against dim W + 1.  All
    equalities and violations are reported, deduplicated by the contained
    mark set, which pins down the minimal witnessing subspace.
    """
    if weights.n != config.n:
        raise ValueError(f"{config.n} points but {weights.n} weights")
    if weights.d != config.d:
        raise ValueError(f"configuration in P^{config.d} but weights target P^{weights.d}")
    n, d = config.n, config.d
    # a proper subspace spanned by configuration points is spanned by at
    # most d of its distinct support points, so small subsets suffice
    support = config.support()
    # weights over their common denominator, so the sums below are integers
    int_weights, scale = _cleared(weights.weights)
    seen_spans: set[EchelonForm] = set()
    found: dict[tuple[int, ...], Witness] = {}
    for size in range(1, min(d, len(support)) + 1):
        for subset in itertools.combinations(support, size):
            span = echelon(subset)
            dim = len(span[1]) - 1
            if dim > d - 1 or span in seen_spans:
                continue
            seen_spans.add(span)
            marks = tuple(i for i in range(n) if in_span(span, config.points[i]))
            total = sum(int_weights[i] for i in marks)
            bound = (dim + 1) * scale
            if total < bound:
                continue
            # the same mark set can register at several span dimensions
            # (coincident marks lie on every line through them); keep the
            # minimal subspace, which is the span of the marks themselves
            if marks in found and found[marks].dim <= dim:
                continue
            found[marks] = Witness(
                dim=dim,
                marks=marks,
                weight=Fraction(total, scale),
                violation=total > bound,
            )
    witnesses = tuple(sorted(found.values(), key=lambda w: (w.dim, w.marks)))
    if any(w.violation for w in witnesses):
        status = Status.UNSTABLE
    elif witnesses:
        status = Status.STRICTLY_SEMISTABLE
    else:
        status = Status.STABLE
    return StabilityVerdict(status=status, witnesses=witnesses)


def stabilizer_dimension(config: PointConfiguration) -> int:
    """Dimension of the Lie-algebra stabilizer inside sl(d+1).

    A traceless matrix M stabilizes the configuration when M x is
    proportional to x for every point, i.e. (Mx)_a x_b - (Mx)_b x_a = 0;
    these are linear conditions on the entries of M, and the stabilizer
    dimension is the kernel dimension of the assembled system.
    """
    m = config.d + 1
    rows: list[list[int]] = []
    for point in config.support():
        for a, b in itertools.combinations(range(m), 2):
            row = [0] * (m * m)
            for c in range(m):
                row[a * m + c] += point[c] * point[b]
                row[b * m + c] -= point[c] * point[a]
            rows.append(row)
    rows.append([int(r == c) for r in range(m) for c in range(m)])  # trace
    return m * m - len(echelon(rows)[1])


@dataclass(frozen=True)
class OneParameterSubgroup:
    """A diagonal one-parameter subgroup, acting by t^{w_i} on coordinate i.

    The weights are integers and must not all be equal, since a constant
    weight vector acts trivially on projective space.
    """

    weights: tuple[int, ...]

    def __init__(self, weights: Sequence[int]):
        ws = tuple(int(w) for w in weights)
        if len(set(ws)) < 2:
            raise ValueError("weights must not all be equal")
        object.__setattr__(self, "weights", ws)


def one_parameter_limit(
    config: PointConfiguration, subgroup: OneParameterSubgroup
) -> PointConfiguration:
    """Limit of the configuration under the subgroup as t -> 0.

    Per point, exactly the coordinates of minimal weight among the nonzero
    ones survive; the rest are zeroed.  Limits of projective points always
    exist, so this is total and deterministic.
    """
    if len(subgroup.weights) != config.d + 1:
        raise ValueError("subgroup weight count does not match the ambient dimension")
    limits = []
    for p in config.points:
        lowest = min(w for w, x in zip(subgroup.weights, p) if x != 0)
        limits.append(
            tuple(x if w == lowest else 0 for w, x in zip(subgroup.weights, p))
        )
    return PointConfiguration(config.d, limits)


def apply_transformation(
    matrix: RationalMatrix, config: PointConfiguration
) -> PointConfiguration:
    """Apply an invertible (d+1)x(d+1) matrix to every point; the matrix is
    scaled to integers first, which moves no projective point."""
    m = config.d + 1
    if matrix.rows != m or matrix.cols != m:
        raise ValueError("transformation size does not match the ambient dimension")
    entries = _cleared(matrix.entries)[0]
    rows = [entries[i * m : (i + 1) * m] for i in range(m)]
    return PointConfiguration(
        config.d, [[sum(a * x for a, x in zip(row, p)) for row in rows] for p in config.points]
    )


def random_transformation(rng, d: int, bound: int = 5) -> RationalMatrix:
    """A random invertible integer matrix with entries in [-bound, bound]."""
    m = d + 1
    while True:
        cand = RationalMatrix(
            m, m, [rng.randint(-bound, bound) for _ in range(m * m)]
        )
        if cand.rank() == m:
            return cand


def move_flag_to_standard_position(flag: Sequence[tuple[int, ...]], d: int) -> RationalMatrix:
    """An exact transformation sending flag point k to basis vector e_k.

    The flag is one point (sent to e_0) or two points spanning a line
    (sent to e_0, e_1); the basis is completed greedily with standard
    basis vectors.
    """
    m = d + 1
    columns = [tuple(p) for p in flag]
    for k in range(m):
        if len(columns) == m:
            break
        unit = tuple(int(i == k) for i in range(m))
        trial = columns + [unit]
        if len(echelon(trial)[1]) == len(trial):
            columns.append(unit)
    return RationalMatrix(m, m, [columns[j][i] for i in range(m) for j in range(m)]).inverse()


def lies_on_conic(config: PointConfiguration) -> bool:
    """Whether some conic, possibly degenerate, passes through all six
    points.  Equivalent to the rank of the matrix of degree-2 monomials
    x^2, xy, xz, y^2, yz, z^2 at the points being < 6."""
    if config.d != 2 or config.n != 6:
        raise ValueError("conic membership is a test for six points in the plane")
    rows = [(x * x, x * y, x * z, y * y, y * z, z * z) for x, y, z in config.points]
    return len(echelon(rows)[1]) <= 5
