"""GIT stability for weighted point configurations in projective space.

A configuration of n points in P^d with weights a_1..a_n is semistable
(stable) when every proper linear subspace W carries total weight at most
(strictly less than) dim W + 1.  It suffices to check spans of point
subsets: shrinking a subspace to the span of the points it contains never
decreases the carried weight nor increases the dimension.

Also here: Lie-algebra stabilizer dimensions, read off the linear matroid
of the support (its rank and its connected components, from one
elimination of the points as columns), diagonal one-parameter subgroup
limits, projective transformations as integer matrices (scalar
multiples act alike on projective points), and the conic membership test
for six points in the plane.  A line of the plane is a cross product
(:func:`_plane_line`, which also builds the frames in ``strata``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .exact import IntegerMatrix, _cleared, _rational, echelon, in_span, integer_vector

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

    @cached_property
    def flats(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Every distinct subspace spanned by at most d support points, as
        (projective dimension, indices of all marks lying on it) pairs.

        A proper subspace W spanned by configuration points has a basis of
        at most dim W + 1 <= d of the distinct points on it, so spans of
        subsets of at most d support points reach every such W, and each
        has dimension at most d - 1.  Subsets are taken by size, then in
        ``itertools.combinations`` order, and each flat is listed where it
        is first reached.

        Most subsets are skipped.  The point flats are the coincidence
        classes.  A subset of size k whose points all lie on a flat of
        dimension k - 1 found before it spans that flat or a smaller one,
        and a subset of rank below k spans a flat reached by a smaller
        subset.  Membership in a new flat is tested once per support point.
        In the plane that is a dot product: distinct canonical points p, q
        are never proportional, so they span the line with normal p x q,
        and r lies on it exactly when (p x q) . r = 0.  For d >= 3 the
        subset is reduced by :func:`echelon` and tested with :func:`in_span`.

        A flat is the span of its own marks: they include the points that
        generate it and all lie on it.  So distinct flats carry distinct
        mark sets, and a flat's dimension is the rank of its marks' points
        minus 1.

        Computed once per configuration; the configuration is immutable, so
        the cached value cannot go stale.
        """
        support = self.support()
        slot = {p: k for k, p in enumerate(support)}
        slots = [slot[p] for p in self.points]  # support index of each mark
        found = [(0, tuple(i for i, s in enumerate(slots) if s == k)) for k in range(len(support))]
        for size in range(2, min(self.d, len(support)) + 1):
            covered: set[tuple[int, ...]] = set()  # subsets on a flat of dimension size - 1
            for subset in itertools.combinations(range(len(support)), size):
                if subset in covered:
                    continue
                if self.d == 2:
                    a, b, c = _plane_line(*(support[k] for k in subset))
                    on = [k for k, (x, y, z) in enumerate(support) if a * x + b * y + c * z == 0]
                else:
                    span = echelon(support[k] for k in subset)
                    if len(span[1]) < size:
                        continue
                    on = [k for k, p in enumerate(support) if k in subset or in_span(span, p)]
                covered.update(itertools.combinations(on, size))
                found.append((size - 1, tuple(i for i, s in enumerate(slots) if s in on)))
        return tuple(found)


def _plane_line(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int]:
    """The cross product p x q: the normal of the line through p, q in P^2."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


@dataclass(frozen=True)
class WeightVector:
    """A normalized linearization: weights a_i with 0 < a_i <= 1 summing to
    d + 1, i.e. a point of the hypersimplex of effective linearizations."""

    d: int
    weights: tuple[Fraction, ...]

    def __init__(self, d: int, weights: Sequence[Fraction | int]):
        ws = tuple(_rational(w) for w in weights)
        if any(w <= 0 or w > 1 for w in ws):
            raise ValueError("weights must satisfy 0 < a_i <= 1")
        if sum(ws) != d + 1:
            raise ValueError(f"weights must sum to {d + 1}, got {sum(ws)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "weights", ws)

    @property
    def n(self) -> int:
        return len(self.weights)

    @cached_property
    def _integer_weights(self) -> tuple[tuple[int, ...], int]:
        """The weights over their common denominator, and that denominator."""
        return _cleared(self.weights)


_SYMMETRIC_WEIGHTS: dict[tuple[int, int], WeightVector] = {}


def symmetric_weights(n: int, d: int) -> WeightVector:
    """The unique symmetric linearization: all weights (d+1)/n.

    Built and checked once per (n, d); the vector is frozen, so every call
    shares it.
    """
    if (n, d) not in _SYMMETRIC_WEIGHTS:
        _SYMMETRIC_WEIGHTS[n, d] = WeightVector(d, [Fraction(d + 1, n)] * n)
    return _SYMMETRIC_WEIGHTS[n, d]


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
    """The status and every tight or violated flat, sorted by (dim, marks)."""

    status: Status
    witnesses: tuple[Witness, ...]

    def equality_witnesses(self) -> tuple[Witness, ...]:
        return tuple(w for w in self.witnesses if not w.violation)


def stability_status(config: PointConfiguration, weights: WeightVector) -> StabilityVerdict:
    """Exhaustive subspace check of the weighted stability criterion.

    Compares the weight carried by each of the configuration's flats (every
    mark lying on the span, not just the generating subset) against
    dim W + 1.  All equalities and violations are reported; each witness is
    the span of its own marks, so it is the minimal witnessing subspace.
    """
    if weights.n != config.n:
        raise ValueError(f"{config.n} points but {weights.n} weights")
    if weights.d != config.d:
        raise ValueError(f"configuration in P^{config.d} but weights target P^{weights.d}")
    # weights over their common denominator, so the sums below are integers
    int_weights, scale = weights._integer_weights
    found = []
    for dim, marks in config.flats:
        total = sum(int_weights[i] for i in marks)
        bound = (dim + 1) * scale
        if total >= bound:
            found.append(Witness(
                dim=dim, marks=marks, weight=Fraction(total, scale), violation=total > bound
            ))
    witnesses = tuple(sorted(found, key=lambda w: (w.dim, w.marks)))
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
    proportional to x for every point.  With m = d + 1, w the rank of the
    support and c the number of connected components of its linear matroid,
    the dimension is c + m(m - w) - 1:

    * M maps W = span(support) into W, since every point is an eigenvector.
    * A circuit has a single relation sum a_i p_i = 0, all a_i nonzero;
      applying M and subtracting one eigenvalue times the relation leaves a
      relation among fewer of its points, which are independent, so all
      points of a circuit share one eigenvalue.  Any two points of a
      component lie on a common circuit, and W is the direct sum of the
      components' spans, so M restricted to W is a scalar on each of them:
      c parameters, each choice allowed.
    * On a complement of W, M is free: m(m - w) parameters.
    * The trace condition removes 1 (the identity stabilizes and has
      trace m, so the condition is not implied).

    Both w and c come from one :func:`echelon` of the m x k matrix whose
    columns are the k support points.  Its pivot columns are a basis B;
    each other column j, with the pivot columns whose row is nonzero at j,
    is the fundamental circuit of j with respect to B.  The components of a
    matroid are the classes of the graph joining the elements of each
    fundamental circuit, for any basis (Oxley, Matroid Theory, section 4.3),
    so merging labels along those circuits counts c.
    """
    m = config.d + 1
    support = config.support()
    rows, pivots = echelon(zip(*support))
    label = list(range(len(support)))  # component label of each point
    for j in range(len(support)):
        if j not in pivots:
            circuit = {label[j]}.union(label[p] for p, row in zip(pivots, rows) if row[j])
            label = [min(circuit) if x in circuit else x for x in label]
    return len(set(label)) + m * (m - len(pivots)) - 1


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
    matrix: Sequence[Sequence[int]], config: PointConfiguration
) -> PointConfiguration:
    """Apply an invertible (d+1)x(d+1) integer matrix, given by its rows, to
    every point."""
    m = config.d + 1
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ValueError("transformation size does not match the ambient dimension")
    return PointConfiguration(
        config.d, [[sum(a * x for a, x in zip(row, p)) for row in matrix] for p in config.points]
    )


def random_transformation(rng, d: int, bound: int = 5) -> IntegerMatrix:
    """A random invertible integer matrix with entries in [-bound, bound],
    as a tuple of rows."""
    m = d + 1
    while True:
        entries = [rng.randint(-bound, bound) for _ in range(m * m)]
        rows = tuple(tuple(entries[i * m : (i + 1) * m]) for i in range(m))
        if len(echelon(rows)[1]) == m:
            return rows


def lies_on_conic(config: PointConfiguration) -> bool:
    """Whether some conic, possibly degenerate, passes through all six
    points.  Equivalent to the rank of the matrix of degree-2 monomials
    x^2, xy, xz, y^2, yz, z^2 at the points being < 6."""
    if config.d != 2 or config.n != 6:
        raise ValueError("conic membership is a test for six points in the plane")
    rows = [(x * x, x * y, x * z, y * y, y * z, z * z) for x, y, z in config.points]
    return len(echelon(rows)[1]) <= 5
