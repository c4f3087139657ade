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
(:func:`_plane_line`, which also builds the frames in ``strata``), and the
conic test is the bracket identity [123][145][246][356] =
[124][135][236][456], whose eight determinants are such cross products
dotted with a third point; neither runs an elimination.  A configuration
keeps its flats and its last stability verdict, so asking again is a
lookup.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .exact import IntegerMatrix, _cleared, _rational, _Value, echelon, integer_vector

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


class PointConfiguration(_Value):
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
        subset is reduced by :func:`echelon`, and p lies on its span when
        adding p to the reduced rows leaves the rank at the subset's size.

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
                    rows, pivots = echelon(support[k] for k in subset)
                    if len(pivots) < size:
                        continue
                    on = [k for k, p in enumerate(support) if len(echelon([*rows, p])[1]) == size]
                covered.update(itertools.combinations(on, size))
                found.append((size - 1, tuple(i for i, s in enumerate(slots) if s in on)))
        return tuple(found)


def _plane_line(p: Sequence[int], q: Sequence[int]) -> tuple[int, int, int]:
    """The cross product p x q: the normal of the line through p, q in P^2."""
    return (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])


class WeightVector(_Value):
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


class Witness(_Value):
    """A tight or violated subspace: its dimension, the indices of all
    marks lying on it, and their total weight."""

    dim: int
    marks: tuple[int, ...]
    weight: Fraction
    violation: bool


class StabilityVerdict(_Value):
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

    The configuration keeps its last verdict, as it keeps its flats, with
    the weights object it was computed for: a second call with that same
    object (``symmetric_weights`` shares one per (n, d)) is a lookup.  The
    memo is matched by identity, not equality, and holds the weights it
    names, so it cannot answer for another object; both are immutable, so
    it cannot go stale.
    """
    memo = config.__dict__.get("_verdict")
    if memo is not None and memo[0] is weights:
        return memo[1]
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
    verdict = StabilityVerdict(status=status, witnesses=witnesses)
    config.__dict__["_verdict"] = (weights, verdict)
    return verdict


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


class OneParameterSubgroup(_Value):
    """A diagonal one-parameter subgroup, acting by t^{w_i} on coordinate i.

    The weights are integers and must not all be equal, since a constant
    weight vector acts trivially on projective space.  They follow the
    exact-input rule of :func:`exact._rational`: a float raises TypeError,
    and a rational that is not an integer raises ValueError rather than
    being truncated to a different subgroup.
    """

    weights: tuple[int, ...]

    def __init__(self, weights: Sequence[int]):
        rationals = tuple(_rational(w) for w in weights)
        if any(r.denominator != 1 for r in rationals):
            raise ValueError(f"weights must be integers, got {', '.join(map(str, rationals))}")
        ws = tuple(r.numerator for r in rationals)
        if len(set(ws)) < 2:
            raise ValueError("weights must not all be equal")
        object.__setattr__(self, "weights", ws)


def _limit_points(
    points: Sequence[tuple[int, ...]], weights: Sequence[int]
) -> list[tuple[int, ...]]:
    """The t -> 0 limits of integer points under the diagonal subgroup with
    these weights, by the rule of :func:`one_parameter_limit`."""
    limits = []
    for p in points:
        lowest = min([w for w, x in zip(weights, p) if x])
        limits.append(tuple([x if w == lowest else 0 for w, x in zip(weights, p)]))
    return limits


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
    return PointConfiguration(config.d, _limit_points(config.points, subgroup.weights))


def _transformed(matrix: Sequence[Sequence[int]], points) -> list[tuple[int, ...]]:
    """The images of integer points under integer rows, not rescaled."""
    return [tuple([sum(map(mul, row, p)) for row in matrix]) for p in points]


def apply_transformation(
    matrix: Sequence[Sequence[int]], config: PointConfiguration
) -> PointConfiguration:
    """Apply an invertible (d+1)x(d+1) integer matrix, given by its rows, to
    every point."""
    m = config.d + 1
    if len(matrix) != m or any(len(row) != m for row in matrix):
        raise ValueError("transformation size does not match the ambient dimension")
    return PointConfiguration(config.d, _transformed(matrix, config.points))


def _transformed_limit(
    matrix: IntegerMatrix, config: PointConfiguration, weights: tuple[int, ...]
) -> PointConfiguration | None:
    """``one_parameter_limit(apply_transformation(matrix, config), s)`` for
    the subgroup s with these weights when that limit moves, else None.

    The limit is taken on the transformed integer vectors, which need not
    be canonical: a point moves exactly when a nonzero coordinate is
    zeroed, which rescaling does not change, and canonical scaling commutes
    with the limit rule.  So only a limit that moves builds a
    configuration."""
    image = _transformed(matrix, config.points)
    limits = _limit_points(image, weights)
    return None if limits == image else PointConfiguration(config.d, limits)


def random_transformation(rng, d: int, bound: int = 5) -> IntegerMatrix:
    """A random invertible integer matrix with entries in [-bound, bound],
    as a tuple of rows.

    Candidates are drawn until one is invertible.  For d >= 1 and
    bound >= 1 the identity is among the candidates, so each draw succeeds
    with positive probability and the loop ends; other arguments raise
    ValueError.
    """
    if d < 1:
        raise ValueError(f"ambient dimension must be at least 1, got {d}")
    if bound < 1:
        raise ValueError(f"entry bound must be at least 1, got {bound}")
    m = d + 1
    while True:
        entries = [rng.randint(-bound, bound) for _ in range(m * m)]
        rows = tuple(tuple(entries[i * m : (i + 1) * m]) for i in range(m))
        if len(echelon(rows)[1]) == m:
            return rows


def lies_on_conic(config: PointConfiguration) -> bool:
    """Whether some conic, possibly degenerate, passes through all six
    points.

    That is the vanishing of the 6 x 6 determinant of the degree-2
    monomials x^2, xy, xz, y^2, yz, z^2 at the points, which equals the
    bracket polynomial [123][145][246][356] - [124][135][236][456], [ijk]
    the determinant of points i, j, k (the classical conic condition; see
    Sturmfels, *Algorithms in Invariant Theory*).  The eight brackets come
    from four cross products and eight dot products (:func:`_conic_sides`),
    with no elimination.
    """
    if config.d != 2 or config.n != 6:
        raise ValueError("conic membership is a test for six points in the plane")
    left, right = _conic_sides(config.points)
    return left == right


def _conic_sides(points):
    """The two sides [123][145][246][356] and [124][135][236][456] of the
    conic condition on six plane points.

    With lines l_ij = p_i x p_j, each bracket is a line dotted with a third
    point: [123] = l_12 . p3, [145] = -l_15 . p4, [246] = -l_26 . p4 and
    [356] = l_56 . p3, and likewise on the right at p4 and p3 swapped; the
    signs cancel in pairs.  So the sides are C(p3) D(p4) and C(p4) D(p3)
    for the line pairs C = l_12 l_56 and D = l_15 l_26, two conics through
    p1, p2, p5, p6: equal exactly when p3 and p4 lie on one conic of their
    pencil.
    """
    p1, p2, p3, p4, p5, p6 = points
    at3, at4 = [], []  # l_12, l_56, l_15, l_26 dotted with p3, with p4
    for a, b, c in (
        _plane_line(p1, p2), _plane_line(p5, p6), _plane_line(p1, p5), _plane_line(p2, p6)
    ):
        at3.append(a * p3[0] + b * p3[1] + c * p3[2])
        at4.append(a * p4[0] + b * p4[1] + c * p4[2])
    return at3[0] * at3[1] * at4[2] * at4[3], at4[0] * at4[1] * at3[2] * at3[3]
