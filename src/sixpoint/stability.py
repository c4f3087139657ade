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
for six points in the plane.  The plane runs no elimination: one table of
the support's brackets (p_a x p_b) . p_c (:func:`_plane_brackets`) gives
its lines and the conic test [123][145][246][356] = [124][135][236][456].
A configuration keeps its support, flats, brackets and last stability
verdict (and ``strata`` keeps its stratum signature on it), so asking
again is a lookup.
"""

from __future__ import annotations

import itertools
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .exact import IntegerMatrix, _cleared, _integers, _rational, _Value, echelon, integer_vector

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
            if not any(v):
                raise ValueError("zero vector is not a projective point")
            canon.append(v)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "points", tuple(canon))
        object.__setattr__(self, "_support", tuple(dict.fromkeys(canon)))

    @property
    def n(self) -> int:
        return len(self.points)

    def support(self) -> tuple[tuple[int, ...], ...]:
        """Distinct points, in order of first appearance; one tuple, built
        with the configuration."""
        return self._support

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
        classes, and every flat's marks are its points' classes merged.  A
        subset of size k whose points all lie on a flat of dimension k - 1
        found before it spans that flat or a smaller one, and a subset of
        rank below k spans a flat reached by a smaller subset.  In the
        plane, distinct canonical points p, q span a line and r lies on it
        exactly when the bracket of p, q, r is 0; a pair with no third
        point is its own two-point line, and only a line through a third
        point covers the pairs on it.  For d >= 3 the subset is reduced by
        :func:`echelon`, and p lies on its span when adding p to the
        reduced rows leaves the rank unchanged.

        A flat is the span of its own marks: they include the points that
        generate it and all lie on it.  So distinct flats carry distinct
        mark sets, and a flat's dimension is the rank of its marks' points
        minus 1.

        Computed once per configuration; the configuration is immutable, so
        the cached value cannot go stale.
        """
        support = self.support()
        marks_at: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(self.points):
            marks_at.setdefault(p, []).append(i)
        classes = list(marks_at.values())  # the coincidence classes, in support order
        found = [(0, tuple(marks)) for marks in classes]
        if self.d == 2:
            thirds = self._brackets[1]
            covered: set[tuple[int, ...]] = set()  # pairs on a line through three or more points
            for pair in itertools.combinations(range(len(support)), 2):
                if pair not in thirds:
                    a, b = pair
                    found.append((1, tuple(sorted(classes[a] + classes[b]))))
                elif pair not in covered:
                    on = sorted((*pair, *thirds[pair]))
                    covered.update(itertools.combinations(on, 2))
                    found.append((1, tuple(sorted([i for k in on for i in classes[k]]))))
            return tuple(found)
        for size in range(2, min(self.d, len(support)) + 1):
            covered = set()  # subsets on a flat of dimension size - 1
            for subset in itertools.combinations(range(len(support)), size):
                if subset in covered:
                    continue
                rows, pivots = echelon(support[k] for k in subset)
                if len(pivots) < size:
                    continue
                on = [k for k, p in enumerate(support) if len(echelon([*rows, p])[1]) == size]
                covered.update(itertools.combinations(on, size))
                found.append((size - 1, tuple(sorted([i for k in on for i in classes[k]]))))
        return tuple(found)

    @cached_property
    def _brackets(self) -> tuple[dict, dict]:
        """:func:`_plane_brackets` of the support, once per plane configuration."""
        return _plane_brackets(self.support())


def _plane_brackets(points: Sequence[Sequence[int]]) -> tuple[dict, dict]:
    """The brackets det(p_a, p_b, p_c) = (p_a x p_b) . p_c of plane points
    at a < b < c, one cross product per pair, and for each pair a < b in a
    zero bracket, the ascending list of the third points of its zeros."""
    brackets, third_points = {}, {}
    for a, b in itertools.combinations(range(len(points)), 2):
        x, y, z = _plane_line(points[a], points[b])
        for c in range(b + 1, len(points)):
            u, v, w = points[c]
            brackets[a, b, c] = bracket = x * u + y * v + z * w
            if not bracket:  # filed under all three pairs, each in ascending order
                third_points.setdefault((a, b), []).append(c)
                third_points.setdefault((a, c), []).append(b)
                third_points.setdefault((b, c), []).append(a)
    return brackets, third_points


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
        if n < 1:
            raise ValueError(f"symmetric weights need at least one point, got n={n}")
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
        total = sum(map(int_weights.__getitem__, marks))
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
    exact-input rule of :func:`exact._integers`: a float raises TypeError,
    and a rational that is not an integer raises ValueError rather than
    being truncated to a different subgroup.
    """

    weights: tuple[int, ...]

    def __init__(self, weights: Sequence[int]):
        ws = _integers(weights, "weights must be integers")
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
        pairs = list(zip(weights, p))
        lowest = min([w for w, x in pairs if x])
        limits.append(tuple([x if w == lowest else 0 for w, x in pairs]))
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


def random_transformation(rng, d: int) -> IntegerMatrix:
    """A random invertible (d+1)x(d+1) integer matrix with entries in
    [-5, 5], as a tuple of rows.

    Candidates are drawn until one is invertible.  For d >= 1 the identity
    is among the candidates, so each draw succeeds with positive
    probability and the loop ends; d < 1 raises ValueError.
    """
    if d < 1:
        raise ValueError(f"ambient dimension must be at least 1, got {d}")
    m = d + 1
    while True:
        entries = [rng.randint(-5, 5) for _ in range(m * m)]
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
    Sturmfels, *Algorithms in Invariant Theory*).  A repeated point gives
    the determinant two equal rows; six distinct ones read the bracket table.
    """
    if config.d != 2 or config.n != 6:
        raise ValueError("conic membership is a test for six points in the plane")
    if len(config.support()) < 6:
        return True
    b = config._brackets[0]
    return b[0, 1, 2] * b[0, 3, 4] * b[1, 3, 5] * b[2, 4, 5] == (
        b[0, 1, 3] * b[0, 2, 4] * b[1, 2, 5] * b[3, 4, 5]
    )
