"""The Segre cubic and the Igusa quartic in symmetric coordinates.

Both threefolds live in the hyperplane sum(X_i) = 0 inside P^5:

    cubic:    sum X_i = 0,  sum X_i^3 = 0
    quartic:  sum X_i = 0,  (sum X_i^2)^2 - 4 sum X_i^4 = 0

In these coordinates both are invariant under all 720 coordinate
permutations.  The quartic is singular along fifteen lines, one per way of
splitting the six coordinates into three pairs; the cubic has ten nodes,
the sign classes of permutations of (1,1,1,-1,-1,-1).  The two are
projectively dual: the tangent-hyperplane (Gauss) map of the cubic,
normalized back into the sum-zero hyperplane, lands on the quartic.

Exact operations take rational coordinates.  The singularity test scales
the point to integers and decides the Jacobian rank by the fraction-free
integer elimination of ``exact``; sampled cubic points are built as
integers throughout.  The duality sampler's irrational points have
coordinates a + b sqrt(D) with integers a, b, and are decided exactly too.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .exact import echelon, integer_vector

__all__ = [
    "Hypersurface",
    "evaluate",
    "gradient",
    "is_singular_point",
    "PairLine",
    "pair_partition_lines",
    "line_point",
    "line_contains",
    "line_intersections",
    "segre_nodes",
    "pair_pattern_point",
    "random_cubic_points",
    "search_extra_singular_points",
    "gauss_image",
    "DualityReport",
    "duality_sample_check",
]


class Hypersurface(str, Enum):
    SEGRE_CUBIC = "SegreCubic"
    IGUSA_QUARTIC = "IgusaQuartic"


def evaluate(surface: Hypersurface, coords: Sequence) -> tuple:
    """Values of the two defining forms (linear, cubic or quartic)."""
    if len(coords) != 6:
        raise ValueError("expected six homogeneous coordinates")
    linear = sum(coords)
    if surface == Hypersurface.SEGRE_CUBIC:
        return linear, sum(x**3 for x in coords)
    p2 = sum(x * x for x in coords)
    p4 = sum(x**4 for x in coords)
    return linear, p2 * p2 - 4 * p4


def gradient(surface: Hypersurface, coords: Sequence) -> tuple:
    """Gradient of the degree form (the linear form's gradient is the
    all-ones vector, which callers supply themselves)."""
    if len(coords) != 6:
        raise ValueError("expected six homogeneous coordinates")
    if surface == Hypersurface.SEGRE_CUBIC:
        return tuple(3 * x * x for x in coords)
    p2 = sum(x * x for x in coords)
    return tuple(4 * x * p2 - 16 * x**3 for x in coords)


def is_singular_point(surface: Hypersurface, coords: Sequence[Fraction | int]) -> bool:
    """Exact singularity test at a point of the threefold.

    The threefold is cut out by the linear and the degree form together, so
    a point is singular when the 2x6 Jacobian of that pair drops rank.
    The Jacobian is taken at the integer multiple of the point, which only
    rescales its gradient row.  Zero vectors and points not on the
    threefold are rejected.
    """
    point = integer_vector(coords)
    if not any(point):
        raise ValueError("zero vector is not a projective point")
    values = evaluate(surface, [Fraction(x) for x in coords])
    if values != (0, 0):
        raise ValueError(
            f"point is not on {surface.value}: forms evaluate to {values[0]}, {values[1]}"
        )
    return len(echelon([(1,) * 6, gradient(surface, point)])[1]) < 2


@dataclass(frozen=True)
class PairLine:
    """A line of the quartic: coordinates constant on three index pairs,
    with the three pair values summing to zero."""

    pairs: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __str__(self) -> str:
        return "".join(f"({i + 1},{j + 1})" for i, j in self.pairs)


def pair_partition_lines() -> tuple[PairLine, ...]:
    """The fifteen pairings of the six coordinates into three pairs."""

    def matchings(indices):
        if not indices:
            yield ()
            return
        first = indices[0]
        for k in range(1, len(indices)):
            rest = indices[1:k] + indices[k + 1 :]
            for tail in matchings(rest):
                yield ((first, indices[k]),) + tail

    return tuple(PairLine(m) for m in matchings(tuple(range(6))))


def line_point(line: PairLine, a, b, c=None) -> tuple:
    """The point of the line with pair values (a, b, c); c defaults to
    -a-b so the result is always on the quartic."""
    if c is None:
        c = -a - b
    if a + b + c != 0:
        raise ValueError("pair values must sum to zero")
    coords = [0] * 6
    for value, (i, j) in zip((a, b, c), line.pairs):
        coords[i] = value
        coords[j] = value
    if all(x == 0 for x in coords):
        raise ValueError("zero vector is not a projective point")
    return tuple(coords)


def line_contains(line: PairLine, coords: Sequence[Fraction | int]) -> bool:
    return (
        all(coords[i] == coords[j] for i, j in line.pairs)
        and sum(coords) == 0
    )


def line_intersections() -> dict[tuple[int, ...], tuple[int, ...]]:
    """All pairwise intersection points of the fifteen lines.

    Two lines meet exactly when their pairings share one pair; the merged
    pairing then forces four coordinates to one value and the shared pair
    to minus twice that value.  Returns canonical point -> sorted tuple of
    indices of the lines through it.
    """
    lines = pair_partition_lines()
    incidence: dict[tuple[int, ...], set[int]] = {}
    for a, b in itertools.combinations(range(len(lines)), 2):
        shared = set(lines[a].pairs) & set(lines[b].pairs)
        if len(shared) != 1:
            continue
        pair = shared.pop()
        coords = [1] * 6
        for i in pair:
            coords[i] = -2
        point = integer_vector(coords)
        incidence.setdefault(point, set()).update((a, b))
    return {point: tuple(sorted(ls)) for point, ls in incidence.items()}


def segre_nodes() -> tuple[tuple[int, ...], ...]:
    """The ten nodes of the cubic: permutations of (1,1,1,-1,-1,-1) up to
    global sign, normalized so coordinate zero carries +1."""
    nodes = []
    for extra in itertools.combinations(range(1, 6), 2):
        plus = {0, *extra}
        nodes.append(tuple(1 if i in plus else -1 for i in range(6)))
    return tuple(nodes)


def pair_pattern_point(a, b, c) -> tuple:
    """The cubic point (a, b, c, -a, -b, -c); both odd forms vanish."""
    return (a, b, c, -a, -b, -c)


_NODE = (1, 1, 1, -1, -1, -1)


def random_cubic_points(count: int, seed: int) -> list[tuple[int, ...]]:
    """Rational points of the cubic, by chords through a node.

    A generic line through a node meets the cubic doubly at the node and at
    one further point, which is therefore rational: for a direction V with
    sum(V) = 0 the residual intersection sits at t = -3 sum(N_i V_i^2) /
    sum(V_i^3).  Points are canonically scaled to integer coordinates.
    """
    rng = random.Random(seed)
    points: list[tuple[int, ...]] = []
    while len(points) < count:
        v = [rng.randint(-9, 9) for _ in range(5)]
        v.append(-sum(v))
        cubic_v = sum(x**3 for x in v)
        if cubic_v == 0:
            continue
        quad = sum(n * x * x for n, x in zip(_NODE, v))
        if quad == 0:
            continue
        # N + t V scaled by sum(V_i^3), which keeps it integral
        point = integer_vector([n * cubic_v - 3 * quad * x for n, x in zip(_NODE, v)])
        if all(x == 0 for x in point):
            continue
        points.append(point)
    return points


def search_extra_singular_points(count: int, seed: int) -> list[tuple[int, ...]]:
    """Randomized completeness check on the cubic's singular locus.

    Samples ``count`` rational points of the cubic and returns any that are
    singular yet not among the ten nodes.  Expected to come back empty.
    """
    known = {integer_vector(n) for n in segre_nodes()}
    extras = []
    for point in random_cubic_points(count, seed):
        if point in known:
            continue
        if is_singular_point(Hypersurface.SEGRE_CUBIC, point):
            extras.append(point)
    return extras


def gauss_image(coords: Sequence) -> tuple:
    """Tangent-hyperplane image of a cubic point, rescaled into the
    sum-zero hyperplane with integer factors: Y_i = 6 X_i^2 - sum X^2.

    At a node the gradient is proportional to the all-ones vector and the
    image collapses to zero; callers treat that as "no tangent direction".
    """
    p2 = sum(x * x for x in coords)
    return tuple(6 * x * x - p2 for x in coords)


class _Surd:
    """The number a + b sqrt(d) for integers a, b and a fixed d > 0 that is
    not a square, so that it is zero exactly when a = b = 0."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d

    def _parts(self, other) -> tuple:
        return (other.a, other.b) if isinstance(other, _Surd) else (other, 0)

    def __add__(self, other) -> "_Surd":
        a, b = self._parts(other)
        return _Surd(self.a + a, self.b + b, self.d)

    __radd__ = __add__

    def __sub__(self, other) -> "_Surd":
        return self + -1 * other

    def __rsub__(self, other) -> "_Surd":
        return -1 * self + other

    def __mul__(self, other) -> "_Surd":
        a, b = self._parts(other)
        return _Surd(self.a * a + self.b * b * self.d, self.a * b + self.b * a, self.d)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "_Surd":
        result = _Surd(1, 0, self.d)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (self.a, self.b) == self._parts(other)


def _sample_point(head: Sequence[int]) -> tuple | None:
    """The cubic point whose first four coordinates are ``head``, scaled
    by 6 sigma, or None when there is none.

    With sigma = sum(head) and tau = sum(head^3), the last two coordinates
    x, y satisfy x + y = -sigma and x^3 + y^3 = -tau; scaled by 6 sigma
    they are -3 sigma^2 +- sqrt(D) with D = 3 sigma (4 tau - sigma^3).
    The point is real when D >= 0 and rational when D is a square s^2, in
    which case s stands for sqrt(D) and every entry is an integer.
    """
    sigma = sum(head)
    disc = 3 * sigma * (4 * sum(h**3 for h in head) - sigma**3)
    if sigma == 0 or disc < 0:
        return None
    root = isqrt(disc)
    if root * root != disc:
        root = _Surd(0, 1, disc)
    centre = -3 * sigma * sigma
    return tuple(6 * sigma * h for h in head) + (centre + root, centre - root)


@dataclass(frozen=True)
class DualityReport:
    """Counts of a duality sampling run.  ``exact_samples`` counts the
    samples with rational coordinates; the others lie in Q(sqrt(D)).
    Every residual is exact, and the run passes when none is nonzero."""

    samples: int
    exact_samples: int
    skipped: int
    nonzero_residuals: int
    seed: int

    @property
    def passed(self) -> bool:
        return self.samples > 0 and self.nonzero_residuals == 0


def duality_sample_check(sample_count: int, _tolerance=None, seed: int = 0) -> DualityReport:
    """Sampled verification that the cubic's Gauss map lands on the quartic.

    Each sample fixes four random coordinates and solves for the other two
    (:func:`_sample_point`), so its quartic residual is exact and must be
    zero.  Samples whose image is zero (the nodes) are skipped, not failed.

    The second parameter is ignored: no verdict needs a tolerance, but the
    benchmark in ``bench/`` still passes one positionally.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    rng = random.Random(seed)
    samples = exact_samples = skipped = nonzero = 0
    while samples < sample_count:
        point = _sample_point([rng.randint(-9, 9) for _ in range(4)])
        if point is None:
            continue
        image = gauss_image(point)
        if all(y == 0 for y in image):
            skipped += 1
            continue
        if evaluate(Hypersurface.IGUSA_QUARTIC, image) != (0, 0):
            nonzero += 1
        samples += 1
        exact_samples += isinstance(point[-1], int)
    return DualityReport(
        samples=samples,
        exact_samples=exact_samples,
        skipped=skipped,
        nonzero_residuals=nonzero,
        seed=seed,
    )
