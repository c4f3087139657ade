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
the point to integers and compares the gradient entries; sampled cubic
points are built as integers throughout.  The duality sampler's irrational
points have coordinates a + b sqrt(D) with integers a, b, and are decided
exactly too; every intermediate value that is rational (the power sums, the
linear form, the residual) is a plain int.

Both samplers draw their coordinates from one stream of digits in -9..9,
the values ``random.Random(seed).randint(-9, 9)`` returns one call at a
time, but taken 64 Mersenne Twister outputs per ``getrandbits`` call (see
:func:`_digits`).  Seeds are nonnegative: ``Random(-s)`` is seeded like
``Random(s)``, so a negative seed would only rename the draws of its
absolute value.
"""

from __future__ import annotations

import itertools
import random
from enum import Enum
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .exact import _Value, integer_vector

__all__ = [
    "Hypersurface",
    "evaluate",
    "gradient",
    "is_singular_point",
    "PairLine",
    "pair_partition_lines",
    "line_point",
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
        return linear, sum([x * x * x for x in coords])
    squares = [x * x for x in coords]
    p2 = sum(squares)
    p4 = sum([q * q for q in squares])
    return linear, p2 * p2 - 4 * p4


def gradient(surface: Hypersurface, coords: Sequence) -> tuple:
    """Gradient of the degree form (the linear form's gradient is the
    all-ones vector, which callers supply themselves)."""
    if len(coords) != 6:
        raise ValueError("expected six homogeneous coordinates")
    if surface == Hypersurface.SEGRE_CUBIC:
        return tuple([3 * x * x for x in coords])
    p2 = sum([x * x for x in coords])
    return tuple([4 * x * p2 - 16 * x * x * x for x in coords])


def is_singular_point(surface: Hypersurface, coords: Sequence[Fraction | int]) -> bool:
    """Exact singularity test at a point of the threefold.

    The threefold is cut out by the linear and the degree form together, so
    a point is singular when the 2x6 Jacobian of that pair drops rank.  Its
    first row is all ones, so the rank is below 2 exactly when the gradient
    of the degree form has all entries equal.  The gradient is taken at the
    integer multiple of the point, which only rescales it.  Zero vectors and
    points not on the threefold are rejected.
    """
    point = integer_vector(coords)
    if not any(point):
        raise ValueError("zero vector is not a projective point")
    values = evaluate(surface, coords)
    if values != (0, 0):
        raise ValueError(
            f"point is not on {surface.value}: forms evaluate to {values[0]}, {values[1]}"
        )
    return len(set(gradient(surface, point))) == 1


class PairLine(_Value):
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


def line_point(line: PairLine, a, b) -> tuple:
    """The point of the line with pair values (a, b, -a-b), so the result
    is always on the quartic."""
    coords = [0] * 6
    for value, (i, j) in zip((a, b, -a - b), line.pairs):
        coords[i] = coords[j] = value
    if not any(coords):
        raise ValueError("zero vector is not a projective point")
    return tuple(coords)


def line_intersections() -> dict[tuple[int, ...], tuple[int, ...]]:
    """All pairwise intersection points of the fifteen lines.

    Two lines meet exactly when their pairings share one pair {i, j}: the
    other two pairs of each line force the four remaining coordinates to
    one value, and the sum-zero condition gives coordinates i and j minus
    twice that value.  That point lies on exactly the three lines whose
    pairings hold {i, j}, so there is one point per pair.  Returns
    canonical point -> sorted tuple of indices of the lines through it,
    with the points in the order of their pairs.
    """
    lines = pair_partition_lines()
    return {
        integer_vector([-2 if k in pair else 1 for k in range(6)]): tuple(
            n for n, line in enumerate(lines) if pair in line.pairs
        )
        for pair in itertools.combinations(range(6), 2)
    }


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
# segre_nodes() are already canonical integer vectors
_NODES = frozenset(segre_nodes())


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")


def _digits(seed: int):
    """The digits random.Random(seed).randint(-9, 9) returns, in order.

    randint(-9, 9) is -9 + getrandbits(5), redrawn while the draw is 19 or
    more, and getrandbits(5) is the top five bits of one 32-bit Mersenne
    Twister output.  getrandbits(2048) packs the next 64 outputs, the first
    in the lowest 32 bits, so byte 3 of each little-endian word is the top
    byte of one output and b >> 3 its top five bits; a byte of 152 or more
    is a redraw.  The unread rest of the last block is never drawn from
    elsewhere: each caller owns its generator.
    """
    getrandbits = random.Random(seed).getrandbits
    while True:
        for b in getrandbits(2048).to_bytes(256, "little")[3::4]:
            if b < 152:
                yield (b >> 3) - 9


def random_cubic_points(count: int, seed: int) -> list[tuple[int, ...]]:
    """Rational points of the cubic, by chords through a node.

    A generic line through a node meets the cubic doubly at the node and at
    one further point, which is therefore rational: for a direction V with
    sum(V) = 0 the residual intersection sits at t = -3 sum(N_i V_i^2) /
    sum(V_i^3).  Points are canonically scaled to integer coordinates.

    The first five entries of each V are the next five values of
    randint(-9, 9) on random.Random(seed), drawn in blocks by
    :func:`_digits`.  The seed must be nonnegative.
    """
    _check_seed(seed)
    digit = _digits(seed).__next__
    points: list[tuple[int, ...]] = []
    while len(points) < count:
        v = [digit(), digit(), digit(), digit(), digit()]
        v.append(-sum(v))
        cubic_v = sum([x * x * x for x in v])
        if cubic_v == 0:
            continue
        v0, v1, v2, v3, v4, v5 = v
        # sum(N_i V_i^2) with N = _NODE
        quad = v0 * v0 + v1 * v1 + v2 * v2 - v3 * v3 - v4 * v4 - v5 * v5
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
    extras = []
    for point in random_cubic_points(count, seed):
        if point in _NODES:
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
    squares = [x * x for x in coords]
    p2 = sum(squares)
    return tuple([6 * q - p2 for q in squares])


class _Surd:
    """The number a + b sqrt(d) for integers a, b != 0 and a fixed d > 0
    that is not a square, so that it is never zero or rational.

    The other operand is an int or a _Surd with the same d.  Since b != 0,
    a result can lose its sqrt(d) part only in a sum or difference of two
    _Surds or in a product with 0 or another _Surd; those results are the
    plain int a when b cancels, so the arithmetic after them is int
    arithmetic.  Every other result is a _Surd.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a, self.b, self.d = a, b, d

    def __neg__(self):
        return _Surd(-self.a, -self.b, self.d)

    def __add__(self, other):
        if type(other) is int:
            return _Surd(self.a + other, self.b, self.d)
        a, b = self.a + other.a, self.b + other.b
        return _Surd(a, b, self.d) if b else a

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is int:
            return _Surd(self.a - other, self.b, self.d)
        a, b = self.a - other.a, self.b - other.b
        return _Surd(a, b, self.d) if b else a

    def __rsub__(self, other):
        return _Surd(other - self.a, -self.b, self.d)

    def __mul__(self, other):
        if type(other) is int:
            return _Surd(self.a * other, self.b * other, self.d) if other else 0
        d = self.d
        a, b = self.a * other.a + self.b * other.b * d, self.a * other.b + self.b * other.a
        return _Surd(a, b, d) if b else a

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        result = 1
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, _Surd):
            return self.a == other.a and self.b == other.b
        return self.b == 0 and self.a == other


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
    if sigma == 0:
        return None
    disc = 3 * sigma * (4 * sum([h * h * h for h in head]) - sigma * sigma * sigma)
    if disc < 0:
        return None
    root = isqrt(disc)
    if root * root != disc:
        root = _Surd(0, 1, disc)
    centre = -3 * sigma * sigma
    scale = 6 * sigma
    h0, h1, h2, h3 = head
    return (scale * h0, scale * h1, scale * h2, scale * h3, centre + root, centre - root)


class DualityReport(_Value):
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

    The four coordinates are the next four values of randint(-9, 9) on
    random.Random(seed), drawn in blocks by :func:`_digits`; the seed must
    be nonnegative.

    The second parameter is ignored: no verdict needs a tolerance, but the
    benchmark in ``bench/`` still passes one positionally.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    _check_seed(seed)
    digit = _digits(seed).__next__
    samples = exact_samples = skipped = nonzero = 0
    while samples < sample_count:
        point = _sample_point([digit(), digit(), digit(), digit()])
        if point is None:
            continue
        image = gauss_image(point)
        # a _Surd entry is never zero, and so is truthy
        if not any(image):
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
