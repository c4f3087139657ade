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
the point to integers and compares the gradient entries.  Sampled cubic
points are built as integers throughout and canonicalized once, as they are
built; the singular-point search checks each one's membership exactly and
then tests the gradient on that integer point, without scaling it again.  A
duality sample's last two coordinates may be irrational, a conjugate pair
c +- sqrt(D); the verdict reads only power sums of the Gauss image, which
are symmetric in the pair and hence integers, so every sample is decided in
int arithmetic.

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
from math import gcd, isqrt
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
    return _constant_gradient(surface, point)


def _constant_gradient(surface: Hypersurface, point: tuple[int, ...]) -> bool:
    """Whether the degree form's gradient has all entries equal at a
    nonzero integer point of the threefold (unchecked): the singularity
    test itself.  On the cubic the entries are 3 X_i^2."""
    if surface is Hypersurface.SEGRE_CUBIC:
        x0, x1, x2, x3, x4, x5 = point
        return x0 * x0 == x1 * x1 == x2 * x2 == x3 * x3 == x4 * x4 == x5 * x5
    return len(set(gradient(surface, point))) == 1


# S_6 index sets: the 15 duads (the crossings of the quartic's lines), the 15
# synthemes, three disjoint duads in lexicographic order (its lines), and the
# 10 triads holding index 0 (the cubic's nodes, one per 3+3 split)
_DUADS = tuple(itertools.combinations(range(6), 2))
_SYNTHEMES = tuple(
    s for s in itertools.combinations(_DUADS, 3) if len({*s[0], *s[1], *s[2]}) == 6
)
_TRIADS = tuple(t for t in itertools.combinations(range(6), 3) if t[0] == 0)


class PairLine(_Value):
    """A line of the quartic: coordinates constant on three index pairs,
    with the three pair values summing to zero."""

    pairs: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]

    def __str__(self) -> str:
        return "".join(f"({i + 1},{j + 1})" for i, j in self.pairs)


def pair_partition_lines() -> tuple[PairLine, ...]:
    """The fifteen pairings of the six coordinates into three pairs."""
    return tuple(PairLine(s) for s in _SYNTHEMES)


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
    twice that value, one point per pair.  The lines through a point are
    read off the point itself: a point of the sum-zero hyperplane lies on
    a line exactly when it is constant on the line's three pairs.  Returns
    canonical point -> sorted tuple of indices of the lines through it,
    with the points in the order of their pairs.
    """
    points = (integer_vector([-2 if k in duad else 1 for k in range(6)]) for duad in _DUADS)
    return {
        p: tuple(n for n, s in enumerate(_SYNTHEMES) if all(p[i] == p[j] for i, j in s))
        for p in points
    }


def segre_nodes() -> tuple[tuple[int, ...], ...]:
    """The ten nodes of the cubic: permutations of (1,1,1,-1,-1,-1) up to
    global sign, normalized so coordinate zero carries +1."""
    return tuple(tuple(1 if i in triad else -1 for i in range(6)) for triad in _TRIADS)


def pair_pattern_point(a, b, c) -> tuple:
    """The cubic point (a, b, c, -a, -b, -c); both odd forms vanish."""
    return (a, b, c, -a, -b, -c)


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


def _chord_points(seed: int):
    """The cubic points of :func:`random_cubic_points`, without end.

    The chords run through the node N = (1, 1, 1, -1, -1, -1), and each
    direction takes the next five digits.  The residual point
    N cubic_v - 3 quad V is divided by its content, negated when its first
    nonzero entry is negative, once, as it is built.  It is never zero:
    that needs V proportional to N, whose cubic form vanishes.
    """
    digits = _digits(seed)
    for v0, v1, v2, v3, v4 in zip(digits, digits, digits, digits, digits):
        v5 = -(v0 + v1 + v2 + v3 + v4)
        cubic_v = (
            v0 * v0 * v0 + v1 * v1 * v1 + v2 * v2 * v2 + v3 * v3 * v3 + v4 * v4 * v4 + v5 * v5 * v5
        )
        if cubic_v == 0:
            continue
        # sum(N_i V_i^2)
        quad = v0 * v0 + v1 * v1 + v2 * v2 - v3 * v3 - v4 * v4 - v5 * v5
        if quad == 0:
            continue
        # N + t V scaled by sum(V_i^3), which keeps it integral
        q = 3 * quad
        x0, x1, x2 = cubic_v - q * v0, cubic_v - q * v1, cubic_v - q * v2
        x3, x4, x5 = -cubic_v - q * v3, -cubic_v - q * v4, -cubic_v - q * v5
        g = gcd(x0, x1, x2, x3, x4, x5)
        if (x0 or x1 or x2 or x3 or x4 or x5) < 0:
            g = -g
        if g == 1:
            yield x0, x1, x2, x3, x4, x5
        else:
            yield x0 // g, x1 // g, x2 // g, x3 // g, x4 // g, x5 // g


def random_cubic_points(count: int, seed: int) -> list[tuple[int, ...]]:
    """Rational points of the cubic, by chords through a node.

    A generic line through a node meets the cubic doubly at the node and at
    one further point, which is therefore rational: for a direction V with
    sum(V) = 0 the residual intersection sits at t = -3 sum(N_i V_i^2) /
    sum(V_i^3).  Points are built as integers and canonicalized once, as
    they are built: content 1, first nonzero coordinate positive.

    The first five entries of each V are the next five values of
    randint(-9, 9) on random.Random(seed), drawn in blocks by
    :func:`_digits`.  The seed must be nonnegative.
    """
    _check_seed(seed)
    points = _chord_points(seed).__next__
    return [points() for _ in range(count)]


def search_extra_singular_points(count: int, seed: int) -> list[tuple[int, ...]]:
    """Randomized completeness check on the cubic's singular locus.

    Samples ``count`` rational points of the cubic and returns any that are
    singular yet not among the ten nodes.  Expected to come back empty.
    Each point other than a node is first checked to satisfy sum X = 0 and
    sum X^3 = 0 exactly (RuntimeError names one that does not); then the
    gradient test of :func:`is_singular_point` is applied to the integer
    point as sampled, which is already canonical.
    """
    extras = []
    for point in random_cubic_points(count, seed):
        if point in _NODES:
            continue
        x0, x1, x2, x3, x4, x5 = point
        if x0 + x1 + x2 + x3 + x4 + x5 or (
            x0 * x0 * x0 + x1 * x1 * x1 + x2 * x2 * x2 + x3 * x3 * x3 + x4 * x4 * x4 + x5 * x5 * x5
        ):
            raise RuntimeError(f"sampled point {point} is not on the Segre cubic")
        if _constant_gradient(Hypersurface.SEGRE_CUBIC, point):
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


def _image_sums(head: Sequence[int]) -> tuple | None:
    """The Gauss image of the cubic point whose first four coordinates are
    ``head``, scaled by 6 sigma, as integers, or None when there is no real
    such point.

    With sigma = sum(head) and tau = sum(head^3), the last two coordinates
    x, y satisfy x + y = -sigma and x^3 + y^3 = -tau; scaled by 6 sigma
    they are the conjugates c +- sqrt(D), with c = -3 sigma^2 and
    D = 3 sigma (4 tau - sigma^3).  The point is real when D >= 0 and
    rational when D is a square.  p2 = sum X^2 is an integer, and the pair's
    images 6 (c +- sqrt(D))^2 - p2 are the conjugates u +- v sqrt(D) with
    u = 6 (c^2 + D) - p2 and v = 12 c, so their power sums are integers too.

    Returns (D, the four head images, the pair's first, second and fourth
    power sums).
    """
    h0, h1, h2, h3 = head
    sigma = h0 + h1 + h2 + h3
    if sigma == 0:
        return None
    a0, a1, a2, a3 = h0 * h0, h1 * h1, h2 * h2, h3 * h3
    sigma2 = sigma * sigma
    disc = 3 * sigma * (4 * (a0 * h0 + a1 * h1 + a2 * h2 + a3 * h3) - sigma2 * sigma)
    if disc < 0:
        return None
    # the head scaled by 6 sigma has squares 36 sigma^2 a_i
    scale2 = 36 * sigma2
    centre = -3 * sigma2
    pair2 = centre * centre + disc  # half the pair's sum of squares
    p2 = scale2 * (a0 + a1 + a2 + a3) + 2 * pair2
    u = 6 * pair2 - p2
    uu, vv = u * u, 144 * centre * centre * disc  # u^2 and v^2 D
    pair_sums = (2 * u, 2 * (uu + vv), 2 * (uu * uu + 6 * uu * vv + vv * vv))
    scale6 = 6 * scale2
    return disc, [scale6 * a0 - p2, scale6 * a1 - p2, scale6 * a2 - p2, scale6 * a3 - p2], pair_sums


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

    Each sample fixes four random coordinates and solves for the other two,
    a conjugate pair c +- sqrt(D) (:func:`_image_sums`).  The image's linear
    form sum Y and quartic residual (sum Y^2)^2 - 4 sum Y^4 add the pair's
    integer power sums to the four head images' ones, so both are exact
    ints and must be zero.  Samples whose image is zero (the nodes) are
    skipped, not failed.

    The four coordinates are the next four values of randint(-9, 9) on
    random.Random(seed), drawn in blocks by :func:`_digits`; the seed must
    be nonnegative.

    The second parameter is ignored: no verdict needs a tolerance, but the
    benchmark in ``bench/`` still passes one positionally.
    """
    if sample_count < 1:
        raise ValueError("need at least one sample")
    _check_seed(seed)
    digits = _digits(seed)
    samples = exact_samples = skipped = nonzero = 0
    for head in zip(digits, digits, digits, digits):
        sums = _image_sums(head)
        if sums is None:
            continue
        disc, (y0, y1, y2, y3), (pair1, pair2, pair4) = sums
        q0, q1, q2, q3 = y0 * y0, y1 * y1, y2 * y2, y3 * y3
        p2 = q0 + q1 + q2 + q3 + pair2
        # a real image's sum of squares vanishes only on the zero image
        if not p2:
            skipped += 1
            continue
        p4 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3 + pair4
        if y0 + y1 + y2 + y3 + pair1 or p2 * p2 - 4 * p4:
            nonzero += 1
        samples += 1
        root = isqrt(disc)
        exact_samples += root * root == disc
        if samples == sample_count:
            break
    return DualityReport(
        samples=samples,
        exact_samples=exact_samples,
        skipped=skipped,
        nonzero_residuals=nonzero,
        seed=seed,
    )
