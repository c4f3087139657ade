import hashlib
import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from sixpoint import hypersurfaces
from sixpoint.hypersurfaces import (
    DualityReport,
    Hypersurface,
    duality_sample_check,
    evaluate,
    gauss_image,
    gradient,
    is_singular_point,
    line_intersections,
    line_point,
    pair_partition_lines,
    pair_pattern_point,
    random_cubic_points,
    search_extra_singular_points,
    segre_nodes,
)
from sixpoint.hypersurfaces import _digits, _sample_point, _Surd

SEGRE = Hypersurface.SEGRE_CUBIC
IGUSA = Hypersurface.IGUSA_QUARTIC

LINE_PARAMETERS = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))


def test_evaluate_examples():
    assert evaluate(SEGRE, (1, -1, 2, -2, 3, -3)) == (0, 0)
    assert evaluate(IGUSA, (1, 1, 1, -1, -1, -1)) == (0, 12)
    assert evaluate(IGUSA, (1, 1, -2, -2, 1, 1)) == (0, 0)
    with pytest.raises(ValueError):
        evaluate(SEGRE, (1, 2, 3))


def test_gradient_examples():
    assert gradient(SEGRE, (1, -1, 2, -2, 3, -3)) == (3, 3, 12, 12, 27, 27)
    assert gradient(SEGRE, (1, 1, 1, 1, 1, 1)) == (3,) * 6
    g = gradient(IGUSA, (1, 1, -2, -2, 1, 1))
    assert g[0] == 32


def test_singularity_examples():
    assert is_singular_point(IGUSA, (1, 1, 1, 1, -2, -2))
    assert not is_singular_point(IGUSA, (1, -1, 2, -2, 3, -3))
    assert is_singular_point(SEGRE, (1, 1, 1, -1, -1, -1))
    assert not is_singular_point(SEGRE, (1, -1, 2, -2, 3, -3))
    with pytest.raises(ValueError):
        is_singular_point(IGUSA, (1, 1, 1, -1, -1, -1))  # value 12, not on it


def test_singularity_rejects_the_zero_vector():
    for surface in (SEGRE, IGUSA):
        with pytest.raises(ValueError, match="zero vector is not a projective point"):
            is_singular_point(surface, (0,) * 6)
        with pytest.raises(ValueError, match="zero vector"):
            is_singular_point(surface, (Fraction(0),) * 6)


def test_singularity_of_rational_points():
    # scaling to integers changes neither the answer nor the error values
    assert is_singular_point(SEGRE, tuple(Fraction(x, 3) for x in (1, 1, 1, -1, -1, -1)))
    assert not is_singular_point(SEGRE, (Fraction(1, 2), Fraction(-1, 2), 1, -1, 3, -3))
    with pytest.raises(ValueError, match=r"forms evaluate to 21, 441$"):
        is_singular_point(SEGRE, (1, 2, 3, 4, 5, 6))
    with pytest.raises(ValueError, match=r"forms evaluate to 0, 3/4$"):
        is_singular_point(IGUSA, tuple(Fraction(x, 2) for x in (1, 1, 1, -1, -1, -1)))


def test_fifteen_pair_partition_lines():
    lines = pair_partition_lines()
    assert len(lines) == 15
    assert len({line.pairs for line in lines}) == 15
    for line in lines:
        flattened = sorted(i for pair in line.pairs for i in pair)
        assert flattened == list(range(6))


def test_lines_lie_on_the_quartic_and_are_singular():
    for line in pair_partition_lines():
        for a, b in LINE_PARAMETERS:
            point = line_point(line, a, b)
            assert all(point[i] == point[j] for i, j in line.pairs) and sum(point) == 0
            assert evaluate(IGUSA, point) == (0, 0)
            assert is_singular_point(IGUSA, point)


def test_line_point_validation():
    line = pair_partition_lines()[0]
    assert line_point(line, 1, 1) == (1, 1, 1, 1, -2, -2)
    with pytest.raises(ValueError, match="zero vector"):
        line_point(line, 0, 0)


def test_line_incidence_structure():
    crossings = line_intersections()
    assert len(crossings) == 15
    assert all(len(through) == 3 for through in crossings.values())
    per_line = {i: 0 for i in range(15)}
    for through in crossings.values():
        for i in through:
            per_line[i] += 1
    assert all(count == 3 for count in per_line.values())
    # the crossing points are the quadruple-coordinate points, all singular
    for point in crossings:
        assert is_singular_point(IGUSA, point)


def test_ten_nodes_on_the_cubic():
    nodes = segre_nodes()
    assert len(nodes) == 10
    assert len(set(nodes)) == 10
    for node in nodes:
        assert sorted(node) == [-1, -1, -1, 1, 1, 1]
        assert node[0] == 1  # sign-class representative
        assert evaluate(SEGRE, node) == (0, 0)
        assert is_singular_point(SEGRE, node)


def test_random_cubic_points_really_sit_on_the_cubic():
    points = random_cubic_points(200, seed=5)
    assert len(points) == 200
    for p in points:
        assert evaluate(SEGRE, p) == (0, 0)


def test_random_cubic_points_are_pinned():
    """SHA-256 of repr(random_cubic_points(200, s)), computed at commit
    67fe77f, when every digit came from its own randint(-9, 9) call."""
    pinned = {
        3: "107fa9fb7969c10af38cbddcebdb62b9fe30bd20e419ba47b9137f23f0c708d7",
        5: "91b25d5931658c371d4e30f44cd5b2c8e314905dcef527ed4fb953993b5f232d",
        11: "ba0c59d11cbd9ee033c3931bc69e0198d985e2500c6c452ee5b87ff9cae1e59e",
    }
    for seed, digest in pinned.items():
        drawn = repr(random_cubic_points(200, seed)).encode()
        assert hashlib.sha256(drawn).hexdigest() == digest, seed


@pytest.mark.parametrize("seed", [0, 1, 42, 2**31 - 1, 2**64 + 3])
def test_block_digits_are_the_randint_stream(seed):
    # 3,000 draws span about 80 blocks of 64 Mersenne Twister outputs
    rng = random.Random(seed)
    digits = _digits(seed)
    assert [next(digits) for _ in range(3000)] == [rng.randint(-9, 9) for _ in range(3000)]


def test_samplers_refuse_negative_seeds():
    # Random(-s) is seeded like Random(s): a negative seed would only
    # relabel the draws of its absolute value
    for call in (
        lambda: random_cubic_points(5, -5),
        lambda: search_extra_singular_points(5, -5),
        lambda: duality_sample_check(5, seed=-5),
    ):
        with pytest.raises(ValueError, match="seed must be nonnegative, got -5"):
            call()
    assert random_cubic_points(5, 0) and duality_sample_check(5, seed=0).passed


def test_singularity_matches_the_jacobian_rank():
    # the 2x6 Jacobian of the linear and the degree form, ranked by sympy
    cases = [(SEGRE, p) for p in [*segre_nodes(), *random_cubic_points(100, seed=3)]]
    cases += [
        (IGUSA, line_point(line, a, b))
        for line in pair_partition_lines()
        for a, b in LINE_PARAMETERS
    ]
    cases.append((IGUSA, (1, -1, 2, -2, 3, -3)))
    singular = 0
    for surface, point in cases:
        drops = sympy.Matrix([[1] * 6, list(gradient(surface, point))]).rank() < 2
        assert is_singular_point(surface, point) == drops, point
        singular += drops
    assert 0 < singular < len(cases)


def test_no_extra_singular_points_in_a_quick_search():
    assert search_extra_singular_points(2000, seed=11) == []


def test_forms_invariant_under_coordinate_permutations():
    rng = random.Random(2718)
    for _ in range(100):
        point = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)
        )
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled = tuple(point[i] for i in perm)
        for surface in (SEGRE, IGUSA):
            assert evaluate(surface, shuffled) == evaluate(surface, point)


def test_gauss_image_of_pair_patterns_is_exactly_on_the_quartic():
    triples = [
        (a, b, c)
        for a, b, c in itertools.combinations(range(1, 10), 3)
        if len({abs(a), abs(b), abs(c)}) == 3
    ][:25]
    assert len(triples) >= 20
    for a, b, c in triples:
        point = pair_pattern_point(a, b, c)
        assert evaluate(SEGRE, point) == (0, 0)
        image = gauss_image(point)
        assert sum(image) == 0
        assert evaluate(IGUSA, image) == (0, 0)


def test_gauss_image_collapses_at_nodes():
    image = gauss_image((1, 1, 1, -1, -1, -1))
    assert all(y == 0 for y in image)


def test_duality_sampler_passes_and_is_deterministic():
    report = duality_sample_check(100, seed=42)
    assert isinstance(report, DualityReport)
    assert report.samples == 100
    assert report.passed
    assert report.nonzero_residuals == 0
    assert report == duality_sample_check(100, seed=42)


def test_duality_sampler_argument_validation():
    with pytest.raises(ValueError):
        duality_sample_check(0, seed=1)
    # the second positional parameter is accepted and ignored
    assert duality_sample_check(10, 1e-30, 1) == duality_sample_check(10, seed=1)


def test_duality_draws_are_pinned():
    """(samples, rational samples, skipped) at 250 samples, as first drawn
    by the double-precision sampler this one replaced."""
    pinned = {
        0: (250, 109, 0),
        1: (250, 117, 1),
        2: (250, 109, 2),
        23: (250, 95, 1),
        42: (250, 109, 0),
    }
    for seed, counts in pinned.items():
        report = duality_sample_check(250, seed=seed)
        assert (report.samples, report.exact_samples, report.skipped) == counts, seed
        assert report.nonzero_residuals == 0, seed


def _shifted_gauss_image(original):
    """A Gauss map moved off the quartic but kept in the sum-zero hyperplane."""

    def corrupted(coords):
        image = list(original(coords))
        image[0] += 1
        image[1] -= 1
        return tuple(image)

    return corrupted


def test_corrupted_gauss_map_fails_every_sample(monkeypatch):
    monkeypatch.setattr(
        hypersurfaces, "gauss_image", _shifted_gauss_image(hypersurfaces.gauss_image)
    )
    for seed in (0, 2, 42):
        report = duality_sample_check(250, seed=seed)
        assert not report.passed
        assert report.nonzero_residuals == report.samples == 250


def _parts(value):
    return (value.a, value.b) if isinstance(value, _Surd) else (value, 0)


def test_surds_collapse_to_ints_in_the_sampler(monkeypatch):
    """Rational samples build no _Surd, and an irrational one at most 18:
    every rational intermediate value (p2, p4, the linear form, the
    residual) is a plain int."""
    built = []
    init = _Surd.__init__

    def counting_init(self, a, b, d):
        built.append(1)
        init(self, a, b, d)

    # each sample's count runs from one _sample_point call to the next
    starts, points = [], []
    sample_point = hypersurfaces._sample_point

    def recording_sample_point(head):
        starts.append(len(built))
        points.append(sample_point(head))
        return points[-1]

    monkeypatch.setattr(_Surd, "__init__", counting_init)
    monkeypatch.setattr(hypersurfaces, "_sample_point", recording_sample_point)
    report = duality_sample_check(250, seed=42)
    assert report.passed and report.skipped == 0
    counts = [end - start for start, end in zip(starts, starts[1:] + [len(built)])]
    irrational = [n for n, point in zip(counts, points) if point and not isinstance(point[-1], int)]
    rational = [n for n, point in zip(counts, points) if not point or isinstance(point[-1], int)]
    assert len(irrational) == report.samples - report.exact_samples == 141
    assert max(irrational) <= 18
    assert not any(rational)


heads = st.lists(st.integers(-40, 40), min_size=4, max_size=4)


@settings(deadline=None, max_examples=300)
@given(heads)
def test_sampled_points_are_exact_cubic_points_with_quartic_images(head):
    sigma = sum(head)
    disc = 3 * sigma * (4 * sum(h**3 for h in head) - sigma**3)
    assume(sigma != 0 and disc >= 0)
    point = _sample_point(head)
    assert point[:4] == tuple(6 * sigma * h for h in head)
    assert isinstance(point[-1], int) == (isqrt(disc) ** 2 == disc)
    for value in evaluate(SEGRE, point):
        assert _parts(value) == (0, 0)
    image = gauss_image(point)
    for value in (sum(image),) + evaluate(IGUSA, image):
        assert _parts(value) == (0, 0)


def _sympy_value(value):
    if isinstance(value, _Surd):
        return value.a + value.b * sympy.sqrt(value.d)
    return sympy.Rational(value.numerator, value.denominator)


def _textbook_forms(point):
    """The defining forms and the Gauss image, expanded by sympy."""
    xs = [_sympy_value(x) for x in point]
    p2 = sum(x**2 for x in xs)
    forms = {
        SEGRE: (sum(xs), sum(x**3 for x in xs)),
        IGUSA: (sum(xs), p2**2 - 4 * sum(x**4 for x in xs)),
    }
    return forms, tuple(6 * x**2 - p2 for x in xs)


def _same(computed, expected) -> bool:
    return len(computed) == len(expected) and all(
        sympy.expand(_sympy_value(c) - e) == 0 for c, e in zip(computed, expected)
    )


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        st.lists(st.integers(-10**6, 10**6), min_size=6, max_size=6),
        st.lists(st.fractions(-100, 100, max_denominator=50), min_size=6, max_size=6),
        st.lists(st.integers(-50, 50), min_size=4, max_size=4).map(_sample_point).filter(bool),
    )
)
def test_forms_and_gauss_image_match_textbook_expansions(point):
    forms, image = _textbook_forms(point)
    for surface in (SEGRE, IGUSA):
        assert _same(evaluate(surface, point), forms[surface]), surface
    assert _same(gauss_image(point), image)


def test_sample_point_examples():
    assert _sample_point([1, -1, 2, -2]) is None  # sigma = 0
    assert _sample_point([1, 1, 1, 1]) is None  # D = -576
    assert _sample_point([1, 0, 0, 0]) == (6, 0, 0, 0, 0, -6)  # D = 9
    *rational, x, y = _sample_point([1, 2, 3, -7])  # D = 3681, not a square
    assert rational == [-6, -12, -18, 42]
    assert (x.a, x.b, x.d) == (-3, 1, 3681) and (y.a, y.b) == (-3, -1)


coefficients = st.integers(-10**6, 10**6)


@settings(deadline=None, max_examples=200)
@given(
    # a live _Surd has a nonzero sqrt(d) part
    st.tuples(coefficients, coefficients.filter(bool), coefficients, coefficients.filter(bool)),
    st.integers(2, 500).filter(lambda d: isqrt(d) ** 2 != d),
    st.integers(0, 5),
)
def test_surd_arithmetic_matches_sympy(parts, d, exponent):
    a, b, c, e = parts
    x, y = _Surd(a, b, d), _Surd(c, e, d)
    root = sympy.sqrt(d)
    sx, sy = a + b * root, c + e * root

    def agrees(value, expected):
        a_, b_ = _parts(value)
        return sympy.expand(a_ + b_ * root - expected) == 0

    assert agrees(x * y, sx * sy)
    assert agrees(x + y, sx + sy) and agrees(x - y, sx - sy)
    assert agrees(3 * x - c, 3 * sx - c) and agrees(c - x, c - sx) and agrees(c + x, c + sx)
    assert agrees(x - c, sx - c) and agrees(x + c, sx + c) and agrees(-x, -sx)
    assert agrees(x**exponent, sx**exponent)
    assert (x == y) == (a == c and b == e)
    assert x != a
    # every _Surd an operator returns has a nonzero sqrt(d) part; a result
    # whose sqrt(d) part is zero is a plain int
    for value in (x * y, x + y, x - y, 3 * x - c, c - x, c + x, x - c, x + c, -x, x * c, c * x, x**exponent):
        assert type(value) is int or (type(value) is _Surd and value.b != 0)
    assert type(x * 0) is int and x * 0 == 0
    assert type(0 * x) is int and 0 * x == 0
    conjugate = _Surd(a, -b, d)
    for value in (x - x, x * conjugate, x**0, x + -x, (c + x) + (-x), x + (c - x) - c):
        assert type(value) is int
    assert x * conjugate == a * a - b * b * d and (c + x) + (-x) == c
