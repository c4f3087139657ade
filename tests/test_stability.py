import itertools
import random
import weakref
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import sixpoint.stability as stability_module
from sixpoint.exact import _inverse_up_to_scale, echelon
from sixpoint.stability import (
    OneParameterSubgroup,
    PointConfiguration,
    Status,
    WeightVector,
    Witness,
    apply_transformation,
    lies_on_conic,
    one_parameter_limit,
    random_transformation,
    stability_status,
    stabilizer_dimension,
    symmetric_weights,
)
from sixpoint.strata import _plane_frame, polystable_degeneration
from test_strata import CENSUS_GRID

E0, E1, E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
W = symmetric_weights(6, 2)


def doubled_vertices():
    return PointConfiguration(2, [E0, E0, E1, E1, E2, E2])


def conic_points():
    return PointConfiguration(2, [(1, t, t * t) for t in range(6)])


def test_point_canonicalization():
    config = PointConfiguration(2, [(Fraction(1, 2), Fraction(-3, 4), 0)])
    assert config.points == ((2, -3, 0),)
    assert PointConfiguration(2, [(2, 0, 0)]) == PointConfiguration(2, [(1, 0, 0)])
    with pytest.raises(ValueError):
        PointConfiguration(2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        PointConfiguration(2, [(1, 0)])


def test_support_is_built_once_and_shared():
    # flats, brackets and stabilizer_dimension each ask for the support
    points = [(2, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0), (0, 0, 1)]
    config = PointConfiguration(2, points)
    support = config.support()
    assert support == ((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1))
    config.flats, stabilizer_dimension(config), lies_on_conic(config)
    assert config.support() is support
    # the support is kept beside the fields, not as one
    assert PointConfiguration._fields == ("d", "points")
    twin = PointConfiguration(2, config.points)
    assert twin == config and hash(twin) == hash(config)
    assert twin.support() == support and twin.support() is not support


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(2, [Fraction(1, 2)] * 5)  # sums to 5/2, not 3
    with pytest.raises(ValueError):
        WeightVector(2, [Fraction(3, 2), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        WeightVector(1, [0, 1, 1])
    assert symmetric_weights(6, 2).weights == (Fraction(1, 2),) * 6
    # the weights (d + 1)/n need a point to share d + 1
    for n in (0, -2):
        with pytest.raises(ValueError, match=f"at least one point, got n={n}"):
            symmetric_weights(n, 2)


def test_doubled_vertices_strictly_semistable_with_both_witness_shapes():
    verdict = stability_status(doubled_vertices(), W)
    assert verdict.status == Status.STRICTLY_SEMISTABLE
    equalities = verdict.equality_witnesses()
    points = [w for w in equalities if w.dim == 0]
    lines = [w for w in equalities if w.dim == 1]
    assert [w.marks for w in points] == [(0, 1), (2, 3), (4, 5)]
    assert all(w.weight == 1 for w in points)
    assert [w.marks for w in lines] == [(0, 1, 2, 3), (0, 1, 4, 5), (2, 3, 4, 5)]
    assert all(w.weight == 2 for w in lines)


def test_triple_point_unstable():
    config = PointConfiguration(2, [E0, E0, E0, E1, E2, (1, 1, 1)])
    verdict = stability_status(config, W)
    assert verdict.status == Status.UNSTABLE
    violation = next(w for w in verdict.witnesses if w.violation)
    assert violation.marks == (0, 1, 2)
    assert violation.weight == Fraction(3, 2)


def test_generic_points_stable():
    assert stability_status(conic_points(), W).status == Status.STABLE


def test_five_marks_on_a_line_unstable():
    config = PointConfiguration(2, [E0, E1, (1, 1, 0), (1, 2, 0), (1, 3, 0), E2])
    verdict = stability_status(config, W)
    assert verdict.status == Status.UNSTABLE
    violation = next(w for w in verdict.witnesses if w.violation and w.dim == 1)
    assert violation.weight == Fraction(5, 2)


def test_input_mismatches_rejected():
    with pytest.raises(ValueError):
        stability_status(doubled_vertices(), symmetric_weights(5, 2))
    with pytest.raises(ValueError):
        stability_status(doubled_vertices(), symmetric_weights(6, 1))


def test_projective_line_configurations():
    # the same code path covers configurations on the line
    w1 = symmetric_weights(6, 1)
    distinct = PointConfiguration(1, [(1, t) for t in range(5)] + [(0, 1)])
    assert stability_status(distinct, w1).status == Status.STABLE
    tripled = PointConfiguration(1, [(1, 0)] * 3 + [(0, 1), (1, 1), (1, 2)])
    assert stability_status(tripled, w1).status == Status.STRICTLY_SEMISTABLE
    quadrupled = PointConfiguration(1, [(1, 0)] * 4 + [(0, 1), (1, 1)])
    assert stability_status(quadrupled, w1).status == Status.UNSTABLE


def test_unstable_stays_unstable_when_violating_weights_grow():
    config = PointConfiguration(2, [E0, E0, E0, E1, E2, (1, 1, 1)])
    base = stability_status(config, W)
    assert base.status == Status.UNSTABLE
    heavier = WeightVector(
        2,
        [Fraction(3, 5)] * 3 + [Fraction(2, 5)] * 3,
    )
    assert stability_status(config, heavier).status == Status.UNSTABLE


def test_permutation_of_points_and_weights_together():
    rng = random.Random(17)
    config = PointConfiguration(2, [E0, E0, E1, E2, (1, 1, 1), (1, 2, 3)])
    weights = WeightVector(
        2, [1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)]
    )
    reference = stability_status(config, weights).status
    for _ in range(10):
        order = list(range(6))
        rng.shuffle(order)
        permuted = PointConfiguration(2, [config.points[i] for i in order])
        permuted_weights = WeightVector(2, [weights.weights[i] for i in order])
        assert stability_status(permuted, permuted_weights).status == reference


def test_stability_invariant_under_projective_transformations():
    rng = random.Random(23)
    fixtures = [doubled_vertices(), conic_points(),
                PointConfiguration(2, [E0, E0, E0, E1, E2, (1, 1, 1)])]
    for config in fixtures:
        reference = stability_status(config, W).status
        for _ in range(5):
            g = random_transformation(rng, 2)
            assert stability_status(apply_transformation(g, config), W).status == reference


def test_one_parameter_limit_examples():
    with pytest.raises(ValueError):
        OneParameterSubgroup((0, 0, 0))
    config = PointConfiguration(2, [(1, 1, 1)])
    moved = one_parameter_limit(config, OneParameterSubgroup((1, 0, 0)))
    assert moved.points == ((0, 1, 1),)
    # fixed points stay put
    vertices = PointConfiguration(2, [E0, E1, E2])
    assert one_parameter_limit(vertices, OneParameterSubgroup((2, -1, -1))) == vertices


def test_one_parameter_subgroup_weights_are_exact_integers():
    # a rational that is not an integer names a different subgroup than its
    # truncation, and a float is not the decimal it was typed as
    with pytest.raises(ValueError, match="integers"):
        OneParameterSubgroup((Fraction(3, 2), Fraction(1, 2), 0))
    with pytest.raises(TypeError):
        OneParameterSubgroup((1.5, 0, 0))
    with pytest.raises(TypeError):
        OneParameterSubgroup((2.0, 0, 0))
    subgroup = OneParameterSubgroup((Fraction(4, 2), -1, True))
    assert subgroup.weights == (2, -1, 1)
    assert all(type(w) is int for w in subgroup.weights)


def test_one_parameter_limit_can_leave_the_semistable_locus():
    # four marks on z = 0 with two marks off; flowing the off points onto
    # the line stacks six marks there, which is unstable
    config = PointConfiguration(
        2, [E0, E1, (1, 1, 0), (1, 2, 0), (1, 0, 1), (0, 1, 1)]
    )
    limit = one_parameter_limit(config, OneParameterSubgroup((-1, -1, 2)))
    assert limit.points[4] == (1, 0, 0)
    assert limit.points[5] == (0, 1, 0)
    assert stability_status(limit, W).status == Status.UNSTABLE


def test_stabilizer_dimensions():
    assert stabilizer_dimension(doubled_vertices()) == 2
    line_with_double = PointConfiguration(
        2, [E2, E2, E0, E1, (1, 1, 0), (1, 2, 0)]
    )
    assert stabilizer_dimension(line_with_double) == 1
    assert stabilizer_dimension(conic_points()) == 0


def test_stabilizer_dimension_is_a_projective_invariant():
    rng = random.Random(41)
    for config in (doubled_vertices(), conic_points()):
        reference = stabilizer_dimension(config)
        for _ in range(5):
            g = random_transformation(rng, 2)
            assert stabilizer_dimension(apply_transformation(g, config)) == reference


def test_random_transformation_draws_are_pinned():
    # seeded images must not move: the same draws give the same matrices,
    # rejected singular draws included (the third candidate at d = 1, seed
    # 6, is ((4, 2), (0, 0)), drawn before the third matrix)
    rng = random.Random(0)
    assert [random_transformation(rng, 2) for _ in range(3)] == [
        ((1, 1, -5), (-1, 3, 2), (1, -1, 2)),
        ((0, 4, -2), (3, -3, -1), (-3, -4, 4)),
        ((-1, 3, 4), (-3, -1, -4), (-4, 5, 0)),
    ]
    assert rng.random() == 0.47214271545271336
    rng = random.Random(6)
    assert [random_transformation(rng, 1) for _ in range(3)] == [
        ((4, -4), (2, -1)),
        ((-5, -5), (-3, 5)),
        ((-5, -1), (2, -2)),
    ]
    assert rng.random() == 0.729824832622016


def test_random_transformation_rejects_arguments_with_no_invertible_draw():
    # d < 1 has no pivot count to reach, so the loop would never end; it is
    # refused before it
    rng = random.Random(0)
    for d in (0, -2):
        with pytest.raises(ValueError, match="ambient dimension"):
            random_transformation(rng, d)
    assert rng.random() == random.Random(0).random()  # nothing was drawn


def sparse_plane_flags(rng, count):
    """Flags of one point or two distinct points of P^2 with sparse
    entries, so that many of them miss some coordinates."""
    flags = []
    while len(flags) < count:
        size = rng.choice((1, 2))
        flag = [tuple(rng.choice((0, 0, 0, 1, -1, 2)) for _ in range(3)) for _ in range(size)]
        if len(echelon(flag)[1]) == size:
            flags.append(flag)
    return flags


def test_plane_frame_sends_the_flag_to_the_basis():
    for flag in sparse_plane_flags(random.Random(13), 200):
        matrix = _plane_frame(*flag)
        assert all(type(x) is int for row in matrix for x in row)
        assert sympy.Matrix(matrix).rank() == 3
        for k, point in enumerate(flag):
            image = [sum(a * x for a, x in zip(row, point)) for row in matrix]
            assert image[k] != 0
            assert all(x == 0 for j, x in enumerate(image) if j != k)


def greedy_flag_transformation(flag, d):
    """Oracle: complete the flag with e_0, e_1, ... in turn, keeping each
    unit vector that is independent of the columns so far."""
    m = d + 1
    columns = [tuple(p) for p in flag]
    for k in range(m):
        unit = tuple(int(i == k) for i in range(m))
        if len(columns) < m and len(echelon(columns + [unit])[1]) == len(columns) + 1:
            columns.append(unit)
    return _inverse_up_to_scale([[columns[j][i] for j in range(m)] for i in range(m)])[0]


def test_flag_completion_matches_the_greedy_unit_vectors():
    # the cross-product frame is the greedy one up to a nonzero scalar:
    # every 2 x 2 minor of the two matrices, read as 9-vectors, vanishes
    flags = sparse_plane_flags(random.Random(29), 600)
    for flag in flags:
        frame = [x for row in _plane_frame(*flag) for x in row]
        greedy = [x for row in greedy_flag_transformation(flag, 2) for x in row]
        assert any(frame), flag
        pairs = itertools.combinations(zip(frame, greedy), 2)
        assert all(a * y == b * x for (a, b), (x, y) in pairs), flag
    assert {len(flag) for flag in flags} == {1, 2}


def test_plane_brackets_take_one_cross_product_per_pair_and_are_built_once(monkeypatch):
    # the flats and the conic test share one bracket table per configuration,
    # built from one line per support pair, with no elimination
    tables, lines, eliminations = [], [], []

    def counting(calls, function):
        def counted(*args):
            calls.append(None)
            return function(*args)
        return counted

    for name, calls in (
        ("_plane_brackets", tables), ("_plane_line", lines), ("echelon", eliminations)
    ):
        original = getattr(stability_module, name)
        monkeypatch.setattr(stability_module, name, counting(calls, original))
    collinear = PointConfiguration(2, [(1, t, 0) for t in range(6)])
    assert collinear.flats == tuple((0, (i,)) for i in range(6)) + ((1, tuple(range(6))),)
    assert lies_on_conic(collinear)  # both sides of the identity are 0
    assert (len(tables), len(lines), len(eliminations)) == (1, 15, 0)
    tables.clear()
    lines.clear()
    conic = conic_points()
    assert lies_on_conic(conic)  # the table is built by whichever asks first
    assert len(conic.flats) == 6 + 15  # no three on a line
    assert lies_on_conic(conic) and len(conic.flats) == 21
    assert (len(tables), len(lines), len(eliminations)) == (1, 15, 0)


def leibniz_determinant(rows):
    return sum(
        (-1) ** sum(perm[i] > perm[j] for i, j in itertools.combinations(range(3), 2))
        * rows[0][perm[0]] * rows[1][perm[1]] * rows[2][perm[2]]
        for perm in itertools.permutations(range(3))
    )


@st.composite
def plane_points_with_incidences(draw):
    """Up to eight small integer points, each new one free, a copy of an
    earlier point or a combination of two earlier points."""
    coordinate = st.integers(-4, 4)
    points = [draw(st.tuples(coordinate, coordinate, coordinate))]
    for _ in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(("free", "copy", "collinear")))
        if kind == "copy":
            points.append(draw(st.sampled_from(points)))
        elif kind == "collinear" and len(points) > 1:
            p, q = draw(st.permutations(points))[:2]
            s, t = draw(coordinate), draw(coordinate)
            points.append(tuple(s * x + t * y for x, y in zip(p, q)))
        else:
            points.append(draw(st.tuples(coordinate, coordinate, coordinate)))
    return points


@settings(deadline=None, max_examples=300)
@given(plane_points_with_incidences())
def test_each_bracket_is_the_determinant_of_its_three_points(points):
    brackets, third_points = stability_module._plane_brackets(points)
    triples = list(itertools.combinations(range(len(points)), 3))
    assert list(brackets) == triples
    zeros = set()
    for a, b, c in triples:
        assert brackets[a, b, c] == leibniz_determinant([points[a], points[b], points[c]])
        if brackets[a, b, c] == 0:
            zeros.add(frozenset((a, b, c)))
    expected = {}
    for pair in itertools.combinations(range(len(points)), 2):
        thirds = [c for c in range(len(points)) if frozenset((*pair, c)) in zeros]
        if thirds:
            expected[pair] = thirds
    assert third_points == expected


def test_lies_on_conic():
    assert lies_on_conic(conic_points())
    assert lies_on_conic(doubled_vertices())  # degenerate conic: two lines
    # five general points determine the conic 3xy - 4xz + yz; (1 : 4 : 9)
    # misses it, so the two sides of the bracket identity differ
    off = PointConfiguration(
        2, [E0, E1, E2, (1, 1, 1), (1, 2, 3), (1, 4, 9)]
    )
    assert not lies_on_conic(off)
    with pytest.raises(ValueError):
        lies_on_conic(PointConfiguration(2, [E0, E1, E2]))


def conic_by_monomial_rank(config):
    """Oracle: six points lie on a conic exactly when the 6 x 6 matrix of
    their degree-2 monomials is singular."""
    rows = [(x * x, x * y, x * z, y * y, y * z, z * z) for x, y, z in config.points]
    return len(echelon(rows)[1]) <= 5


def test_monomial_determinant_is_the_bracket_polynomial():
    # over Z[x1..z6], with no expansion left to chance: the Veronese
    # determinant is [123][145][246][356] - [124][135][236][456], and the
    # products lies_on_conic reads from the bracket table differ by exactly
    # that polynomial
    ring, *coordinates = sympy.ring(sympy.symbols("x1:7 y1:7 z1:7"), sympy.ZZ)
    points = list(zip(coordinates[0:6], coordinates[6:12], coordinates[12:18]))

    def det(rows):
        return DomainMatrix([list(r) for r in rows], (len(rows),) * 2, ring.to_domain()).det()

    def bracket(i, j, k):
        return det([points[i - 1], points[j - 1], points[k - 1]])

    veronese = det([(x * x, x * y, x * z, y * y, y * z, z * z) for x, y, z in points])
    brackets = (
        bracket(1, 2, 3) * bracket(1, 4, 5) * bracket(2, 4, 6) * bracket(3, 5, 6)
        - bracket(1, 2, 4) * bracket(1, 3, 5) * bracket(2, 3, 6) * bracket(4, 5, 6)
    )
    table, _ = stability_module._plane_brackets(points)
    assert all(table[a, b, c] == bracket(a + 1, b + 1, c + 1) for a, b, c in table)
    left = table[0, 1, 2] * table[0, 3, 4] * table[1, 3, 5] * table[2, 4, 5]
    right = table[0, 1, 3] * table[0, 2, 4] * table[1, 2, 5] * table[3, 4, 5]
    assert veronese == brackets == left - right
    assert len(brackets.terms()) == 720


def test_lies_on_conic_matches_the_monomial_rank_on_the_whole_grid():
    # every multiset of six of the 13 grid points, and one seeded image of
    # each: the bracket test and the rank oracle agree on all 37,128
    rng = random.Random(2024)
    answers = {True: 0, False: 0}
    for points in itertools.combinations_with_replacement(CENSUS_GRID, 6):
        config = PointConfiguration(2, points)
        for case in (config, apply_transformation(random_transformation(rng, 2), config)):
            answer = lies_on_conic(case)
            assert answer == conic_by_monomial_rank(case), case.points
            answers[answer] += 1
    assert sum(answers.values()) == 2 * 18564 and min(answers.values()) > 0


def test_verdicts_are_deterministic():
    config = doubled_vertices()
    first = stability_status(config, W)
    second = stability_status(config, W)
    assert first == second
    assert stability_status(doubled_vertices(), W) == first


def test_each_weights_object_gets_its_own_verdict():
    # the free stratum IX: a double point and four general singles
    config = PointConfiguration(2, [E0, E0, E1, E2, (1, 1, 1), (1, 2, 4)])
    heavy = WeightVector(2, [1, 1, Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)])
    light = WeightVector(2, [Fraction(1, 4)] * 2 + [Fraction(5, 8)] * 4)
    equal = WeightVector(2, [Fraction(1, 2)] * 6)  # equal to W, another object
    assert equal == W and equal is not W
    expected = {
        id(W): Status.STRICTLY_SEMISTABLE,
        id(heavy): Status.UNSTABLE,
        id(light): Status.STABLE,
        id(equal): Status.STRICTLY_SEMISTABLE,
    }
    for weights in (W, heavy, W, light, equal, light, W):
        verdict = stability_status(config, weights)
        assert verdict.status == expected[id(weights)]
        assert verdict == stability_status(PointConfiguration(2, config.points), weights)
    with pytest.raises(ValueError):
        stability_status(config, symmetric_weights(3, 2))


def test_the_verdict_memo_is_not_part_of_the_value():
    judged, fresh = doubled_vertices(), doubled_vertices()
    stability_status(judged, W)
    assert PointConfiguration._fields == ("d", "points")
    assert judged == fresh
    assert hash(judged) == hash(fresh)
    assert repr(judged) == repr(fresh) == f"PointConfiguration(d=2, points={fresh.points!r})"


def test_no_module_cache_keeps_a_judged_configuration_alive():
    # the memo lives on the configuration and refers only to the weights
    # and the verdict, so dropping the last reference frees it at once
    config = PointConfiguration(2, [E0, E0, E1, E1, E2, (1, 1, 1)])  # stratum III
    stability_status(config, W)
    closed, _ = polystable_degeneration(config)
    refs = [weakref.ref(config), weakref.ref(closed)]
    del config, closed
    assert [ref() for ref in refs] == [None, None]


@st.composite
def weighted_configurations(draw, dims=(1, 3)):
    """A configuration in P^d, d in the closed range dims (P^1..P^3 by
    default), whose points are often repeats (rescaled) or combinations of
    two earlier points, so coincidences and collinear triples are common,
    with valid weights moved off the symmetric ones by a few transfers
    between marks."""
    d = draw(st.integers(*dims))
    n = draw(st.integers(max(2, d + 1), 7))
    small = st.integers(-2, 2)
    points: list[list[int]] = []
    for _ in range(n):
        kinds = ("fresh", "fresh", "repeat", "combine") if points else ("fresh",)
        kind = draw(st.sampled_from(kinds))
        if kind == "repeat":
            scale = draw(st.sampled_from((-2, -1, 1, 2)))
            vec = [scale * x for x in draw(st.sampled_from(points))]
        elif kind == "combine":
            p, q = draw(st.sampled_from(points)), draw(st.sampled_from(points))
            a, b = draw(small), draw(small)
            vec = [a * x + b * y for x, y in zip(p, q)]
        else:
            vec = draw(st.lists(small, min_size=d + 1, max_size=d + 1))
        points.append(vec if any(vec) else [1] + [0] * d)
    weights = [Fraction(d + 1, n)] * n
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        t = Fraction(draw(st.integers(1, 4)), 4 * n)
        if i != j and weights[i] - t > 0 and weights[j] + t <= 1:
            weights[i] -= t
            weights[j] += t
    return PointConfiguration(d, points), WeightVector(d, weights)


def proper_spans(config):
    """Brute force: (dim, marks on it) for the span of every subset of
    marks that is a proper subspace, with ranks from sympy."""
    ranks = {}

    def rank(marks):
        key = frozenset(config.points[i] for i in marks)
        if key not in ranks:
            ranks[key] = sympy.Matrix([list(p) for p in key]).rank()
        return ranks[key]

    spans = set()
    for size in range(1, config.n + 1):
        for subset in itertools.combinations(range(config.n), size):
            r = rank(subset)
            if r <= config.d:
                spans.add((r - 1, tuple(i for i in range(config.n) if rank(subset + (i,)) == r)))
    return spans, rank


@settings(deadline=None, max_examples=150)
@given(weighted_configurations())
def test_stability_status_matches_brute_force_over_mark_subsets(case):
    config, weights = case
    expected = set()
    for dim, marks in proper_spans(config)[0]:
        weight = sum(weights.weights[i] for i in marks)
        if weight >= dim + 1:
            expected.add(Witness(dim, marks, weight, weight > dim + 1))
    verdict = stability_status(config, weights)
    assert verdict.witnesses == tuple(sorted(expected, key=lambda w: (w.dim, w.marks)))
    if any(w.violation for w in expected):
        assert verdict.status == Status.UNSTABLE
    else:
        assert verdict.status == (Status.STRICTLY_SEMISTABLE if expected else Status.STABLE)


# the plane draw checks the cross-product lines; the default draw reaches
# them in about a third of its examples
@pytest.mark.parametrize("dims", [(1, 3), (2, 2)], ids=["P1-P3", "plane"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_flats_are_the_proper_spans_with_distinct_mark_sets(dims, data):
    config, _ = data.draw(weighted_configurations(dims))
    spans, rank = proper_spans(config)
    flats = config.flats
    assert len({marks for _, marks in flats}) == len(flats)
    assert all(dim == rank(marks) - 1 for dim, marks in flats)
    assert set(flats) == spans
    assert config.flats is flats  # computed once per configuration


def all_pairs_stabilizer_dimension(config):
    """(d+1)^2 minus the sympy rank of the trace row and the condition
    (Mx)_a x_b = (Mx)_b x_a for every pair a < b at every point."""
    m = config.d + 1
    rows = [[int(r == c) for r in range(m) for c in range(m)]]
    for point in config.support():
        for a, b in itertools.combinations(range(m), 2):
            row = [0] * (m * m)
            for c in range(m):
                row[a * m + c] += point[c] * point[b]
                row[b * m + c] -= point[c] * point[a]
            rows.append(row)
    return m * m - sympy.Matrix(rows).rank()


@settings(deadline=None, max_examples=150)
@given(weighted_configurations())
def test_stabilizer_dimension_matches_the_all_pairs_system(case):
    config, _ = case
    assert stabilizer_dimension(config) == all_pairs_stabilizer_dimension(config)


# the census runs in the plane, which the default draw reaches only a third
# of the time
@settings(deadline=None, max_examples=150)
@given(weighted_configurations((2, 2)))
def test_stabilizer_dimension_matches_the_all_pairs_system_in_the_plane(case):
    config, _ = case
    assert stabilizer_dimension(config) == all_pairs_stabilizer_dimension(config)


# each value is the kernel dimension of the all-pairs system; the comments
# give the rank w and the components c of the support's matroid in
# dim = c + m(m - w) - 1
@pytest.mark.parametrize("d, points, dim", [
    # w = 4, the two lines
    (3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, 1, 1)], 1),
    # w = 4, {e0}, the line {e1, e2, e1 + e2} and {e3}
    (3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 0), (0, 0, 0, 1)], 2),
    (3, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)], 8),  # w = 2, one component
    (3, [(1, 0, 0, 0), (0, 1, 0, 0)], 9),  # w = 2, two components
    (3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)], 0),  # a frame
    (3, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], 3),  # four components
    (1, [(1, 0), (0, 1), (1, 1)], 0),
    (1, [(1, 0), (0, 1)], 1),
], ids=["skew-lines", "point-line-point", "collinear", "two-points", "frame", "coordinate-points",
        "P1-three", "P1-two"])
def test_stabilizer_dimension_counts_matroid_components(d, points, dim):
    config = PointConfiguration(d, points)
    assert stabilizer_dimension(config) == dim == all_pairs_stabilizer_dimension(config)


def test_stabilizer_dimension_takes_one_elimination_of_the_support_columns(monkeypatch):
    calls = []

    def counting_echelon(rows):
        rows = [tuple(row) for row in rows]
        calls.append(rows)
        return echelon(rows)

    monkeypatch.setattr(stability_module, "echelon", counting_echelon)
    for config in (doubled_vertices(), conic_points(), PointConfiguration(3, [(1, 2, 3, 4)] * 3)):
        calls.clear()
        stabilizer_dimension(config)
        k = len(config.support())
        assert len(calls) == 1
        assert len(calls[0]) == config.d + 1 and all(len(row) == k for row in calls[0])
