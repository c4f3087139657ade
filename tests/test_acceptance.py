"""Acceptance battery: one test per criterion, each printing a single
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Expected values come from routes independent of the code under test:
frozen table constants, F-curve sign patterns for the chamber sweeps, the
coarse-interval rule for the genus-two sweep, sympy for matrix ranks, and
hand-derived fixtures.  All comparisons are exact.
"""

import itertools
import random
from fractions import Fraction

import sympy

from sixpoint import cli
from sixpoint.divisors import (
    BaseLocus,
    CCurve,
    FCurve,
    Model,
    SymmetricDivisor,
    boundary,
    canonical_divisor,
    canonical_polarization,
    from_k_psi,
    intersect_c_curve,
    intersect_f_curve,
    is_f_nonnegative,
    mori_model,
    psi_divisor,
    stable_base_locus,
)
from sixpoint.exact import RationalMatrix
from sixpoint.genus2 import (
    M2Divisor,
    M2Model,
    Space,
    hassett_keel_divisor,
    m2_chamber,
    pullback_to_m06,
)
from sixpoint.hypersurfaces import (
    Hypersurface,
    duality_sample_check,
    evaluate,
    gauss_image,
    is_singular_point,
    line_intersections,
    line_point,
    pair_partition_lines,
    pair_pattern_point,
    search_extra_singular_points,
    segre_nodes,
)
from sixpoint.stability import (
    Status,
    apply_transformation,
    random_transformation,
    stability_status,
    stabilizer_dimension,
    symmetric_weights,
)
from sixpoint.strata import (
    STRATUM_LABELS,
    polystable_degeneration,
    stratum_representative,
)
from test_strata import DOLGACHEV_ORTLAND

F13 = FCurve((1, 1, 1, 3))
F22 = FCurve((1, 1, 2, 2))
W6 = symmetric_weights(6, 2)


def conclude(name, failures):
    print(f"acceptance {name}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, failures


def check(failures, condition, message):
    if not condition:
        failures.append(message)


def test_criterion_1_divisor_relations():
    failures = []
    k, psi = canonical_divisor(6), psi_divisor(6)
    check(
        failures,
        (k.coefficient(2), k.coefficient(3)) == (Fraction(-2, 5), Fraction(-1, 5)),
        "canonical class coefficients",
    )
    check(
        failures,
        (psi.coefficient(2), psi.coefficient(3)) == (Fraction(8, 5), Fraction(9, 5)),
        "cotangent class coefficients",
    )
    check(
        failures,
        from_k_psi(6, Fraction(-9, 2), Fraction(-1, 2)) == boundary(6, 2),
        "B2 in the (K, psi) basis",
    )
    check(failures, from_k_psi(6, 4, 1) == boundary(6, 3), "B3 in the (K, psi) basis")
    conclude("1 divisor relations", failures)


def test_criterion_2_intersection_table():
    failures = []
    columns = (psi_divisor(6), canonical_divisor(6), boundary(6, 2), boundary(6, 3))
    table = (
        (lambda d: intersect_f_curve(d, F13), (3, -1, 3, -1), "F(1,1,1,3)"),
        (lambda d: intersect_f_curve(d, F22), (2, 0, -1, 2), "F(1,1,2,2)"),
        (lambda d: intersect_c_curve(d, CCurve(4)), (4, 0, -2, 4), "C4"),
    )
    for pairing, expected, row in table:
        got = tuple(pairing(d) for d in columns)
        check(failures, got == expected, f"row {row}: {got} != {expected}")
    conclude("2 intersection table", failures)


def test_criterion_3_polarization():
    failures = []
    da = canonical_polarization()
    check(failures, intersect_f_curve(da, F13) == Fraction(1, 2), "F(1,1,1,3).DA")
    check(failures, intersect_f_curve(da, F22) == 0, "F(1,1,2,2).DA")
    check(failures, da == Fraction(-1, 2) * canonical_divisor(6), "DA = -K/2")
    conclude("3 quotient polarization", failures)


def expected_chamber(x, y):
    """Independent route: F-curve signs decide the chamber.

    F(1,1,2,2).D = 2y - x is negative exactly below the Igusa wall and
    F(1,1,1,3).D = 3x - y is negative exactly past the Segre wall.
    """
    if x == 0 and y == 0:
        return (Model.POINT, BaseLocus.EMPTY, True)
    if y == 0:
        return (Model.POINT, BaseLocus.B2, True)
    if x == 0:
        return (Model.POINT, BaseLocus.B3, True)
    f22 = 2 * y - x
    f13 = 3 * x - y
    if f22 < 0:
        return (Model.IGUSA_QUARTIC, BaseLocus.B2, False)
    if f22 == 0:
        return (Model.IGUSA_QUARTIC, BaseLocus.EMPTY, True)
    if f13 > 0:
        return (Model.AMPLE, BaseLocus.EMPTY, False)
    if f13 == 0:
        return (Model.SEGRE_CUBIC, BaseLocus.EMPTY, True)
    return (Model.SEGRE_CUBIC, BaseLocus.B3, False)


def test_criterion_4_chamber_sweep():
    failures = []
    walls = (
        ("B2", boundary(6, 2), Model.POINT),
        ("-K", -1 * canonical_divisor(6), Model.IGUSA_QUARTIC),
        ("K+psi/3", canonical_divisor(6) + Fraction(1, 3) * psi_divisor(6),
         Model.SEGRE_CUBIC),
        ("B3", boundary(6, 3), Model.POINT),
    )
    for name, div, model in walls:
        rep = mori_model(div)
        check(failures, rep.model == model, f"wall {name}: model {rep.model}")
        check(failures, rep.boundary_case, f"wall {name}: flag missing")

    rays = [(1000 - k, k) for k in range(1001)]
    rays += [(2, 1), (4, 2), (1, 3), (2, 6)]  # exact wall hits and rescalings
    seen_models = set()
    for x, y in rays:
        div = SymmetricDivisor(6, {2: x, 3: y})
        rep = mori_model(div)
        model, locus, wall = expected_chamber(Fraction(x), Fraction(y))
        check(
            failures,
            (rep.model, rep.stable_base_locus, rep.boundary_case) == (model, locus, wall),
            f"ray ({x},{y}): {rep} != {(model, locus, wall)}",
        )
        check(
            failures,
            stable_base_locus(div) == locus,
            f"ray ({x},{y}): base locus mismatch",
        )
        check(failures, mori_model(7 * div) == rep, f"ray ({x},{y}): not scale invariant")
        if rep.stable_base_locus == BaseLocus.EMPTY:
            check(failures, is_f_nonnegative(div)[0], f"ray ({x},{y}): semi-ample not nef")
        seen_models.add(rep.model)
    check(
        failures,
        seen_models
        == {Model.POINT, Model.IGUSA_QUARTIC, Model.AMPLE, Model.SEGRE_CUBIC},
        "sweep did not visit every chamber",
    )
    conclude("4 chamber sweep (1000 rays + walls)", failures)


def test_criterion_5_semistable_strata():
    failures = []
    for label, published in DOLGACHEV_ORTLAND.items():
        config = stratum_representative(label)
        verdict = stability_status(config, W6)
        check(
            failures,
            verdict.status == Status.STRICTLY_SEMISTABLE,
            f"{label}: status {verdict.status}",
        )
        stab = stabilizer_dimension(config)
        check(
            failures,
            stab == published.stabilizer,
            f"{label}: stabilizer {stab}",
        )
        closed, target = polystable_degeneration(config)
        check(
            failures,
            target == published.closed_orbit,
            f"{label}: degenerates to {target}",
        )
        if label in ("I", "VII"):
            check(failures, closed == config, f"{label}: closed orbit moved")
    conclude("5 semistable strata", failures)


def test_criterion_6_singular_lines():
    failures = []
    lines = pair_partition_lines()
    check(failures, len(lines) == 15, f"line count {len(lines)}")
    parameters = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))
    for line in lines:
        for a, b in parameters:
            point = line_point(line, a, b)
            check(
                failures,
                evaluate(Hypersurface.IGUSA_QUARTIC, point) == (0, 0),
                f"{line} at ({a},{b}) off the quartic",
            )
            check(
                failures,
                is_singular_point(Hypersurface.IGUSA_QUARTIC, point),
                f"{line} at ({a},{b}) not singular",
            )
    crossings = line_intersections()
    per_line = {i: 0 for i in range(15)}
    for through in crossings.values():
        for i in through:
            per_line[i] += 1
    check(failures, all(v == 3 for v in per_line.values()), "3 crossing points per line")
    check(
        failures,
        all(len(t) == 3 for t in crossings.values()),
        "3 lines through each crossing point",
    )
    conclude("6 quartic singular lines", failures)


def test_criterion_7_cubic_nodes():
    failures = []
    nodes = segre_nodes()
    check(failures, len(nodes) == 10, f"node count {len(nodes)}")
    check(failures, len(set(nodes)) == 10, "nodes not distinct")
    for node in nodes:
        check(
            failures,
            evaluate(Hypersurface.SEGRE_CUBIC, node) == (0, 0),
            f"{node} off the cubic",
        )
        check(
            failures,
            is_singular_point(Hypersurface.SEGRE_CUBIC, node),
            f"{node} not singular",
        )
    extras = search_extra_singular_points(10000, seed=20240817)
    check(failures, extras == [], f"unexpected singular points {extras}")
    conclude("7 cubic nodes (10^4 point search)", failures)


def test_criterion_8_duality():
    failures = []
    report = duality_sample_check(250, seed=42)
    check(failures, report.passed, "sampler reported failure")
    check(
        failures,
        report.samples - report.exact_samples >= 100,
        f"only {report.samples - report.exact_samples} irrational samples",
    )
    check(
        failures,
        report.nonzero_residuals == 0,
        f"{report.nonzero_residuals} nonzero residuals",
    )
    triples = [
        t for t in itertools.combinations(range(1, 12), 3)
    ][:24]
    check(failures, len(triples) >= 20, "not enough exact pair patterns")
    for a, b, c in triples:
        point = pair_pattern_point(a, b, c)
        image = gauss_image(point)
        check(
            failures,
            evaluate(Hypersurface.IGUSA_QUARTIC, image) == (0, 0),
            f"pair pattern {(a, b, c)} image off the quartic",
        )
    conclude("8 duality (every residual exactly 0)", failures)


def expected_m2_chamber(b0, b1):
    """Independent route: coarse-basis intervals.  The Hodge ray is the
    diagonal b1 = b0 and the quotient wall is b1 = 6 b0."""
    if b0 < 0 or b1 < 0:
        return (M2Model.OUTSIDE, False)
    if b0 == 0 or b1 == 0:
        return (M2Model.POINT, True)
    if b1 < b0:
        return (M2Model.SATAKE, False)
    if b1 == b0:
        return (M2Model.SATAKE, True)
    if b1 < 6 * b0:
        return (M2Model.COARSE_SPACE, False)
    if b1 == 6 * b0:
        return (M2Model.P6_QUOTIENT, True)
    return (M2Model.P6_QUOTIENT, False)


def test_criterion_9_genus_two_bridge():
    failures = []
    k, psi = canonical_divisor(6), psi_divisor(6)
    hodge_pullback = pullback_to_m06(M2Divisor(Space.COARSE, lam=1))
    check(
        failures,
        hodge_pullback == SymmetricDivisor(6, {2: Fraction(1, 5), 3: Fraction(1, 10)}),
        "Hodge pullback coefficients",
    )
    check(failures, hodge_pullback == Fraction(-1, 2) * k, "Hodge pullback = -K/2")
    wall_pullback = pullback_to_m06(M2Divisor(Space.COARSE, delta0=1, delta1=6))
    check(
        failures,
        wall_pullback == SymmetricDivisor(6, {2: 2, 3: 6}),
        "quotient wall pullback coefficients",
    )
    check(
        failures,
        wall_pullback == 15 * (k + Fraction(1, 3) * psi),
        "quotient wall pullback = 15(K + psi/3)",
    )
    check(
        failures,
        pullback_to_m06(M2Divisor(Space.STACK, delta0=1, delta1=12)) == wall_pullback,
        "stack form of the quotient wall",
    )

    for j in range(201):
        div = M2Divisor(Space.COARSE, delta0=200 - j, delta1=j)
        rep = m2_chamber(div)
        want = expected_m2_chamber(Fraction(200 - j), Fraction(j))
        check(
            failures,
            (rep.model, rep.boundary_case) == want,
            f"coarse ray (200-{j},{j}): {rep} != {want}",
        )
    for name, div, want in (
        ("lambda", M2Divisor(Space.STACK, lam=1), (M2Model.SATAKE, True)),
        ("delta0+12delta1", M2Divisor(Space.STACK, delta0=1, delta1=12),
         (M2Model.P6_QUOTIENT, True)),
        ("delta0", M2Divisor(Space.STACK, delta0=1), (M2Model.POINT, True)),
        ("delta1", M2Divisor(Space.STACK, delta1=1), (M2Model.POINT, True)),
    ):
        rep = m2_chamber(div)
        check(failures, (rep.model, rep.boundary_case) == want, f"ray {name}: {rep}")

    thresholds = (
        (Fraction(7, 10), M2Model.POINT, True),
        (Fraction(9, 11), M2Model.P6_QUOTIENT, True),
        (Fraction(2), M2Model.SATAKE, True),
        (Fraction(4, 5), M2Model.P6_QUOTIENT, False),
        (Fraction(1), M2Model.COARSE_SPACE, False),
        (Fraction(19, 10), M2Model.COARSE_SPACE, False),
        (Fraction(3), M2Model.SATAKE, False),
    )
    for alpha, model, wall in thresholds:
        rep = m2_chamber(hassett_keel_divisor(alpha))
        check(
            failures,
            (rep.model, rep.boundary_case) == (model, wall),
            f"alpha {alpha}: {rep}",
        )
    conclude("9 genus-two bridge (200 rays + thresholds)", failures)


def test_criterion_10_property_suites(capsys):
    failures = []

    rng = random.Random(61)
    for label in STRATUM_LABELS:
        config = stratum_representative(label)
        status = stability_status(config, W6).status
        stab = stabilizer_dimension(config)
        for i in range(50):
            g = random_transformation(rng, 2)
            moved = apply_transformation(g, config)
            verdict = stability_status(moved, W6)
            check(
                failures,
                verdict.status == status,
                f"{label} transform {i}: status changed",
            )
            check(
                failures,
                stabilizer_dimension(moved) == stab,
                f"{label} transform {i}: stabilizer changed",
            )

    rng = random.Random(62)
    for i in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        entries = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows * cols)]
        rank = RationalMatrix(rows, cols, entries).rank()
        oracle = sympy.Matrix(
            rows, cols, [sympy.Rational(e.numerator, e.denominator) for e in entries]
        ).rank()
        check(failures, rank == oracle, f"matrix {i}: rank {rank}, sympy {oracle}")

    rng = random.Random(63)
    for i in range(100):
        point = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6))
        perm = list(range(6))
        rng.shuffle(perm)
        shuffled = tuple(point[p] for p in perm)
        for surface in (Hypersurface.SEGRE_CUBIC, Hypersurface.IGUSA_QUARTIC):
            check(
                failures,
                evaluate(surface, shuffled) == evaluate(surface, point),
                f"permutation {i}: {surface.value} not invariant",
            )

    argv = ["hypersurface", "duality", "--samples", "80", "--seed", "31"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    check(failures, (code1, out1) == (code2, out2), "seeded CLI output not byte-identical")
    argv = ["paper-report", "--json"]
    code1 = cli.main(argv)
    out1 = capsys.readouterr().out
    code2 = cli.main(argv)
    out2 = capsys.readouterr().out
    check(failures, (code1, out1) == (code2, out2), "report output not byte-identical")

    conclude("10 property suites", failures)
