import hashlib
import itertools
import random
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from sixpoint import exact, report, stability, strata
from sixpoint.exact import RationalMatrix, echelon
from sixpoint.stability import (
    OneParameterSubgroup,
    PointConfiguration,
    Status,
    apply_transformation,
    lies_on_conic,
    one_parameter_limit,
    random_transformation,
    stability_status,
    stabilizer_dimension,
    symmetric_weights,
)
from sixpoint.strata import (
    STRATUM_DIMENSION,
    STRATUM_LABELS,
    STRATUM_STABILIZER_DIMENSION,
    classify_stratum,
    polystable_degeneration,
    stratum_representative,
    stratum_signature,
)

W = symmetric_weights(6, 2)
E0, E1, E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class Published(NamedTuple):
    # sorted coincidence class sizes, sorted (weighted, support) line pairs
    incidence: tuple
    stabilizer: int
    closed_orbit: str
    dimension: int  # inside the configuration product (P^2)^6


# the strata I-XI of Dolgachev-Ortland, Asterisque 165, ch. I: the reference
# every computed stratum fact is checked against
DOLGACHEV_ORTLAND = {
    "I": Published(((2, 2, 2), ((4, 2), (4, 2), (4, 2))), 2, "I", 6),
    "II": Published(((1, 1, 2, 2), ((4, 2), (4, 3))), 1, "I", 7),
    "III": Published(((1, 1, 2, 2), ((4, 2),)), 0, "I", 8),
    "IV": Published(((1, 1, 1, 1, 2), ((4, 3), (4, 3))), 0, "I", 8),
    "V": Published(((1, 1, 1, 1, 2), ((3, 3), (4, 3))), 0, "I", 8),
    "VI": Published(((1, 1, 1, 1, 2), ((4, 3),)), 0, "I", 9),
    "VII": Published(((1, 1, 1, 1, 2), ((4, 4),)), 1, "VII", 8),
    "VIII": Published(((1, 1, 1, 1, 2), ((3, 3),)), 0, "VII", 9),
    "IX": Published(((1, 1, 1, 1, 2), ()), 0, "VII", 10),
    "X": Published(((1, 1, 1, 1, 1, 1), ((3, 3), (4, 4))), 0, "VII", 9),
    "XI": Published(((1, 1, 1, 1, 1, 1), ((4, 4),)), 0, "VII", 10),
}


def label_of(config):
    return classify_stratum(
        stratum_signature(config), stability_status(config, W)
    )


@pytest.fixture
def limit_spy(monkeypatch):
    """One entry per limit the degeneration evaluates: whether it moved."""
    moved = []
    real = strata._transformed_limit

    def spy(transform, config, weights):
        limit = real(transform, config, weights)
        moved.append(limit is not None)
        return limit

    monkeypatch.setattr(strata, "_transformed_limit", spy)
    return moved


def degenerate_within_bound(config, moved):
    """Degenerate, asserting the proved bound: at most three limits
    evaluated, at most two of them advancing."""
    moved.clear()
    result = polystable_degeneration(config)
    assert len(moved) <= 3 and sum(moved) <= 2, config
    return result, (len(moved), sum(moved))


def test_signature_of_three_doubled_vertices():
    sig = stratum_signature(stratum_representative("I"))
    assert sig.coincidence == ((0, 1), (2, 3), (4, 5))
    assert len(sig.lines) == 3
    assert all(rec.weighted == 4 and rec.support == 2 for rec in sig.lines)


def test_signature_of_double_plus_line():
    sig = stratum_signature(stratum_representative("VII"))
    assert sorted(len(cls) for cls in sig.coincidence) == [1, 1, 1, 1, 2]
    assert len(sig.lines) == 1
    assert sig.lines[0].weighted == 4 and sig.lines[0].support == 4


def test_signature_of_generic_configuration():
    config = PointConfiguration(2, [(1, t, t * t) for t in range(6)])
    sig = stratum_signature(config)
    assert all(len(cls) == 1 for cls in sig.coincidence)
    assert sig.lines == ()


def test_computed_tables_match_the_published_values():
    assert STRATUM_LABELS == tuple(DOLGACHEV_ORTLAND)
    assert strata._STRATUM_OF_TYPE == {
        row.incidence: label for label, row in DOLGACHEV_ORTLAND.items()
    }
    assert STRATUM_STABILIZER_DIMENSION == {
        label: row.stabilizer for label, row in DOLGACHEV_ORTLAND.items()
    }
    assert STRATUM_DIMENSION == {label: row.dimension for label, row in DOLGACHEV_ORTLAND.items()}


def test_all_representatives_classify_to_their_label():
    for label in DOLGACHEV_ORTLAND:
        assert label_of(stratum_representative(label)) == label


def test_representative_stability_and_stabilizers():
    for label, row in DOLGACHEV_ORTLAND.items():
        config = stratum_representative(label)
        verdict = stability_status(config, W)
        assert verdict.status == Status.STRICTLY_SEMISTABLE, label
        assert stabilizer_dimension(config) == row.stabilizer, label


def test_degenerations_reach_the_closed_orbit():
    for label, row in DOLGACHEV_ORTLAND.items():
        config = stratum_representative(label)
        closed, target = polystable_degeneration(config)
        assert target == row.closed_orbit, label
        assert label_of(closed) == target
        # the limit configuration is itself strictly semistable
        assert stability_status(closed, W).status == Status.STRICTLY_SEMISTABLE


def test_report_strata_group_checks_against_published_values(monkeypatch):
    # the report's expected values are literals: a wrong computed stabilizer
    # table fails exactly the eleven stabilizer checks, each against its
    # published value
    assert report._semistable_strata().passed
    monkeypatch.setattr(strata, "STRATUM_STABILIZER_DIMENSION", dict.fromkeys(STRATUM_LABELS, 5))
    group = report._semistable_strata()
    assert not group.passed
    failed = {check.name: check.expected for check in group.checks if not check.passed}
    assert failed == {
        f"{label} stabilizer": str(row.stabilizer) for label, row in DOLGACHEV_ORTLAND.items()
    }


def test_closed_strata_are_fixed_by_degeneration():
    for label in ("I", "VII"):
        config = stratum_representative(label)
        closed, target = polystable_degeneration(config)
        assert target == label
        assert closed == config


def test_degeneration_label_is_a_projective_invariant(limit_spy):
    rng = random.Random(11)
    for label in ("II", "V", "VIII", "X"):
        config = stratum_representative(label)
        (_, reference), _ = degenerate_within_bound(config, limit_spy)
        for _ in range(3):
            g = random_transformation(rng, 2)
            moved = apply_transformation(g, config)
            assert label_of(moved) == label
            (_, target), _ = degenerate_within_bound(moved, limit_spy)
            assert target == reference


def test_census_path_builds_no_rational_matrix(monkeypatch):
    def forbidden(self, *args, **kwargs):
        raise AssertionError("a RationalMatrix was built")

    monkeypatch.setattr(RationalMatrix, "__init__", forbidden)
    rng = random.Random(47)
    for label, row in DOLGACHEV_ORTLAND.items():
        template = stratum_representative(label)
        images = [template] + [
            apply_transformation(random_transformation(rng, 2), template) for _ in range(4)
        ]
        for config in images:
            assert label_of(config) == label
            assert stabilizer_dimension(config) == row.stabilizer
            lies_on_conic(config)
            _, target = polystable_degeneration(config)
            assert target == row.closed_orbit


def test_degeneration_takes_no_elimination(monkeypatch):
    # the adapted frames are cross products; the images are built first,
    # since random_transformation tests invertibility by elimination
    rng = random.Random(47)
    configs = []
    for label in DOLGACHEV_ORTLAND:
        template = stratum_representative(label)
        configs += [template] + [
            apply_transformation(random_transformation(rng, 2), template) for _ in range(4)
        ]

    def forbidden(*args, **kwargs):
        raise AssertionError("the degeneration ran an elimination")

    for module in (exact, stability, strata):
        for name in ("echelon", "_inverse_up_to_scale"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    for config in configs:
        polystable_degeneration(config)


def test_transformed_limit_is_the_limit_of_the_image_when_it_moves():
    # each witness frame, and a random transformation, under both adapted
    # subgroups, on every template and seeded images of it
    rng = random.Random(61)
    outcomes = []
    for label in DOLGACHEV_ORTLAND:
        template = stratum_representative(label)
        for config in [template] + [
            apply_transformation(random_transformation(rng, 2), template) for _ in range(3)
        ]:
            frames = [frame for frame, _ in strata._witness_flags(config, stability_status(config, W))]
            for transform in frames + [random_transformation(rng, 2)]:
                image = apply_transformation(transform, config)
                for weights in strata._FLAG_WEIGHTS:
                    limit = one_parameter_limit(image, OneParameterSubgroup(weights))
                    got = stability._transformed_limit(transform, config, weights)
                    if limit == image:
                        assert got is None, (config, transform, weights)
                    else:
                        assert got == limit, (config, transform, weights)
                    outcomes.append(got is None)
    assert any(outcomes) and not all(outcomes)


@pytest.fixture
def judgement_spy(monkeypatch):
    """Configurations whose flats are scanned, and verdicts and signatures
    built, from here on: a verdict or signature read back from a
    configuration's memo adds none of them."""
    scans, verdicts, signatures = [], [], []
    scan = PointConfiguration.flats.func
    verdict_class = stability.StabilityVerdict
    signature_class = strata.StratumSignature

    def counting_scan(config):
        scans.append(config)
        return scan(config)

    def counting_verdict(**fields):
        verdicts.append(fields)
        return verdict_class(**fields)

    def counting_signature(**fields):
        signatures.append(fields)
        return signature_class(**fields)

    flats = cached_property(counting_scan)
    flats.__set_name__(PointConfiguration, "flats")
    monkeypatch.setattr(PointConfiguration, "flats", flats)
    monkeypatch.setattr(stability, "StabilityVerdict", counting_verdict)
    monkeypatch.setattr(strata, "StratumSignature", counting_signature)
    return scans, verdicts, signatures


def test_a_held_verdict_is_read_back_and_only_advancing_limits_are_judged(
    judgement_spy, limit_spy
):
    scans, verdicts, signatures = judgement_spy
    rng = random.Random(67)
    advanced = 0
    for label in DOLGACHEV_ORTLAND:
        template = stratum_representative(label)
        for points in [template.points] + [
            apply_transformation(random_transformation(rng, 2), template).points for _ in range(3)
        ]:
            config = PointConfiguration(2, points)
            # the caller's verdict and signature, as in the census
            classify_stratum(stratum_signature(config), stability_status(config, W))
            scans.clear()
            verdicts.clear()
            signatures.clear()
            (_, target), _ = degenerate_within_bound(config, limit_spy)
            assert target == DOLGACHEV_ORTLAND[label].closed_orbit
            advancing = sum(limit_spy)
            assert len(scans) == len(verdicts) == len(signatures) == advancing, (label, points)
            assert all(limit is not config for limit in scans)
            advanced += advancing
    assert advanced > 0


def test_the_signature_is_kept_and_is_not_part_of_the_value():
    signed, fresh = stratum_representative("II"), stratum_representative("II")
    sig = stratum_signature(signed)
    assert stratum_signature(signed) is sig
    assert signed == fresh
    assert hash(signed) == hash(fresh)
    assert repr(signed) == repr(fresh) == f"PointConfiguration(d=2, points={fresh.points!r})"
    assert stratum_signature(fresh) == sig and stratum_signature(fresh) is not sig


def test_degeneration_rejects_non_semistable_input():
    stable = PointConfiguration(2, [(1, t, t * t) for t in range(6)])
    with pytest.raises(ValueError):
        polystable_degeneration(stable)
    unstable = PointConfiguration(2, [E0, E0, E0, E1, E2, (1, 1, 1)])
    with pytest.raises(ValueError):
        polystable_degeneration(unstable)


def test_degeneration_rejects_non_sextuples():
    # three coordinate vertices are strictly semistable, but the strata and
    # their adapted subgroups exist only for six points in the plane
    with pytest.raises(ValueError, match="six points in the plane"):
        polystable_degeneration(PointConfiguration(2, [E0, E1, E2]))
    tripled_on_line = PointConfiguration(1, [(1, 0)] * 3 + [(0, 1), (1, 1), (1, 2)])
    with pytest.raises(ValueError, match="six points in the plane"):
        polystable_degeneration(tripled_on_line)


def test_double_plus_generic_points_is_the_free_stratum():
    # one doubled class, no four-mark line, no three collinear singles
    config = PointConfiguration(2, [E0, E0, E1, E2, (1, 1, 1), (1, 2, 4)])
    assert label_of(config) == "IX"


def test_classify_passes_through_stable_and_unstable():
    stable = PointConfiguration(2, [(1, t, t * t) for t in range(6)])
    assert label_of(stable) == "Stable"
    unstable = PointConfiguration(2, [E0, E0, E0, E1, E2, (1, 1, 1)])
    assert label_of(unstable) == "Unstable"


def test_unknown_representative_label():
    with pytest.raises(ValueError):
        stratum_representative("XII")


def cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def det3(p, q, r):
    return sum(a * b for a, b in zip(cross(p, q), r))


def signature_by_determinants(config):
    """Oracle: coincidences where the cross product vanishes, collinear
    marks where a 3x3 determinant vanishes, recorded as in the signature."""
    points = config.points
    classes = []
    for i in range(config.n):
        for cls in classes:
            if cross(points[cls[0]], points[i]) == (0, 0, 0):
                cls.append(i)
                break
        else:
            classes.append([i])
    lines = set()
    for a, b in itertools.combinations([cls[0] for cls in classes], 2):
        marks = tuple(i for i in range(config.n) if det3(points[a], points[b], points[i]) == 0)
        support = sum(1 for cls in classes if cls[0] in marks)
        if support >= 3 or len(marks) >= 4:
            lines.add((marks, support, len(marks)))
    return tuple(sorted(tuple(cls) for cls in classes)), sorted(lines)


def test_signature_matches_determinant_oracle_on_projective_images():
    rng = random.Random(31)
    for label in DOLGACHEV_ORTLAND:
        template = stratum_representative(label)
        images = [template] + [
            apply_transformation(random_transformation(rng, 2), template) for _ in range(4)
        ]
        for config in images:
            sig = stratum_signature(config)
            lines = [(rec.marks, rec.support, rec.weighted) for rec in sig.lines]
            assert (sig.coincidence, lines) == signature_by_determinants(config), label


def incidence_jacobian(config):
    """Gradients, in the 18 homogeneous coordinates of six plane points, of
    the incidence conditions of the configuration's signature: p_i x p_j = 0
    for each coincident pair (rank 2) and det(p_a, p_b, p_c) = 0 for each
    triple of distinct support points on a recorded line."""
    points = config.points
    sig = stratum_signature(config)
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def row(gradients):
        out = [0] * 18
        for mark, grad in gradients:
            out[3 * mark : 3 * mark + 3] = grad
        return out

    rows = []
    for cls in sig.coincidence:
        for i, j in itertools.combinations(cls, 2):
            # e_k . (p_i x p_j) = p_i . (p_j x e_k) = p_j . (e_k x p_i)
            rows += [
                row([(i, cross(points[j], e)), (j, cross(e, points[i]))]) for e in units
            ]
    for rec in sig.lines:
        firsts = {}
        for mark in rec.marks:
            firsts.setdefault(points[mark], mark)
        for a, b, c in itertools.combinations(firsts.values(), 3):
            pa, pb, pc = points[a], points[b], points[c]
            rows.append(row([(a, cross(pb, pc)), (b, cross(pc, pa)), (c, cross(pa, pb))]))
    return rows


def test_stratum_dimensions_from_incidence_conditions():
    # each condition is homogeneous in every point and vanishes at the
    # configuration, so by Euler's identity its gradient kills the six
    # scaling directions and the rank is the codimension in (P^2)^6
    rng = random.Random(29)
    for label, row in DOLGACHEV_ORTLAND.items():
        template = stratum_representative(label)
        images = [template] + [
            apply_transformation(random_transformation(rng, 2), template) for _ in range(5)
        ]
        for config in images:
            rows = incidence_jacobian(config)
            assert 12 - len(echelon(rows)[1]) == row.dimension, (label, config)


def stratum_by_decision_chain(sig, verdict):
    """Oracle: the stratum from a decision chain on the number of doubled
    points and four-mark lines, whether a four-mark line runs through a
    doubled point, and whether three single marks are collinear."""
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        return verdict.status.value
    doubled_marks = {cls[0] for cls in sig.coincidence if len(cls) == 2}
    heavy = [rec for rec in sig.lines if rec.weighted >= 4]
    residual = [rec for rec in sig.lines if rec.weighted == 3]
    through_double = [rec for rec in heavy if any(m in rec.marks for m in doubled_marks)]
    key = (len(doubled_marks), len(heavy))
    if key == (3, 3):
        return "I"
    if key == (2, 2):
        return "II"
    if key == (2, 1):
        return "III"
    if key == (1, 2):
        return "IV"
    if key == (1, 1):
        if through_double:
            return "V" if residual else "VI"
        return "VII"
    if key == (1, 0):
        return "VIII" if residual else "IX"
    if key == (0, 1):
        return "X" if residual else "XI"
    return "Unrecognized"


CENSUS_ANSWERS = Path(__file__).resolve().parents[1] / "bench" / "census_answers.txt"
CENSUS_CODES = {"Unstable": "U", "Stable": "S"}
CENSUS_CODES.update({label: chr(ord("a") + i) for i, label in enumerate(DOLGACHEV_ORTLAND)})


# the 13 points of {-1,0,1}^3 up to sign
CENSUS_GRID = [
    v for v in itertools.product((-1, 0, 1), repeat=3) if any(v) and next(x for x in v if x) > 0
]


def census_grid_slice():
    """Every 16th six-point multiset of the census grid, with its index."""
    multisets = itertools.combinations_with_replacement(CENSUS_GRID, 6)
    return itertools.islice(enumerate(multisets), 0, None, 16)


def test_census_grid_slice_matches_recorded_answers(limit_spy):
    # the recorded code per multiset is label, stabilizer dimension and
    # conic answer, and the label agrees with the decision-chain oracle;
    # every degeneration keeps the bound of three limits, two advancing
    answers = "".join(CENSUS_ANSWERS.read_text(encoding="ascii").split())
    checked = 0
    worst = (0, 0)
    for index, points in census_grid_slice():
        config = PointConfiguration(2, points)
        verdict = stability_status(config, W)
        sig = stratum_signature(config)
        label = classify_stratum(sig, verdict)
        assert label == stratum_by_decision_chain(sig, verdict), points
        code = f"{CENSUS_CODES[label]}{stabilizer_dimension(config)}{int(lies_on_conic(config))}"
        assert code == answers[3 * index : 3 * index + 3], points
        if verdict.status == Status.STRICTLY_SEMISTABLE:
            (closed, target), cost = degenerate_within_bound(config, limit_spy)
            worst = max(worst, cost)
            assert target == DOLGACHEV_ORTLAND[label].closed_orbit, points
            assert label_of(closed) == target, points
        checked += 1
    assert len(CENSUS_GRID) == 13 and len(answers) == 3 * 18564 and checked == 1161
    assert worst == (3, 2)


def test_census_grid_slice_closed_orbits_match_recorded_digest():
    # SHA-256 over the closed configuration and label of every strictly
    # semistable multiset of the slice: any change to the coordinates of a
    # closed orbit, not only to its label, shows here
    digest = hashlib.sha256()
    count = 0
    for _, points in census_grid_slice():
        config = PointConfiguration(2, points)
        if stability_status(config, W).status == Status.STRICTLY_SEMISTABLE:
            closed, label = polystable_degeneration(config)
            digest.update(repr((closed.points, label)).encode())
            count += 1
    assert (count, digest.hexdigest()) == (
        631, "0f4b92fb155795236012d52832e5869b38bc3cbef6ba794bd090f522f6393c8c"
    )


def test_census_grid_slice_flats_and_signatures_match_recorded_digest():
    # SHA-256 over the flats and signature of every multiset of the slice
    # and of one seeded projective image of each: any change to a flat's
    # marks or to the order of the flats shows here
    rng = random.Random(73)
    digest = hashlib.sha256()
    count = 0
    for _, points in census_grid_slice():
        config = PointConfiguration(2, points)
        for c in (config, apply_transformation(random_transformation(rng, 2), config)):
            digest.update(repr((c.flats, stratum_signature(c))).encode())
            count += 1
    assert (count, digest.hexdigest()) == (
        2322, "bdaf0acfe6e23c16022506befe2e51e6b9de2e4dfd4d9b5efd87ceb305fa9492"
    )


def assert_lookup_matches_chain(config):
    sig = stratum_signature(config)
    verdict = stability_status(config, W)
    assert classify_stratum(sig, verdict) == stratum_by_decision_chain(sig, verdict), config


def test_lookup_matches_decision_chain_on_projective_images():
    rng = random.Random(53)
    for label in DOLGACHEV_ORTLAND:
        template = stratum_representative(label)
        for _ in range(4):
            assert_lookup_matches_chain(apply_transformation(random_transformation(rng, 2), template))


@st.composite
def incident_sextuples(draw):
    """Six plane points, each free, a copy of an earlier point, or an
    integer combination of two earlier points (so collinear with them)."""
    coordinate = st.integers(-3, 3)
    free = st.tuples(coordinate, coordinate, coordinate).filter(any)
    points = [draw(free), draw(free)]
    while len(points) < 6:
        kind = draw(st.sampled_from(("free", "copy", "combination")))
        if kind == "free":
            points.append(draw(free))
        elif kind == "copy":
            points.append(draw(st.sampled_from(points)))
        else:
            p, q = draw(st.permutations(points))[:2]
            a, b = draw(coordinate), draw(coordinate)
            combined = tuple(a * x + b * y for x, y in zip(p, q))
            points.append(combined if any(combined) else p)
    return PointConfiguration(2, draw(st.permutations(points)))


@settings(deadline=None, max_examples=300)
@given(incident_sextuples())
def test_lookup_matches_decision_chain_on_forced_incidences(config):
    assert_lookup_matches_chain(config)


@settings(deadline=None, max_examples=300)
@given(incident_sextuples())
def test_plane_flats_come_in_dimension_then_marks_order(config):
    # point flats by their first mark, then lines by their marks
    assert config.flats == tuple(sorted(config.flats))
