"""Aggregated battery of the published values this toolkit reproduces.

Each check compares a computed quantity against its known value: the
boundary expressions of the canonical and cotangent classes, the
intersection table of the curve classes, the quotient polarization, the
chamber walls and their models, the eleven strictly semistable strata, the
singular-line geometry of the quartic, the duality sampler, and the
genus-two bridge with its log-canonical thresholds.  The whole battery
backs the ``paper-report`` command and doubles as a CI gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import divisors, genus2, hypersurfaces, strata
from .divisors import BaseLocus, CCurve, FCurve, Model, SymmetricDivisor
from .genus2 import M2Divisor, M2Model, Space
from .hypersurfaces import Hypersurface
from .stability import Status, stability_status, stabilizer_dimension, symmetric_weights

__all__ = ["Check", "CheckGroup", "PaperReport", "build_report"]


@dataclass(frozen=True)
class Check:
    name: str
    expected: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


@dataclass(frozen=True)
class CheckGroup:
    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class PaperReport:
    groups: tuple[CheckGroup, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    @property
    def total_checks(self) -> int:
        return sum(len(g.checks) for g in self.groups)

    def failures(self) -> list[tuple[str, Check]]:
        return [(g.name, c) for g in self.groups for c in g.checks if not c.passed]


def _coeffs(div: SymmetricDivisor) -> str:
    return f"({div.coefficient(2)}, {div.coefficient(3)})"


def _divisor_relations() -> CheckGroup:
    k = divisors.canonical_divisor(6)
    psi = divisors.psi_divisor(6)
    checks = [
        Check("K in boundary basis", "(-2/5, -1/5)", _coeffs(k)),
        Check("psi in boundary basis", "(8/5, 9/5)", _coeffs(psi)),
        Check(
            "-9/2 K - 1/2 psi",
            str(divisors.boundary(6, 2)),
            str(divisors.from_k_psi(6, Fraction(-9, 2), Fraction(-1, 2))),
        ),
        Check(
            "4 K + psi",
            str(divisors.boundary(6, 3)),
            str(divisors.from_k_psi(6, 4, 1)),
        ),
    ]
    return CheckGroup("divisor-relations", tuple(checks))


def _intersection_table() -> CheckGroup:
    k = divisors.canonical_divisor(6)
    psi = divisors.psi_divisor(6)
    b2 = divisors.boundary(6, 2)
    b3 = divisors.boundary(6, 3)
    columns = (("psi", psi), ("K", k), ("B2", b2), ("B3", b3))
    expected = {
        "F(1,1,1,3)": ("3", "-1", "3", "-1"),
        "F(1,1,2,2)": ("2", "0", "-1", "2"),
        "C4": ("4", "0", "-2", "4"),
    }
    rows = (
        ("F(1,1,1,3)", lambda d: divisors.intersect_f_curve(d, FCurve((1, 1, 1, 3)))),
        ("F(1,1,2,2)", lambda d: divisors.intersect_f_curve(d, FCurve((1, 1, 2, 2)))),
        ("C4", lambda d: divisors.intersect_c_curve(d, CCurve(4))),
    )
    checks = []
    for row_name, pairing in rows:
        for (col_name, div), want in zip(columns, expected[row_name]):
            checks.append(
                Check(f"{row_name}.{col_name}", want, str(pairing(div)))
            )
    return CheckGroup("intersection-table", tuple(checks))


def _polarization() -> CheckGroup:
    da = divisors.canonical_polarization()
    checks = [
        Check(
            "F(1,1,1,3).DA",
            "1/2",
            str(divisors.intersect_f_curve(da, FCurve((1, 1, 1, 3)))),
        ),
        Check(
            "F(1,1,2,2).DA",
            "0",
            str(divisors.intersect_f_curve(da, FCurve((1, 1, 2, 2)))),
        ),
        Check("DA equals -K/2", str(Fraction(-1, 2) * divisors.canonical_divisor(6)), str(da)),
        Check("DA in boundary basis", "(1/5, 1/10)", _coeffs(da)),
    ]
    return CheckGroup("quotient-polarization", tuple(checks))


def _chamber_walls() -> CheckGroup:
    k = divisors.canonical_divisor(6)
    psi = divisors.psi_divisor(6)
    cases = (
        ("-K", -k, Model.IGUSA_QUARTIC, BaseLocus.EMPTY, True),
        ("K + psi/3", k + Fraction(1, 3) * psi, Model.SEGRE_CUBIC, BaseLocus.EMPTY, True),
        ("B2", divisors.boundary(6, 2), Model.POINT, BaseLocus.B2, True),
        ("B3", divisors.boundary(6, 3), Model.POINT, BaseLocus.B3, True),
        ("psi", psi, Model.AMPLE, BaseLocus.EMPTY, False),
        ("B3 interior ray", k + Fraction(1, 3) * psi + divisors.boundary(6, 3),
         Model.SEGRE_CUBIC, BaseLocus.B3, False),
        ("B2 interior ray", -k + divisors.boundary(6, 2),
         Model.IGUSA_QUARTIC, BaseLocus.B2, False),
    )
    checks = []
    for name, div, model, locus, wall in cases:
        report = divisors.mori_model(div)
        want = f"{model.value}/{locus.value}/wall={wall}"
        got = (
            f"{report.model.value}/{report.stable_base_locus.value}"
            f"/wall={report.boundary_case}"
        )
        checks.append(Check(f"ray {name}", want, got))
    return CheckGroup("chamber-walls", tuple(checks))


def _semistable_strata() -> CheckGroup:
    # Dolgachev-Ortland, Asterisque 165, ch. I: each stratum's stabilizer
    # dimension and the closed stratum it degenerates to
    published = {
        "I": ("2", "I"), "II": ("1", "I"), "III": ("0", "I"), "IV": ("0", "I"),
        "V": ("0", "I"), "VI": ("0", "I"), "VII": ("1", "VII"), "VIII": ("0", "VII"),
        "IX": ("0", "VII"), "X": ("0", "VII"), "XI": ("0", "VII"),
    }
    checks = []
    for label, (stabilizer, closed_orbit) in published.items():
        config = strata.stratum_representative(label)
        verdict = stability_status(config, symmetric_weights(6, 2))
        checks.append(
            Check(f"{label} status", Status.STRICTLY_SEMISTABLE.value, verdict.status.value)
        )
        checks.append(Check(f"{label} stabilizer", stabilizer, str(stabilizer_dimension(config))))
        _, target = strata.polystable_degeneration(config)
        checks.append(Check(f"{label} closed orbit", closed_orbit, target))
    return CheckGroup("semistable-strata", tuple(checks))


def _singular_lines() -> CheckGroup:
    lines = hypersurfaces.pair_partition_lines()
    checks = [Check("line count", "15", str(len(lines)))]
    parameters = ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))
    on_surface = singular = 0
    for line in lines:
        for a, b in parameters:
            point = hypersurfaces.line_point(line, a, b)
            if hypersurfaces.evaluate(Hypersurface.IGUSA_QUARTIC, point) == (0, 0):
                on_surface += 1
                if hypersurfaces.is_singular_point(Hypersurface.IGUSA_QUARTIC, point):
                    singular += 1
    want = str(len(lines) * len(parameters))
    checks.append(Check("sampled line points on the quartic", want, str(on_surface)))
    checks.append(Check("sampled line points singular", want, str(singular)))
    crossings = hypersurfaces.line_intersections()
    per_line = {i: sum(i in t for t in crossings.values()) for i in range(len(lines))}
    checks.append(
        Check(
            "intersection points per line",
            "all 3",
            "all 3" if all(v == 3 for v in per_line.values()) else str(sorted(per_line.values())),
        )
    )
    checks.append(
        Check(
            "lines per intersection point",
            "all 3",
            "all 3"
            if all(len(through) == 3 for through in crossings.values())
            else str(sorted(len(t) for t in crossings.values())),
        )
    )
    return CheckGroup("quartic-singular-lines", tuple(checks))


def _duality(samples: int, seed: int) -> CheckGroup:
    exact_points = [
        hypersurfaces.pair_pattern_point(a, b, c)
        for a, b, c in ((1, 2, 5), (1, 3, 7), (2, 3, 4), (1, 4, 6), (3, 5, 11))
    ]
    exact_ok = all(
        hypersurfaces.evaluate(
            Hypersurface.IGUSA_QUARTIC, hypersurfaces.gauss_image(p)
        )
        == (0, 0)
        for p in exact_points
    )
    report = hypersurfaces.duality_sample_check(samples, seed=seed)
    checks = [
        Check("pair-pattern images on the quartic", "True", str(exact_ok)),
        Check(f"sampled images exactly on the quartic (seed {seed})", "True", str(report.passed)),
    ]
    return CheckGroup("duality", tuple(checks))


def _genus2_bridge() -> CheckGroup:
    hodge = M2Divisor(Space.COARSE, lam=1)
    wall = M2Divisor(Space.COARSE, delta0=1, delta1=6)
    k = divisors.canonical_divisor(6)
    psi = divisors.psi_divisor(6)
    checks = [
        Check(
            "pullback of the Hodge class",
            str(SymmetricDivisor(6, {2: Fraction(1, 5), 3: Fraction(1, 10)})),
            str(genus2.pullback_to_m06(hodge)),
        ),
        Check(
            "Hodge pullback equals -K/2",
            str(Fraction(-1, 2) * k),
            str(genus2.pullback_to_m06(hodge)),
        ),
        Check(
            "pullback of Delta0 + 6 Delta1",
            str(SymmetricDivisor(6, {2: 2, 3: 6})),
            str(genus2.pullback_to_m06(wall)),
        ),
        Check(
            "Delta0 + 6 Delta1 pullback equals 15(K + psi/3)",
            str(15 * (k + Fraction(1, 3) * psi)),
            str(genus2.pullback_to_m06(wall)),
        ),
    ]
    ray_cases = (
        ("lambda", M2Divisor(Space.STACK, lam=1), M2Model.SATAKE, True),
        ("delta0 + 12 delta1", M2Divisor(Space.STACK, delta0=1, delta1=12),
         M2Model.P6_QUOTIENT, True),
        ("delta0", M2Divisor(Space.STACK, delta0=1), M2Model.POINT, True),
        ("delta1", M2Divisor(Space.STACK, delta1=1), M2Model.POINT, True),
    )
    for name, div, model, wall_flag in ray_cases:
        rep = genus2.m2_chamber(div)
        checks.append(
            Check(
                f"ray {name}",
                f"{model.value}/wall={wall_flag}",
                f"{rep.model.value}/wall={rep.boundary_case}",
            )
        )
    alpha_cases = (
        ("alpha = 9/11", Fraction(9, 11), M2Model.P6_QUOTIENT, True),
        ("alpha = 7/10", Fraction(7, 10), M2Model.POINT, True),
        ("alpha = 2", Fraction(2), M2Model.SATAKE, True),
        ("alpha = 1", Fraction(1), M2Model.COARSE_SPACE, False),
        ("alpha = 4/5", Fraction(4, 5), M2Model.P6_QUOTIENT, False),
        ("alpha = 3", Fraction(3), M2Model.SATAKE, False),
    )
    for name, alpha, model, wall_flag in alpha_cases:
        rep = genus2.m2_chamber(genus2.hassett_keel_divisor(alpha))
        checks.append(
            Check(
                name,
                f"{model.value}/wall={wall_flag}",
                f"{rep.model.value}/wall={rep.boundary_case}",
            )
        )
    return CheckGroup("genus-two-bridge", tuple(checks))


def build_report(duality_samples: int = 60, duality_seed: int = 7) -> PaperReport:
    """Run every golden check and collect the outcome."""
    return PaperReport(
        groups=(
            _divisor_relations(),
            _intersection_table(),
            _polarization(),
            _chamber_walls(),
            _semistable_strata(),
            _singular_lines(),
            _duality(duality_samples, duality_seed),
            _genus2_bridge(),
        )
    )
