"""Aggregated battery of the published values this toolkit reproduces.

Each group is a list of rows ``(check name, published value, computed
value)``: the boundary expressions of the canonical and cotangent classes,
the intersection table of the curve classes, the quotient polarization, the
chamber walls and their models, the eleven strictly semistable strata, the
singular-line geometry of the quartic, the duality sampler, and the
genus-two bridge with its log-canonical thresholds.  The published value is
a literal, written as the paper states it; a row named "X equals Y"
computes Y and holds it to the published value of X, which another row
computes.  ``_group`` turns the rows into a ``CheckGroup`` and is the one
place that compares the two sides, as strings.  The whole battery backs the
``paper-report`` command and doubles as a CI gate.
"""

from __future__ import annotations

from fractions import Fraction

from . import divisors, genus2, hypersurfaces, strata
from .divisors import CCurve, FCurve
from .exact import _Value
from .genus2 import M2Divisor, Space
from .hypersurfaces import Hypersurface
from .stability import stability_status, symmetric_weights

__all__ = ["Check", "CheckGroup", "PaperReport", "build_report"]


class Check(_Value):
    """A published value and the computed one, both as strings."""

    name: str
    expected: str
    computed: str

    @property
    def passed(self) -> bool:
        return self.expected == self.computed


class CheckGroup(_Value):
    """The checks of one part of the paper."""

    name: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


class PaperReport(_Value):
    """Every check group of the paper report."""

    groups: tuple[CheckGroup, ...]

    @property
    def passed(self) -> bool:
        return all(g.passed for g in self.groups)

    @property
    def total_checks(self) -> int:
        return sum(len(g.checks) for g in self.groups)


def _group(name: str, rows) -> CheckGroup:
    return CheckGroup(
        name, tuple(Check(check, str(published), str(computed)) for check, published, computed in rows)
    )


def _coeffs(div) -> str:
    return f"({div.coefficient(2)}, {div.coefficient(3)})"


def _all_three(counts) -> str:
    counts = sorted(counts)
    return "all 3" if all(c == 3 for c in counts) else str(counts)


def _divisor_relations() -> CheckGroup:
    return _group("divisor-relations", [
        ("K in boundary basis", "(-2/5, -1/5)", _coeffs(divisors.canonical_divisor(6))),
        ("psi in boundary basis", "(8/5, 9/5)", _coeffs(divisors.psi_divisor(6))),
        ("-9/2 K - 1/2 psi", "B2", divisors.from_k_psi(6, Fraction(-9, 2), Fraction(-1, 2))),
        ("4 K + psi", "B3", divisors.from_k_psi(6, 4, 1)),
    ])


def _intersection_table() -> CheckGroup:
    columns = (
        ("psi", divisors.psi_divisor(6)),
        ("K", divisors.canonical_divisor(6)),
        ("B2", divisors.boundary(6, 2)),
        ("B3", divisors.boundary(6, 3)),
    )
    table = (
        (FCurve((1, 1, 1, 3)), divisors.intersect_f_curve, (3, -1, 3, -1)),
        (FCurve((1, 1, 2, 2)), divisors.intersect_f_curve, (2, 0, -1, 2)),
        (CCurve(4), divisors.intersect_c_curve, (4, 0, -2, 4)),
    )
    return _group("intersection-table", [
        (f"{curve}.{column}", published, pairing(div, curve))
        for curve, pairing, row in table
        for (column, div), published in zip(columns, row)
    ])


def _polarization() -> CheckGroup:
    da = divisors.canonical_polarization()
    return _group("quotient-polarization", [
        ("F(1,1,1,3).DA", "1/2", divisors.intersect_f_curve(da, FCurve((1, 1, 1, 3)))),
        ("F(1,1,2,2).DA", 0, divisors.intersect_f_curve(da, FCurve((1, 1, 2, 2)))),
        ("DA equals -K/2", "1/5*B2 + 1/10*B3", Fraction(-1, 2) * divisors.canonical_divisor(6)),
        ("DA in boundary basis", "(1/5, 1/10)", _coeffs(da)),
    ])


def _chamber_walls() -> CheckGroup:
    k = divisors.canonical_divisor(6)
    segre = k + Fraction(1, 3) * divisors.psi_divisor(6)
    b2, b3 = divisors.boundary(6, 2), divisors.boundary(6, 3)
    rays = (
        ("-K", -k, "IgusaQuartic/Empty/wall=True"),
        ("K + psi/3", segre, "SegreCubic/Empty/wall=True"),
        ("B2", b2, "Point/B2/wall=True"),
        ("B3", b3, "Point/B3/wall=True"),
        ("psi", divisors.psi_divisor(6), "AmpleModel_M06/Empty/wall=False"),
        ("B3 interior ray", segre + b3, "SegreCubic/B3/wall=False"),
        ("B2 interior ray", -k + b2, "IgusaQuartic/B2/wall=False"),
    )
    rows = []
    for name, div, published in rays:
        found = divisors.mori_model(div)
        rendered = f"{found.model.value}/{found.stable_base_locus.value}/wall={found.boundary_case}"
        rows.append((f"ray {name}", published, rendered))
    return _group("chamber-walls", rows)


def _semistable_strata() -> CheckGroup:
    # Dolgachev-Ortland, Asterisque 165, ch. I: each stratum's stabilizer
    # dimension and the closed stratum it degenerates to
    published = {
        "I": (2, "I"), "II": (1, "I"), "III": (0, "I"), "IV": (0, "I"),
        "V": (0, "I"), "VI": (0, "I"), "VII": (1, "VII"), "VIII": (0, "VII"),
        "IX": (0, "VII"), "X": (0, "VII"), "XI": (0, "VII"),
    }
    weights = symmetric_weights(6, 2)
    rows = []
    for label, (stabilizer, closed_orbit) in published.items():
        config = strata.stratum_representative(label)
        rows += [
            (f"{label} status", "StrictlySemistable", stability_status(config, weights).status.value),
            (f"{label} stabilizer", stabilizer, strata.STRATUM_STABILIZER_DIMENSION[label]),
            (f"{label} closed orbit", closed_orbit, strata.polystable_degeneration(config)[1]),
        ]
    return _group("semistable-strata", rows)


def _singular_lines() -> CheckGroup:
    quartic = Hypersurface.IGUSA_QUARTIC
    lines = hypersurfaces.pair_partition_lines()
    points = [
        hypersurfaces.line_point(line, a, b)
        for line in lines
        for a, b in ((1, 0), (0, 1), (1, 1), (1, 2), (2, 1))
    ]
    on_surface = [p for p in points if hypersurfaces.evaluate(quartic, p) == (0, 0)]
    crossings = hypersurfaces.line_intersections()
    return _group("quartic-singular-lines", [
        ("line count", 15, len(lines)),
        ("sampled line points on the quartic", 75, len(on_surface)),
        ("sampled line points singular", 75,
         sum(hypersurfaces.is_singular_point(quartic, p) for p in on_surface)),
        ("intersection points per line", "all 3",
         _all_three(sum(i in t for t in crossings.values()) for i in range(len(lines)))),
        ("lines per intersection point", "all 3", _all_three(len(t) for t in crossings.values())),
    ])


def _duality() -> CheckGroup:
    images = (
        hypersurfaces.gauss_image(hypersurfaces.pair_pattern_point(a, b, c))
        for a, b, c in ((1, 2, 5), (1, 3, 7), (2, 3, 4), (1, 4, 6), (3, 5, 11))
    )
    on_quartic = all(hypersurfaces.evaluate(Hypersurface.IGUSA_QUARTIC, p) == (0, 0) for p in images)
    return _group("duality", [
        ("pair-pattern images on the quartic", True, on_quartic),
        ("sampled images exactly on the quartic (60 samples, seed 7)", True,
         hypersurfaces.duality_sample_check(60, seed=7).passed),
    ])


def _genus2_bridge() -> CheckGroup:
    k = divisors.canonical_divisor(6)
    rows = [
        ("pullback of the Hodge class", "1/5*B2 + 1/10*B3",
         genus2.pullback_to_m06(M2Divisor(Space.COARSE, lam=1))),
        ("Hodge pullback equals -K/2", "1/5*B2 + 1/10*B3", Fraction(-1, 2) * k),
        ("pullback of Delta0 + 6 Delta1", "2*B2 + 6*B3",
         genus2.pullback_to_m06(M2Divisor(Space.COARSE, delta0=1, delta1=6))),
        ("Delta0 + 6 Delta1 pullback equals 15(K + psi/3)", "2*B2 + 6*B3",
         15 * (k + Fraction(1, 3) * divisors.psi_divisor(6))),
    ]
    lookups = [
        ("ray lambda", M2Divisor(Space.STACK, lam=1), "SatakeA2/wall=True"),
        ("ray delta0 + 12 delta1", M2Divisor(Space.STACK, delta0=1, delta1=12), "P6QuotientSL2/wall=True"),
        ("ray delta0", M2Divisor(Space.STACK, delta0=1), "Point/wall=True"),
        ("ray delta1", M2Divisor(Space.STACK, delta1=1), "Point/wall=True"),
    ] + [
        (f"alpha = {alpha}", genus2.hassett_keel_divisor(alpha), published)
        for alpha, published in (
            (Fraction(9, 11), "P6QuotientSL2/wall=True"),
            (Fraction(7, 10), "Point/wall=True"),
            (Fraction(2), "SatakeA2/wall=True"),
            (Fraction(1), "M2CoarseSpace/wall=False"),
            (Fraction(4, 5), "P6QuotientSL2/wall=False"),
            (Fraction(3), "SatakeA2/wall=False"),
        )
    ]
    for name, div, published in lookups:
        found = genus2.m2_chamber(div)
        rows.append((name, published, f"{found.model.value}/wall={found.boundary_case}"))
    return _group("genus-two-bridge", rows)


def build_report() -> PaperReport:
    """Run every golden check and collect the outcome."""
    return PaperReport((
        _divisor_relations(), _intersection_table(), _polarization(), _chamber_walls(),
        _semistable_strata(), _singular_lines(), _duality(),
        _genus2_bridge(),
    ))
