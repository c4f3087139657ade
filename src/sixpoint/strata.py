"""Strictly semistable strata for six symmetrically weighted points in the
plane.

With all weights 1/2 the only tight subspaces are a point carrying two
marks and a line carrying four marks counted with multiplicity.  Sorting
the possible combinations of those two shapes, together with the residual
incidences among the remaining marks, yields eleven orbit strata, labelled
I through XI.  Two of them (I and VII) are closed in the semistable locus;
every other stratum degenerates onto one of those along an adapted diagonal
one-parameter subgroup, which is how the quotient map is evaluated on
strictly semistable configurations.

The classification key for a signature:

    doubled  four-mark lines          residual 3-mark line   label
    3        3 (vertex joins)         -                      I
    2        2                        -                      II
    2        1 (the join)             -                      III
    1        2 (both through it)      -                      IV
    1        1 through the double     yes                    V
    1        1 through the double     no                     VI
    1        1 missing the double     -                      VII
    1        0                        yes                    VIII
    1        0                        no                     IX
    0        1                        yes                    X
    0        1                        no                     XI

Stabilizer dimensions (2 for I, 1 for II and VII, 0 otherwise) and the
degeneration targets are machine checks on the templates.  The stratum
dimensions inside the configuration product (6,7,8,8,8,9,8,9,10,9,10) are
checked by the test suite as 12 minus the rank of the linearized incidence
conditions at each template.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .exact import IntegerMatrix
from .stability import (
    OneParameterSubgroup,
    PointConfiguration,
    StabilityVerdict,
    Status,
    apply_transformation,
    move_flag_to_standard_position,
    one_parameter_limit,
    stability_status,
    symmetric_weights,
)

__all__ = [
    "LineRecord",
    "StratumSignature",
    "stratum_signature",
    "classify_stratum",
    "is_strictly_semistable_pattern",
    "polystable_degeneration",
    "stratum_representative",
    "STRATUM_LABELS",
    "STRATUM_STABILIZER_DIMENSION",
    "STRATUM_CLOSED_ORBIT",
    "STRATUM_DIMENSION",
]

STRATUM_LABELS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI")

STRATUM_STABILIZER_DIMENSION = {
    "I": 2, "II": 1, "III": 0, "IV": 0, "V": 0, "VI": 0,
    "VII": 1, "VIII": 0, "IX": 0, "X": 0, "XI": 0,
}

# closed-orbit stratum reached by degeneration
STRATUM_CLOSED_ORBIT = {
    "I": "I", "II": "I", "III": "I", "IV": "I", "V": "I", "VI": "I",
    "VII": "VII", "VIII": "VII", "IX": "VII", "X": "VII", "XI": "VII",
}

# dimension inside the configuration product (P^2)^6
STRATUM_DIMENSION = {
    "I": 6, "II": 7, "III": 8, "IV": 8, "V": 8, "VI": 9,
    "VII": 8, "VIII": 9, "IX": 10, "X": 9, "XI": 10,
}


@dataclass(frozen=True)
class LineRecord:
    """A maximal collinear support with at least three distinct points:
    the marks on the line, how many distinct points they occupy, and the
    multiplicity-weighted mark count."""

    marks: tuple[int, ...]
    support: int
    weighted: int


@dataclass(frozen=True)
class StratumSignature:
    """Coincidence partition of the marks plus the recorded lines."""

    coincidence: tuple[tuple[int, ...], ...]
    lines: tuple[LineRecord, ...]

    def doubled_classes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(cls for cls in self.coincidence if len(cls) == 2)


def stratum_signature(config: PointConfiguration) -> StratumSignature:
    """Coincidence-and-collinearity type of a plane configuration.

    Read off the configuration's flats: a point flat holds one coincidence
    class of marks; a line flat is recorded when it carries at least three
    distinct support points, or at least four marks counted with
    multiplicity (the join of two doubled points has only two support
    points but is a tight subspace all the same).
    """
    if config.d != 2:
        raise ValueError("stratum signatures are defined for plane configurations")
    coincidence = tuple(sorted(marks for dim, marks in config.flats if dim == 0))
    lines = []
    for dim, marks in config.flats:
        if dim == 1:
            support = len({config.points[i] for i in marks})
            if support >= 3 or len(marks) >= 4:
                lines.append(LineRecord(marks=marks, support=support, weighted=len(marks)))
    return StratumSignature(
        coincidence=coincidence,
        lines=tuple(sorted(lines, key=lambda rec: rec.marks)),
    )


def classify_stratum(sig: StratumSignature, verdict: StabilityVerdict) -> str:
    """Stratum label for a signature, given the stability verdict.

    Returns one of I..XI for strictly semistable plane sextuples with
    symmetric weights, "Stable"/"Unstable" when the verdict says so, and
    "Unrecognized" for shapes outside the table (which should not occur for
    this weight system).
    """
    if verdict.status == Status.UNSTABLE:
        return "Unstable"
    if verdict.status == Status.STABLE:
        return "Stable"
    doubled = sig.doubled_classes()
    heavy = [rec for rec in sig.lines if rec.weighted >= 4]
    residual = [rec for rec in sig.lines if rec.weighted == 3]
    doubled_marks = {cls[0] for cls in doubled}
    through_double = [
        rec for rec in heavy if any(m in rec.marks for m in doubled_marks)
    ]
    key = (len(doubled), len(heavy))
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


def is_strictly_semistable_pattern(config: PointConfiguration) -> bool:
    """True when a plane sextuple with symmetric weights is strictly
    semistable with every tight subspace of the two admissible shapes:
    two marks on a point, four marks on a line."""
    verdict = stability_status(config, symmetric_weights(config.n, config.d))
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        return False
    for w in verdict.equality_witnesses():
        if (w.dim, len(w.marks)) not in ((0, 2), (1, 4)):
            return False
    return True


# adapted subgroup weights: repel everything away from a tight point, or
# collapse everything off a tight line onto the opposite vertex; both have
# zero pairing with the symmetric linearization, so limits stay semistable
_POINT_FLAG_WEIGHTS = (2, -1, -1)
_LINE_FLAG_WEIGHTS = (1, 1, -2)


def _witness_flags(
    config: PointConfiguration, verdict: StabilityVerdict
) -> Iterator[tuple[IntegerMatrix, tuple[int, int, int]]]:
    """Standard-position transformations adapted to each equality witness,
    point flags first, each keyed by lowest mark index for determinism.
    Each transformation is built only when the caller reaches its flag."""
    for w in sorted(verdict.equality_witnesses(), key=lambda w: (w.dim, w.marks)):
        if w.dim == 0:
            yield (move_flag_to_standard_position(
                [config.points[w.marks[0]]], 2), _POINT_FLAG_WEIGHTS)
        else:
            anchor = config.points[w.marks[0]]
            other = next(
                config.points[i] for i in w.marks if config.points[i] != anchor
            )
            yield (move_flag_to_standard_position([anchor, other], 2),
                   _LINE_FLAG_WEIGHTS)


def polystable_degeneration(config: PointConfiguration) -> tuple[PointConfiguration, str]:
    """Degenerate a strictly semistable plane sextuple to its closed orbit.

    Iterates one-parameter limits adapted to the equality witnesses until
    the stratum label is I or VII; configurations already there are
    returned unchanged.  A step need not leave the stratum: some stratum II
    sextuples go II -> II -> I.  What holds is a measured bound: over all
    six-point multisets of the 13 points of P^2 with coordinates in
    {-1, 0, 1}, no degeneration takes more than 2 advancing steps.  The cap
    of 16 iterations below has no proof behind it.
    """
    if config.d != 2 or config.n != 6:
        raise ValueError("degeneration is defined for six points in the plane")
    weights = symmetric_weights(config.n, config.d)
    verdict = stability_status(config, weights)
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        raise ValueError(f"input is {verdict.status.value}, not strictly semistable")
    for _ in range(16):
        label = classify_stratum(stratum_signature(config), verdict)
        if label in ("I", "VII"):
            return config, label
        for transform, subgroup_weights in _witness_flags(config, verdict):
            moved = apply_transformation(transform, config)
            limit = one_parameter_limit(moved, OneParameterSubgroup(subgroup_weights))
            if limit != moved:
                config = limit
                verdict = stability_status(config, weights)
                if verdict.status != Status.STRICTLY_SEMISTABLE:
                    raise RuntimeError(
                        "adapted limit left the strictly semistable locus"
                    )
                break
        else:
            raise RuntimeError("no adapted subgroup advanced the degeneration")
    raise RuntimeError("degeneration did not reach a closed orbit")


_E0 = (1, 0, 0)
_E1 = (0, 1, 0)
_E2 = (0, 0, 1)

# hand-transcribed templates, one per stratum; coordinates are chosen so the
# incidences are exact and easy to audit against the classification key
_REPRESENTATIVES = {
    "I": (_E0, _E0, _E1, _E1, _E2, _E2),
    "II": (_E0, _E0, _E1, _E1, _E2, (1, 0, 1)),
    "III": (_E0, _E0, _E1, _E1, _E2, (1, 1, 1)),
    "IV": (_E0, _E0, _E2, (1, 0, 1), _E1, (1, 1, 0)),
    "V": (_E0, _E0, _E2, (1, 0, 1), (1, 1, 0), (1, 1, 1)),
    "VI": (_E0, _E0, _E2, (1, 0, 1), _E1, (2, 1, 1)),
    "VII": (_E2, _E2, _E0, _E1, (1, 1, 0), (1, 2, 0)),
    "VIII": (_E0, _E0, _E1, _E2, (0, 1, 1), (1, 1, 3)),
    "IX": (_E0, _E0, _E1, _E2, (1, 1, 1), (1, 2, 4)),
    "X": (_E0, _E1, (1, 1, 0), (1, 2, 0), _E2, (1, 0, 1)),
    "XI": (_E0, _E1, (1, 1, 0), (1, 2, 0), _E2, (1, 3, 1)),
}


def stratum_representative(label: str) -> PointConfiguration:
    """A concrete configuration realizing the given stratum."""
    if label not in _REPRESENTATIVES:
        raise ValueError(f"unknown stratum label {label!r}")
    return PointConfiguration(2, _REPRESENTATIVES[label])
