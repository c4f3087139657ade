"""Strictly semistable strata for six symmetrically weighted points in the
plane.

With all weights 1/2 the only tight subspaces are a point carrying two
marks and a line carrying four marks counted with multiplicity.  A strictly
semistable sextuple falls into one of eleven orbit strata, labelled I
through XI (Dolgachev-Ortland, Asterisque 165).  Each stratum has one
incidence type: the signature with the mark labels dropped, i.e. the sorted
sizes of the coincidence classes and the sorted (weighted, support) pair of
each recorded line.  So classification is a lookup in a table with one entry
per template, which the tests check against a decision chain on doubled
points and four-mark lines over grid sextuples and projective images.

Two strata (I and VII) are closed in the semistable locus; every other
stratum degenerates onto one of those along an adapted diagonal
one-parameter subgroup, which is how the quotient map is evaluated on
strictly semistable configurations.

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


# incidence type -> stratum, one entry per template in _REPRESENTATIVES:
# (sorted coincidence class sizes, sorted (weighted, support) line pairs)
_STRATUM_OF_TYPE = {
    ((2, 2, 2), ((4, 2), (4, 2), (4, 2))): "I",
    ((1, 1, 2, 2), ((4, 2), (4, 3))): "II",
    ((1, 1, 2, 2), ((4, 2),)): "III",
    ((1, 1, 1, 1, 2), ((4, 3), (4, 3))): "IV",
    ((1, 1, 1, 1, 2), ((3, 3), (4, 3))): "V",
    ((1, 1, 1, 1, 2), ((4, 3),)): "VI",
    ((1, 1, 1, 1, 2), ((4, 4),)): "VII",
    ((1, 1, 1, 1, 2), ((3, 3),)): "VIII",
    ((1, 1, 1, 1, 2), ()): "IX",
    ((1, 1, 1, 1, 1, 1), ((3, 3), (4, 4))): "X",
    ((1, 1, 1, 1, 1, 1), ((4, 4),)): "XI",
}


def classify_stratum(sig: StratumSignature, verdict: StabilityVerdict) -> str:
    """Stratum label for a signature, given the stability verdict.

    Returns one of I..XI for strictly semistable plane sextuples with
    symmetric weights, "Stable"/"Unstable" when the verdict says so, and
    "Unrecognized" for incidence types outside the table (which should not
    occur for this weight system).
    """
    if verdict.status == Status.UNSTABLE:
        return "Unstable"
    if verdict.status == Status.STABLE:
        return "Stable"
    incidence = (
        tuple(sorted(len(cls) for cls in sig.coincidence)),
        tuple(sorted((rec.weighted, rec.support) for rec in sig.lines)),
    )
    return _STRATUM_OF_TYPE.get(incidence, "Unrecognized")


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
    the stratum is its own entry in ``STRATUM_CLOSED_ORBIT``; configurations
    already there are returned unchanged.  A step need not leave the
    stratum: some stratum II sextuples go II -> II -> I.  What holds is a
    measured bound: over all six-point multisets of the 13 points of P^2
    with coordinates in {-1, 0, 1}, no degeneration takes more than 2
    advancing steps.  The cap of 16 iterations below has no proof behind it.
    """
    if config.d != 2 or config.n != 6:
        raise ValueError("degeneration is defined for six points in the plane")
    weights = symmetric_weights(config.n, config.d)
    verdict = stability_status(config, weights)
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        raise ValueError(f"input is {verdict.status.value}, not strictly semistable")
    for _ in range(16):
        label = classify_stratum(stratum_signature(config), verdict)
        if STRATUM_CLOSED_ORBIT.get(label) == label:
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
# incidences are exact and easy to audit against _STRATUM_OF_TYPE
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
