"""Strictly semistable strata for six symmetrically weighted points in the
plane.

With all weights 1/2 the only tight subspaces are a point carrying two
marks and a line carrying four marks counted with multiplicity.  A strictly
semistable sextuple falls into one of eleven orbit strata, labelled I
through XI (Dolgachev-Ortland, Asterisque 165).  The private table
``_STRATA`` holds one row per stratum: a template, its incidence type, its
stabilizer dimension, its closed orbit and its dimension in (P^2)^6.  The
public ``STRATUM_*`` tables are views of it, and the tests check every row
against the templates.  The incidence type is the signature with the mark
labels dropped, so classification is a lookup on it.  Two strata (I and
VII) are closed in the semistable locus; every other stratum degenerates
onto one of them along adapted diagonal one-parameter subgroups, which is
how the quotient map is evaluated on strictly semistable configurations;
the frames adapted to a tight point or line are cross products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .exact import IntegerMatrix
from .stability import (
    OneParameterSubgroup,
    PointConfiguration,
    StabilityVerdict,
    Status,
    _plane_line,
    apply_transformation,
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

_E0, _E1, _E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


class _Stratum(NamedTuple):
    template: tuple[tuple[int, int, int], ...]
    # sorted coincidence class sizes, sorted (weighted, support) line pairs
    incidence: tuple
    stabilizer_dimension: int
    closed_orbit: str  # the closed stratum reached by degeneration
    dimension: int  # inside the configuration product (P^2)^6


# one row per stratum; the template coordinates keep its incidences exact
_STRATA = {
    "I": _Stratum((_E0, _E0, _E1, _E1, _E2, _E2),
                  ((2, 2, 2), ((4, 2), (4, 2), (4, 2))), 2, "I", 6),
    "II": _Stratum((_E0, _E0, _E1, _E1, _E2, (1, 0, 1)),
                   ((1, 1, 2, 2), ((4, 2), (4, 3))), 1, "I", 7),
    "III": _Stratum((_E0, _E0, _E1, _E1, _E2, (1, 1, 1)),
                    ((1, 1, 2, 2), ((4, 2),)), 0, "I", 8),
    "IV": _Stratum((_E0, _E0, _E2, (1, 0, 1), _E1, (1, 1, 0)),
                   ((1, 1, 1, 1, 2), ((4, 3), (4, 3))), 0, "I", 8),
    "V": _Stratum((_E0, _E0, _E2, (1, 0, 1), (1, 1, 0), (1, 1, 1)),
                  ((1, 1, 1, 1, 2), ((3, 3), (4, 3))), 0, "I", 8),
    "VI": _Stratum((_E0, _E0, _E2, (1, 0, 1), _E1, (2, 1, 1)),
                   ((1, 1, 1, 1, 2), ((4, 3),)), 0, "I", 9),
    "VII": _Stratum((_E2, _E2, _E0, _E1, (1, 1, 0), (1, 2, 0)),
                    ((1, 1, 1, 1, 2), ((4, 4),)), 1, "VII", 8),
    "VIII": _Stratum((_E0, _E0, _E1, _E2, (0, 1, 1), (1, 1, 3)),
                     ((1, 1, 1, 1, 2), ((3, 3),)), 0, "VII", 9),
    "IX": _Stratum((_E0, _E0, _E1, _E2, (1, 1, 1), (1, 2, 4)),
                   ((1, 1, 1, 1, 2), ()), 0, "VII", 10),
    "X": _Stratum((_E0, _E1, (1, 1, 0), (1, 2, 0), _E2, (1, 0, 1)),
                  ((1, 1, 1, 1, 1, 1), ((3, 3), (4, 4))), 0, "VII", 9),
    "XI": _Stratum((_E0, _E1, (1, 1, 0), (1, 2, 0), _E2, (1, 3, 1)),
                   ((1, 1, 1, 1, 1, 1), ((4, 4),)), 0, "VII", 10),
}

STRATUM_LABELS = tuple(_STRATA)
STRATUM_STABILIZER_DIMENSION = {label: row.stabilizer_dimension for label, row in _STRATA.items()}
STRATUM_CLOSED_ORBIT = {label: row.closed_orbit for label, row in _STRATA.items()}
STRATUM_DIMENSION = {label: row.dimension for label, row in _STRATA.items()}
_STRATUM_OF_TYPE = {row.incidence: label for label, row in _STRATA.items()}


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


def classify_stratum(sig: StratumSignature, verdict: StabilityVerdict) -> str:
    """Stratum label for a signature, given the stability verdict.

    Returns one of I..XI for strictly semistable plane sextuples with
    symmetric weights, "Stable"/"Unstable" when the verdict says so, and
    "Unrecognized" for incidence types outside the table (which should not
    occur for this weight system).
    """
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        return verdict.status.value
    incidence = (
        tuple(sorted(len(cls) for cls in sig.coincidence)),
        tuple(sorted((rec.weighted, rec.support) for rec in sig.lines)),
    )
    return _STRATUM_OF_TYPE.get(incidence, "Unrecognized")


# adapted subgroup weights, by the flat's dimension: repel everything away
# from a tight point, or collapse everything off a tight line onto the
# opposite vertex; both have zero pairing with the symmetric linearization,
# so limits stay semistable
_FLAG_WEIGHTS = ((2, -1, -1), (1, 1, -2))


def _plane_frame(p: tuple[int, ...], q: tuple[int, ...] | None = None) -> IntegerMatrix:
    """An integer transformation sending p, and q (another point) when
    given, to nonzero multiples of e_0 and e_1: the adjugate rows q x r,
    r x p, p x q of A = [p q r], that is det(A) A^-1.  Greedy completion by
    units: alone, p takes as q, r the e_i other than e_j, j its last nonzero
    coordinate; a line takes r = e_k, k the first nonzero entry of p x q."""
    units = (_E0, _E1, _E2)
    if q is None:
        j = max(i for i, x in enumerate(p) if x)
        q, r = (e for i, e in enumerate(units) if i != j)
    else:
        r = units[next(i for i, x in enumerate(_plane_line(p, q)) if x)]
    return _plane_line(q, r), _plane_line(r, p), _plane_line(p, q)


def _witness_flags(
    config: PointConfiguration, verdict: StabilityVerdict
) -> Iterator[tuple[IntegerMatrix, tuple[int, int, int]]]:
    """Standard-position transformations adapted to each equality witness,
    in the verdict's order (point flags first, each by lowest mark), each
    built only when the caller reaches its flag."""
    for w in verdict.equality_witnesses():
        # the point of the lowest mark, then on a line the next distinct one
        flag = tuple(dict.fromkeys(config.points[i] for i in w.marks))[: w.dim + 1]
        yield _plane_frame(*flag), _FLAG_WEIGHTS[w.dim]


def polystable_degeneration(config: PointConfiguration) -> tuple[PointConfiguration, str]:
    """Degenerate a strictly semistable plane sextuple to its closed orbit.

    Each pass returns the configuration if its stratum is its own entry in
    ``STRATUM_CLOSED_ORBIT``, and otherwise takes the first adapted
    Hilbert-Mumford limit (Mumford-Fogarty-Kirwan, ch. 4) that moves it,
    trying point flags before line flags, each by lowest mark.  Three
    passes suffice: at most two limits advance and at most three are tried.

    * A point witness's limit projects the other four marks from it onto
      the opposite line; a line witness's limit sends the two marks off the
      line to the opposite vertex.  Either way the limit is a double point
      plus four marks on a line that misses it: stratum I, II or VII.  So
      the first flag's limit moves unless the configuration has that shape.
    * In II, let q be the double point off the four-mark line L and p the
      double point on it.  Every first step from another stratum, and every
      step taken from q, leaves q and L in standard position: q at e0 with
      L at x0 = 0, or q at e2 with L = span(e0, e1).  There q's flag does
      not move, and p's limit merges the two single marks on L, reaching I.
    """
    if config.d != 2 or config.n != 6:
        raise ValueError("degeneration is defined for six points in the plane")
    weights = symmetric_weights(config.n, config.d)
    verdict = stability_status(config, weights)
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        raise ValueError(f"input is {verdict.status.value}, not strictly semistable")
    for _ in range(3):
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
                    raise RuntimeError("adapted limit left the strictly semistable locus")
                break
        else:
            raise RuntimeError("no adapted subgroup advanced the degeneration")
    raise RuntimeError("degeneration did not reach a closed orbit")


def stratum_representative(label: str) -> PointConfiguration:
    """A concrete configuration realizing the given stratum."""
    if label not in _STRATA:
        raise ValueError(f"unknown stratum label {label!r}")
    return PointConfiguration(2, _STRATA[label].template)
