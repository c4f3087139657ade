"""Strictly semistable strata for six symmetrically weighted points in the
plane.

With all weights 1/2 the only tight subspaces are a point carrying two
marks and a line carrying four marks counted with multiplicity.  A strictly
semistable sextuple falls into one of eleven orbit strata, labelled I
through XI (Dolgachev-Ortland, Asterisque 165).  The module records one
template configuration per stratum and the pair of strata (I and VII)
that are closed in the semistable locus; every other fact is computed from
the templates at import.  A stratum's incidence type is its template's
signature with the mark labels dropped, so classification is a lookup on
it; ``STRATUM_STABILIZER_DIMENSION`` is the template's stabilizer
dimension, and ``STRATUM_DIMENSION`` its parameter count in (P^2)^6.  Every
stratum outside the closed pair degenerates onto one of them along adapted
diagonal one-parameter subgroups, which is how the quotient map is
evaluated on strictly semistable configurations; the frames adapted to a
tight point or line are cross products.
"""

from __future__ import annotations

from typing import Iterator

from .exact import IntegerMatrix, _Value
from .stability import (
    PointConfiguration,
    StabilityVerdict,
    Status,
    _plane_line,
    _transformed_limit,
    stability_status,
    stabilizer_dimension,
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
    "STRATUM_DIMENSION",
]

_E0, _E1, _E2 = (1, 0, 0), (0, 1, 0), (0, 0, 1)

# one template per stratum; its coordinates keep the incidences exact
_TEMPLATES = {
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
# the strata closed in the semistable locus: the degeneration's targets
_CLOSED_STRATA = ("I", "VII")

STRATUM_LABELS = tuple(_TEMPLATES)


class LineRecord(_Value):
    """A maximal collinear support with at least three distinct points:
    the marks on the line, how many distinct points they occupy, and the
    multiplicity-weighted mark count."""

    marks: tuple[int, ...]
    support: int
    weighted: int


class StratumSignature(_Value):
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
    return _STRATUM_OF_TYPE.get(_incidence(sig), "Unrecognized")


def _incidence(sig: StratumSignature) -> tuple:
    """The incidence type: sorted coincidence class sizes, then the sorted
    (weighted, support) pairs of the recorded lines."""
    return (
        tuple(sorted(len(cls) for cls in sig.coincidence)),
        tuple(sorted((rec.weighted, rec.support) for rec in sig.lines)),
    )


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

    Each pass returns the configuration if its stratum is one of the closed
    pair I and VII, and otherwise takes the first adapted
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

    A caller that has judged the input with the shared symmetric weights
    has left that verdict on the configuration, so the check below reads it
    back.  Each limit that advances is built once and judged afresh; a
    flag whose limit does not move builds no configuration.
    """
    if config.d != 2 or config.n != 6:
        raise ValueError("degeneration is defined for six points in the plane")
    weights = symmetric_weights(config.n, config.d)
    verdict = stability_status(config, weights)
    if verdict.status != Status.STRICTLY_SEMISTABLE:
        raise ValueError(f"input is {verdict.status.value}, not strictly semistable")
    for _ in range(3):
        label = classify_stratum(stratum_signature(config), verdict)
        if label in _CLOSED_STRATA:
            return config, label
        for transform, subgroup_weights in _witness_flags(config, verdict):
            limit = _transformed_limit(transform, config, subgroup_weights)
            if limit is not None:
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
    if label not in _TEMPLATES:
        raise ValueError(f"unknown stratum label {label!r}")
    return PointConfiguration(2, _TEMPLATES[label])


_SIGNATURES = {label: stratum_signature(stratum_representative(label)) for label in STRATUM_LABELS}
_STRATUM_OF_TYPE = {_incidence(sig): label for label, sig in _SIGNATURES.items()}
STRATUM_STABILIZER_DIMENSION = {
    label: stabilizer_dimension(stratum_representative(label)) for label in STRATUM_LABELS
}
# the dimension in (P^2)^6: two parameters per distinct point, less one for
# each support point past the second on a recorded line (on every stratum
# these incidence conditions are independent)
STRATUM_DIMENSION = {
    label: 2 * len(sig.coincidence) - sum(rec.support - 2 for rec in sig.lines)
    for label, sig in _SIGNATURES.items()
}
