"""Divisor bridge between genus-two stable curves and six-pointed rational
curves.

The coarse moduli space of genus-two curves is the symmetric quotient of
the six-pointed space, so its divisor theory (and the stack's, after
Q-Picard identification) translates verbatim: the boundary classes pull
back as Delta0 -> 2 B2 and Delta1 -> B3, the coarse-to-stack comparison is
delta0 = Delta0, 2 delta1 = Delta1, and the Hodge class reduces to
(Delta0 + Delta1)/10 on boundary classes.  Chamber lookups run through
that pullback, so the six-pointed chamber engine is the only one.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from .divisors import Model, SymmetricDivisor, mori_model
from .exact import _rational, _Value

__all__ = [
    "Space",
    "M2Divisor",
    "M2Model",
    "M2ChamberReport",
    "pullback_to_m06",
    "m2_chamber",
    "hassett_keel_divisor",
]


class Space(str, Enum):
    STACK = "Stack"
    COARSE = "CoarseSpace"


class M2Divisor(_Value):
    """A divisor written in the Hodge + boundary basis of the stack
    (lambda, delta0, delta1) or of the coarse space (lambda, Delta0,
    Delta1)."""

    space: Space
    lam: Fraction
    delta0: Fraction
    delta1: Fraction

    def __init__(self, space: Space, lam=0, delta0=0, delta1=0):
        object.__setattr__(self, "space", Space(space))
        object.__setattr__(self, "lam", _rational(lam))
        object.__setattr__(self, "delta0", _rational(delta0))
        object.__setattr__(self, "delta1", _rational(delta1))

    def to_coarse(self) -> "M2Divisor":
        """Rewrite in the coarse basis; the coarse map is ramified along
        the elliptic boundary, so delta1 accounts for half a Delta1."""
        if self.space == Space.COARSE:
            return self
        return M2Divisor(Space.COARSE, self.lam, self.delta0, self.delta1 / 2)

    def boundary_form(self) -> tuple[Fraction, Fraction]:
        """Boundary coefficients after eliminating the Hodge class via
        lambda = (Delta0 + Delta1)/10, i.e. (delta0 + 2 delta1)/10."""
        if self.space == Space.COARSE:
            return (self.delta0 + self.lam / 10, self.delta1 + self.lam / 10)
        return (self.delta0 + self.lam / 10, self.delta1 + self.lam / 5)


class M2Model(str, Enum):
    COARSE_SPACE = "M2CoarseSpace"
    P6_QUOTIENT = "P6QuotientSL2"
    SATAKE = "SatakeA2"
    POINT = "Point"
    OUTSIDE = "OutsideEffectiveCone"


_RELABEL = {
    Model.AMPLE: M2Model.COARSE_SPACE,
    Model.SEGRE_CUBIC: M2Model.P6_QUOTIENT,
    Model.IGUSA_QUARTIC: M2Model.SATAKE,
    Model.POINT: M2Model.POINT,
    Model.OUTSIDE: M2Model.OUTSIDE,
}


class M2ChamberReport(_Value):
    """The chamber of a genus-two divisor, read through its six-pointed
    pullback: the model it maps to, and whether it lies on a wall."""

    model: M2Model
    boundary_case: bool


def pullback_to_m06(div: M2Divisor) -> SymmetricDivisor:
    """Pull a genus-two divisor back to the six-pointed space.

    In the coarse boundary form (after Hodge reduction), Delta0 -> 2 B2 and
    Delta1 -> B3; in particular the Hodge class itself lands on
    B2/5 + B3/10 = -K/2.
    """
    b0, b1 = div.to_coarse().boundary_form()
    return SymmetricDivisor(6, {2: 2 * b0, 3: b1})


def m2_chamber(div: M2Divisor) -> M2ChamberReport:
    """Chamber lookup for a genus-two divisor, computed through the
    six-pointed pullback and relabeled."""
    pulled = mori_model(pullback_to_m06(div))
    return M2ChamberReport(_RELABEL[pulled.model], pulled.boundary_case)


def hassett_keel_divisor(alpha) -> M2Divisor:
    """The log-canonical slice divisor K + alpha * delta on the stack.

    The stack canonical class is 13 lambda - 2 delta0 - 2 delta1; the slice
    is returned in its boundary form, with the Hodge class reduced away.
    Below alpha = 7/10 the class leaves the effective cone and the chamber
    lookup reports it as such.
    """
    a = _rational(alpha)
    return M2Divisor(Space.STACK, 0, *M2Divisor(Space.STACK, 13, a - 2, a - 2).boundary_form())
