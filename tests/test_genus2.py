import random
from fractions import Fraction

import pytest

from sixpoint.divisors import SymmetricDivisor, canonical_divisor, psi_divisor
from sixpoint.genus2 import (
    M2ChamberReport,
    M2Divisor,
    M2Model,
    Space,
    hassett_keel_divisor,
    m2_chamber,
    pullback_to_m06,
)


def test_pullback_of_basis_classes():
    hodge = M2Divisor(Space.COARSE, lam=1)
    assert pullback_to_m06(hodge) == SymmetricDivisor(
        6, {2: Fraction(1, 5), 3: Fraction(1, 10)}
    )
    assert pullback_to_m06(hodge) == Fraction(-1, 2) * canonical_divisor(6)
    assert pullback_to_m06(M2Divisor(Space.COARSE, delta0=1)) == SymmetricDivisor(6, {2: 2})
    assert pullback_to_m06(M2Divisor(Space.COARSE, delta1=1)) == SymmetricDivisor(6, {3: 1})


def test_pullback_of_the_segre_wall():
    coarse = M2Divisor(Space.COARSE, delta0=1, delta1=6)
    stack = M2Divisor(Space.STACK, delta0=1, delta1=12)
    expected = SymmetricDivisor(6, {2: 2, 3: 6})
    assert pullback_to_m06(coarse) == expected
    assert pullback_to_m06(stack) == expected
    assert expected == 15 * (
        canonical_divisor(6) + Fraction(1, 3) * psi_divisor(6)
    )


def test_stack_coarse_comparison():
    # one boundary class at a time: delta0 matches Delta0, two delta1 make
    # one Delta1
    assert pullback_to_m06(M2Divisor(Space.STACK, delta0=1)) == pullback_to_m06(
        M2Divisor(Space.COARSE, delta0=1)
    )
    assert pullback_to_m06(M2Divisor(Space.STACK, delta1=2)) == pullback_to_m06(
        M2Divisor(Space.COARSE, delta1=1)
    )


def test_hodge_reduction_to_boundary_form():
    assert M2Divisor(Space.STACK, lam=1).boundary_form() == (
        Fraction(1, 10),
        Fraction(1, 5),
    )
    assert M2Divisor(Space.COARSE, lam=1).boundary_form() == (
        Fraction(1, 10),
        Fraction(1, 10),
    )


def test_pullback_is_linear():
    rng = random.Random(59)
    for _ in range(25):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        d1 = M2Divisor(
            Space.STACK,
            Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)),
        )
        d2 = M2Divisor(
            Space.STACK,
            Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)),
            Fraction(rng.randint(-5, 5)),
        )
        combo = M2Divisor(
            Space.STACK,
            a * d1.lam + b * d2.lam,
            a * d1.delta0 + b * d2.delta0,
            a * d1.delta1 + b * d2.delta1,
        )
        assert pullback_to_m06(combo) == a * pullback_to_m06(d1) + b * pullback_to_m06(d2)


def test_wall_correspondence():
    # the Hodge ray pulls back onto the -K wall, the P^6 wall onto the
    # Segre wall: slope 1/2 and slope 3 in the boundary coordinates
    hodge = pullback_to_m06(M2Divisor(Space.STACK, lam=1))
    assert 2 * hodge.coefficient(3) == hodge.coefficient(2)
    wall = pullback_to_m06(M2Divisor(Space.STACK, delta0=1, delta1=12))
    assert wall.coefficient(3) == 3 * wall.coefficient(2)


def test_chamber_rays():
    cases = (
        (M2Divisor(Space.STACK, lam=1), M2Model.SATAKE, True),
        (M2Divisor(Space.STACK, delta0=1, delta1=12), M2Model.P6_QUOTIENT, True),
        (M2Divisor(Space.STACK, delta0=1), M2Model.POINT, True),
        (M2Divisor(Space.STACK, delta1=1), M2Model.POINT, True),
        (M2Divisor(Space.STACK, delta0=1, delta1=5), M2Model.COARSE_SPACE, False),
        (M2Divisor(Space.STACK, delta0=1, delta1=20), M2Model.P6_QUOTIENT, False),
        (M2Divisor(Space.STACK, delta0=1, delta1=1), M2Model.SATAKE, False),
        (M2Divisor(Space.COARSE, delta0=1, delta1=6), M2Model.P6_QUOTIENT, True),
        (M2Divisor(Space.STACK, delta0=-1), M2Model.OUTSIDE, False),
    )
    for divisor, model, wall in cases:
        assert m2_chamber(divisor) == M2ChamberReport(model, wall)


def test_chamber_is_scale_invariant():
    rng = random.Random(3)
    for _ in range(30):
        d = M2Divisor(
            Space.STACK, 0, Fraction(rng.randint(0, 9)), Fraction(rng.randint(0, 9))
        )
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = M2Divisor(Space.STACK, 0, scale * d.delta0, scale * d.delta1)
        assert m2_chamber(d) == m2_chamber(scaled)


def test_log_canonical_slice():
    nine_elevenths = hassett_keel_divisor(Fraction(9, 11))
    assert nine_elevenths.boundary_form() == (
        Fraction(13, 110),
        Fraction(156, 110),
    )
    # that is 13/110 times the P^6 wall ray
    b0, b1 = nine_elevenths.boundary_form()
    assert b1 == 12 * b0

    assert hassett_keel_divisor(Fraction(7, 10)).boundary_form()[0] == 0


def test_log_canonical_slice_matches_the_hand_reduction():
    # 13 lambda - 2 delta + alpha delta with lambda = delta0/10 + delta1/5
    for p in range(-20, 60):
        for q in range(1, 9):
            alpha = Fraction(p, q)
            assert hassett_keel_divisor(alpha) == M2Divisor(
                Space.STACK, 0, alpha - Fraction(7, 10), alpha + Fraction(3, 5)
            )


def test_log_canonical_thresholds():
    expectations = (
        (Fraction(7, 10), M2Model.POINT, True),
        (Fraction(3, 4), M2Model.P6_QUOTIENT, False),
        (Fraction(9, 11), M2Model.P6_QUOTIENT, True),
        (Fraction(1), M2Model.COARSE_SPACE, False),
        (Fraction(3, 2), M2Model.COARSE_SPACE, False),
        (Fraction(2), M2Model.SATAKE, True),
        (Fraction(5, 2), M2Model.SATAKE, False),
        (Fraction(13, 20), M2Model.OUTSIDE, False),
    )
    for alpha, model, wall in expectations:
        report = m2_chamber(hassett_keel_divisor(alpha))
        assert report == M2ChamberReport(model, wall), f"alpha={alpha}"


def test_part_of_the_cone_without_a_slice_parameter():
    # divisors between delta0 and delta0 + delta1 still get a chamber even
    # though no slice parameter reaches them
    inside = M2Divisor(Space.STACK, delta0=2, delta1=1)
    assert m2_chamber(inside) == M2ChamberReport(M2Model.SATAKE, False)


def direct_chamber(div):
    """Oracle: chambers in the stack boundary coordinates (u0, u1), with
    Satake on (delta0, lambda], i.e. 0 < u1 <= 2 u0, the coarse space on
    (lambda, delta0 + 12 delta1), the P^6 quotient on [delta0 + 12 delta1,
    delta1), and a point on each boundary ray."""
    b0, b1 = div.to_coarse().boundary_form()
    u0, u1 = b0, 2 * b1
    if u0 < 0 or u1 < 0:
        return M2ChamberReport(M2Model.OUTSIDE, False)
    if u0 == 0 or u1 == 0:
        return M2ChamberReport(M2Model.POINT, True)
    if u1 < 2 * u0:
        return M2ChamberReport(M2Model.SATAKE, False)
    if u1 == 2 * u0:
        return M2ChamberReport(M2Model.SATAKE, True)
    if u1 < 12 * u0:
        return M2ChamberReport(M2Model.COARSE_SPACE, False)
    if u1 == 12 * u0:
        return M2ChamberReport(M2Model.P6_QUOTIENT, True)
    return M2ChamberReport(M2Model.P6_QUOTIENT, False)


def test_chamber_agrees_with_the_slope_oracle_on_a_grid():
    # boundary coefficients on a rational grid, with the Hodge class
    # weighted in; the stack grid holds the slope-2 and slope-12 walls and
    # both boundary rays, the coarse grid the same walls at slopes 1 and 6
    values = sorted({Fraction(p, q) for p in range(-2, 13) for q in (1, 2, 3)})
    walls = {Space.STACK: set(), Space.COARSE: set()}
    for space in Space:
        for lam in (0, 1, Fraction(-1, 2)):
            for d0 in values:
                for d1 in values:
                    div = M2Divisor(space, lam, d0, d1)
                    report = m2_chamber(div)
                    assert report == direct_chamber(div), div
                    if report.boundary_case:
                        walls[space].add(report.model)
    # the grid hits both boundary rays and both interior walls in each basis
    for space in Space:
        assert walls[space] == {M2Model.POINT, M2Model.SATAKE, M2Model.P6_QUOTIENT}
