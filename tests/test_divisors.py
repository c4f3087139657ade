import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sixpoint.divisors import (
    BaseLocus,
    CCurve,
    ChamberReport,
    FCurve,
    Model,
    SymmetricDivisor,
    boundary,
    canonical_divisor,
    canonical_polarization,
    four_part_partitions,
    from_k_psi,
    intersect_c_curve,
    intersect_f_curve,
    is_effective,
    is_f_nonnegative,
    mori_model,
    psi_divisor,
    stable_base_locus,
    total_boundary,
)

F13 = FCurve((1, 1, 1, 3))
F22 = FCurve((1, 1, 2, 2))


def K():
    return canonical_divisor(6)


def psi():
    return psi_divisor(6)


def test_canonical_divisor_values():
    assert K() == SymmetricDivisor(6, {2: Fraction(-2, 5), 3: Fraction(-1, 5)})
    assert canonical_divisor(5) == SymmetricDivisor(5, {2: Fraction(-1, 2)})
    assert canonical_divisor(4) == SymmetricDivisor(4, {2: Fraction(-2, 3)})
    with pytest.raises(ValueError):
        canonical_divisor(3)


def test_psi_divisor_values():
    assert psi() == SymmetricDivisor(6, {2: Fraction(8, 5), 3: Fraction(9, 5)})
    assert psi_divisor(5) == SymmetricDivisor(5, {2: Fraction(3, 2)})
    for n in range(4, 10):
        assert psi_divisor(n) == canonical_divisor(n) + 2 * total_boundary(n)


def test_boundary_basis_change_identities():
    assert from_k_psi(6, Fraction(-9, 2), Fraction(-1, 2)) == boundary(6, 2)
    assert from_k_psi(6, 4, 1) == boundary(6, 3)
    assert from_k_psi(6, 1, Fraction(1, 3)) == SymmetricDivisor(
        6, {2: Fraction(2, 15), 3: Fraction(2, 5)}
    )


def test_from_k_psi_round_trip():
    # the change of basis is invertible on the two-dimensional space
    rng = random.Random(31)
    k, p = K(), psi()
    det = k.coefficient(2) * p.coefficient(3) - k.coefficient(3) * p.coefficient(2)
    for _ in range(25):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        d = from_k_psi(6, a, b)
        x, y = d.coefficient(2), d.coefficient(3)
        a_back = (x * p.coefficient(3) - y * p.coefficient(2)) / det
        b_back = (y * k.coefficient(2) - x * k.coefficient(3)) / det
        assert (a_back, b_back) == (a, b)


def test_index_folding():
    assert SymmetricDivisor(6, {4: 1}) == boundary(6, 2)
    # both unfolded slots of the same class accumulate
    assert SymmetricDivisor(6, {2: 1, 4: 1}) == 2 * boundary(6, 2)
    assert boundary(7, 5) == boundary(7, 2)
    with pytest.raises(ValueError):
        SymmetricDivisor(6, {5: 1})
    with pytest.raises(ValueError):
        boundary(6, 1)


def test_intersection_table():
    columns = (psi(), K(), boundary(6, 2), boundary(6, 3))
    table = {
        F13: (3, -1, 3, -1),
        F22: (2, 0, -1, 2),
    }
    for curve, expected in table.items():
        assert tuple(intersect_f_curve(d, curve) for d in columns) == expected
    assert tuple(intersect_c_curve(d, CCurve(4)) for d in columns) == (4, 0, -2, 4)


def test_c3_equals_smallest_f_curve():
    for d in (psi(), K(), boundary(6, 2), boundary(6, 3)):
        assert intersect_c_curve(d, CCurve(3)) == intersect_f_curve(d, F13)


def test_c_curve_folded_slots_can_both_contribute():
    # on five points the two unfolded slots of B2 both meet C3
    assert intersect_c_curve(boundary(5, 2), CCurve(3)) == 2
    assert intersect_f_curve(boundary(5, 2), FCurve((1, 1, 1, 2))) == 2


def c_curve_by_unfolded_slots(div, j):
    """Reference for ``intersect_c_curve``: against the unfolded boundary,
    C_j . B_i is j for i = j-1, -(j-2) for i = j and 0 otherwise, and both
    unfolded slots {k, n-k} of a class contribute (once when k = n-k)."""
    n = div.n
    total = Fraction(0)
    for k in range(2, n // 2 + 1):
        weight = 0
        for i in {k, n - k}:
            if i == j - 1:
                weight += j
            if i == j:
                weight -= j - 2
        total += div.coefficient(k) * weight
    return total


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_c_curve_closed_form_matches_the_unfolded_slots(data):
    n = data.draw(st.integers(4, 14))
    coefficient = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    coefficients = data.draw(st.lists(coefficient, min_size=n // 2 - 1, max_size=n // 2 - 1))
    div = SymmetricDivisor(n, dict(zip(range(2, n // 2 + 1), coefficients)))
    for j in range(2, n - 1):
        assert intersect_c_curve(div, CCurve(j)) == c_curve_by_unfolded_slots(div, j)


def test_intersection_input_validation():
    with pytest.raises(ValueError):
        intersect_f_curve(K(), FCurve((1, 1, 1, 2)))
    with pytest.raises(ValueError):
        intersect_c_curve(K(), CCurve(5))
    with pytest.raises(ValueError, match=re.escape("need four positive parts, got (0, 2, 2, 2)")):
        FCurve((0, 2, 2, 2))
    # the message shows the parts read, in the order given, not the iterable
    with pytest.raises(ValueError, match=re.escape("need four positive parts, got (0, 1, 1, 4)")):
        FCurve(p for p in (0, 1, 1, 4))
    with pytest.raises(ValueError):
        CCurve(1)
    # parts and indices are exact integers: truncating 3/2 to 1 would name F(1,1,1,3)
    with pytest.raises(ValueError, match="parts must be integers, got 3/2, 1, 1, 3"):
        FCurve((Fraction(3, 2), 1, 1, 3))
    with pytest.raises(TypeError, match="got str '1'"):
        FCurve(("1", 1, 1, 3))
    with pytest.raises(ValueError, match="curve index must be an integer, got 7/2"):
        CCurve(Fraction(7, 2))
    with pytest.raises(TypeError, match="got str '3'"):
        CCurve("3")
    assert FCurve((Fraction(6, 2), 1, True, 1)) == FCurve((1, 1, 1, 3))
    assert repr(CCurve(Fraction(4, 1))) == "CCurve(j=4)"
    assert type(CCurve(Fraction(4, 1)).j) is int


def test_four_part_partitions():
    assert list(four_part_partitions(6)) == [(1, 1, 1, 3), (1, 1, 2, 2)]
    assert list(four_part_partitions(4)) == [(1, 1, 1, 1)]
    for p in four_part_partitions(9):
        assert sum(p) == 9 and p == tuple(sorted(p))


def test_f_nonnegativity():
    ok, violations = is_f_nonnegative(-1 * K())
    assert ok and violations == []
    ok, violations = is_f_nonnegative(boundary(6, 3))
    assert not ok and violations == [(1, 1, 1, 3)]
    ok, violations = is_f_nonnegative(boundary(6, 2))
    assert not ok and violations == [(1, 1, 2, 2)]
    wall = K() + Fraction(1, 3) * psi()
    ok, _ = is_f_nonnegative(wall)
    assert ok and intersect_f_curve(wall, F13) == 0


def test_effectivity():
    assert not is_effective(K())
    assert is_effective(psi())
    assert is_effective(SymmetricDivisor(6))


def test_canonical_polarization():
    da = canonical_polarization()
    assert intersect_f_curve(da, F13) == Fraction(1, 2)
    assert intersect_f_curve(da, F22) == 0
    assert da == Fraction(-1, 2) * K()
    assert (da.coefficient(2), da.coefficient(3)) == (Fraction(1, 5), Fraction(1, 10))


def test_stable_base_locus_intervals():
    assert stable_base_locus(-1 * K()) == BaseLocus.EMPTY
    assert stable_base_locus(K() + Fraction(1, 3) * psi()) == BaseLocus.EMPTY
    assert stable_base_locus(psi()) == BaseLocus.EMPTY  # slope 9/8 sits inside
    assert stable_base_locus(boundary(6, 3)) == BaseLocus.B3
    assert stable_base_locus(boundary(6, 2)) == BaseLocus.B2
    # just past each wall
    assert stable_base_locus(SymmetricDivisor(6, {2: 1, 3: 4})) == BaseLocus.B3
    assert stable_base_locus(SymmetricDivisor(6, {2: 3, 3: 1})) == BaseLocus.B2
    with pytest.raises(ValueError, match=r"^divisor .* is not effective; no stable base locus$"):
        stable_base_locus(K())


def test_mori_model_walls():
    assert mori_model(-1 * K()) == ChamberReport(Model.IGUSA_QUARTIC, BaseLocus.EMPTY, True)
    assert mori_model(K() + Fraction(1, 3) * psi()) == ChamberReport(
        Model.SEGRE_CUBIC, BaseLocus.EMPTY, True
    )
    assert mori_model(boundary(6, 2)) == ChamberReport(Model.POINT, BaseLocus.B2, True)
    assert mori_model(boundary(6, 3)) == ChamberReport(Model.POINT, BaseLocus.B3, True)
    assert mori_model(psi()).model == Model.AMPLE
    assert mori_model(K()).model == Model.OUTSIDE
    assert mori_model(SymmetricDivisor(6)) == ChamberReport(
        Model.POINT, BaseLocus.EMPTY, True
    )


def test_mori_model_scaling_invariance():
    rng = random.Random(13)
    for _ in range(50):
        d = SymmetricDivisor(
            6, {2: Fraction(rng.randint(0, 8)), 3: Fraction(rng.randint(0, 8))}
        )
        scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert mori_model(d) == mori_model(scale * d)


def test_chamber_partition_is_exhaustive_and_exclusive():
    # every effective ray gets exactly one model, consistent with the
    # F-curve signs: F(1,1,2,2).D < 0 left of -K, F(1,1,1,3).D < 0 past
    # the Segre wall
    for k in range(0, 101):
        d = SymmetricDivisor(6, {2: 100 - k, 3: k})
        rep = mori_model(d)
        f13 = intersect_f_curve(d, F13)
        f22 = intersect_f_curve(d, F22)
        if k == 0:
            assert rep.model == Model.POINT and rep.stable_base_locus == BaseLocus.B2
        elif k == 100:
            assert rep.model == Model.POINT and rep.stable_base_locus == BaseLocus.B3
        elif f22 <= 0:
            assert rep.model == Model.IGUSA_QUARTIC
            assert rep.boundary_case == (f22 == 0)
        elif f13 <= 0:
            assert rep.model == Model.SEGRE_CUBIC
            assert rep.boundary_case == (f13 == 0)
        else:
            assert rep.model == Model.AMPLE and not rep.boundary_case
        # semi-ample implies nef
        if rep.stable_base_locus == BaseLocus.EMPTY:
            assert is_f_nonnegative(d)[0]


def branch_table(x: Fraction, y: Fraction) -> ChamberReport:
    """The chamber lookup for D = x B2 + y B3 as hand-coded slope tests on
    the published walls B2 (y = 0), -K (x = 2y), K + psi/3 (y = 3x) and
    B3 (x = 0)."""
    if x < 0 or y < 0:
        return ChamberReport(Model.OUTSIDE, BaseLocus.WHOLE_DIVISOR, False)
    if x == 0 and y == 0:
        return ChamberReport(Model.POINT, BaseLocus.EMPTY, True)
    if y == 0:
        return ChamberReport(Model.POINT, BaseLocus.B2, True)
    if x == 0:
        return ChamberReport(Model.POINT, BaseLocus.B3, True)
    if 2 * y < x:
        return ChamberReport(Model.IGUSA_QUARTIC, BaseLocus.B2, False)
    if 2 * y == x:
        return ChamberReport(Model.IGUSA_QUARTIC, BaseLocus.EMPTY, True)
    if y < 3 * x:
        return ChamberReport(Model.AMPLE, BaseLocus.EMPTY, False)
    if y == 3 * x:
        return ChamberReport(Model.SEGRE_CUBIC, BaseLocus.EMPTY, True)
    return ChamberReport(Model.SEGRE_CUBIC, BaseLocus.B3, False)


def test_mori_model_matches_the_branch_table():
    grid = sorted({Fraction(p, q) for p in range(-6, 25) for q in range(1, 7)})
    seen = set()
    for x in grid:
        for y in grid:
            report = mori_model(SymmetricDivisor(6, {2: x, 3: y}))
            assert report == branch_table(x, y), (x, y)
            seen.add(report)
    assert len(grid) ** 2 == 13_456
    # four chambers, the walls -K and K + psi/3, the rays B2 and B3, the
    # apex and the outside: every branch of the table
    assert len(seen) == 9


_slope_coefficient = st.one_of(
    st.integers(0, 30).map(Fraction),
    st.fractions(min_value=0, max_value=30, max_denominator=12),
)


@settings(deadline=None, max_examples=300)
@given(_slope_coefficient, _slope_coefficient)
@example(Fraction(0), Fraction(0))
@example(Fraction(2), Fraction(1))
@example(Fraction(1), Fraction(3))
@example(Fraction(1), Fraction(0))
@example(Fraction(0), Fraction(1))
def test_base_locus_is_empty_exactly_on_the_nef_cone(x, y):
    div = SymmetricDivisor(6, {2: x, 3: y})
    assert (stable_base_locus(div) is BaseLocus.EMPTY) == is_f_nonnegative(div)[0]


def test_chamber_lookup_needs_six_points():
    with pytest.raises(ValueError):
        mori_model(boundary(7, 2))


def test_divisor_formatting():
    assert str(K()) == "-2/5*B2 - 1/5*B3"
    assert str(SymmetricDivisor(6)) == "0"
    assert str(boundary(6, 3)) == "B3"
    assert str(-1 * boundary(6, 2) + boundary(6, 3)) == "-B2 + B3"


def test_divisor_arithmetic_respects_n():
    with pytest.raises(ValueError):
        boundary(6, 2) + boundary(7, 2)
