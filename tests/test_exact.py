import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from sixpoint.exact import (
    RationalMatrix,
    _cleared,
    _inverse_up_to_scale,
    _rational,
    echelon,
    integer_vector,
    parse_rational,
)


def veronese_rows():
    # degree-2 monomials x^2, xy, xz, y^2, yz, z^2 at (1 : t : t^2); the six
    # points sit on the conic y^2 = xz, so exactly one quadric vanishes
    rows = []
    for t in range(6):
        x, y, z = 1, t, t * t
        rows.append([x * x, x * y, x * z, y * y, y * z, z * z])
    return rows


def test_rank_identity():
    eye = RationalMatrix.from_rows([[int(i == j) for j in range(3)] for i in range(3)])
    assert eye.rank() == 3


def test_rank_zero_matrix():
    assert RationalMatrix(4, 5, [0] * 20).rank() == 0


def test_rank_veronese_conic_matrix():
    assert RationalMatrix.from_rows(veronese_rows()).rank() == 5


def test_echelon_span_examples():
    # a point, three collinear points, the whole plane
    assert echelon([(1, 0, 0)]) == (((1, 0, 0),), (0,))
    assert echelon([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == (((1, 0, 0), (0, 1, 0)), (0, 1))
    assert echelon([(1, 0, 0), (0, 1, 0), (0, 0, 1)])[1] == (0, 1, 2)
    assert echelon([]) == ((), ())
    assert echelon([(0, 0, 0)]) == ((), ())


def test_echelon_rows_are_reduced_and_primitive():
    # the third row is the sum of the first two
    rows, pivots = echelon([(2, 4, 6, 8), (-3, -6, 1, 0), (-1, -2, 7, 8)])
    assert pivots == (0, 2)
    assert rows == ((5, 10, 0, 2), (0, 0, 5, 6))
    for row, pivot in zip(rows, pivots):
        assert row[pivot] > 0 and all(x == 0 for x in row[:pivot])
        assert all(other[pivot] == 0 for other in rows if other is not row)


def test_echelon_is_a_span_key():
    # the same line given by different pairs of its points
    line = echelon([(1, 0, 1), (0, 1, 1)])
    assert echelon([(1, 1, 2), (1, -1, 0)]) == line
    assert echelon([(3, 1, 4), (1, 0, 1), (2, 1, 3)]) == line
    # membership: adding a vector of the span leaves its form unchanged
    assert echelon([*line[0], (5, -7, -2)]) == line
    assert echelon([*line[0], (0, 0, 1)]) != line


def test_entry_count_validated():
    with pytest.raises(ValueError):
        RationalMatrix(2, 2, [1, 2, 3])


def test_integer_vector_canonicalization():
    assert integer_vector([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert integer_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    assert integer_vector([0, 0]) == (0, 0)
    assert integer_vector((0, -6, 4, 2)) == (0, 3, -2, -1)
    assert integer_vector([Fraction(1, 2), Fraction(1, 4)]) == (2, 1)
    assert all(type(x) is int for x in integer_vector([Fraction(3, 2), 6]))


def three_pass_integer_vector(vec):
    """The former body of integer_vector: clear denominators, divide by the
    content, then negate when the first nonzero entry is negative."""
    ints = list(vec)
    if not all(type(v) is int for v in ints):
        ints = _cleared([_rational(v) for v in ints])[0]
    g = gcd(*ints)
    if g > 1:
        ints = [v // g for v in ints]
    if next((v for v in ints if v), 0) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def scaled(vectors):
    # a common factor and a sign, so content > 1 and negative leading
    # entries are drawn often
    return st.tuples(vectors, st.integers(-12, 12)).map(
        lambda pair: [pair[1] * v for v in pair[0]]
    )


int_vectors = st.lists(st.integers(-50, 50), max_size=6)
rational_vectors = st.lists(st.fractions(max_denominator=12), max_size=6)
mixed_vectors = st.lists(
    st.one_of(st.integers(-9, 9), st.booleans(), st.fractions(max_denominator=6)), max_size=6
)


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    int_vectors, scaled(int_vectors), st.lists(st.just(0), max_size=6),
    rational_vectors, scaled(rational_vectors), st.lists(st.booleans(), max_size=6), mixed_vectors,
))
def test_integer_vector_matches_the_three_pass_oracle(vec):
    expected = three_pass_integer_vector(vec)
    result = integer_vector(vec)
    assert result == expected
    assert type(result) is tuple and all(type(x) is int for x in result)
    assert integer_vector(tuple(vec)) == expected  # any sequence type


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-9/2") == Fraction(-9, 2)
    assert parse_rational(" 5 ") == 5
    with pytest.raises(ValueError):
        parse_rational("x/y")
    with pytest.raises(ValueError):
        parse_rational("1/0")
    # ASCII decimals are exact; other scripts' digits and underscores are not read
    assert parse_rational("0.5") == Fraction(1, 2) and parse_rational("1e3") == 1000
    for text in ("٣", "١/٢", "1_0", "1/1_0", "３"):
        with pytest.raises(ValueError, match="not a rational number"):
            parse_rational(text)


def random_matrix(rng, rows, cols):
    return RationalMatrix(
        rows,
        cols,
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rows * cols)],
    )


def to_sympy(m):
    return sympy.Matrix(
        m.rows, m.cols, [sympy.Rational(e.numerator, e.denominator) for e in m.entries]
    )


def test_rank_and_inverse_match_sympy():
    rng = random.Random(2024)
    for _ in range(100):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = random_matrix(rng, rows, cols)
        oracle = to_sympy(m)
        assert m.rank() == oracle.rank()
        if rows == cols and oracle.rank() == rows:
            inverse = oracle.inv()
            assert m.inverse().entries == tuple(
                Fraction(int(e.p), int(e.q)) for e in inverse
            )


integer_rows = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


@settings(deadline=None, max_examples=150)
@given(integer_rows, st.randoms(use_true_random=False))
def test_echelon_property(rows, rng):
    form = echelon(rows)
    assert len(form[1]) == sympy.Matrix(rows).rank()
    assert all(echelon([*form[0], row]) == form for row in rows)
    # row operations leave the span, hence the canonical form, unchanged
    mixed = [list(row) for row in rows]
    rng.shuffle(mixed)
    i, j = rng.randrange(len(mixed)), rng.randrange(len(mixed))
    k = rng.randint(-3, 3)
    if i != j:
        mixed[i] = [a + k * b for a, b in zip(mixed[i], mixed[j])]
    mixed[0] = [-2 * a for a in mixed[0]]
    assert echelon(mixed) == form


def test_echelon_stops_reading_rows_at_full_rank():
    def rows():
        yield (2, 4)
        yield (0, 3)
        raise AssertionError("read a row past full rank")

    assert echelon(rows()) == (((1, 0), (0, 1)), (0, 1))


square_integer_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(deadline=None, max_examples=150)
@given(square_integer_rows)
def test_inverse_up_to_scale_is_proportional_to_the_inverse(rows):
    oracle = sympy.Matrix(rows)
    if oracle.rank() < len(rows):
        with pytest.raises(ValueError, match="singular"):
            _inverse_up_to_scale(rows)
        return
    scaled, scale = _inverse_up_to_scale(rows)
    assert scale > 0
    assert all(type(x) is int for row in scaled for x in row)
    assert sympy.Matrix(scaled) == scale * oracle.inv()


def test_rank_invariant_under_permutation_and_scaling():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        m = random_matrix(rng, rows, cols)
        r = m.rank()

        row_order = list(range(rows))
        col_order = list(range(cols))
        rng.shuffle(row_order)
        rng.shuffle(col_order)
        shuffled = RationalMatrix.from_rows(
            [[m.at(i, j) for j in col_order] for i in row_order]
        )
        assert shuffled.rank() == r

        scale_row = rng.randrange(rows)
        factor = Fraction(rng.choice([1, 2, 3, -1, -5]), rng.randint(1, 4))
        scaled = RationalMatrix.from_rows(
            [
                [factor * m.at(i, j) if i == scale_row else m.at(i, j) for j in range(cols)]
                for i in range(rows)
            ]
        )
        assert scaled.rank() == r


def test_deterministic_results():
    rng = random.Random(99)
    m = random_matrix(rng, 4, 6)
    assert m.rank() == m.rank()
    rows = [integer_vector(m.row(i)) for i in range(m.rows)]
    assert echelon(rows) == echelon(rows)
    square = RationalMatrix(3, 3, [2, 1, 0, 1, 3, 1, 0, 1, 4])
    assert square.inverse() == square.inverse()


def test_inverse_round_trip():
    rng = random.Random(5)
    for _ in range(20):
        while True:
            m = RationalMatrix(3, 3, [rng.randint(-5, 5) for _ in range(9)])
            if m.rank() == 3:
                break
        inv = m.inverse()
        product = [
            [sum(inv.at(i, k) * m.at(k, j) for k in range(3)) for j in range(3)]
            for i in range(3)
        ]
        assert product == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_inverse_rejects_singular():
    with pytest.raises(ValueError):
        RationalMatrix.from_rows([[1, 2], [2, 4]]).inverse()
