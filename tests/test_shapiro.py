from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from bochner import (
    BochnerOperator,
    DomainError,
    GaussianRational,
    InsufficientData,
    InvalidOperator,
    Poly,
    RecurrenceCoeffs,
    ShapiroOperator,
    deltas_from_operator,
    eigenpoly_recursive,
    shapiro_alpha,
    shapiro_delta1,
    shapiro_delta1_column,
    to_bochner,
    verify_shapiro_recurrence,
)
from bochner.recurrence import relation_residual
from bochner.scalars import ONE, ZERO
from bochner.shapiro import shapiro_family
from conftest import (
    random_rational,
    shapiro_alpha_by_binomial_sum,
    shapiro_delta1_by_plain_sum,
    shapiro_poly,
    small_scalars,
)


def random_c_vector(rng, order):
    values = [GaussianRational(random_rational(rng, 40)) for _ in range(order)]
    if not values[-1]:
        values[-1] = GaussianRational(1)
    return values


def test_constructor_rejects_zero_leading():
    with pytest.raises(InvalidOperator):
        ShapiroOperator([1, 0])
    with pytest.raises(InvalidOperator):
        ShapiroOperator([])


def test_to_bochner_forms():
    one = to_bochner(ShapiroOperator([Fraction(1, 2)]))
    assert one == BochnerOperator([Poly(), Poly([Fraction(1, 2), 1])])
    three = to_bochner(ShapiroOperator([1, 0, Fraction(1, 2)]))
    assert three == BochnerOperator(
        [Poly(), Poly([1, 1]), Poly(), Poly([0, 0, Fraction(1, 2)])]
    )


def test_delta1_examples():
    a, b = Fraction(2, 3), Fraction(-1, 5)
    op = ShapiroOperator([a, b])
    assert shapiro_delta1(op, 3) == GaussianRational(3 * a + 6 * b)
    assert shapiro_delta1(op, 0) == ZERO
    assert shapiro_delta1(ShapiroOperator([1]), 5) == GaussianRational(5)


@given(st.lists(small_scalars, min_size=1, max_size=5).filter(lambda c: c[-1]), st.integers(0, 12))
@settings(max_examples=100, deadline=None)
def test_delta1_matches_plain_sum(c, n):
    op = ShapiroOperator(c)
    assert shapiro_delta1(op, n) == shapiro_delta1_by_plain_sum(op, n)


def test_delta1_matches_operator_table():
    rng = Random(2024)
    for order in (1, 2, 3, 4):
        op = ShapiroOperator(random_c_vector(rng, order))
        table = deltas_from_operator(to_bochner(op), 30)
        for n in range(31):
            assert shapiro_delta1(op, n) == table.value(n, 1), (order, n)
            assert table.value(n, 0) == GaussianRational(n)
            for k in range(2, min(n, order) + 1):
                assert table.value(n, k) == ZERO


def test_delta1_column_is_the_closed_form():
    op = ShapiroOperator([Fraction(2, 3), Fraction(-1, 5), 4])
    assert shapiro_delta1_column(op, 9) == [shapiro_delta1(op, n) for n in range(10)]
    with pytest.raises(DomainError):
        shapiro_delta1_column(op, -1)


def test_short_column_is_refused():
    # the family and the table run to their column's depth; only the check,
    # which pairs a table with a column, can be handed a column too short
    op = ShapiroOperator([1, 1])
    delta1 = shapiro_delta1_column(op, 5)
    assert len(shapiro_family(delta1)) == 6
    assert shapiro_alpha(op, delta1).n_max == 4  # row 4 reads delta1(5)
    alpha = shapiro_alpha(op, shapiro_delta1_column(op, 6))
    with pytest.raises(InsufficientData):
        verify_shapiro_recurrence(alpha, delta1)  # needs P_6, from delta1(6)


def test_coeff_examples():
    third = shapiro_delta1_column(ShapiroOperator([Fraction(3, 7)]), 4)
    assert shapiro_family(third)[4].coeff(4) == ONE
    unit = shapiro_delta1_column(ShapiroOperator([1]), 3)
    assert shapiro_family(unit)[3].coeff(1) == GaussianRational(3)  # delta1(3) delta1(2) / 2
    pure2 = shapiro_delta1_column(ShapiroOperator([0, 1]), 2)
    assert shapiro_family(pure2)[2].coeff(1) == GaussianRational(2)


def test_unit_coefficient_family_is_binomial():
    # with c = (1,) the eigenpolynomials collapse to (x + 1)^n
    family = shapiro_family(shapiro_delta1_column(ShapiroOperator([1]), 6))
    for n in range(7):
        assert family[n] == Poly([comb(n, j) for j in range(n + 1)])


def test_coeff_matches_spectral_recursion():
    rng = Random(77)
    for order in (1, 2, 3):
        op = ShapiroOperator(random_c_vector(rng, order))
        table = deltas_from_operator(to_bochner(op), 12)
        family = shapiro_family(shapiro_delta1_column(op, 12))
        for n in range(13):
            poly = eigenpoly_recursive(table, n)
            assert family[n] == poly
            for i in range(n + 1):
                assert family[n].coeff(n - i) == poly.coeff(n - i)


def test_alpha_closed_forms():
    c1, c2 = Fraction(2, 3), Fraction(-3, 4)
    op = ShapiroOperator([c1, c2])
    alpha = shapiro_alpha(op, shapiro_delta1_column(op, 12))
    for n in range(12):
        assert alpha.rows[n][n] == GaussianRational(-c1 - 2 * n * c2)
    for n in range(1, 12):
        delta_n = n * c1 + n * (n - 1) * c2
        assert alpha.rows[n][n - 1] == GaussianRational(c2 * delta_n)
    single = ShapiroOperator([Fraction(5, 2)])
    single_alpha = shapiro_alpha(single, shapiro_delta1_column(single, 8))
    for n in range(8):
        assert single_alpha.rows[n][n] == GaussianRational(Fraction(-5, 2))


def test_alpha_band_bounds():
    op = ShapiroOperator([1, 1])
    delta1 = shapiro_delta1_column(op, 6)
    alpha = shapiro_alpha(op, delta1)
    assert alpha.n_max == 5
    for n in range(2, 6):
        assert alpha.rows[n][n - 1]  # the band reaches s = N - 1
        for s in range(2, n + 1):
            assert alpha.rows[n][n - s] == ZERO, (n, s)  # and stops there


@given(
    st.lists(small_scalars, min_size=1, max_size=5).filter(lambda c: c[-1]),
    st.integers(0, 30),
)
@example([GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(0, 1)], 30)
@example([GaussianRational(0), GaussianRational(0), GaussianRational(0), GaussianRational(1)], 0)
@example([GaussianRational(Fraction(-3, 2))] * 5, 30)
@settings(max_examples=100, deadline=None)
def test_alpha_table_matches_binomial_sums(c, n_max):
    op = ShapiroOperator(c)
    delta1 = shapiro_delta1_column(op, n_max + 1)
    alpha = shapiro_alpha(op, delta1)
    expected = [
        [
            shapiro_alpha_by_binomial_sum(op, delta1, n, n - k) if n - k < op.order else ZERO
            for k in range(n + 1)
        ]
        for n in range(n_max + 1)
    ]
    assert alpha == RecurrenceCoeffs(expected)
    # a longer column gives a longer table with the same first rows
    longer = shapiro_alpha(op, shapiro_delta1_column(op, n_max + 4))
    assert longer.n_max == n_max + 3 and longer.rows[: n_max + 1] == alpha.rows


def test_verify_recurrence_small_orders():
    unit = ShapiroOperator([1])
    unit_delta1 = shapiro_delta1_column(unit, 11)
    assert verify_shapiro_recurrence(shapiro_alpha(unit, unit_delta1), unit_delta1) is None
    rng = Random(31)
    op = ShapiroOperator(random_c_vector(rng, 3))
    delta1 = shapiro_delta1_column(op, 21)
    assert verify_shapiro_recurrence(shapiro_alpha(op, delta1), delta1) is None


def test_perturbed_alpha_detected():
    rng = Random(13)
    op = ShapiroOperator(random_c_vector(rng, 3))
    delta1 = shapiro_delta1_column(op, 11)
    polys = [shapiro_poly(delta1, m) for m in range(12)]
    alpha = shapiro_alpha(op, delta1)
    n = 8
    row = list(alpha.rows[n])
    assert not relation_residual(polys, row, n)
    row[n - 1] = row[n - 1] + ONE
    residual = relation_residual(polys, row, n)
    assert residual
    assert residual.coeff(n - 1) != ZERO
    # the table check locates the same row, at its lowest nonzero power
    rows = list(alpha.rows)
    rows[n] = row
    lowest = min(p for p, v in enumerate(residual.coeffs) if v)
    assert verify_shapiro_recurrence(RecurrenceCoeffs(rows), delta1) == (n, lowest)
    # a failure in row 0 is reported as one too, at the power it leaves
    rows[0] = [rows[0][0] + ONE]
    assert verify_shapiro_recurrence(RecurrenceCoeffs(rows), delta1) == (0, 0)


def test_complex_coefficients_keep_the_band():
    op = ShapiroOperator(
        [
            GaussianRational(Fraction(1, 2), Fraction(1, 3)),
            GaussianRational(0, 1),
            GaussianRational(2, Fraction(-1, 4)),
        ]
    )
    delta1 = shapiro_delta1_column(op, 16)
    alpha = shapiro_alpha(op, delta1)
    assert verify_shapiro_recurrence(alpha, delta1) is None
    for n in range(10):
        for s in range(min(op.order - 1, n) + 1):
            assert alpha.rows[n][n - s] is not None  # closed form stays defined
    table = deltas_from_operator(to_bochner(op), 12)
    for n in range(13):
        assert shapiro_delta1(op, n) == table.value(n, 1)


@given(st.lists(small_scalars, min_size=1, max_size=5).filter(lambda c: c[-1]), st.integers(0, 20))
@example([GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(0, 1)], 20)
@example([GaussianRational(Fraction(-3, 2)), GaussianRational(Fraction(5, 7))], 20)
@settings(max_examples=100, deadline=None)
def test_family_matches_shapiro_poly(c, last):
    delta1 = shapiro_delta1_column(ShapiroOperator(c), last)
    assert shapiro_family(delta1) == [shapiro_poly(delta1, m) for m in range(last + 1)]


def test_family_reads_only_the_column():
    # one polynomial per entry, none for an empty column
    assert shapiro_family([]) == []
    assert shapiro_family([ZERO]) == [Poly([1])]
    # a column that is no delta1 of any operator still gives the products
    column = [ZERO, GaussianRational(2), ZERO, GaussianRational(0, 3)]
    assert shapiro_family(column) == [shapiro_poly(column, m) for m in range(4)]
