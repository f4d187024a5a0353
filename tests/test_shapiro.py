from fractions import Fraction
from random import Random

import pytest

from bochner import (
    BochnerOperator,
    DomainError,
    GaussianRational,
    InvalidOperator,
    Poly,
    ShapiroOperator,
    deltas_from_operator,
    eigenpoly_recursive,
    shapiro_alpha,
    shapiro_delta1,
    to_bochner,
    verify_shapiro_recurrence,
)
from bochner.recurrence import relation_residual
from bochner.scalars import ONE, ZERO
from bochner.shapiro import RecurrenceCheck, shapiro_poly
from conftest import random_rational


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


def test_coeff_examples():
    assert shapiro_poly(ShapiroOperator([Fraction(3, 7)]), 4).coeff(4) == ONE
    unit = ShapiroOperator([1])
    assert shapiro_poly(unit, 3).coeff(1) == GaussianRational(3)  # delta1(3) delta1(2) / 2
    pure2 = ShapiroOperator([0, 1])
    assert shapiro_poly(pure2, 2).coeff(1) == GaussianRational(2)


def test_unit_coefficient_family_is_binomial():
    # with c = (1,) the eigenpolynomials collapse to (x + 1)^n
    op = ShapiroOperator([1])
    for n in range(7):
        power = Poly([1])
        for _ in range(n):
            power = power * Poly([1, 1])
        assert shapiro_poly(op, n) == power


def test_coeff_matches_spectral_recursion():
    rng = Random(77)
    for order in (1, 2, 3):
        op = ShapiroOperator(random_c_vector(rng, order))
        table = deltas_from_operator(to_bochner(op), 12)
        for n in range(13):
            poly = eigenpoly_recursive(table, n)
            assert shapiro_poly(op, n) == poly
            for i in range(n + 1):
                assert shapiro_poly(op, n).coeff(n - i) == poly.coeff(n - i)


def test_alpha_closed_forms():
    c1, c2 = Fraction(2, 3), Fraction(-3, 4)
    op = ShapiroOperator([c1, c2])
    for n in range(12):
        assert shapiro_alpha(op, n, 0) == GaussianRational(-c1 - 2 * n * c2)
    for n in range(1, 12):
        delta_n = n * c1 + n * (n - 1) * c2
        assert shapiro_alpha(op, n, 1) == GaussianRational(c2 * delta_n)
    single = ShapiroOperator([Fraction(5, 2)])
    for n in range(8):
        assert shapiro_alpha(single, n, 0) == GaussianRational(Fraction(-5, 2))


def test_alpha_band_bounds():
    op = ShapiroOperator([1, 1])
    with pytest.raises(DomainError):
        shapiro_alpha(op, 5, 2)
    with pytest.raises(DomainError):
        shapiro_alpha(op, 5, -1)
    assert shapiro_alpha(op, 0, 1) == ZERO  # below the triangle


def test_verify_recurrence_small_orders():
    assert verify_shapiro_recurrence(ShapiroOperator([1]), 10)
    rng = Random(31)
    op = ShapiroOperator(random_c_vector(rng, 3))
    result = verify_shapiro_recurrence(op, 20)
    assert result
    assert result.failed_n is None


def test_perturbed_alpha_detected():
    rng = Random(13)
    op = ShapiroOperator(random_c_vector(rng, 3))
    polys = [shapiro_poly(op, m) for m in range(12)]
    n = 8
    row = [ZERO] * (n + 1)
    for s in range(min(op.order - 1, n) + 1):
        row[n - s] = shapiro_alpha(op, n, s)
    assert not relation_residual(polys, row, n)
    row[n - 1] = row[n - 1] + ONE
    residual = relation_residual(polys, row, n)
    assert residual
    assert residual.coeff(n - 1) != ZERO


def test_complex_coefficients_keep_the_band():
    op = ShapiroOperator(
        [
            GaussianRational(Fraction(1, 2), Fraction(1, 3)),
            GaussianRational(0, 1),
            GaussianRational(2, Fraction(-1, 4)),
        ]
    )
    assert verify_shapiro_recurrence(op, 15)
    for n in range(10):
        for s in range(min(op.order - 1, n) + 1):
            assert shapiro_alpha(op, n, s) is not None  # closed form stays defined
    table = deltas_from_operator(to_bochner(op), 12)
    for n in range(13):
        assert shapiro_delta1(op, n) == table.value(n, 1)


def test_check_result_is_falsy_with_location():
    failed = RecurrenceCheck(False, 3, 1)
    assert not failed
    assert failed.failed_n == 3 and failed.failed_power == 1
    assert RecurrenceCheck(True)
