from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bochner import (
    DomainError,
    EigenSystem,
    GaussianRational,
    InsufficientData,
    Poly,
    RecurrenceCoeffs,
    bandwidth,
    deltas_from_operator,
    eigensystem,
    fit_recurrence,
)
from bochner.recurrence import relation_residual
from bochner.scalars import ONE, ZERO
from bochner.shapiro import ShapiroOperator, shapiro_alpha, shapiro_delta1_column, shapiro_poly
from conftest import (
    monic_hermite,
    random_bochner,
    relation_residual_by_poly_chain,
    small_scalars,
)


def hermite_system(n_max):
    polys = monic_hermite(n_max)
    lambdas = [GaussianRational(-2 * n) for n in range(n_max + 1)]
    return EigenSystem(lambdas, polys)


def test_hermite_fit_band():
    system = hermite_system(16)
    coeffs = fit_recurrence(system)
    assert coeffs.n_max == 15
    for n in range(16):
        for k in range(n + 1):
            expected = ZERO
            if k == n - 1:
                expected = GaussianRational(Fraction(n, 2))
            assert coeffs.alpha(n, k) == expected, (n, k)


def test_single_row_fit():
    c = GaussianRational(3)
    system = EigenSystem([0, -2], [Poly([1]), Poly([-c, 1])])
    coeffs = fit_recurrence(system)
    assert coeffs.n_max == 0
    assert coeffs.alpha(0, 0) == c  # alpha(0,0) = -b(1,0)


def test_fit_needs_one_extra_degree():
    with pytest.raises(InsufficientData):
        fit_recurrence(EigenSystem([0], [Poly([1])]))


def test_alpha_conventions():
    coeffs = RecurrenceCoeffs([[ONE], [ZERO, ONE]])
    assert coeffs.alpha(1, -2) == ZERO
    with pytest.raises(DomainError):
        coeffs.alpha(5, 0)
    with pytest.raises(DomainError):
        RecurrenceCoeffs([[ONE, ONE]])


def test_fitted_relation_reconstructs(corpus):
    for name, op in corpus[:5]:
        table = deltas_from_operator(op, 11)
        system = eigensystem(table)
        coeffs = fit_recurrence(system)
        for n in range(coeffs.n_max + 1):
            assert not relation_residual(system.polys, coeffs.rows[n], n), (name, n)


def test_fit_is_unique_against_perturbation():
    system = hermite_system(10)
    coeffs = fit_recurrence(system)
    for n, k in [(4, 3), (4, 0), (7, 6), (9, 2)]:
        row = list(coeffs.rows[n])
        row[k] = row[k] + ONE
        assert relation_residual(system.polys, row, n), (n, k)


def test_shapiro_fit_matches_closed_form():
    rng = Random(500)
    c = [GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3)]
    c[-1] = GaussianRational(Fraction(1, 2))
    op = ShapiroOperator(c)
    delta1 = shapiro_delta1_column(op, 16)
    polys = [shapiro_poly(delta1, m) for m in range(16)]
    lambdas = [GaussianRational(m) for m in range(16)]
    coeffs = fit_recurrence(EigenSystem(lambdas, polys))
    alpha = shapiro_alpha(op, delta1, coeffs.n_max)
    assert coeffs == alpha
    for n in range(coeffs.n_max + 1):
        for s in range(n + 1):
            fitted = coeffs.alpha(n, n - s)
            if s <= op.order - 1:
                assert fitted == alpha.alpha(n, n - s), (n, s)
            else:
                assert fitted == ZERO, (n, s)


def test_bandwidth_hermite_three_term():
    coeffs = fit_recurrence(hermite_system(20))
    assert bandwidth(coeffs, 8) == 1


def test_bandwidth_shapiro_orders():
    for order in (1, 2, 3, 4):
        op = ShapiroOperator([GaussianRational(1)] * order)
        polys = [shapiro_poly(shapiro_delta1_column(op, 17), m) for m in range(18)]
        lambdas = [GaussianRational(m) for m in range(18)]
        coeffs = fit_recurrence(EigenSystem(lambdas, polys))
        assert bandwidth(coeffs, 10) == order - 1


def test_bandwidth_generic_operator_has_no_band():
    rng = Random(4040)
    op = random_bochner(rng, 4, distinct_to=26)
    table = deltas_from_operator(op, 26)
    system = eigensystem(table)
    coeffs = fit_recurrence(system)
    assert coeffs.n_max == 25
    assert bandwidth(coeffs, 10) is None


def test_bandwidth_window_validation():
    coeffs = fit_recurrence(hermite_system(6))
    with pytest.raises(DomainError):
        bandwidth(coeffs, 9)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_relation_residual_matches_poly_chain(data):
    # any polynomials, the zero one among them, and rows with zero entries
    n = data.draw(st.integers(0, 6))
    polys = [Poly(data.draw(st.lists(small_scalars, max_size=m + 2))) for m in range(n + 2)]
    row = data.draw(st.lists(small_scalars, min_size=n + 1, max_size=n + 1))
    assert relation_residual(polys, row, n) == relation_residual_by_poly_chain(polys, row, n)
