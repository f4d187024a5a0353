from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from bochner import (
    BochnerOperator,
    DegenerateSpectrum,
    DomainError,
    EigenSystem,
    GaussianRational,
    InsufficientData,
    Poly,
    RecurrenceCoeffs,
    bandwidth,
    deltas_from_eigendata_rec,
    deltas_from_operator,
    eigensystem,
    fit_recurrence,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    normalize,
    to_bochner,
)
from bochner import recurrence, scalars
from bochner.recurrence import relation_residual
from bochner.scalars import ONE, ZERO
from bochner.serialize import operator_from_dict
from bochner.shapiro import ShapiroOperator, shapiro_alpha, shapiro_delta1_column
from conftest import (
    INTERIOR_ZERO_COLUMN,
    LARGE_PRIME,
    NEAR_MISSES,
    USABLE_TO,
    dense_operators,
    fit_recurrence_by_sequential_solve,
    inverse_connection_by_dot,
    monic_hermite,
    random_bochner,
    relation_residual_by_poly_chain,
    shapiro_poly,
    small_scalars,
    usable_bochner_operators,
)


def hermite_system(n_max):
    polys = monic_hermite(n_max)
    lambdas = [GaussianRational(-2 * n) for n in range(n_max + 1)]
    return EigenSystem(lambdas, polys)


def hermite_fit(system):
    # the independently generated family with the table of its operator
    return fit_recurrence(system, deltas_from_operator(hermite_operator(), system.n_max))


def test_hermite_fit_band():
    coeffs = hermite_fit(hermite_system(16))
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
    # L = (2c - 2x) d/dx: L (x - c) = -2 (x - c)
    op = BochnerOperator([Poly(), Poly([2 * c, -2])])
    coeffs = fit_recurrence(system, deltas_from_operator(op, 1))
    assert coeffs.n_max == 0
    assert coeffs.alpha(0, 0) == c  # alpha(0,0) = -b(1,0)


def test_fit_needs_one_extra_degree():
    with pytest.raises(InsufficientData):
        fit_recurrence(EigenSystem([0], [Poly([1])]), deltas_from_operator(hermite_operator(), 0))


def test_fit_needs_the_table_of_its_family():
    system = hermite_system(8)
    with pytest.raises(InsufficientData):
        fit_recurrence(system, deltas_from_operator(hermite_operator(), 7))
    # the tables of Laguerre and of twice the Hermite operator hold other spectra
    doubled = BochnerOperator([2 * a for a in hermite_operator().coeffs])
    for op in (laguerre_operator(0), doubled):
        with pytest.raises(DomainError):
            fit_recurrence(system, deltas_from_operator(op, 8))


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
        coeffs = fit_recurrence(system, table)
        for n in range(coeffs.n_max + 1):
            assert not relation_residual(system.polys, coeffs.rows[n], n), (name, n)


def test_fit_is_unique_against_perturbation():
    system = hermite_system(10)
    coeffs = hermite_fit(system)
    for n, k in [(4, 3), (4, 0), (7, 6), (9, 2)]:
        row = list(coeffs.rows[n])
        row[k] = row[k] + ONE
        assert relation_residual(system.polys, row, n), (n, k)


def test_shapiro_fit_matches_closed_form():
    rng = Random(500)
    c = [GaussianRational(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(3)]
    c[-1] = GaussianRational(Fraction(1, 2))
    op = ShapiroOperator(c)
    delta1 = shapiro_delta1_column(op, 15)
    polys = [shapiro_poly(delta1, m) for m in range(16)]
    lambdas = [GaussianRational(m) for m in range(16)]
    table = deltas_from_operator(to_bochner(op), 15)
    coeffs = fit_recurrence(EigenSystem(lambdas, polys), table)
    alpha = shapiro_alpha(op, delta1)
    assert coeffs == alpha
    for n in range(coeffs.n_max + 1):
        for s in range(n + 1):
            fitted = coeffs.alpha(n, n - s)
            if s <= op.order - 1:
                assert fitted == alpha.alpha(n, n - s), (n, s)
            else:
                assert fitted == ZERO, (n, s)


def _fits(op, n_max):
    """The fit of the family of `op` with its a_0 stripped, and the
    sequential-solve reference; None on a degenerate spectrum."""
    table = deltas_from_operator(normalize(op)[0], n_max)
    try:
        system = eigensystem(table)
    except DegenerateSpectrum:
        return None
    return fit_recurrence(system, table), fit_recurrence_by_sequential_solve(system)


product_form_coeffs = st.lists(small_scalars, min_size=1, max_size=5).filter(lambda c: c[-1])

@given(usable_bochner_operators(), st.integers(2, 14))
@settings(max_examples=60, deadline=None)
def test_fit_matches_sequential_solve(op, n_max):
    fitted, reference = _fits(op, n_max)
    assert fitted == reference


@given(dense_operators(), st.integers(8, 14))
@settings(max_examples=40, deadline=None)
def test_dense_fit_matches_sequential_solve(op, n_max):
    fits = _fits(op, n_max)
    assume(fits is not None)
    fitted, reference = fits
    assert fitted == reference


@given(product_form_coeffs, st.integers(2, 20))
@settings(max_examples=40, deadline=None)
def test_product_form_fit_matches_sequential_solve_without_inverse(c, n_max):
    # at most N nonzeros per row: the transposed route never runs
    with patch.object(recurrence, "mirror_band", wraps=recurrence.mirror_band) as spy:
        fitted, reference = _fits(to_bochner(ShapiroOperator(c)), n_max)
    assert fitted == reference
    assert spy.call_count == 0


@pytest.mark.parametrize(
    "op",
    [hermite_operator(), jacobi_operator(Fraction(3, 7), Fraction(-2, 5))],
    ids=["hermite", "jacobi"],
)
def test_classical_fit_matches_sequential_solve_without_inverse(op):
    with patch.object(recurrence, "mirror_band", wraps=recurrence.mirror_band) as spy:
        fitted, reference = _fits(op, 40)
    assert fitted == reference
    assert spy.call_count == 0


# a non-real order-2 operator of the benchmark's kind: its eigenvalues are
# non-real, and P_30's coefficients run to several hundred bits
NONREAL_ORDER2 = {"N": 2, "a": [[], ["3/5", "-2/3+1/2*i"], ["1/7", "-5/2", "3/4+2/5*i"]]}


@pytest.mark.parametrize(
    "op,n_max",
    [
        (operator_from_dict(NONREAL_ORDER2), 30),
        (jacobi_operator(Fraction(5, 2), Fraction(-2, 7)), 60),
        (to_bochner(ShapiroOperator([1, -2, 3, Fraction(1, 2)])), 27),
        (to_bochner(ShapiroOperator([Fraction(1, 3), 2, GaussianRational(-5, 2)])), 27),
    ],
    ids=["nonreal-order2", "jacobi", "product-form", "product-form-nonreal"],
)
def test_banded_fit_reduces_only_its_nonzero_entries(op, n_max):
    """A zero entry of the sequential solve is stored as ZERO from its
    integer sums, with no reduction: `from_parts` runs once per nonzero."""
    with patch.object(recurrence, "from_parts", wraps=recurrence.from_parts) as spy:
        fitted, reference = _fits(op, n_max)
    assert fitted == reference
    nonzero = sum(map(bool, (v for row in fitted.rows for v in row)))
    assert spy.call_count == nonzero
    # most entries of a banded table are zeros
    assert 2 * nonzero < sum(map(len, fitted.rows))


@given(usable_bochner_operators().filter(lambda op: op.order <= 2), st.integers(3, USABLE_TO))
@settings(max_examples=60, deadline=None)
def test_order_two_families_are_three_term(op, n_max):
    """Bochner's case: the eigenfamily of an operator of order at most 2
    satisfies a three-term recurrence, alpha(n, k) = 0 for k < n - 1."""
    fitted, reference = _fits(op, n_max)
    assert fitted == reference
    assert bandwidth(fitted, 2) in (0, 1)


def test_dense_fit_runs_the_inverse_route():
    # a generic order-4 family has dense rows from row 8 on
    op = random_bochner(Random(4040), 4, distinct_to=20)
    with patch.object(recurrence, "mirror_band", wraps=recurrence.mirror_band) as spy:
        fitted, reference = _fits(op, 20)
    assert fitted == reference
    assert spy.call_count > 0


# dense non-real documents of orders 3 and 4 (every a_i of full degree)
DENSE_DOCUMENTS = {
    "order3": {
        "N": 3,
        "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]],
    },
    "order4": {
        "N": 4,
        "a": [
            [],
            ["1/2", "-3"],
            ["2", "1+1*i", "-1/3*i"],
            ["0", "1", "-2", "1+1*i"],
            ["1", "-1/2", "3*i", "2", "1/2+1*i"],
        ],
    },
}


dense_families = pytest.mark.parametrize(
    "op",
    [operator_from_dict(doc) for doc in DENSE_DOCUMENTS.values()]
    + [
        random_bochner(Random(4040), 4, distinct_to=20),
        random_bochner(Random(33), 3),
        operator_from_dict(INTERIOR_ZERO_COLUMN),
    ],
    ids=[*DENSE_DOCUMENTS, "random-order4", "random-order3", "interior-zero-column"],
)


@dense_families
def test_dense_fit_leaves_the_sequential_solve_once_out_of_band(op):
    """Row n takes the transposed route exactly when row n-1 holds more than
    N nonzeros; on a dense family that starts before row 2N."""
    with patch.object(recurrence, "_transposed_row", wraps=recurrence._transposed_row) as spy:
        fitted, reference = _fits(op, 20)
    assert fitted == reference
    # the route is called with b(n, 0..n)
    transposed = [len(call.args[0]) - 1 for call in spy.call_args_list]
    out_of_band = [n for n in range(1, 20) if sum(map(bool, fitted.rows[n - 1])) > op.order]
    assert transposed == out_of_band
    assert op.order < transposed[0] < 2 * op.order


@dense_families
def test_dense_fit_reads_the_band_from_the_table(op):
    """The route switch reads the band width off the table's rows.  The full
    triangle of the same family, from its eigen-data, is a band as wide as
    it is deep, and so is the operator's table up to depth N: neither leaves
    the sequential solve, and the full triangle fits the same table as the
    operator's band."""
    table = deltas_from_operator(op, 20)
    system = eigensystem(table)
    banded = fit_recurrence(system, table)
    full = deltas_from_eigendata_rec(system)
    assert [len(row) for row in full.rows] == list(range(1, 22))
    with patch.object(recurrence, "mirror_band", wraps=recurrence.mirror_band) as spy:
        assert fit_recurrence(system, full) == banded
        for depth in range(1, op.order + 1):
            fitted, reference = _fits(op, depth)
            assert fitted == reference == RecurrenceCoeffs(banded.rows[:depth])
    assert spy.call_count == 0


@pytest.mark.parametrize(
    "op",
    [operator_from_dict(doc) for doc in DENSE_DOCUMENTS.values()]
    + [random_bochner(Random(700 + order), order) for order in (3, 4, 5)]
    + [operator_from_dict(INTERIOR_ZERO_COLUMN)],
    ids=[*DENSE_DOCUMENTS, "random-order3", "random-order4", "random-order5", "interior-zero-column"],
)
def test_mirrored_band_gives_the_inverse_connection_coefficients(op):
    """descend over the mirrored band, read backwards, is the column
    d(k..M, k) of the one-quotient-per-entry reference, value and reduced
    triple."""
    top = 16
    table = deltas_from_operator(op, top)
    lams = [row[0] for row in table.rows]
    reference = inverse_connection_by_dot(table, lams, top)
    band = scalars.mirror_band(scalars.lift_band(table.rows, lams))
    for k in range(top + 1):
        column = scalars.descend(band, top - k)[::-1]
        assert len(column) == top + 1 - k
        for m, value in enumerate(column, start=k):
            expected = reference[m][k]
            assert value == expected, (m, k)
            assert (value._p, value._q, value._d) == (expected._p, expected._q, expected._d)


def test_bandwidth_hermite_three_term():
    coeffs = hermite_fit(hermite_system(20))
    assert bandwidth(coeffs, 8) == 1


def test_bandwidth_shapiro_orders():
    for order in (1, 2, 3, 4):
        op = ShapiroOperator([GaussianRational(1)] * order)
        polys = [shapiro_poly(shapiro_delta1_column(op, 17), m) for m in range(18)]
        lambdas = [GaussianRational(m) for m in range(18)]
        table = deltas_from_operator(to_bochner(op), 17)
        coeffs = fit_recurrence(EigenSystem(lambdas, polys), table)
        assert bandwidth(coeffs, 10) == order - 1


def test_bandwidth_generic_operator_has_no_band():
    rng = Random(4040)
    op = random_bochner(rng, 4, distinct_to=26)
    table = deltas_from_operator(op, 26)
    system = eigensystem(table)
    coeffs = fit_recurrence(system, table)
    assert coeffs.n_max == 25
    assert bandwidth(coeffs, 10) is None


def test_bandwidth_window_validation():
    coeffs = hermite_fit(hermite_system(6))
    with pytest.raises(DomainError):
        bandwidth(coeffs, 9)


def test_relation_residual_needs_a_row_of_n_plus_one_entries():
    polys = monic_hermite(6)
    with pytest.raises(DomainError):
        relation_residual(polys, [], -1)
    # a row n = 2 with entries past alpha(2, 2), and one that runs past P_6
    with pytest.raises(DomainError):
        relation_residual(polys, [ONE] * 5, 2)
    with pytest.raises(DomainError):
        relation_residual(polys, [ONE] * 10, 2)
    with pytest.raises(DomainError):
        relation_residual(polys, [ONE] * 2, 2)
    # P_3 = x P_2 - P_1
    assert not relation_residual(polys, [ZERO, ONE, ZERO], 2)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_relation_residual_matches_poly_chain(data):
    # any polynomials, the zero one among them, and rows with zero entries
    n = data.draw(st.integers(0, 6))
    polys = [Poly(data.draw(st.lists(small_scalars, max_size=m + 2))) for m in range(n + 2)]
    row = data.draw(st.lists(small_scalars, min_size=n + 1, max_size=n + 1))
    assert relation_residual(polys, row, n) == relation_residual_by_poly_chain(polys, row, n)


@given(dense_operators(), st.integers(2, 12), st.data())
@settings(max_examples=30, deadline=None)
def test_relation_residual_reports_a_near_miss(op, n_max, data):
    # alpha(n, k) + c, c = 1/q or i/q, leaves exactly c P_k
    table = deltas_from_operator(op, n_max)
    try:
        system = eigensystem(table)
    except DegenerateSpectrum:
        assume(False)
    coeffs = fit_recurrence(system, table)
    n = data.draw(st.integers(0, coeffs.n_max))
    k = data.draw(st.integers(0, n))
    q = LARGE_PRIME
    parts = [part for p in system.polys for c in p.coeffs for part in (c.re, c.im)]
    assume(all(part.denominator % q for part in parts))
    row = list(coeffs.rows[n])
    assert not relation_residual(system.polys, row, n)
    shift = data.draw(st.sampled_from(NEAR_MISSES))
    row[k] = row[k] + shift
    residual = relation_residual(system.polys, row, n)
    assert residual == relation_residual_by_poly_chain(system.polys, row, n)
    assert residual == shift * system.polys[k]
