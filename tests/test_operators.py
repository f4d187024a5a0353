from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bochner import (
    BochnerOperator,
    DeltaTable,
    DomainError,
    GaussianRational,
    InsufficientData,
    InvalidOperator,
    Poly,
    deltas_from_operator,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    normalize,
    operator_from_deltas,
    ShapiroOperator,
    to_bochner,
)
from bochner.scalars import ZERO, comb, factorial
from bochner.serialize import operator_from_dict
from conftest import (
    INTERIOR_ZERO_COLUMN,
    coefficient_by_binomial_sum,
    deltas_from_operator_by_scalar_chain,
    dense_operators,
    full_triangle,
    random_bochner,
    random_gaussian,
    small_scalars as complex_scalars,
    zero_column_operators,
)


def test_constructor_rejects_degree_violation():
    with pytest.raises(InvalidOperator):
        BochnerOperator([Poly(), Poly([0, 0, 1])])  # a_1 = x^2


def test_constructor_rejects_zero_leading():
    with pytest.raises(InvalidOperator):
        BochnerOperator([Poly(), Poly([0, 1]), Poly()])


def test_constructor_rejects_order_zero():
    with pytest.raises(InvalidOperator):
        BochnerOperator([Poly([1])])


def test_normalize_strips_constant():
    op = BochnerOperator([Poly([3]), Poly([0, -2]), Poly([1])])
    normalized, shift = normalize(op)
    assert shift == GaussianRational(3)
    assert normalized == hermite_operator()


def test_normalize_identity_case():
    op = hermite_operator()
    normalized, shift = normalize(op)
    assert shift == ZERO
    assert normalized == op


def test_hermite_delta_table():
    table = deltas_from_operator(hermite_operator(), 4)
    # the band is the row length: rows past the order stop at k = 2
    assert [len(row) for row in table.rows] == [1, 2, 3, 3, 3]
    for n in range(5):
        assert table.value(n, 0) == GaussianRational(-2 * n)
        assert table.value(n, 1) == ZERO
        assert table.value(n, 2) == GaussianRational(n * (n - 1))


def test_laguerre_delta_table():
    alpha = Fraction(1, 3)
    table = deltas_from_operator(laguerre_operator(alpha), 3)
    for n in range(4):
        assert table.value(n, 0) == GaussianRational(-n)
        assert table.value(n, 1) == GaussianRational(n * (alpha + n))
        assert table.value(n, 2) == ZERO


def test_euler_term_delta_table():
    op = BochnerOperator([Poly(), Poly([0, 1])])  # a_1 = x
    table = deltas_from_operator(op, 3)
    for n in range(4):
        assert table.value(n, 0) == GaussianRational(n)
        assert table.value(n, 1) == ZERO


def test_deltas_require_normalized_operator():
    op = BochnerOperator([Poly([3]), Poly([0, -2]), Poly([1])])
    with pytest.raises(InvalidOperator):
        deltas_from_operator(op, 3)


def test_delta_table_conventions():
    table = deltas_from_operator(hermite_operator(), 4)
    assert table.value(3, 5) == ZERO  # k > n
    assert table.value(4, 3) == ZERO  # beyond the band
    with pytest.raises(InsufficientData):
        table.value(5, 0)
    with pytest.raises(DomainError):
        table.value(-1, 0)


def test_delta_table_shape_validation():
    # the band is the last row's length less one
    for rows in (
        [[0, 1]],  # row 0 must have one entry
        [[0], [0]],  # a band of width 0 past row 0
        [[0], [0], [0]],
        [[0], [1, 2], [3, 4, 5], [6, 7]],  # row 2 longer than the band of width 1
        [[0], [1, 2], [3, 4, 5], [6, 7, 8], [9, 10]],
        [[0], [1], [2, 3]],  # row 1 shorter than it
    ):
        with pytest.raises(DomainError):
            DeltaTable(rows)


@pytest.mark.parametrize(
    "rows",
    [[], [[0]], [[0], [1, 2]], [[0], [1, 2], [3, 4]], [[0], [1, 2], [3, 4, 5], [6, 7, 8]]],
)
def test_delta_table_band_is_the_last_row(rows):
    table = DeltaTable(rows)
    assert [len(row) for row in table.rows] == [len(row) for row in rows]


def test_operator_from_deltas_hermite_round_trip():
    table = deltas_from_operator(hermite_operator(), 4)
    assert operator_from_deltas(table, 2) == hermite_operator()


def test_operator_from_deltas_euler_term():
    rows = [[GaussianRational(n)] if n == 0 else [GaussianRational(n), ZERO] for n in range(3)]
    table = DeltaTable(rows)
    assert operator_from_deltas(table, 1) == BochnerOperator([Poly(), Poly([0, 1])])


def test_operator_from_deltas_insufficient():
    with pytest.raises(InsufficientData):
        operator_from_deltas(DeltaTable([]), 2)


def test_two_path_lambda_check(corpus):
    # the k = 0 column recomputed independently from the leading coefficients
    for name, op in corpus[:6]:
        table = deltas_from_operator(op, 8)
        for n in range(9):
            expected = ZERO
            for i in range(1, op.order + 1):
                lead = op.coeffs[i].coeff(i)
                if lead:
                    expected = expected + (comb(n, i) * factorial(i)) * lead
            assert table.value(n, 0) == expected, (name, n)


# -- the lifted table build against a chain of scalar `+` and `*` -----------
#
# scalars compare by their stored triples, so an entry the lifted build left
# unreduced differs from the reference


table_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=40)


@given(
    st.sampled_from(["hermite", "laguerre", "jacobi"]),
    table_rationals,
    table_rationals,
    st.integers(0, 30),
)
@settings(max_examples=60, deadline=None)
def test_table_build_matches_scalar_chain_on_presets(family, alpha, beta, n_max):
    if family == "hermite":
        op = hermite_operator()
    elif family == "laguerre":
        op = laguerre_operator(alpha)
    else:
        op = jacobi_operator(alpha, beta)
    assert deltas_from_operator(op, n_max) == deltas_from_operator_by_scalar_chain(op, n_max)


@given(
    st.lists(complex_scalars, min_size=1, max_size=5).filter(lambda c: c[-1]),
    st.integers(0, 24),
)
@settings(max_examples=60, deadline=None)
def test_table_build_matches_scalar_chain_on_product_forms(c, n_max):
    op = to_bochner(ShapiroOperator(c))
    assert deltas_from_operator(op, n_max) == deltas_from_operator_by_scalar_chain(op, n_max)


@given(dense_operators(), st.integers(0, 14))
@settings(max_examples=40, deadline=None)
def test_table_build_matches_scalar_chain_on_dense_operators(op, n_max):
    # every a_{i,j} has a Fraction real part and, as often as not, a nonzero
    # imaginary part, so the entries sum numerators over unrelated denominators
    assert deltas_from_operator(op, n_max) == deltas_from_operator_by_scalar_chain(op, n_max)


@given(zero_column_operators(), st.integers(0, 14))
@settings(max_examples=60, deadline=None)
def test_table_build_matches_scalar_chain_with_zero_band_columns(op, n_max):
    assert deltas_from_operator(op, n_max) == deltas_from_operator_by_scalar_chain(op, n_max)


def test_table_build_keeps_an_interior_zero_column():
    op = operator_from_dict(INTERIOR_ZERO_COLUMN)
    table = deltas_from_operator(op, 10)
    assert table == deltas_from_operator_by_scalar_chain(op, 10)
    assert [len(row) for row in table.rows] == [min(n, 3) + 1 for n in range(11)]
    assert all(row[1] == ZERO for row in table.rows[1:])


small_rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
small_scalars = st.builds(GaussianRational, small_rationals, small_rationals)


@st.composite
def bochner_operators(draw, max_order=6):
    order = draw(st.integers(1, max_order))
    polys = [Poly()]
    for i in range(1, order + 1):
        coeffs = draw(st.lists(small_scalars, max_size=i + 1))
        polys.append(Poly(coeffs))
    leading = draw(small_scalars.filter(bool))
    last = polys[order]
    if not last:
        polys[order] = Poly.monomial(draw(st.integers(0, order)), leading)
    return BochnerOperator(polys)


@given(bochner_operators())
@settings(max_examples=60, deadline=None)
def test_delta_round_trip(op):
    table = deltas_from_operator(op, op.order)
    rebuilt = operator_from_deltas(table, op.order)
    assert rebuilt == op


def test_reverse_round_trip_on_tables():
    rng = Random(7)
    for _ in range(6):
        op = random_bochner(rng, rng.randint(1, 5), distinct_to=12)
        table = deltas_from_operator(op, 12)
        rebuilt = operator_from_deltas(table, op.order)
        assert deltas_from_operator(rebuilt, 12) == table


def test_operator_from_deltas_trims_padding():
    # a table produced by an order-2 operator, inverted while asking order 4
    table = deltas_from_operator(hermite_operator(), 6)
    padded = DeltaTable(
        [
            [table.value(n, k) for k in range(min(n, 4) + 1)]
            for n in range(7)
        ]
    )
    assert operator_from_deltas(padded, 4) == hermite_operator()


def inverted_by_binomial_sums(table, order):
    """operator_from_deltas(table, order), checked coefficient by coefficient
    against the binomial-sum reference."""
    op = operator_from_deltas(table, order)
    for n in range(order + 1):
        for k in range(n + 1):
            expected = coefficient_by_binomial_sum(table, n, k)
            assert op.coefficient(n, n - k) == expected, (order, n, k)
    return op


def test_inversion_matches_binomial_sums_at_every_order(corpus):
    n_max = 9
    for name, op in corpus:
        table = full_triangle(deltas_from_operator(op, n_max))
        for order in range(op.order, n_max):
            assert inverted_by_binomial_sums(table, order) == op, (name, order)


def test_inversion_matches_binomial_sums_on_data_of_no_finite_order():
    rng = Random(4242)
    for _ in range(4):
        rows = [
            [random_gaussian(rng) or GaussianRational(1) for _ in range(n + 1)]
            for n in range(9)
        ]
        table = DeltaTable(rows)
        for order in range(1, 9):
            op = inverted_by_binomial_sums(table, order)
            # every level of column 0 is needed: its last one gives a_{order, order}
            assert op.order == order and op.coefficient(order, order)


def test_inversion_stops_at_the_first_all_zero_level(monkeypatch):
    order, table = 20, full_triangle(deltas_from_operator(hermite_operator(), 21))
    ops = []
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        real = getattr(GaussianRational, f"__{name}__")

        def counted(self, other, real=real):
            ops.append(1)
            return real(self, other)

        monkeypatch.setattr(GaussianRational, f"__{name}__", counted)
    assert operator_from_deltas(table, order) == hermite_operator()
    # each of the N + 1 = 3 columns that can be nonzero builds at most levels
    # 1..N + 1 of at most `order` entries and divides at most N + 1 heads by
    # n!; full difference tables alone would take 21 * 210 = 4410 subtractions
    assert len(ops) <= 3 * 3 * (order + 1)


def test_jacobi_preset_eigenvalues():
    alpha, beta = Fraction(1, 2), Fraction(1, 3)
    table = deltas_from_operator(jacobi_operator(alpha, beta), 6)
    for n in range(7):
        assert table.value(n, 0) == GaussianRational(-Fraction(n) * (n + 1 + alpha + beta))


def test_preset_parameters_must_be_real():
    with pytest.raises(DomainError):
        laguerre_operator(GaussianRational(0, 1))
    with pytest.raises(DomainError):
        jacobi_operator(GaussianRational(0, 1), 0)
