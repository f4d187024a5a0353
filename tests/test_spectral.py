from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from bochner import (
    BochnerOperator,
    DegenerateSpectrum,
    DeltaTable,
    DomainError,
    EigenSystem,
    GaussianRational,
    InsufficientData,
    InvalidEigenSystem,
    Poly,
    X,
    delta_extend,
    deltas_from_operator,
    eigenpoly_coeff_det,
    eigenpoly_recursive,
    eigensystem,
    hermite_operator,
    is_eigenpair,
    jacobi_operator,
    lambda_via_N2_identity,
    laguerre_operator,
)
from bochner.scalars import ZERO
from bochner.spectral import check_spectrum
from conftest import (
    delta_extend_by_plain_sum,
    eigensystem_by_plain_arithmetic,
    random_bochner,
    random_gaussian,
    small_scalars,
)


@pytest.fixture(scope="module")
def hermite_table():
    return deltas_from_operator(hermite_operator(), 12)


@pytest.fixture(scope="module")
def laguerre_table():
    return deltas_from_operator(laguerre_operator(0), 12)


def spectrum(table):
    """The k = 0 column of the table, validated by `check_spectrum`."""
    lams = [table.value(n, 0) for n in range(table.n_max + 1)]
    check_spectrum(lams)
    return lams


def test_eigenvalues_presets(hermite_table, laguerre_table):
    assert spectrum(hermite_table) == [GaussianRational(-2 * n) for n in range(13)]
    assert spectrum(laguerre_table) == [GaussianRational(-n) for n in range(13)]
    jacobi_table = deltas_from_operator(jacobi_operator(Fraction(1, 2), Fraction(1, 3)), 8)
    expected = [GaussianRational(-Fraction(n) * (n + Fraction(11, 6))) for n in range(9)]
    assert spectrum(jacobi_table) == expected


def test_eigenvalues_detect_collision():
    rows = [[0], [5, 0], [5, 0, 0]]
    table = DeltaTable(rows)
    with pytest.raises(DegenerateSpectrum) as info:
        spectrum(table)
    assert info.value.indices == (1, 2)


def test_eigenvalues_detect_zero():
    # x^2 d^2 has eigenvalues n(n-1), which vanish at n = 1
    op = BochnerOperator([Poly(), Poly(), Poly([0, 0, 1])])
    table = deltas_from_operator(op, 4)
    with pytest.raises(DegenerateSpectrum) as info:
        spectrum(table)
    assert info.value.indices == (1,)


def test_eigenpoly_recursive_hermite(hermite_table):
    assert eigenpoly_recursive(hermite_table, 0) == Poly([1])
    assert eigenpoly_recursive(hermite_table, 2) == Poly([Fraction(-1, 2), 0, 1])


def test_eigenpoly_recursive_laguerre(laguerre_table):
    assert eigenpoly_recursive(laguerre_table, 2) == Poly([2, -4, 1])


def test_eigenpoly_recursive_needs_rows(hermite_table):
    with pytest.raises(InsufficientData):
        eigenpoly_recursive(hermite_table, 13)


def test_coeff_det_hermite(hermite_table):
    assert eigenpoly_coeff_det(hermite_table, 2).coeff(2, 0) == GaussianRational(Fraction(-1, 2))


def test_coeff_det_single_entry(laguerre_table):
    # 1 x 1 leading minor: delta(5, 1) / (lambda_5 - lambda_4) = 25 / (-1)
    by_det = eigenpoly_coeff_det(laguerre_table, 5)
    assert by_det.coeff(5, 4) == GaussianRational(-25)
    assert by_det.coeff(3, 2) == GaussianRational(-9)


def test_coeff_det_bounds(hermite_table):
    # the chain of minors starts at det(H_0) = 1, the monic top, and stops at
    # degree n: every polynomial is monic of its degree, nothing lies above
    by_det = eigenpoly_coeff_det(hermite_table, 3)
    for n in range(4):
        assert by_det.polys[n].degree == n and by_det.coeff(n, n) == GaussianRational(1)
        assert by_det.coeff(n, n + 1) == ZERO
    with pytest.raises(InsufficientData):
        eigenpoly_coeff_det(hermite_table, 13)


def test_det_matches_recursion_on_random_operators():
    rng = Random(321)
    for _ in range(4):
        op = random_bochner(rng, rng.randint(1, 4), distinct_to=12)
        table = deltas_from_operator(op, 12)
        by_det = eigenpoly_coeff_det(table, 12)
        for n in range(1, 13):
            poly = eigenpoly_recursive(table, n)
            for i in range(1, n + 1):
                assert by_det.coeff(n, n - i) == poly.coeff(n - i), (n, i)


def test_oracle_equivalence_sample():
    rng = Random(555)
    for _ in range(4):
        op = random_bochner(rng, rng.randint(1, 5), distinct_to=15)
        table = deltas_from_operator(op, 15)
        for n in range(16):
            poly = eigenpoly_recursive(table, n)
            assert is_eigenpair(op, poly, table.value(n, 0)), n


def test_delta_extend_hermite(hermite_table):
    assert delta_extend(hermite_table, 7, 0) == GaussianRational(-14)
    assert delta_extend(hermite_table, 9, 5) == ZERO  # above the order


def test_delta_extend_laguerre(laguerre_table):
    assert delta_extend(laguerre_table, 6, 1) == GaussianRational(36)


def test_delta_extend_matches_forward_rows(hermite_table):
    for n in range(3, 13):
        for k in range(3):
            assert delta_extend(hermite_table, n, k) == hermite_table.value(n, k)


def test_delta_extend_errors(hermite_table):
    with pytest.raises(DomainError):
        delta_extend(hermite_table, 2, 0)  # n within the seed rows
    untagged = DeltaTable([[0], [1, 1]])
    with pytest.raises(InsufficientData):
        delta_extend(untagged, 5, 0)  # no order tag and none supplied
    short = DeltaTable([[0], [1, 1]], order=3)
    with pytest.raises(InsufficientData):
        delta_extend(short, 5, 0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_delta_extend_matches_plain_sum(data):
    order = data.draw(st.integers(1, 4))
    seed = DeltaTable(
        [data.draw(st.lists(small_scalars, min_size=n + 1, max_size=n + 1)) for n in range(order + 1)]
    )
    for n in range(order + 1, order + 7):
        for k in range(order + 2):
            expected = delta_extend_by_plain_sum(seed, n, k, order)
            assert delta_extend(seed, n, k, order=order) == expected, (n, k)


def test_lambda_identity_examples():
    assert lambda_via_N2_identity(-2, -4, 5) == GaussianRational(-10)
    assert lambda_via_N2_identity(-1, -2, 7) == GaussianRational(-7)
    assert lambda_via_N2_identity(-2, -6, 3) == GaussianRational(-12)


def test_eigensystem_convenience(hermite_table):
    system = eigensystem(hermite_table, 6)
    assert system.n_max == 6
    assert system.polys[2] == Poly([Fraction(-1, 2), 0, 1])
    assert system.coeff(2, 0) == GaussianRational(Fraction(-1, 2))


def test_eigensystem_validation():
    with pytest.raises(InvalidEigenSystem):
        EigenSystem([0, -1], [Poly([1]), Poly([0, 2])])  # not monic
    with pytest.raises(InvalidEigenSystem):
        EigenSystem([1, -1], [Poly([1]), X])  # lambda_0 != 0
    with pytest.raises(InvalidEigenSystem):
        EigenSystem([0, -1], [Poly([1]), Poly([1, 0, 1])])  # degree mismatch
    with pytest.raises(DegenerateSpectrum):
        EigenSystem([0, -1, -1], [Poly([1]), X, Poly([0, 0, 1])])


def test_band_matches_full_triangle(corpus):
    # the tagged table is read only inside its band; an untagged copy with
    # explicit zeros past the order is read as a full triangle
    for name, op in corpus:
        table = deltas_from_operator(op, 32)
        full = DeltaTable(
            [row + (ZERO,) * (n + 1 - len(row)) for n, row in enumerate(table.rows)]
        )
        assert full.order is None and table.order == op.order
        assert eigensystem(table) == eigensystem(full), name
        by_det = eigenpoly_coeff_det(table, 12).polys[12]
        assert by_det == eigenpoly_coeff_det(full, 12).polys[12], name


def random_table(rng, n_max, order=None, zero_column=None):
    """Delta rows of random complex entries over a distinct, nonzero
    spectrum, tagged with `order` or a full triangle, one column zeroed."""
    while True:
        lams = [GaussianRational(0)] + [random_gaussian(rng, 50) for _ in range(n_max)]
        if all(lams[1:]) and len(set(lams)) == len(lams):
            break
    rows = []
    for n, lam in enumerate(lams):
        width = n if order is None else min(n, order)
        row = [lam] + [random_gaussian(rng, 50) for _ in range(width)]
        if zero_column is not None and zero_column < len(row):
            row[zero_column] = ZERO
        rows.append(row)
    return DeltaTable(rows, order=order)


def assert_plain_arithmetic(table, n_max):
    # scalars compare by their stored triples, so an unreduced or
    # negative-denominator coefficient differs from the reference
    assert eigensystem(table, n_max) == eigensystem_by_plain_arithmetic(table, n_max)


@pytest.mark.parametrize(
    "op",
    [
        hermite_operator(),
        laguerre_operator(Fraction(5, 3)),
        jacobi_operator(Fraction(3, 7), Fraction(-2, 5)),
    ],
    ids=["hermite", "laguerre", "jacobi"],
)
def test_eigensystem_matches_plain_arithmetic_on_presets(op):
    assert_plain_arithmetic(deltas_from_operator(op, 24), 24)


def test_eigensystem_matches_plain_arithmetic_on_random_tables():
    rng = Random(808)
    for order in (1, 2, 3, 4):
        op = random_bochner(rng, order, distinct_to=14)
        tagged = deltas_from_operator(op, 14)
        untagged = DeltaTable(
            [row + (ZERO,) * (n + 1 - len(row)) for n, row in enumerate(tagged.rows)]
        )
        assert_plain_arithmetic(tagged, 14)
        assert_plain_arithmetic(untagged, 14)
        assert_plain_arithmetic(random_table(rng, 10, order=order), 10)
        assert_plain_arithmetic(random_table(rng, 10), 10)
        # a zero band column leaves sums with a single term or none
        assert_plain_arithmetic(random_table(rng, 10, order=order, zero_column=1), 10)
        assert_plain_arithmetic(random_table(rng, 10, zero_column=order), 10)


def test_hermite_odd_offset_coefficients_are_zero():
    system = eigensystem(deltas_from_operator(hermite_operator(), 30))
    for n, poly in enumerate(system.polys):
        for i in range(1, n + 1, 2):
            assert poly.coeff(n - i) == ZERO, (n, i)
        for i in range(0, n + 1, 2):
            assert poly.coeff(n - i) != ZERO, (n, i)
