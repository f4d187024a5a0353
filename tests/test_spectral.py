from fractions import Fraction
from random import Random

import pytest

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
    eigenvalues,
    hermite_operator,
    is_eigenpair,
    jacobi_operator,
    lambda_via_N2_identity,
    laguerre_operator,
)
from bochner.scalars import ZERO
from conftest import random_bochner


@pytest.fixture(scope="module")
def hermite_table():
    return deltas_from_operator(hermite_operator(), 12)


@pytest.fixture(scope="module")
def laguerre_table():
    return deltas_from_operator(laguerre_operator(0), 12)


def test_eigenvalues_presets(hermite_table, laguerre_table):
    assert eigenvalues(hermite_table) == [GaussianRational(-2 * n) for n in range(13)]
    assert eigenvalues(laguerre_table) == [GaussianRational(-n) for n in range(13)]
    jacobi_table = deltas_from_operator(jacobi_operator(Fraction(1, 2), Fraction(1, 3)), 8)
    expected = [GaussianRational(-Fraction(n) * (n + Fraction(11, 6))) for n in range(9)]
    assert eigenvalues(jacobi_table) == expected


def test_eigenvalues_detect_collision():
    rows = [[0], [5, 0], [5, 0, 0]]
    table = DeltaTable(rows)
    with pytest.raises(DegenerateSpectrum) as info:
        eigenvalues(table)
    assert info.value.indices == (1, 2)


def test_eigenvalues_detect_zero():
    # x^2 d^2 has eigenvalues n(n-1), which vanish at n = 1
    op = BochnerOperator([Poly(), Poly(), Poly([0, 0, 1])])
    table = deltas_from_operator(op, 4)
    with pytest.raises(DegenerateSpectrum) as info:
        eigenvalues(table)
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
    assert eigenpoly_coeff_det(hermite_table, 2, 2) == GaussianRational(Fraction(-1, 2))


def test_coeff_det_single_entry(laguerre_table):
    # 1 x 1 determinant: delta(5, 1) / (lambda_5 - lambda_4) = 25 / (-1)
    assert eigenpoly_coeff_det(laguerre_table, 5, 1) == GaussianRational(-25)
    assert eigenpoly_coeff_det(laguerre_table, 3, 1) == GaussianRational(-9)


def test_coeff_det_bounds(hermite_table):
    with pytest.raises(DomainError):
        eigenpoly_coeff_det(hermite_table, 3, 0)
    with pytest.raises(DomainError):
        eigenpoly_coeff_det(hermite_table, 3, 4)


def test_det_matches_recursion_on_random_operators():
    rng = Random(321)
    for _ in range(4):
        op = random_bochner(rng, rng.randint(1, 4), distinct_to=12)
        table = deltas_from_operator(op, 12)
        for n in range(1, 13):
            poly = eigenpoly_recursive(table, n)
            for i in range(1, n + 1):
                det_value = eigenpoly_coeff_det(table, n, i)
                assert det_value == poly.coeff(n - i), (n, i)


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
        for i in range(1, 13):
            assert eigenpoly_coeff_det(table, 12, i) == eigenpoly_coeff_det(full, 12, i), name
