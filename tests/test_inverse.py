from fractions import Fraction
from random import Random

import pytest

from bochner import (
    DegenerateSpectrum,
    DomainError,
    EigenSystem,
    GaussianRational,
    InsufficientData,
    NoFiniteOrderOperator,
    Poly,
    X,
    deltas_from_eigendata_det,
    deltas_from_eigendata_rec,
    deltas_from_operator,
    eigensystem,
    finite_order_test,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    normalize,
    reconstruct,
)
from bochner.inverse import first_order_violation
from bochner.operators import coefficient_from_deltas
from bochner.scalars import ZERO
from conftest import monic_hermite, monic_laguerre, random_bochner, search_order_by_order


def hermite_data(n_max):
    """Eigen-data built from the independent three-term recurrence."""
    return EigenSystem(
        [GaussianRational(-2 * n) for n in range(n_max + 1)], monic_hermite(n_max)
    )


def laguerre_data(n_max, alpha=Fraction(0)):
    return EigenSystem(
        [GaussianRational(-n) for n in range(n_max + 1)], monic_laguerre(n_max, alpha)
    )


def forward_data(op, n_max):
    return eigensystem(deltas_from_operator(op, n_max))


def test_delta_paths_agree_on_classical_data():
    for data in (hermite_data(15), laguerre_data(15)):
        table = deltas_from_eigendata_rec(data, 15)
        for n in range(16):
            for k in range(n + 1):
                assert deltas_from_eigendata_det(data, n, k) == table.value(n, k), (n, k)


def test_delta_paths_agree_on_random_operator():
    rng = Random(808)
    op = random_bochner(rng, 3, distinct_to=12)
    data = forward_data(op, 12)
    table = deltas_from_eigendata_rec(data, 12)
    for n in range(13):
        for k in range(n + 1):
            assert deltas_from_eigendata_det(data, n, k) == table.value(n, k)


def test_rec_table_matches_forward_table():
    data = hermite_data(10)
    backward = deltas_from_eigendata_rec(data, 10)
    forward = deltas_from_operator(hermite_operator(), 10)
    for n in range(11):
        for k in range(n + 1):
            assert backward.value(n, k) == forward.value(n, k), (n, k)


def test_first_degree_delta_from_shifted_polynomial():
    c = GaussianRational(3)
    data = EigenSystem([ZERO, GaussianRational(-2)], [Poly([1]), Poly([-c, 1])])
    table = deltas_from_eigendata_rec(data, 1)
    # delta(1, 1) = lambda_1 b(1, 0)
    assert table.value(1, 1) == GaussianRational(6)
    assert deltas_from_eigendata_det(data, 1, 1) == GaussianRational(6)


def test_degenerate_data_only():
    data = EigenSystem([ZERO], [Poly([1])])
    table = deltas_from_eigendata_rec(data, 0)
    assert table.n_max == 0
    assert table.value(0, 0) == ZERO


def test_delta_beyond_row_is_zero():
    data = hermite_data(6)
    assert deltas_from_eigendata_det(data, 3, 7) == ZERO


def test_hermite_det_entry():
    data = hermite_data(8)
    assert deltas_from_eigendata_det(data, 4, 2) == GaussianRational(12)


def test_operator_coeffs_from_deltas():
    hermite_table = deltas_from_eigendata_rec(hermite_data(8), 8)
    assert coefficient_from_deltas(hermite_table, 2, 2) == GaussianRational(1)
    for k in range(4):
        assert coefficient_from_deltas(hermite_table, 3, k) == ZERO
    laguerre_table = deltas_from_eigendata_rec(laguerre_data(8, Fraction(1, 3)), 8)
    assert coefficient_from_deltas(laguerre_table, 1, 0) == GaussianRational(-1)


def test_finite_order_test_hermite():
    table = deltas_from_eigendata_rec(hermite_data(8), 8)
    assert finite_order_test(table, 2, 8)
    assert not finite_order_test(table, 1, 8)
    violation = first_order_violation(table, 1, 8)
    assert violation == (2, 2)  # delta(2, 2) = 2 is not zero


def test_finite_order_test_requires_window():
    table = deltas_from_eigendata_rec(hermite_data(8), 8)
    with pytest.raises(InsufficientData):
        finite_order_test(table, 8, 8)
    with pytest.raises(DomainError):
        finite_order_test(table, 0, 8)


def test_perturbed_family_fails_every_order():
    n_max = 9
    polys = list(monic_hermite(n_max))
    perturbed = polys[5] + Poly([1])
    data = EigenSystem(
        [GaussianRational(-2 * n) for n in range(n_max + 1)],
        polys[:5] + [perturbed] + polys[6:],
    )
    table = deltas_from_eigendata_rec(data, n_max)
    for order in range(1, 7):
        assert not finite_order_test(table, order, n_max), order
        with pytest.raises(NoFiniteOrderOperator) as info:
            reconstruct(data, order)
        assert info.value.order == order
        assert len(info.value.failure) == 2


def test_reconstruct_hermite_from_independent_data():
    assert reconstruct(hermite_data(8), 2) == hermite_operator()


def test_reconstruct_laguerre():
    alpha = Fraction(1, 3)
    op = reconstruct(laguerre_data(9, alpha), 2)
    assert op == laguerre_operator(alpha)


def test_reconstruct_jacobi_round_trip():
    op = jacobi_operator(Fraction(1, 2), Fraction(1, 3))
    data = forward_data(op, 10)
    assert reconstruct(data, 2) == normalize(op)[0]


def test_reconstruct_trims_to_true_order():
    # asking for order 4 on genuinely order-2 data still returns the operator
    assert reconstruct(hermite_data(9), 4) == hermite_operator()


def test_reconstruct_random_round_trips():
    rng = Random(606)
    for order in (1, 2, 3):
        op = random_bochner(rng, order, distinct_to=max(12, order + 2))
        data = forward_data(op, 12)
        assert reconstruct(data, order) == op


def test_reconstruct_needs_data_past_order():
    with pytest.raises(InsufficientData):
        reconstruct(hermite_data(2), 2)


def test_random_monic_family_has_no_order_two_operator():
    rng = Random(111)
    polys = [Poly([1]), X]
    for n in range(2, 9):
        coeffs = [GaussianRational(rng.randint(-9, 9)) for _ in range(n)] + [
            GaussianRational(1)
        ]
        polys.append(Poly(coeffs))
    data = EigenSystem([GaussianRational(-3 * n) for n in range(9)], polys)
    with pytest.raises(NoFiniteOrderOperator):
        reconstruct(data, 2)


def test_eigendata_validation():
    with pytest.raises(DegenerateSpectrum):
        EigenSystem([ZERO, ZERO], [Poly([1]), X])


def search_at_top(data):
    """The same search as one reconstruction at the largest testable order."""
    try:
        op = reconstruct(data, data.n_max - 1)
    except NoFiniteOrderOperator as exc:
        return None, None, exc.failure
    return op.order, op, None


def test_one_reconstruction_matches_order_by_order_search(corpus):
    bumped_failures = 0
    for name, op in corpus:
        data = forward_data(op, 8)
        polys = list(data.polys)
        polys[5] = polys[5] + Poly([1])
        bumped = EigenSystem(data.lambdas, polys)
        expected = search_order_by_order(data)
        assert expected[1] is not None, name
        assert search_at_top(data) == expected, name
        expected = search_order_by_order(bumped)
        assert search_at_top(bumped) == expected, f"{name} bumped"
        bumped_failures += expected[1] is None
    assert bumped_failures
