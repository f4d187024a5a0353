from fractions import Fraction
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from bochner import (
    DegenerateSpectrum,
    DomainError,
    EigenSystem,
    GaussianRational,
    InsufficientData,
    NoFiniteOrderOperator,
    Poly,
    deltas_from_eigendata_det,
    deltas_from_eigendata_rec,
    deltas_from_operator,
    eigensystem,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    normalize,
    reconstruct,
)
from bochner import inverse
from bochner.inverse import delta_rows, first_order_violation
from bochner.operators import operator_from_deltas
from bochner.polynomials import apply_operator, is_eigenpair
from bochner.scalars import ZERO
from bochner.serialize import operator_from_dict
from conftest import (
    bump,
    deltas_from_eigendata_by_plain_sum,
    monic_hermite,
    monic_laguerre,
    random_bochner,
    reconstruct_by_row_criterion,
    search_order_by_order,
    small_scalars,
    usable_bochner_operators,
)


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


def bumped_at_top(n_max):
    """Hermite data with P_{n_max} moved by 1: only the top row breaks the
    criterion."""
    data = hermite_data(n_max)
    polys = list(data.polys)
    polys[-1] = bump(polys[-1])
    return EigenSystem(data.lambdas, polys)


def test_delta_paths_agree_on_classical_data():
    for data in (hermite_data(15), laguerre_data(15)):
        table = deltas_from_eigendata_rec(data)
        by_det = deltas_from_eigendata_det(data)
        for n in range(16):
            for k in range(n + 1):
                assert by_det.value(n, k) == table.value(n, k), (n, k)


def test_delta_paths_agree_on_random_operator():
    rng = Random(808)
    op = random_bochner(rng, 3, distinct_to=12)
    data = forward_data(op, 12)
    table = deltas_from_eigendata_rec(data)
    by_det = deltas_from_eigendata_det(data)
    for n in range(13):
        for k in range(n + 1):
            assert by_det.value(n, k) == table.value(n, k)


def test_rec_table_matches_forward_table():
    data = hermite_data(10)
    backward = deltas_from_eigendata_rec(data)
    forward = deltas_from_operator(hermite_operator(), 10)
    for n in range(11):
        for k in range(n + 1):
            assert backward.value(n, k) == forward.value(n, k), (n, k)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_rec_table_matches_plain_sum(data):
    # any usable spectrum and any monic polynomials, with zero coefficients
    n_max = data.draw(st.integers(0, 7))
    lams = [ZERO] + data.draw(
        st.lists(small_scalars.filter(bool), min_size=n_max, max_size=n_max, unique=True)
    )
    polys = [
        Poly(data.draw(st.lists(small_scalars, min_size=n, max_size=n)) + [1])
        for n in range(n_max + 1)
    ]
    system = EigenSystem(lams, polys)
    rows = deltas_from_eigendata_rec(system).rows
    assert [list(row) for row in rows] == deltas_from_eigendata_by_plain_sum(system, n_max)


def test_first_degree_delta_from_shifted_polynomial():
    c = GaussianRational(3)
    data = EigenSystem([ZERO, GaussianRational(-2)], [Poly([1]), Poly([-c, 1])])
    table = deltas_from_eigendata_rec(data)
    # delta(1, 1) = lambda_1 b(1, 0)
    assert table.value(1, 1) == GaussianRational(6)
    assert deltas_from_eigendata_det(data).value(1, 1) == GaussianRational(6)


def test_degenerate_data_only():
    data = EigenSystem([ZERO], [Poly([1])])
    table = deltas_from_eigendata_rec(data)
    assert table.n_max == 0
    assert table.value(0, 0) == ZERO


def test_delta_beyond_row_is_zero():
    data = hermite_data(6)
    assert deltas_from_eigendata_det(data).value(3, 7) == ZERO


def test_det_table_window():
    # both tables run to the data's top degree
    data = hermite_data(6)
    for top in (0, 1, 6):
        window = EigenSystem(data.lambdas[: top + 1], data.polys[: top + 1])
        table = deltas_from_eigendata_det(window)
        assert table.n_max == top
        assert table == deltas_from_eigendata_rec(window)


def test_delta_paths_agree_on_data_of_no_operator():
    # both routes define the table of any eigen-data, operator or not
    polys = list(monic_hermite(9))
    polys[5] = bump(polys[5])
    data = EigenSystem([GaussianRational(-2 * n) for n in range(10)], polys)
    assert deltas_from_eigendata_det(data) == deltas_from_eigendata_rec(data)


def test_hermite_det_entry():
    data = hermite_data(4)
    assert deltas_from_eigendata_det(data).value(4, 2) == GaussianRational(12)


def test_operator_coeffs_from_deltas():
    hermite = operator_from_deltas(deltas_from_eigendata_rec(hermite_data(8)), 7)
    assert hermite.coefficient(2, 2 - 2) == GaussianRational(1)
    for k in range(4):
        assert hermite.coefficient(3, 3 - k) == ZERO
    laguerre_table = deltas_from_eigendata_rec(laguerre_data(8, Fraction(1, 3)))
    laguerre = operator_from_deltas(laguerre_table, 7)
    assert laguerre.coefficient(1, 1 - 0) == GaussianRational(-1)


def test_finite_order_test_hermite():
    table = deltas_from_eigendata_rec(hermite_data(8))
    assert first_order_violation(table, 2) is None
    assert first_order_violation(table, 1) is not None
    violation = first_order_violation(table, 1)
    assert violation == (2, 2)  # delta(2, 2) = 2 is not zero


def test_finite_order_test_requires_window():
    table = deltas_from_eigendata_rec(hermite_data(8))
    with pytest.raises(InsufficientData):
        first_order_violation(table, 8)
    with pytest.raises(DomainError):
        first_order_violation(table, 0)


def test_perturbed_family_fails_every_order():
    n_max = 9
    polys = list(monic_hermite(n_max))
    perturbed = bump(polys[5])
    data = EigenSystem(
        [GaussianRational(-2 * n) for n in range(n_max + 1)],
        polys[:5] + [perturbed] + polys[6:],
    )
    table = deltas_from_eigendata_rec(data)
    for order in range(1, 7):
        assert first_order_violation(table, order) is not None, order
        with pytest.raises(NoFiniteOrderOperator) as info:
            reconstruct(data, order)
        assert info.value.order == order
        assert len(info.value.failure) == 2


def test_reconstruct_hermite_from_independent_data():
    assert first_order_violation(deltas_from_eigendata_rec(hermite_data(8)), 2) is None
    assert reconstruct(hermite_data(8), 2) == hermite_operator()
    # moving P_8 alone breaks the criterion in row 8 only, the last of the window
    with pytest.raises(NoFiniteOrderOperator) as info:
        reconstruct(bumped_at_top(8), 2)
    assert info.value.failure[0] == 8


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


def test_reconstruct_stops_at_the_first_violation(corpus):
    """`reconstruct` raises the failure the whole table gives, and draws
    only a prefix of the data's rows, no deeper than the candidate orders
    reach: at most min(order + 1, n) rows for a failure in row n."""
    failures = 0
    for name, op in corpus:
        data = forward_data(op, 10)
        polys = list(data.polys)
        polys[5] = bump(polys[5])
        bumped = EigenSystem(data.lambdas, polys)
        table = deltas_from_eigendata_rec(bumped)
        for order in range(1, 10):
            expected = first_order_violation(table, order)
            if expected is None:
                continue
            drawn = []

            def counted(data):
                for row in delta_rows(data):
                    drawn.append(row)
                    yield row

            with patch.object(inverse, "delta_rows", counted):
                with pytest.raises(NoFiniteOrderOperator) as info:
                    reconstruct(bumped, order)
            assert info.value.failure == expected, (name, order)
            n = expected[0]
            assert len(drawn) <= min(order + 1, n), (name, order)
            assert drawn == [list(row) for row in table.rows[: len(drawn)]], (name, order)
            failures += 1
    assert failures > len(corpus)


def test_random_monic_family_has_no_order_two_operator():
    rng = Random(111)
    polys = [Poly([1]), Poly([0, 1])]
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
        EigenSystem([ZERO, ZERO], [Poly([1]), Poly([0, 1])])


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
        polys[5] = bump(polys[5])
        bumped = EigenSystem(data.lambdas, polys)
        expected = search_order_by_order(data)
        assert expected[1] is not None, name
        assert search_at_top(data) == expected, name
        expected = search_order_by_order(bumped)
        assert search_at_top(bumped) == expected, f"{name} bumped"
        bumped_failures += expected[1] is None
    assert bumped_failures


def outcome(solve, data, order):
    """The operator `solve` returns, or the order and failure it raises."""
    try:
        return solve(data, order)
    except NoFiniteOrderOperator as exc:
        return exc.order, exc.failure


def assert_outcomes_match_row_criterion(data):
    for order in range(1, data.n_max):
        expected = outcome(reconstruct_by_row_criterion, data, order)
        assert outcome(reconstruct, data, order) == expected, order


@st.composite
def operator_eigendata(draw):
    op = draw(usable_bochner_operators())
    return forward_data(normalize(op)[0], draw(st.integers(2, 10)))


@st.composite
def bumped_eigendata(draw):
    """Operator data with one coefficient below the top of one P_m moved."""
    data = draw(operator_eigendata())
    m = draw(st.integers(1, data.n_max))
    polys = list(data.polys)
    polys[m] = bump(polys[m], draw(st.integers(0, m - 1)), draw(small_scalars.filter(bool)))
    return EigenSystem(data.lambdas, polys)


@st.composite
def monic_eigendata(draw):
    """A random spectrum with random monic polynomials: data of no operator
    as a rule."""
    n_max = draw(st.integers(2, 10))
    lams = [ZERO] + draw(
        st.lists(small_scalars.filter(bool), min_size=n_max, max_size=n_max, unique=True)
    )
    polys = [
        Poly(draw(st.lists(small_scalars, min_size=n, max_size=n)) + [1])
        for n in range(n_max + 1)
    ]
    return EigenSystem(lams, polys)


@given(st.one_of(operator_eigendata(), bumped_eigendata(), monic_eigendata()))
@settings(max_examples=100, deadline=None)
def test_reconstruct_matches_row_criterion(data):
    # the ascent over candidate orders gives the operator, or the failure,
    # of the criterion checked on every row at every requested order
    assert_outcomes_match_row_criterion(data)


def test_reconstruct_matches_row_criterion_on_the_corpus(corpus):
    for name, op in corpus:
        data = forward_data(op, 10)
        polys = list(data.polys)
        polys[7] = bump(polys[7], 1)
        for case in (data, EigenSystem(data.lambdas, polys)):
            assert_outcomes_match_row_criterion(case)


# the non-real order-3 operator and the dense non-real order-4 operator of
# scripts/smoke.sh
ORDER3 = {"N": 3, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]]}
ORDER4 = {"N": 4, "a": [*ORDER3["a"], ["1", "-1/2", "3*i", "2", "1/2+1*i"]]}


@pytest.mark.parametrize("doc", [None, ORDER3, ORDER4], ids=["hermite", "order3", "order4"])
def test_reconstruct_matches_row_criterion_at_every_bump_position(doc):
    """P_m moved at its lowest or its next-to-top coefficient, for every m:
    at every requested order the failure, or the operator, is the row
    criterion's, whether m lies in the seed rows, just past them or far
    past them."""
    op = hermite_operator() if doc is None else operator_from_dict(doc)
    data = forward_data(op, 10)
    for m in range(1, data.n_max + 1):
        for k in {0, m - 1}:
            polys = list(data.polys)
            polys[m] = bump(polys[m], k)
            assert_outcomes_match_row_criterion(EigenSystem(data.lambdas, polys))


def residual_rows_checked(data):
    """At every requested order where the criterion fails, first at (m, k):
    for op inverted from the data's rows 0..order, the x^(m - j)
    coefficient of op P_m - lambda_m P_m is op's delta(m, j) minus the
    data's, for every j, and the first nonzero one is at j = k.  Returns
    the number of orders checked."""
    table = deltas_from_eigendata_rec(data)
    checked = 0
    for order in range(1, data.n_max):
        failure = first_order_violation(table, order)
        if failure is None:
            continue
        m, k = failure
        op = operator_from_deltas(table, order)
        p, lam = data.polys[m], data.lambdas[m]
        image = apply_operator(op, p)
        assert image.degree <= m, order
        residual = [image.coeff(m - j) - lam * p.coeff(m - j) for j in range(m + 1)]
        ops_row = deltas_from_operator(op, m)
        assert residual == [ops_row.value(m, j) - table.value(m, j) for j in range(m + 1)], order
        assert next(j for j, v in enumerate(residual) if v) == k, order
        checked += 1
    return checked


def test_residual_is_the_row_difference_on_the_bumped_corpus(corpus):
    checked = 0
    for name, op in corpus:
        data = forward_data(op, 10)
        for m, k in [(5, 0), (7, 1)]:
            polys = list(data.polys)
            polys[m] = bump(polys[m], k)
            checked += residual_rows_checked(EigenSystem(data.lambdas, polys))
    assert checked > 2 * len(corpus)


@pytest.mark.parametrize("doc", [ORDER3, ORDER4], ids=["order3", "order4"])
def test_residual_is_the_row_difference_at_every_bump_position(doc):
    data = forward_data(operator_from_dict(doc), 10)
    for m in range(1, data.n_max + 1):
        for k in {0, m - 1}:
            polys = list(data.polys)
            polys[m] = bump(polys[m], k)
            assert residual_rows_checked(EigenSystem(data.lambdas, polys)), (m, k)


def test_reconstruct_verifies_every_degree_before_returning(corpus):
    """The operator `reconstruct` returns has passed the symbolic
    eigen-equation at every prescribed degree."""
    for name, op in corpus:
        data = forward_data(op, 10)
        for order in sorted({op.order, data.n_max - 1}):
            checked = []

            def spy(candidate, p, value):
                passed = is_eigenpair(candidate, p, value)
                checked.append((candidate, p, value, passed))
                return passed

            with patch.object(inverse, "is_eigenpair", spy):
                found = reconstruct(data, order)
            assert found == op, (name, order)
            verified = {
                (p, value)
                for candidate, p, value, passed in checked
                if candidate is found and passed
            }
            assert verified == set(zip(data.polys, data.lambdas)), (name, order)
