from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    ShapiroOperator,
    to_bochner,
)
from bochner import scalars
from bochner.scalars import ZERO
from bochner.serialize import operator_from_dict
from bochner.spectral import check_spectrum
from conftest import (
    INTERIOR_ZERO_COLUMN,
    NEAR_MISSES,
    delta_extend_by_plain_sum,
    dense_operators,
    eigensystem_by_dot_quotient,
    eigensystem_by_plain_arithmetic,
    full_triangle,
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


def test_negative_degree_is_a_domain_error(hermite_table):
    # every route validates its degree once, with the spectrum prefix; the
    # whole-table routes run to the table's depth, which an empty table lacks
    with pytest.raises(DomainError):
        eigensystem(DeltaTable([]))
    with pytest.raises(DomainError):
        eigenpoly_coeff_det(DeltaTable([]))
    with pytest.raises(DomainError):
        eigenpoly_recursive(hermite_table, -1)


def test_coeff_det_hermite():
    by_det = eigenpoly_coeff_det(deltas_from_operator(hermite_operator(), 2))
    assert by_det.coeff(2, 0) == GaussianRational(Fraction(-1, 2))


def test_coeff_det_single_entry():
    # 1 x 1 leading minor: delta(5, 1) / (lambda_5 - lambda_4) = 25 / (-1)
    by_det = eigenpoly_coeff_det(deltas_from_operator(laguerre_operator(0), 5))
    assert by_det.coeff(5, 4) == GaussianRational(-25)
    assert by_det.coeff(3, 2) == GaussianRational(-9)


def test_coeff_det_bounds():
    # the chain of minors starts at det(H_0) = 1, the monic top, and stops at
    # degree n: every polynomial is monic of its degree, nothing lies above,
    # and the family ends at the table's depth
    by_det = eigenpoly_coeff_det(deltas_from_operator(hermite_operator(), 3))
    assert by_det.n_max == 3
    for n in range(4):
        assert by_det.polys[n].degree == n and by_det.coeff(n, n) == GaussianRational(1)
        assert by_det.coeff(n, n + 1) == ZERO


def test_det_matches_recursion_on_random_operators():
    rng = Random(321)
    for _ in range(4):
        op = random_bochner(rng, rng.randint(1, 4), distinct_to=12)
        table = deltas_from_operator(op, 12)
        by_det = eigenpoly_coeff_det(table)
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
    assert delta_extend(hermite_table, 7, 0, 2) == GaussianRational(-14)
    assert delta_extend(hermite_table, 9, 5, 2) == ZERO  # above the order


def test_delta_extend_laguerre(laguerre_table):
    assert delta_extend(laguerre_table, 6, 1, 2) == GaussianRational(36)


def test_delta_extend_matches_forward_rows(hermite_table):
    for n in range(3, 13):
        for k in range(3):
            assert delta_extend(hermite_table, n, k, 2) == hermite_table.value(n, k)


def test_delta_extend_errors(hermite_table):
    with pytest.raises(DomainError):
        delta_extend(hermite_table, 2, 0, 2)  # n within the seed rows
    # a seed shallower than the order: its band is its own depth, 1, which
    # the order, not the seed, says is too shallow
    short = DeltaTable([[0], [1, 1]])
    with pytest.raises(InsufficientData):
        delta_extend(short, 5, 0, 3)


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


def test_eigensystem_convenience():
    system = eigensystem(deltas_from_operator(hermite_operator(), 6))
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
    # an operator's table is read only inside its band, a copy with explicit
    # zeros past the order as a full triangle
    for name, op in corpus:
        table = deltas_from_operator(op, 32)
        full = full_triangle(table)
        assert {len(row) for row in table.rows[op.order :]} == {op.order + 1}
        assert eigensystem(table) == eigensystem(full), name
        table = deltas_from_operator(op, 12)
        by_det = eigenpoly_coeff_det(table).polys[12]
        assert by_det == eigenpoly_coeff_det(full_triangle(table)).polys[12], name


def random_table(rng, n_max, order=None, zero_column=None):
    """Delta rows of random complex entries over a distinct, nonzero
    spectrum, in a band of width `order` or a full triangle, one column
    zeroed."""
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
    return DeltaTable(rows)


def assert_plain_arithmetic(table):
    # scalars compare by their stored triples, so an unreduced or
    # negative-denominator coefficient differs from the reference
    assert eigensystem(table) == eigensystem_by_plain_arithmetic(table, table.n_max)


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
    assert_plain_arithmetic(deltas_from_operator(op, 24))


def test_eigensystem_matches_plain_arithmetic_on_random_tables():
    rng = Random(808)
    for order in (1, 2, 3, 4):
        op = random_bochner(rng, order, distinct_to=14)
        banded = deltas_from_operator(op, 14)
        assert_plain_arithmetic(banded)
        assert_plain_arithmetic(full_triangle(banded))
        assert_plain_arithmetic(random_table(rng, 10, order=order))
        assert_plain_arithmetic(random_table(rng, 10))
        # a zero band column leaves sums with a single term or none
        assert_plain_arithmetic(random_table(rng, 10, order=order, zero_column=1))
        assert_plain_arithmetic(random_table(rng, 10, zero_column=order))


def test_hermite_odd_offset_coefficients_are_zero():
    system = eigensystem(deltas_from_operator(hermite_operator(), 30))
    for n, poly in enumerate(system.polys):
        for i in range(1, n + 1, 2):
            assert poly.coeff(n - i) == ZERO, (n, i)
        for i in range(0, n + 1, 2):
            assert poly.coeff(n - i) != ZERO, (n, i)


# -- the integer kernel against one `dot` over the gap per coefficient -----


def assert_dot_quotient_route(table):
    # scalars compare by their stored triples, so a coefficient the kernel
    # leaves unreduced differs from the reference
    system = eigensystem(table)
    assert system == eigensystem_by_dot_quotient(table, table.n_max)
    assert eigenpoly_recursive(table, table.n_max) == system.polys[-1]


def distinct_spectrum_or_reject(table):
    try:
        check_spectrum([row[0] for row in table.rows])
    except DegenerateSpectrum:
        assume(False)


rationals = st.fractions(min_value=-9, max_value=9, max_denominator=40)


@given(st.sampled_from(["laguerre", "jacobi"]), rationals, rationals, st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_dot_quotient_on_presets(family, alpha, beta, n_max):
    op = laguerre_operator(alpha) if family == "laguerre" else jacobi_operator(alpha, beta)
    table = deltas_from_operator(op, n_max)
    distinct_spectrum_or_reject(table)
    assert_dot_quotient_route(table)


@given(st.lists(small_scalars, min_size=1, max_size=5).filter(lambda c: c[-1]), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_kernel_matches_dot_quotient_on_product_forms(c, n_max):
    # eigenvalues 0, 1, 2, ... and one band column: every step has one term
    table = deltas_from_operator(to_bochner(ShapiroOperator(c)), n_max)
    assert_dot_quotient_route(table)


@given(dense_operators(), st.integers(0, 14))
@settings(max_examples=30, deadline=None)
def test_kernel_matches_dot_quotient_on_dense_operators(op, n_max):
    table = deltas_from_operator(op, n_max)
    distinct_spectrum_or_reject(table)
    assert_dot_quotient_route(table)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_kernel_matches_dot_quotient_on_untagged_tables(data):
    n_max = data.draw(st.integers(0, 9))
    lams = data.draw(
        st.lists(small_scalars.filter(bool), min_size=n_max, max_size=n_max, unique=True)
    )
    rows = [[ZERO]] + [
        [lam] + data.draw(st.lists(small_scalars, min_size=n, max_size=n))
        for n, lam in enumerate(lams, start=1)
    ]
    assert_dot_quotient_route(DeltaTable(rows))


@given(
    st.sampled_from(["hermite", "laguerre", "jacobi", "order3"]),
    st.sampled_from(NEAR_MISSES),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dot_quotient_on_near_miss_tables(family, shift, data):
    """One band entry delta(m, k), k >= 1, moved by 1/q or i/q: the lifted
    band gets the large prime q in its common denominator."""
    op = {
        "hermite": hermite_operator(),
        "laguerre": laguerre_operator(Fraction(7, 3)),
        "jacobi": jacobi_operator(Fraction(5, 2), Fraction(-2, 7)),
        "order3": BochnerOperator(
            [Poly(), Poly([Fraction(1, 2), -3]), Poly([2, 1, Fraction(-1, 3)]), Poly([0, 1, -2, 1])]
        ),
    }[family]
    n_max = 16
    rows = [list(row) for row in deltas_from_operator(op, n_max).rows]
    m = data.draw(st.integers(1, n_max))
    k = data.draw(st.integers(1, len(rows[m]) - 1))
    rows[m][k] += shift
    assert_dot_quotient_route(DeltaTable(rows))


def count_quotients(monkeypatch):
    calls = []
    real = scalars._quotient

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(scalars, "_quotient", counted)
    return calls


@pytest.mark.parametrize(
    "op,steps",
    [
        (hermite_operator(), 0),
        (laguerre_operator(Fraction(7, 3)), 0),
        # every step below the top two has two nonzero terms
        (jacobi_operator(Fraction(5, 2), Fraction(-2, 7)), sum(n - 1 for n in range(2, 21))),
    ],
    ids=["hermite", "laguerre", "jacobi"],
)
def test_kernel_cross_cancels_single_real_terms(monkeypatch, op, steps):
    """A step with one nonzero term on real data takes no `_quotient`: the
    entry and the gap are cancelled against the reduced neighbour."""
    table = deltas_from_operator(op, 20)
    expected = eigensystem_by_dot_quotient(table, 20)
    calls = count_quotients(monkeypatch)
    assert eigensystem(table) == expected
    assert len(calls) == steps


@pytest.mark.parametrize(
    "rows,poly",
    [
        # b(3, 2) = 2 and b(3, 1) = (3 * 2 - 6) / -2 = 0, so b(3, 0) has
        # one nonzero term, delta(2, 2) b(3, 2); b(3, 1) sums two
        ([[0], [-1, 5], [-2, 3, 7], [-3, -2, -6]], [Fraction(-14, 3), 0, 2, 1]),
        # delta(2, 1) = 0, so b(3, 1) = -6 / -2 has one nonzero term and
        # b(3, 0) = (5 * 3 + 7 * 2) / -3 sums two
        ([[0], [-1, 5], [-2, 0, 7], [-3, -2, -6]], [Fraction(-29, 3), 3, 2, 1]),
    ],
    ids=["zero-neighbour", "zero-entry"],
)
def test_kernel_skips_zero_terms(monkeypatch, rows, poly):
    """A term with a zero neighbour or a zero entry is skipped, so a step
    left with one nonzero real term is cross-cancelled: of the three steps
    of P_3 only the one with two nonzero terms takes a quotient."""
    table = DeltaTable(rows)
    expected = eigensystem_by_dot_quotient(table, 3).polys[3]
    calls = count_quotients(monkeypatch)
    assert eigenpoly_recursive(table, 3) == expected == Poly(poly)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "op,kept",
    [
        (hermite_operator(), [2]),
        (laguerre_operator(Fraction(7, 3)), [1]),
        (jacobi_operator(Fraction(5, 2), Fraction(-2, 7)), [1, 2]),
        (operator_from_dict(INTERIOR_ZERO_COLUMN), [2, 3]),
    ],
    ids=["hermite", "laguerre", "jacobi", "interior-zero-column"],
)
def test_lift_band_keeps_the_nonzero_columns(op, kept):
    table = deltas_from_operator(op, 12)
    lams = [row[0] for row in table.rows]
    columns, lam_p, lam_q = scalars.lift_band(table.rows, lams)
    assert [k for k, _, _ in columns] == kept
    # one common denominator: every entry over lambda_1 is the lifted ratio
    lam_1 = scalars.from_parts(lam_p[1], lam_q[1], 1)
    for k, col_p, col_q in columns:
        for m in range(13):
            lifted = scalars.from_parts(col_p[m], col_q[m], 1) / lam_1
            assert lifted == table.value(m, k) / lams[1], (m, k)
    for m in range(13):
        assert scalars.from_parts(lam_p[m], lam_q[m], 1) / lam_1 == lams[m] / lams[1]
