from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bochner import (
    BochnerOperator,
    DegenerateSpectrum,
    DomainError,
    GaussianRational,
    Poly,
    X,
    apply_operator,
    deltas_from_operator,
    derivative,
    eigensystem,
    hermite_operator,
    is_eigenpair,
    laguerre_operator,
    normalize,
)
from bochner.scalars import ZERO
from bochner.spectral import check_spectrum
from conftest import (
    LARGE_PRIME,
    NEAR_MISSES,
    apply_operator_by_poly_chain,
    bochner_operators,
    dense_operators,
    is_eigenpair_by_poly_chain,
    small_scalars as complex_scalars,
)


def test_zero_poly_sentinel():
    zero = Poly()
    assert zero.degree is None
    assert not zero
    assert zero == Poly([0, 0, 0])
    assert str(zero) == "0"


def test_trailing_zeros_stripped():
    p = Poly([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coeffs == (GaussianRational(1), GaussianRational(2))


def test_coeff_out_of_range_is_zero():
    p = Poly([3, 0, 1])
    assert p.coeff(5) == ZERO
    assert p.coeff(-1) == ZERO
    assert p.coeff(2) == 1


def test_monomial_and_times_x():
    assert Poly.monomial(3, Fraction(1, 2)) == Poly([0, 0, 0, Fraction(1, 2)])
    assert Poly([1, 2]).times_x() == Poly([0, 1, 2])
    with pytest.raises(DomainError):
        Poly.monomial(-1)


def test_arithmetic():
    p = Poly([1, 0, 1])
    q = Poly([0, 2])
    assert p + q == Poly([1, 2, 1])
    assert p - p == Poly()
    assert p * q == Poly([0, 2, 0, 2])
    assert 3 * q == Poly([0, 6])
    assert Fraction(1, 2) * p == Poly([Fraction(1, 2), 0, Fraction(1, 2)])
    assert (p + (-p)) == Poly()


def test_is_monic():
    assert X.is_monic()
    assert not Poly([2, 2]).is_monic()
    assert not Poly().is_monic()


def test_derivative_examples():
    cube = Poly.monomial(3)
    assert derivative(cube, 1) == Poly([0, 0, 3])
    assert derivative(cube, 0) == cube
    assert derivative(Poly([Fraction(-1, 2), 0, 1]), 2) == Poly([2])
    assert derivative(cube, 4) == Poly()
    with pytest.raises(DomainError):
        derivative(cube, -1)


def test_apply_operator_hermite():
    hermite = hermite_operator()
    p = Poly([Fraction(-1, 2), 0, 1])
    assert apply_operator(hermite, p) == Poly([2, 0, -4])
    assert apply_operator(hermite, p) == -4 * p


def test_apply_operator_constant_annihilated():
    assert apply_operator(hermite_operator(), Poly([1])) == Poly()


def test_apply_operator_laguerre():
    laguerre = laguerre_operator(0)
    p = Poly([-1, 1])
    assert apply_operator(laguerre, p) == Poly([1, -1])
    assert apply_operator(laguerre, p) == -1 * p


def test_is_eigenpair_examples():
    hermite = hermite_operator()
    p = Poly([Fraction(-1, 2), 0, 1])
    assert is_eigenpair(hermite, p, -4)
    assert not is_eigenpair(hermite, p, -2)
    assert is_eigenpair(hermite, Poly(), GaussianRational(5, 7))


small_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)
small_scalars = st.builds(GaussianRational, small_rationals, small_rationals)
polys = st.builds(Poly, st.lists(small_scalars, max_size=21))


@given(polys, st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=60)
def test_derivative_composes(p, a, b):
    assert derivative(derivative(p, a), b) == derivative(p, a + b)


@given(polys, polys, small_scalars, small_scalars)
@settings(max_examples=40)
def test_apply_operator_is_linear(p, q, a, b):
    op = laguerre_operator(Fraction(1, 3))
    left = apply_operator(op, a * p + b * q)
    right = a * apply_operator(op, p) + b * apply_operator(op, q)
    assert left == right


@given(polys)
@settings(max_examples=40)
def test_degree_never_increases(p):
    op = hermite_operator()
    image = apply_operator(op, p)
    if p.degree is None:
        assert image.degree is None
    else:
        assert image.degree is None or image.degree <= p.degree


# a_0 = 5/2 - i and a non-real a_3, so every kind of term is present
SHIFTED = BochnerOperator(
    [[GaussianRational(Fraction(5, 2), -1)], [1, -3], [2, 0, 1], [0, 0, 1, GaussianRational(1, 1)]]
)
short_polys = st.lists(complex_scalars, max_size=10).map(Poly)


@given(bochner_operators(), short_polys)
@example(SHIFTED, Poly())
@example(SHIFTED, Poly([GaussianRational(0, 3)]))
@example(SHIFTED, Poly([1, 2, 3, 4]))
@settings(max_examples=150, deadline=None)
def test_apply_operator_matches_poly_chain(op, p):
    # scalars compare by their stored triples, so an unreduced coefficient
    # or an untrimmed zero differs from the reference
    assert apply_operator(op, p) == apply_operator_by_poly_chain(op, p)


@given(bochner_operators(), short_polys, complex_scalars)
@example(SHIFTED, Poly(), GaussianRational(3, -1))
@example(SHIFTED, Poly([7]), GaussianRational(Fraction(5, 2), -1))
@settings(max_examples=150, deadline=None)
def test_is_eigenpair_matches_poly_chain(op, p, value):
    assert is_eigenpair(op, p, value) == is_eigenpair_by_poly_chain(op, p, value)


def eigenpair(op, n):
    """(P_m, lambda_m) of the full operator for the largest m <= n whose
    spectrum lambda_0..lambda_m is usable; m = 0 always is."""
    normalized, shift = normalize(op)
    table = deltas_from_operator(normalized, n)
    lams = [table.value(m, 0) for m in range(n + 1)]
    while n > 0:
        try:
            check_spectrum(lams[: n + 1])
            break
        except DegenerateSpectrum:
            n -= 1
    system = eigensystem(deltas_from_operator(normalized, n))
    return system.polys[n], system.lambdas[n] + shift


@given(bochner_operators(), st.integers(0, 9))
@example(SHIFTED, 0)
@example(SHIFTED, 9)
@settings(max_examples=100, deadline=None)
def test_is_eigenpair_holds_exactly_for_true_pairs(op, n):
    p, lam = eigenpair(op, n)
    assert is_eigenpair(op, p, lam)
    assert is_eigenpair_by_poly_chain(op, p, lam)
    assert not is_eigenpair(op, p, lam + 1)
    assert not is_eigenpair_by_poly_chain(op, p, lam + 1)


PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


@st.composite
def coprime_polys(draw):
    """Polynomials of up to 16 coefficients over pairwise coprime
    denominators, the lcm of which is their product; about half of them
    non-real."""
    dens = draw(st.permutations(PRIMES))[: draw(st.integers(0, len(PRIMES)))]
    numerators = st.integers(-(10**12), 10**12)
    coeffs = []
    for den in dens:
        im = Fraction(draw(numerators), den) if draw(st.booleans()) else 0
        coeffs.append(GaussianRational(Fraction(draw(numerators), den), im))
    return Poly(coeffs)


@given(dense_operators(), coprime_polys())
@settings(max_examples=60, deadline=None)
def test_apply_operator_matches_poly_chain_on_dense_operators(op, p):
    assert apply_operator(op, p) == apply_operator_by_poly_chain(op, p)


@given(dense_operators(), coprime_polys(), complex_scalars)
@settings(max_examples=60, deadline=None)
def test_is_eigenpair_matches_poly_chain_on_dense_operators(op, p, value):
    assert is_eigenpair(op, p, value) == is_eigenpair_by_poly_chain(op, p, value)


def denominators(values):
    return {part.denominator for value in values for part in (value.re, value.im)}


@given(dense_operators() | bochner_operators(), st.integers(1, 9), st.data())
@settings(max_examples=40, deadline=None)
def test_is_eigenpair_reports_a_near_miss(op, n, data):
    # P_m + c x^k with c = 1/q or i/q and k < m: L leaves
    # (lambda_k - lambda_m) c x^k and lower terms, so the pair fails in the
    # last place it can, and for a real operator only in the part c has
    p, lam = eigenpair(op, n)
    assume(p.degree)
    q = LARGE_PRIME
    assume(all(d % q for d in denominators(p.coeffs)))
    k = data.draw(st.integers(0, p.degree - 1))
    shift = data.draw(st.sampled_from(NEAR_MISSES))
    coeffs = list(p.coeffs)
    coeffs[k] = coeffs[k] + shift
    near = Poly(coeffs)
    assert is_eigenpair(op, p, lam)
    assert not is_eigenpair(op, near, lam)
    assert not is_eigenpair_by_poly_chain(op, near, lam)
    residual = apply_operator(op, near) - lam * near
    assert residual and residual == apply_operator_by_poly_chain(op, near) - lam * near
