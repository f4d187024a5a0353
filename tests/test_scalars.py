from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bochner import (
    DomainError,
    GaussianRational,
    ParseError,
    format_scalar,
    parse_scalar,
    scalar,
)
from bochner.scalars import ONE, ZERO, comb, factorial


def test_binom_basic():
    assert comb(5, 2) == 10
    assert comb(7, 0) == 1
    assert comb(6, 6) == 1


def test_binom_zero_convention():
    assert comb(2, 5) == 0
    assert comb(4, -1) == 0


def test_binom_negative_row_rejected():
    with pytest.raises(DomainError):
        comb(-1, 0)
    with pytest.raises(DomainError):
        comb(-3, 1)


def test_factorial():
    assert factorial(0) == 1
    assert factorial(6) == 720
    with pytest.raises(DomainError):
        factorial(-2)


def test_float_rejected():
    with pytest.raises(DomainError):
        GaussianRational(0.5)
    with pytest.raises(DomainError):
        scalar(1.25)


def test_arithmetic_basics():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    w = GaussianRational(2, 1)
    assert z + w == GaussianRational(Fraction(5, 2), Fraction(1, 4))
    assert z - w == GaussianRational(Fraction(-3, 2), Fraction(-7, 4))
    assert z * w == GaussianRational(Fraction(7, 4), -1)
    assert (z / w) * w == z
    assert -z == GaussianRational(Fraction(-1, 2), Fraction(3, 4))
    assert z * z.conjugate() == GaussianRational(Fraction(13, 16))
    assert z ** 0 == ONE and z ** 1 == z and z ** 2 == z * z


def test_mixed_arithmetic_with_int_and_fraction():
    z = GaussianRational(1, 1)
    assert 2 * z == GaussianRational(2, 2)
    assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 1 - z == GaussianRational(0, -1)
    assert Fraction(1, 2) / GaussianRational(0, 1) == GaussianRational(0, Fraction(-1, 2))


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", GaussianRational(3)),
        ("-7/2", GaussianRational(Fraction(-7, 2))),
        ("0", ZERO),
        ("i", GaussianRational(0, 1)),
        ("-i", GaussianRational(0, -1)),
        ("2*i", GaussianRational(0, 2)),
        ("-2/3*i", GaussianRational(0, Fraction(-2, 3))),
        ("1/2+3/4*i", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4*i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("-1/2+i", GaussianRational(Fraction(-1, 2), 1)),
        (" 5 / 6 ", GaussianRational(Fraction(5, 6))),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["", "abc", "1//2", "1/0", "1.5", "+-3*i", "2+2", "i*i"])
def test_parse_scalar_rejects(text):
    with pytest.raises(ParseError):
        parse_scalar(text)


@pytest.mark.parametrize(
    "value",
    [
        Fraction(7**6000, 3),
        Fraction(-2, 5**7000),
        GaussianRational(Fraction(1, 3), -(11**4500)),
        GaussianRational(0, Fraction(3**9000, 2**20000)),
    ],
)
def test_parse_format_round_trip_past_int_str_digit_limit(value):
    z = scalar(value)
    text = format_scalar(z)
    assert len(text) > 4300
    assert parse_scalar(text) == z


def test_long_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_scalar("1" * 5000 + "/0")
    with pytest.raises(ParseError):
        parse_scalar("1/" + "0" * 5000)


def test_format_is_canonical():
    assert format_scalar(GaussianRational(Fraction(2, 4))) == "1/2"
    assert format_scalar(GaussianRational(0, Fraction(-3, 4))) == "-3/4*i"
    assert format_scalar(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4*i"
    assert format_scalar(ZERO) == "0"


rationals = st.fractions(
    min_value=-(2**127), max_value=2**127, max_denominator=2**127
)
scalars = st.builds(GaussianRational, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(scalars, scalars)
def test_division_inverts_multiplication(a, b):
    if b:
        assert (a / b) * b == a


@given(scalars)
def test_parse_format_round_trip(z):
    assert parse_scalar(format_scalar(z)) == z


# Scalars of each shape the arithmetic branches on: real-only, purely
# imaginary and complex.  `scalars` above almost never draws im == 0.
gaussians = st.one_of(
    st.builds(GaussianRational, rationals),
    st.builds(GaussianRational, st.just(0), rationals),
    scalars,
)
operands = st.one_of(gaussians, st.integers(-(2**70), 2**70), rationals)


def parts(value):
    if isinstance(value, GaussianRational):
        return value.re, value.im
    return Fraction(value), Fraction(0)


def assert_parts(result, re, im):
    assert isinstance(result, GaussianRational)
    assert type(result.re) is Fraction and type(result.im) is Fraction
    assert (result.re, result.im) == (re, im)


@given(gaussians, operands)
def test_arithmetic_matches_componentwise_reference(a, b):
    (ar, ai), (br, bi) = parts(a), parts(b)
    assert_parts(a + b, ar + br, ai + bi)
    assert_parts(b + a, ar + br, ai + bi)
    assert_parts(a - b, ar - br, ai - bi)
    assert_parts(b - a, br - ar, bi - ai)
    assert_parts(a * b, ar * br - ai * bi, ar * bi + ai * br)
    assert_parts(b * a, ar * br - ai * bi, ar * bi + ai * br)
    norm = br * br + bi * bi
    if norm:
        assert_parts(a / b, (ar * br + ai * bi) / norm, (ai * br - ar * bi) / norm)
