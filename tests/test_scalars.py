import math
import re
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
from bochner.scalars import ONE, ZERO, comb, dot, factorial, from_parts, lift


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


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", "1+2*i", "nan"])
def test_constructor_refuses_text(text):
    # text has one grammar, parse_scalar's, and the error points there
    for parts in ((text,), (0, text)):
        with pytest.raises(DomainError, match="parse_scalar"):
            GaussianRational(*parts)


def test_arithmetic_basics():
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    w = GaussianRational(2, 1)
    assert z + w == GaussianRational(Fraction(5, 2), Fraction(1, 4))
    assert z - w == GaussianRational(Fraction(-3, 2), Fraction(-7, 4))
    assert z * w == GaussianRational(Fraction(7, 4), -1)
    assert (z / w) * w == z
    assert -z == GaussianRational(Fraction(-1, 2), Fraction(3, 4))


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


@pytest.mark.parametrize(
    "text", ["", "abc", "1//2", "1/0", "1.5", "+-3*i", "2+2", "i*i", "1 2", "1\xa02", "١/٢+٣*i"]
)
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


def reference_rational(text):
    if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", text):
        raise ParseError(text)
    return Fraction(text)  # ZeroDivisionError for a zero denominator


def reference_scalar(text):
    """The scalar grammar by a plain scan: the imaginary part starts at the
    rightmost sign that follows a digit, and no two digits stand either side
    of whitespace."""
    pieces = text.split()
    if any(a[-1] in "0123456789" and b[0] in "0123456789" for a, b in zip(pieces, pieces[1:])):
        raise ParseError(text)
    s = "".join(pieces)
    if not s.endswith("i"):
        return GaussianRational(reference_rational(s))
    head = s[:-1].removesuffix("*")
    split = next(
        (k for k in range(len(head) - 1, 0, -1) if head[k] in "+-" and head[k - 1].isdigit()),
        0,
    )
    re_text, im_text = (head[:split], head[split:]) if split else ("0", head)
    im_text = {"": "1", "+": "1", "-": "-1"}.get(im_text, im_text)
    return GaussianRational(reference_rational(re_text), reference_rational(im_text))


# "²" is a digit to str.isdigit but not to the grammar, nor is the decimal
# digit "١"; "\xa0" is whitespace to str.split()
@given(st.text(alphabet="0123456789/+-*i ²١\xa0", max_size=14))
def test_parse_matches_reference_grammar(text):
    try:
        expected = reference_scalar(text)
    except (ParseError, ZeroDivisionError):
        with pytest.raises(ParseError):
            parse_scalar(text)
    else:
        assert parse_scalar(text) == expected


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
    # the stored form is the one form of that value: equal to, and hashed as,
    # the scalar built from the reduced parts
    canonical = GaussianRational(re, im)
    assert result == canonical and hash(result) == hash(canonical)


def quotient(x, y):
    (xr, xi), (yr, yi) = x, y
    norm = yr * yr + yi * yi
    return (xr * yr + xi * yi) / norm, (xi * yr - xr * yi) / norm


@given(gaussians, operands, rationals.filter(bool))
def test_arithmetic_matches_componentwise_reference(a, b, r):
    (ar, ai), (br, bi) = parts(a), parts(b)
    assert_parts(a + b, ar + br, ai + bi)
    assert_parts(b + a, ar + br, ai + bi)
    assert_parts(a - b, ar - br, ai - bi)
    assert_parts(b - a, br - ar, bi - ai)
    assert_parts(a * b, ar * br - ai * bi, ar * bi + ai * br)
    assert_parts(b * a, ar * br - ai * bi, ar * bi + ai * br)
    if br or bi:
        assert_parts(a / b, *quotient((ar, ai), (br, bi)))
    if a:
        assert_parts(b / a, *quotient((br, bi), (ar, ai)))
    assert bool(a) is bool(ar or ai)
    assert_parts(-a, -ar, -ai)
    # negative reals, as a scalar and as a Fraction, and a purely imaginary value
    for divisor in (GaussianRational(-abs(r)), -abs(r), GaussianRational(0, r)):
        assert_parts(a / divisor, *quotient((ar, ai), parts(divisor)))


def test_one_stored_form_for_unreduced_input():
    z = GaussianRational(Fraction(2, 4), Fraction(6, 8))
    assert z == GaussianRational(Fraction(1, 2), Fraction(3, 4)) == parse_scalar("2/4+6/8*i")
    assert hash(z) == hash(parse_scalar("2/4+6/8*i"))
    assert hash(z - z) == hash(ZERO) and z - z == ZERO == 0


@given(rationals, rationals, st.integers(1, 2**20), gaussians)
def test_equal_values_compare_and_hash_equal(re, im, k, w):
    z = GaussianRational(re, im)
    unreduced = (
        f"{re.numerator * k}/{re.denominator * k}"
        f"{'-' if im < 0 else '+'}{abs(im.numerator) * k}/{im.denominator * k}*i"
    )
    routes = [
        GaussianRational(z.re, z.im),
        parse_scalar(format_scalar(z)),
        parse_scalar(unreduced),
        eval(repr(z), {"scalar": scalar}),
        (z + w) - w,
        (z - w) + w,
        -(-z),
    ]
    if w:
        routes.append((z * w) / w)
    for value in routes:
        assert value == z and z == value
        assert hash(value) == hash(z)
    real = im == 0
    assert (z == re) is real and (re == z) is real
    assert z != re + 1 and re + 1 != z
    n = re.numerator
    assert GaussianRational(n) == n and n == GaussianRational(n)
    assert (GaussianRational(n, im) == n) is real and (n == GaussianRational(n, im)) is real


# Factors over one family of denominators: all equal, pairwise coprime, or
# sharing a common factor, each drawn as a real, purely imaginary or complex
# scalar, an int or a Fraction.
DENOMINATORS = {
    "equal": [12] * 6,
    "coprime": [1, 2, 3, 5, 7, 11],
    "shared": [6, 10, 15, 12, 18, 2**40 * 3],
}


def draw_factor(draw, dens):
    numerators = st.integers(-(2**70), 2**70)
    p, q = draw(numerators), draw(numerators)
    den = draw(st.sampled_from(dens))
    shape = draw(st.sampled_from(["real", "imaginary", "complex", "int", "fraction"]))
    if shape == "int":
        return p
    if shape == "fraction":
        return Fraction(p, den)
    if shape == "real":
        return GaussianRational(Fraction(p, den))
    if shape == "imaginary":
        return GaussianRational(0, Fraction(q, den))
    return GaussianRational(Fraction(p, den), Fraction(q, draw(st.sampled_from(dens))))


@st.composite
def factor_lists(draw):
    dens = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    size = draw(st.integers(0, 6))
    return [(draw_factor(draw, dens), draw_factor(draw, dens)) for _ in range(size)]


@given(factor_lists())
def test_dot_matches_the_naive_sum(pairs):
    naive = sum((a * b for a, b in pairs), ZERO)
    re, im = parts(naive)
    assert_parts(dot(pairs), re, im)
    assert_parts(dot(iter(pairs)), re, im)
    # a zero factor on either side adds nothing
    assert_parts(dot(pairs + [(ZERO, ONE), (2, 0), (Fraction(0), GaussianRational(0, 1))]), re, im)


def test_dot_of_nothing_is_zero():
    assert_parts(dot([]), Fraction(0), Fraction(0))
    assert dot(()) == 0 and hash(dot(())) == hash(ZERO)


def test_dot_rejects_inexact_factors():
    with pytest.raises(TypeError):
        dot([(ONE, 0.5)])


@st.composite
def lift_cases(draw):
    """Values over one family of denominators, and either no divisors or
    one positive divisor per value from the same family."""
    dens = DENOMINATORS[draw(st.sampled_from(sorted(DENOMINATORS)))]
    values = [draw_factor(draw, dens) for _ in range(draw(st.integers(0, 6)))]
    size = len(values)
    over = draw(st.none() | st.lists(st.sampled_from(dens), min_size=size, max_size=size))
    return values, over


@given(lift_cases())
def test_lift_puts_values_over_the_lcm_of_their_denominators(case):
    values, over = case
    divisors = over or [1] * len(values)
    d, ps, qs = lift(values, over)
    expected = 1
    for value, e in zip(values, divisors):
        re, im = parts(value)
        expected = math.lcm(expected, math.lcm(re.denominator, im.denominator) * e)
    assert d == expected
    assert len(ps) == len(qs) == len(values)
    for value, e, p, q in zip(values, divisors, ps, qs):
        re, im = parts(value)
        assert (Fraction(p, d), Fraction(q, d)) == (re / e, im / e)
        assert_parts(from_parts(p * e, q * e, d), re, im)


def test_lift_of_nothing_is_over_one():
    assert lift([]) == (1, [], [])
    assert lift((), []) == (1, [], [])


def test_lift_examples():
    # the lcm, not the product or the last denominator
    assert lift([Fraction(1, 4), GaussianRational(Fraction(1, 6), Fraction(1, 10)), 3]) == (
        60, [15, 10, 180], [0, 6, 0]
    )
    assert lift([Fraction(1, 2), Fraction(1, 3)], [3, 1]) == (6, [1, 2], [0, 0])
    with pytest.raises(TypeError):
        lift([0.5])


@pytest.mark.parametrize(
    "p,q,d",
    [(0, 0, 7), (6, -4, 8), (-3, 0, 9), (0, 10, 4), (5, 7, 1), (2**80 * 3, 2**81, 2**82 * 9)],
)
def test_from_parts_reduces_once(p, q, d):
    assert_parts(from_parts(p, q, d), Fraction(p, d), Fraction(q, d))
