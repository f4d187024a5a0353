"""Exact scalar arithmetic: Gaussian rationals, factorials, binomials.

Every number in this package is a :class:`GaussianRational`, a complex number
whose real and imaginary parts are arbitrary-precision rationals.  All
arithmetic is exact; no floating point is used anywhere.
"""
from __future__ import annotations

import math
import re as _re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ParseError

_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?\Z")


class GaussianRational:
    """Complex number with rational real and imaginary parts.

    Immutable and hashable; equality is componentwise.  Mixed arithmetic with
    `int` and `Fraction` is supported.  Floats are rejected outright so that
    no inexact value can enter a computation.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise DomainError("floating-point input is not allowed; use int, Fraction or a string")
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _raw(cls, re, im):
        # internal: both arguments already Fractions
        value = object.__new__(cls)
        value.re = re
        value.im = im
        return value

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational._raw(self.re + o.re, _ZERO_FRACTION)
        return GaussianRational._raw(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational._raw(self.re - o.re, _ZERO_FRACTION)
        return GaussianRational._raw(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational._raw(o.re - self.re, _ZERO_FRACTION)
        return GaussianRational._raw(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not self.im and not o.im:
            return GaussianRational._raw(self.re * o.re, _ZERO_FRACTION)
        return GaussianRational._raw(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if not o.re and not o.im:
            raise ZeroDivisionError("division by zero scalar")
        if not self.im and not o.im:
            return GaussianRational._raw(self.re / o.re, _ZERO_FRACTION)
        norm = o.re * o.re + o.im * o.im
        return GaussianRational._raw(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational._raw(-self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self):
        return GaussianRational._raw(self.re, -self.im)

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- display -----------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational('{format_scalar(self)}')"


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational._raw(Fraction(value), _ZERO_FRACTION)
    return None


_ZERO_FRACTION = Fraction(0)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def scalar(value) -> GaussianRational:
    """Coerce `value` (GaussianRational, Fraction, int or string) to a scalar."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise DomainError(f"cannot coerce {type(value).__name__} to an exact scalar")


def parse_int(text: str) -> int:
    """int(text) for a decimal integer string of any length.

    Python's int() refuses strings longer than sys.get_int_max_str_digits();
    Decimal converts them exactly, without touching that process-wide limit.
    """
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def _parse_rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"malformed rational {text!r}")
    num, _, den = text.partition("/")
    denominator = parse_int(den or "1")
    if not denominator:
        raise ParseError(f"zero denominator in {text!r}")
    return Fraction(parse_int(num), denominator)


def parse_scalar(text: str) -> GaussianRational:
    """Parse the textual scalar format.

    Accepted forms: "p/q" or "p" for rationals (sign on the numerator) and
    "a+b*i" / "a-b*i" / "b*i" / "i" / "-i" for complex values, where a and b
    are rationals.  Whitespace is ignored.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty scalar string")
    if not s.endswith("i"):
        return GaussianRational(_parse_rational(s))
    head = s[:-1]
    if head.endswith("*"):
        head = head[:-1]
    # split at the rightmost sign that follows a digit: that sign starts the
    # imaginary part, anything before it is the real part
    split = -1
    for idx in range(len(head) - 1, 0, -1):
        if head[idx] in "+-" and head[idx - 1].isdigit():
            split = idx
            break
    if split == -1:
        re_text, im_text = "0", head
    else:
        re_text, im_text = head[:split], head[split:]
    if im_text in ("", "+"):
        im_text = "1"
    elif im_text == "-":
        im_text = "-1"
    return GaussianRational(_parse_rational(re_text), _parse_rational(im_text))


def format_scalar(value: GaussianRational) -> str:
    """Canonical textual form: reduced fractions, sign on the numerator."""
    if not value.im:
        return _fraction_text(value.re)
    im_abs = -value.im if value.im < 0 else value.im
    im_part = f"{_fraction_text(im_abs)}*i"
    if not value.re:
        return ("-" if value.im < 0 else "") + im_part
    joiner = "+" if value.im > 0 else "-"
    return f"{_fraction_text(value.re)}{joiner}{im_part}"


def _fraction_text(value: Fraction) -> str:
    """str(value) for a Fraction of any size.

    str(int) refuses more than sys.get_int_max_str_digits() digits; Decimal
    renders an int of any size exactly, without touching that limit.
    """
    try:
        return str(value)
    except ValueError:
        numerator = str(Decimal(value.numerator))
        if value.denominator == 1:
            return numerator
        return f"{numerator}/{Decimal(value.denominator)}"


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    """Exact n!, memoized for the lifetime of the process."""
    if n < 0:
        raise DomainError(f"factorial of negative argument {n}")
    return math.factorial(n)


def comb(r: int, s: int) -> int:
    """Integer binomial coefficient with the zero convention.

    C(r, s) = 0 whenever s < 0 or s > r.  Negative r is rejected: the
    convention covers out-of-range column indices, not negative rows.
    """
    if r < 0:
        raise DomainError(f"binomial with negative upper argument {r}")
    if s < 0 or s > r:
        return 0
    return math.comb(r, s)
