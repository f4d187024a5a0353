"""Exact scalar arithmetic: Gaussian rationals, factorials, binomials.

Every number in this package is a :class:`GaussianRational`, a complex number
whose real and imaginary parts are arbitrary-precision rationals.  All
arithmetic is exact; no floating point is used anywhere.

A scalar is stored as three integers, (p + q*i)/d with d > 0 and
gcd(p, q, d) = 1: both parts over one common denominator.  Every value has
exactly one stored form, so equality and hashing compare the triples, and an
arithmetic result is reduced once, by one gcd of its three integers.  Two
`Fraction` parts would reduce every partial product and sum on its own: a
complex multiply would run four `Fraction` multiplies and two adds, each
with its own gcds.  The parts are reduced on their own only where a reader
needs them: `format_scalar` and the `re` / `im` properties.

`dot` fuses a sum of products, the inner loop of the delta recursion, the
recurrence fit and the polynomial product, into one reduction per sum: each
product stays unreduced over its own denominator and is added to running
sums over a running common denominator, at most one gcd per term, and the
total is reduced once.  A chain of `+` and `*` would reduce every product
and every partial sum.

`dot_over` is the eigenpolynomial recursion's step, a sum of products over
a difference of eigenvalues, with one reduction per coefficient.  The
divisor is not reduced first: its gcd would be one more reduction, and the
final one cancels whatever it shares with the sum anyway.  `dot` followed
by `-` and `/` would reduce the sum, the difference and the quotient.
"""
from __future__ import annotations

import math
import re as _re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ParseError

_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?\Z")
_gcd = math.gcd
_new = object.__new__


class GaussianRational:
    """Complex number (p + q*i)/d with integers p, q, d, d > 0 and
    gcd(p, q, d) = 1.

    Immutable and hashable; equality is componentwise.  Mixed arithmetic with
    `int` and `Fraction` is supported.  Floats are rejected outright so that
    no inexact value can enter a computation.  `re` and `im` give the parts
    as reduced `Fraction`s.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, float) or isinstance(im, float):
            raise DomainError("floating-point input is not allowed; use int, Fraction or a string")
        re, im = Fraction(re), Fraction(im)
        b, e = re.denominator, im.denominator
        # over lcm(b, e) the triple is reduced: each prime of the lcm divides,
        # to the lcm's full power, the denominator of a part whose numerator
        # it does not divide
        d = b // _gcd(b, e) * e
        self._p = re.numerator * (d // b)
        self._q = im.numerator * (d // e)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._q, self._d)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._p, self._q, self._d, o._p, o._q, o._d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(self._p, self._q, self._d, -o._p, -o._q, o._d)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return _sum(o._p, o._q, o._d, -self._p, -self._q, self._d)

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o._p, o._q, o._d
        if q1 and q2:
            return _reduced(p1 * p2 - q1 * q2, p1 * q2 + q1 * p2, d1 * d2)
        if q1:
            p1, q1, d1, p2, q2, d2 = p2, q2, d2, p1, q1, d1
        # a real factor p1/d1: cancel p1 against d2 and d1 against (p2, q2),
        # as Fraction does; the product of what is left is already reduced
        g = _gcd(p1, d2)
        if g > 1:
            p1 //= g
            d2 //= g
        g = _gcd(d1, p2, q2)
        if g > 1:
            d1 //= g
            p2 //= g
            q2 //= g
        return _exact(p1 * p2, p1 * q2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        p1, q1, d1 = self._p, self._q, self._d
        p2, q2, d2 = o._p, o._q, o._d
        if not p2 and not q2:
            raise ZeroDivisionError("division by zero scalar")
        if not q2:
            # a real divisor: multiply by d2/p2 with the cancellations of
            # __mul__, the sign moved to the numerator
            g = _gcd(p2, p1, q1)
            if g > 1:
                p2 //= g
                p1 //= g
                q1 //= g
            g = _gcd(d2, d1)
            if g > 1:
                d2 //= g
                d1 //= g
            if p2 < 0:
                p2, d2 = -p2, -d2
            return _exact(p1 * d2, q1 * d2, d1 * p2)
        # (p1 + q1 i) (p2 - q2 i) d2 / (d1 (p2^2 + q2^2))
        return _reduced(
            (p1 * p2 + q1 * q2) * d2,
            (q1 * p2 - p1 * q2) * d2,
            d1 * (p2 * p2 + q2 * q2),
        )

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return _exact(-self._p, -self._q, self._d)

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
        return _exact(self._p, -self._q, self._d)

    # -- comparisons / hashing --------------------------------------------

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._p == o._p and self._q == o._q and self._d == o._d

    def __hash__(self):
        return hash((self._p, self._q, self._d))

    def __bool__(self):
        return bool(self._p or self._q)

    # -- display -----------------------------------------------------------

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"GaussianRational('{format_scalar(self)}')"


def _exact(p, q, d):
    """The scalar (p + q*i)/d; the triple is already reduced with d > 0."""
    value = _new(GaussianRational)
    value._p = p
    value._q = q
    value._d = d
    return value


def _reduced(p, q, d):
    """The scalar (p + q*i)/d for d > 0, divided by gcd(p, q, d)."""
    g = _gcd(d, p, q)
    if g != 1:
        p //= g
        q //= g
        d //= g
    return _exact(p, q, d)


def _sum(p1, q1, d1, p2, q2, d2):
    """(p1 + q1 i)/d1 + (p2 + q2 i)/d2 for two reduced triples.

    As in Fraction's addition, only a factor of g = gcd(d1, d2) can cancel
    from the sum over lcm(d1, d2): no prime of d1/g divides both parts of
    p1 * d2/g + p2 * d1/g (or of its q counterpart), since it divides neither
    d2/g nor both of p1 and q1; likewise for d2/g.
    """
    if d1 == d2:
        return _reduced(p1 + p2, q1 + q2, d1)
    g = _gcd(d1, d2)
    if g == 1:
        return _exact(p1 * d2 + p2 * d1, q1 * d2 + q2 * d1, d1 * d2)
    s, t = d1 // g, d2 // g
    p = p1 * t + p2 * s
    q = q1 * t + q2 * s
    g = _gcd(g, p, q)
    if g == 1:
        return _exact(p, q, s * d2)
    return _exact(p // g, q // g, s * (d2 // g))


def _accumulate(pairs):
    """(P, Q, D) with (P + Q*i)/D the sum of a * b over `pairs`, unreduced.

    Each product is kept unreduced, (p + q*i)/(d1 d2), and added to running
    sums (P, Q) over a running common denominator D, with at most one gcd of
    D with the product's denominator per term.  Terms with a zero factor are
    skipped, so a sum of zero terms is (0, 0, 1).
    """
    p = q = 0
    d = 1
    for a, b in pairs:
        if a.__class__ is not GaussianRational:
            a = _operand(a)
        if b.__class__ is not GaussianRational:
            b = _operand(b)
        p1, q1, p2, q2 = a._p, a._q, b._p, b._q
        if q1:
            if q2:
                tp, tq = p1 * p2 - q1 * q2, p1 * q2 + q1 * p2
            elif p2:
                tp, tq = p1 * p2, q1 * p2
            else:
                continue
        elif not p1:
            continue
        elif q2:
            tp, tq = p1 * p2, p1 * q2
        elif p2:
            tp, tq = p1 * p2, 0
        else:
            continue
        e = a._d * b._d
        if e == d:
            p += tp
            q += tq
        elif d == 1:
            p, q, d = p * e + tp, q * e + tq, e
        else:
            g = _gcd(d, e)
            if g > 1:
                e //= g
                p, q = p * e + tp * (d // g), q * e + tq * (d // g)
            else:
                p, q = p * e + tp * d, q * e + tq * d
            d *= e
    return p, q, d


def dot(pairs) -> GaussianRational:
    """The sum of a * b over `pairs` of scalars, ints or Fractions, reduced
    once, where a chain of `+` would reduce after every term."""
    return _reduced(*_accumulate(pairs))


def dot_over(pairs, top, low) -> GaussianRational:
    """dot(pairs) / (top - low), reduced once.

    The divisor is never reduced on its own: from the triples of `top` and
    `low` it is (u_p + u_q*i)/(d_top d_low), and the unreduced sum (P, Q, D)
    times its inverse goes through one `_reduced`.  A real divisor moves its
    sign to the numerator; a non-real one is multiplied by its conjugate.
    A sum of zero terms returns ZERO with no division.
    """
    if top.__class__ is not GaussianRational:
        top = _operand(top)
    if low.__class__ is not GaussianRational:
        low = _operand(low)
    p, q, d = _accumulate(pairs)
    d_top, d_low = top._d, low._d
    u_p = top._p * d_low - low._p * d_top
    u_q = top._q * d_low - low._q * d_top
    if not (u_p or u_q):
        raise ZeroDivisionError("division by zero scalar")
    if not (p or q):
        return ZERO
    e = d_top * d_low
    if not u_q:
        if u_p < 0:
            u_p, e = -u_p, -e
        # (P + Q i) e / (D u_p)
        return _reduced(p * e, q * e, d * u_p)
    # (P + Q i) (u_p - u_q i) e / (D (u_p^2 + u_q^2))
    return _reduced(
        (p * u_p + q * u_q) * e,
        (q * u_p - p * u_q) * e,
        d * (u_p * u_p + u_q * u_q),
    )


def _operand(value):
    o = _coerce(value)
    if o is None:
        raise TypeError(f"cannot compute exactly with {type(value).__name__}")
    return o


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return _exact(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _exact(value.numerator, 0, value.denominator)
    return None


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def scalar(value) -> GaussianRational:
    """Coerce `value` (GaussianRational, Fraction, int or string) to a scalar."""
    result = _coerce(value)
    if result is not None:
        return result
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


def _parse_rational(text: str) -> tuple[int, int]:
    """(numerator, denominator) of "p/q" or "p", unreduced; denominator > 0."""
    if not _RATIONAL_RE.match(text):
        raise ParseError(f"malformed rational {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return parse_int(num), 1
    denominator = parse_int(den)
    if not denominator:
        raise ParseError(f"zero denominator in {text!r}")
    return parse_int(num), denominator


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
        p, d = _parse_rational(s)
        return _reduced(p, 0, d)
    head = s[:-1]
    if head.endswith("*"):
        head = head[:-1]
    # the rightmost sign past the first character starts the imaginary part,
    # anything before it is the real part.  If that sign follows no digit,
    # the real part is malformed, as is the imaginary part of any split
    # further left, which would hold that sign
    split = max(head.rfind("+"), head.rfind("-"))
    if split <= 0:
        re_text, im_text = "0", head
    else:
        re_text, im_text = head[:split], head[split:]
    if im_text in ("", "+"):
        im_text = "1"
    elif im_text == "-":
        im_text = "-1"
    a, b = _parse_rational(re_text)
    c, e = _parse_rational(im_text)
    if b == e:
        return _reduced(a, c, b)
    return _reduced(a * e, c * b, b * e)


def format_scalar(value: GaussianRational) -> str:
    """Canonical textual form: reduced fractions, sign on the numerator."""
    p, q, d = value._p, value._q, value._d
    if not q:
        # gcd(p, d) = gcd(p, 0, d) = 1: the real part is already reduced
        return _ratio_text(p, d)
    # no prime divides all of p, q and d, so gcd(p*q, d) is the product of
    # gcd(p, d) and gcd(q, d): one gcd settles both parts (and for p = 0,
    # gcd(q, d) = 1)
    d_re = d_im = d
    g = _gcd(p * q, d) if p else 1
    if g > 1:
        g_re = _gcd(p, g)
        g_im = g // g_re
        p, d_re = p // g_re, d // g_re
        q, d_im = q // g_im, d // g_im
    im_part = _ratio_text(-q if q < 0 else q, d_im) + "*i"
    if not p:
        return "-" + im_part if q < 0 else im_part
    return _ratio_text(p, d_re) + ("+" if q > 0 else "-") + im_part


def _ratio_text(numerator: int, denominator: int) -> str:
    """The text of the reduced fraction numerator/denominator, of any size.

    str(int) refuses more than sys.get_int_max_str_digits() digits; Decimal
    renders an int of any size exactly, without touching that limit.
    """
    try:
        if denominator == 1:
            return str(numerator)
        return f"{numerator}/{denominator}"
    except ValueError:
        if denominator == 1:
            return str(Decimal(numerator))
        return f"{Decimal(numerator)}/{Decimal(denominator)}"


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
