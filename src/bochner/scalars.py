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
delta extension and the delta1 column, into one reduction per sum: each
product stays unreduced over its own denominator and is added to running
sums over a running common denominator, at most one gcd per term, and the
total is reduced once.  A chain of `+` and `*` would reduce every product
and every partial sum.

`descend` is the eigenpolynomial recursion: it runs the whole descent of
one polynomial on integer triples.  `lift_band` puts the band of a delta
table and its spectrum over one common denominator once per table, so the
denominator cancels from every quotient, and the unknowns stay reduced
(p, q, d) integers in local lists.  A step with one term, a real entry and a
real gap cancels those two small integers against the reduced neighbour,
with no gcd of two large numbers; every other step takes one reduction.
`mirror_band` reverses a lifted band, so that `descend` over it runs the
transposed recursion of the inverse connection coefficients of the
recurrence fit; `descend` is the one loop that walks a band.

`lift` puts a list of scalars over the lcm of their denominators, as
Gaussian-integer numerators, and `from_parts` turns such a numerator pair
back into a scalar with one reduction.  The symbolic oracles in
`polynomials` and the delta-table build `operators.deltas_from_operator`
sum integer products between the two, with no gcd per term.
"""
from __future__ import annotations

import math
import re as _re
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, ParseError

# ASCII digits only: \d alone would take any Unicode digit, as int() does
_RATIONAL_RE = _re.compile(r"[+-]?\d+(?:/\d+)?\Z", _re.ASCII)
# whitespace between two digits, which would join two numbers into one;
# \s takes the Unicode whitespace that str.split() takes
_SPLIT_NUMBER_RE = _re.compile(r"[0-9]\s+[0-9]")
_gcd = math.gcd
_new = object.__new__


class GaussianRational:
    """Complex number (p + q*i)/d with integers p, q, d, d > 0 and
    gcd(p, q, d) = 1.

    Immutable and hashable; equality is componentwise.  Mixed arithmetic with
    `int` and `Fraction` is supported.  The constructor takes `int` and
    `Fraction` parts only: floats are refused so that no inexact value can
    enter a computation, and text is read by the one scalar grammar of
    `parse_scalar` (or `scalar`), never here.  `re` and `im` give the parts
    as reduced `Fraction`s.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, re=0, im=0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise DomainError(
                    f"scalar parts must be int or Fraction, got {type(part).__name__};"
                    " parse text with scalar() or parse_scalar()"
                )
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
        return f"scalar('{format_scalar(self)}')"


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


def lift(values, over=None):
    """(D, ps, qs) with values[k] / over[k] = (ps[k] + qs[k]*i)/D.

    `values` are scalars, ints or Fractions, and `over` holds one positive
    int per value, all 1 when omitted.  D is the lcm of d_k * over[k], d_k
    the denominator of values[k]; D = 1 for no values.  A linear combination
    of lifted values is a sum of integer products with no gcd per term;
    `from_parts` reduces a result once.
    """
    values = [v if v.__class__ is GaussianRational else _operand(v) for v in values]
    dens = [v._d for v in values] if over is None else [v._d * e for v, e in zip(values, over)]
    d = math.lcm(*set(dens))
    scales = [d // e for e in dens]
    return (
        d,
        [v._p * s for v, s in zip(values, scales)],
        [v._q * s for v, s in zip(values, scales)],
    )


def from_parts(p: int, q: int, d: int) -> GaussianRational:
    """The scalar (p + q*i)/d for integers p, q and d > 0, reduced once."""
    if not (p or q):
        return ZERO
    return _reduced(p, q, d)


def dot(pairs) -> GaussianRational:
    """The sum of a * b over `pairs` of scalars, ints or Fractions, reduced
    once, where a chain of `+` would reduce after every term."""
    return _reduced(*_accumulate(pairs))


def _quotient(p, q, d, u_p, u_q):
    """The reduced triple of (p + q*i) / (d (u_p + u_q*i)), for d > 0 and a
    nonzero Gaussian integer u_p + u_q*i, with one gcd.

    A real divisor moves its sign to the numerator; a non-real one is
    multiplied by its conjugate.
    """
    if u_q:
        p, q, d = p * u_p + q * u_q, q * u_p - p * u_q, d * (u_p * u_p + u_q * u_q)
    elif u_p < 0:
        p, q, d = -p, -q, -d * u_p
    else:
        d *= u_p
    g = _gcd(d, p, q)
    if g != 1:
        return p // g, q // g, d // g
    return p, q, d


def lift_band(rows, lams):
    """The band of a delta table and its spectrum over one common
    denominator D, read once for every `descend` over them.

    `rows` holds delta rows 0..n (each row m up to its last stored column,
    any rows past n are ignored) and `lams` the eigenvalues lambda_0..lambda_n.
    Returns (columns, lam_p, lam_q) with lambda_m = (lam_p[m] + lam_q[m]*i)/D
    and, for each column k >= 1 of the band that holds a nonzero entry, in
    increasing k, a triple (k, ps, qs) with delta(m, k) = (ps[m] + qs[m]*i)/D;
    entries of rows m < k are 0.
    """
    size = len(lams)
    rows = rows[:size]
    width = max(len(row) for row in rows) - 1
    values = list(lams)
    for k in range(1, width + 1):
        values += [row[k] if k < len(row) else ZERO for row in rows]
    _, ps, qs = lift(values)
    columns = []
    for k in range(1, width + 1):
        col_p, col_q = ps[k * size:(k + 1) * size], qs[k * size:(k + 1) * size]
        if any(col_p) or any(col_q):
            columns.append((k, col_p, col_q))
    return columns, ps[:size], qs[:size]


def mirror_band(band):
    """The band of `lift_band` read from its last row M up: row s of the
    mirror is row M - s, so each kept column (k, ps, qs) becomes
    (k, [0]*k + ps[k:][::-1], [0]*k + qs[k:][::-1]) and the spectrum is
    reversed, lambda'_s = lambda_{M-s}.

    With j' = M - m, the mirror's entry col'_k[j' + k] is delta(m, k), so
    descend(mirror_band(band), M - k)[::-1] solves

        d(m, k) (lambda_k - lambda_m) = sum_{j >= 1} delta(m, j) d(m - j, k)

    upward from d(k, k) = 1: the inverse connection coefficients
    d(k, k), ..., d(M, k), with x^m = sum_k d(m, k) P_k.
    """
    columns, lam_p, lam_q = band
    mirrored = [(k, [0] * k + ps[k:][::-1], [0] * k + qs[k:][::-1]) for k, ps, qs in columns]
    return mirrored, lam_p[::-1], lam_q[::-1]


def descend(band, n: int) -> tuple:
    """The coefficients b(n, 0), ..., b(n, n) = 1 of the monic P_n, by the
    descending recursion

        b(n, j) (lambda_n - lambda_j) = sum_{k >= 1} delta(j + k, k) b(n, j + k)

    over a `lift_band` of rows 0..n whose spectrum has no collision.

    The common denominator D cancels from every quotient, so each step
    divides a sum of Gaussian-integer multiples of reduced triples by the
    Gaussian integer lambda_n - lambda_j, on local integer lists; only the
    output coefficients become scalars.  A term with a zero entry or a zero
    neighbour is skipped, and each coefficient is reduced once.  A step
    with one term, a real entry and a real gap cancels the entry and the
    gap against the neighbour's triple, as `__mul__` does for a real
    factor: the neighbour is reduced, so only what it shares with those
    two small integers can cancel, and no gcd of two large numbers is
    taken.  Every other step is summed over a running common denominator
    and reduced by `_quotient`.
    """
    columns, lam_p, lam_q = band
    ps = [0] * (n + 1)
    qs = [0] * (n + 1)
    ds = [1] * (n + 1)
    ps[n] = 1
    top_p, top_q = lam_p[n], lam_q[n]
    for j in range(n - 1, -1, -1):
        count = 0
        for k, col_p, col_q in columns:
            m = j + k
            if m > n:
                break
            a, c = col_p[m], col_q[m]
            p, q = ps[m], qs[m]
            if not (a or c) or not (p or q):
                continue
            if not count:
                count = 1
                first, a1, c1 = m, a, c
                continue
            if count == 1:
                p1, q1, sd = ps[first], qs[first], ds[first]
                if c1:
                    sp, sq = a1 * p1 - c1 * q1, a1 * q1 + c1 * p1
                else:
                    sp, sq = a1 * p1, a1 * q1
            count += 1
            if c:
                tp, tq = a * p - c * q, a * q + c * p
            else:
                tp, tq = a * p, a * q
            e = ds[m]
            if e == sd:
                sp += tp
                sq += tq
            else:
                g = _gcd(sd, e)
                if g > 1:
                    e //= g
                    s = sd // g
                else:
                    s = sd
                sp, sq, sd = sp * e + tp * s, sq * e + tq * s, sd * e
        if not count:
            continue
        u_p, u_q = top_p - lam_p[j], top_q - lam_q[j]
        if count == 1:
            p, q, d = ps[first], qs[first], ds[first]
            if not (c1 or u_q):
                g = _gcd(a1, u_p)
                if g > 1:
                    a1 //= g
                    u_p //= g
                g = _gcd(a1, d)
                if g > 1:
                    a1 //= g
                    d //= g
                g = _gcd(u_p, p, q)
                if g > 1:
                    u_p //= g
                    p //= g
                    q //= g
                if u_p < 0:
                    a1, u_p = -a1, -u_p
                ps[j], qs[j], ds[j] = a1 * p, a1 * q, d * u_p
                continue
            if c1:
                sp, sq = a1 * p - c1 * q, a1 * q + c1 * p
            else:
                sp, sq = a1 * p, a1 * q
            sd = d
        ps[j], qs[j], ds[j] = _quotient(sp, sq, sd, u_p, u_q)
    return tuple(map(_exact, ps, qs, ds))


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
    are rationals, with ASCII digits.  Whitespace between tokens is
    ignored; whitespace between two digits is refused.
    """
    s = "".join(text.split())
    if not s:
        raise ParseError("empty scalar string")
    if len(s) != len(text) and _SPLIT_NUMBER_RE.search(text):
        raise ParseError(f"whitespace inside a number in {text!r}")
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
