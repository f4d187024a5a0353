"""Dense univariate polynomials over exact scalars.

`apply_operator` is the brute-force oracle for the whole package: it applies
a differential operator symbolically, term by term, so any spectral quantity
computed elsewhere can be checked against it.  It forms each derivative d^i p
of a nonzero a_i and sums, for every power of x, the products
a_{i,j} (d^i p)[m - j] as one fused `dot`, reduced once per coefficient.  It
never reads a delta table, so it stays independent of the delta recursion.
`is_eigenpair` sums the same products with -lambda p[m] added and stops at
the first nonzero coefficient of L p - lambda p.
"""
from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError
from .scalars import GaussianRational, ONE, ZERO, dot, scalar

if TYPE_CHECKING:  # pragma: no cover
    from .operators import BochnerOperator


class Poly:
    """Dense polynomial; coeffs[i] multiplies x^i, trailing zeros stripped.

    The zero polynomial stores no coefficients and has degree None: the
    sentinel never enters index arithmetic by accident.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        buffer = [scalar(c) for c in coeffs]
        while buffer and not buffer[-1]:
            buffer.pop()
        self.coeffs = tuple(buffer)

    @classmethod
    def _raw(cls, coeffs):
        # internal: already-normalized tuple of GaussianRational
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    @classmethod
    def constant(cls, value) -> "Poly":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient=1) -> "Poly":
        if power < 0:
            raise DomainError(f"negative power {power}")
        return cls((0,) * power + (coefficient,))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> GaussianRational:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def times_x(self) -> "Poly":
        if not self.coeffs:
            return self
        return Poly._raw((ZERO,) + self.coeffs)

    def evaluate(self, point) -> GaussianRational:
        value = ZERO
        x = scalar(point)
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for i, c in enumerate(b):
            merged[i] = merged[i] + c
        while merged and not merged[-1]:
            merged.pop()
        return Poly._raw(tuple(merged))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Poly._raw(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            short, long = self.coeffs, other.coeffs
            if len(short) > len(long):
                short, long = long, short
            if not short:
                return Poly._raw(())
            # one dot per output coefficient over the nonzero entries of the
            # shorter factor; the leading product is nonzero, so no trim
            terms = [(i, a) for i, a in enumerate(short) if a]
            top = len(long) - 1
            return Poly._raw(tuple(
                dot((a, long[m - i]) for i, a in terms if 0 <= m - i <= top)
                for m in range(len(short) + top)
            ))
        factor = scalar(other)
        if not factor:
            return Poly._raw(())
        return Poly._raw(tuple(c * factor for c in self.coeffs))

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- comparisons / display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            if c.im or (c.re < 0 and parts):
                text = f"({c})"
            else:
                text = str(c)
            if power == 0:
                parts.append(text)
            else:
                x_part = "x" if power == 1 else f"x^{power}"
                parts.append(x_part if text == "1" else f"{text}*{x_part}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly('{self}')"


X = Poly((0, 1))


def derivative(p: Poly, order: int = 1) -> Poly:
    """Exact derivative of the given order; order 0 is the identity."""
    if order < 0:
        raise DomainError(f"negative derivative order {order}")
    if order == 0:
        return p
    if p.degree is None or order > p.degree:
        return Poly._raw(())
    out = tuple(
        p.coeffs[j + order] * math.perm(j + order, order)
        for j in range(len(p.coeffs) - order)
    )
    return Poly._raw(out)


def _fused_coeffs(terms):
    """The coefficients, lowest power first, of sum c x^j q over the
    `terms` (j, c, q), where q is a coefficient tuple: one `dot` per power.

    Yielded one by one, so a caller testing for zero can stop early.
    """
    size = max((j + len(q) for j, _, q in terms), default=0)
    for m in range(size):
        yield dot((c, q[m - j]) for j, c, q in terms if 0 <= m - j < len(q))


def _fused_poly(terms) -> Poly:
    """sum c x^j q over the `terms` (j, c, q), as a polynomial."""
    coeffs = list(_fused_coeffs(terms))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return Poly._raw(tuple(coeffs))


def _operator_terms(op: "BochnerOperator", p: Poly):
    """(j, a_{i,j}, d^i p) over the nonzero a_{i,j} whose derivative of p is
    nonzero: each derivative is formed once."""
    terms = []
    for i, a in enumerate(op.coeffs):
        if not a:
            continue
        dp = derivative(p, i).coeffs
        if dp:
            terms.extend((j, c, dp) for j, c in enumerate(a.coeffs) if c)
    return terms


def apply_operator(op: "BochnerOperator", p: Poly) -> Poly:
    """Apply sum_i a_i(x) d^i to p by direct symbolic expansion."""
    return _fused_poly(_operator_terms(op, p))


def is_eigenpair(op: "BochnerOperator", p: Poly, value) -> bool:
    """True iff applying the operator to p gives value * p, exactly."""
    terms = _operator_terms(op, p)
    terms.append((0, -scalar(value), p.coeffs))
    return not any(_fused_coeffs(terms))
