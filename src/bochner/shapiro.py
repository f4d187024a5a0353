"""The product-form operator family

    L = sum_{i=1}^{N} c_i x^(i-1) d^i + x d,   c_N != 0,

whose eigenpolynomials satisfy an (N+1)-term recurrence.  Its delta table
collapses to two columns: delta(n, 0) = n (so the eigenvalues are just n)
and

    delta1(n) = sum_{s=1}^{n} C(n, s) s! c_s      (c_s = 0 above N),

with everything at k >= 2 vanishing.  Eigenpolynomial coefficients become
running products of delta1, and the recurrence coefficients have the closed
form implemented by `shapiro_alpha`; `verify_shapiro_recurrence` checks the
resulting (N+1)-term relation as an exact polynomial identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InvalidOperator
from .operators import BochnerOperator
from .polynomials import Poly
from .recurrence import relation_residual
from .scalars import GaussianRational, ONE, ZERO, comb, factorial, scalar


class ShapiroOperator:
    """Coefficients c_1, ..., c_N of the product-form operator; c_N != 0."""

    __slots__ = ("c",)

    def __init__(self, c):
        values = tuple(scalar(v) for v in c)
        if not values:
            raise InvalidOperator("need at least one coefficient")
        if not values[-1]:
            raise InvalidOperator(
                "c_N = 0 would silently lower the order; construct the shorter operator instead"
            )
        self.c = values

    @property
    def order(self) -> int:
        return len(self.c)

    def __eq__(self, other):
        if not isinstance(other, ShapiroOperator):
            return NotImplemented
        return self.c == other.c

    def __repr__(self):
        return "ShapiroOperator([{}])".format(", ".join(str(v) for v in self.c))


def to_bochner(op: ShapiroOperator) -> BochnerOperator:
    """The same operator as explicit coefficient polynomials:
    a_1 = x + c_1 and a_i = c_i x^(i-1) for i >= 2."""
    polys = [Poly(), Poly([op.c[0], 1])]
    for i in range(2, op.order + 1):
        c_i = op.c[i - 1]
        polys.append(Poly.monomial(i - 1, c_i) if c_i else Poly())
    return BochnerOperator(polys)


def shapiro_delta1(op: ShapiroOperator, n: int) -> GaussianRational:
    """delta1(n) = sum_{s=1}^{min(n, N)} C(n, s) s! c_s; empty at n = 0."""
    if n < 0:
        raise DomainError(f"negative index {n}")
    total = ZERO
    for s in range(1, min(n, op.order) + 1):
        c_s = op.c[s - 1]
        if c_s:
            total = total + (comb(n, s) * factorial(s)) * c_s
    return total


def shapiro_poly(op: ShapiroOperator, n: int) -> Poly:
    """The degree-n monic eigenpolynomial, built from the coefficient products."""
    if n < 0:
        raise DomainError(f"negative degree {n}")
    coeffs = [ZERO] * (n + 1)
    running = ONE
    coeffs[n] = ONE
    for i in range(1, n + 1):
        running = running * shapiro_delta1(op, n - i + 1)
        coeffs[n - i] = running * Fraction(1, factorial(i))
    return Poly(coeffs)


def shapiro_alpha(op: ShapiroOperator, n: int, s: int) -> GaussianRational:
    """Closed-form recurrence coefficient alpha(n, n-s) for 0 <= s <= N-1:

        (delta1(n) ... delta1(n-s+1) / (s+1)!)
            * sum_{j=0}^{s+1} C(s+1, j) (-1)^j delta1(n-s+j)

    with the empty product at s = 0.  Entries below the triangle (s > n) are
    zero by the truncation convention of the recurrence.
    """
    if not 0 <= s <= op.order - 1:
        raise DomainError(f"band position s={s} outside 0..{op.order - 1}")
    if n < 0:
        raise DomainError(f"negative index {n}")
    if s > n:
        return ZERO
    product = ONE
    for m in range(n, n - s, -1):
        product = product * shapiro_delta1(op, m)
    total = ZERO
    for j in range(s + 2):
        weight = (-1) ** j * comb(s + 1, j)
        total = total + weight * shapiro_delta1(op, n - s + j)
    return product * total * Fraction(1, factorial(s + 1))


@dataclass(frozen=True)
class RecurrenceCheck:
    """Outcome of an exact recurrence verification.

    Falsy when the relation breaks; `failed_n` and `failed_power` then locate
    the first offending row and coefficient.
    """

    ok: bool
    failed_n: int | None = None
    failed_power: int | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_shapiro_recurrence(op: ShapiroOperator, n_max: int) -> RecurrenceCheck:
    """Check the (N+1)-term relation built from the closed forms, exactly.

    For every n <= n_max the combination
        sum_{s=1}^{N-1} alpha(n, n-s) P_{n-s} + (alpha(n, n) - x) P_n + P_{n+1}
    must vanish identically, with P of negative degree treated as zero.
    """
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    polys = [shapiro_poly(op, m) for m in range(n_max + 2)]
    for n in range(n_max + 1):
        row = [ZERO] * (n + 1)
        for s in range(min(op.order - 1, n) + 1):
            row[n - s] = shapiro_alpha(op, n, s)
        residual = relation_residual(polys, row, n)
        if residual:
            for power, value in enumerate(residual.coeffs):
                if value:
                    return RecurrenceCheck(False, n, power)
    return RecurrenceCheck(True)
