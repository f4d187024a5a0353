"""The product-form operator family

    L = sum_{i=1}^{N} c_i x^(i-1) d^i + x d,   c_N != 0,

whose eigenpolynomials satisfy an (N+1)-term recurrence.  Its delta table
collapses to two columns: delta(n, 0) = n (so the eigenvalues are just n)
and

    delta1(n) = sum_{s=1}^{n} C(n, s) s! c_s      (c_s = 0 above N),

with everything at k >= 2 vanishing.  Eigenpolynomial coefficients become
running products of delta1.  The recurrence coefficients have a closed
form whose binomial sum is a forward difference of delta1; since delta1(n)
has degree N in n, one difference table over the column, which stops by
itself at level N + 1, serves every entry.  `shapiro_alpha` builds the whole
table at once, and `verify --shapiro` builds it once for both of its
product-form checks; `verify_shapiro_recurrence` checks the resulting
(N+1)-term relation as an exact polynomial identity, on P_0, ..., P_{n+1}
built as one family by `shapiro_family`, each P_m from P_{m-1} with one
scalar product per coefficient.  These read delta1
from a column computed once by `shapiro_delta1_column`, from the closed
form above and never from an operator's delta table, so they stay an
independent check of that table.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .errors import DomainError, InvalidOperator
from .operators import BochnerOperator, _difference_levels
from .polynomials import Poly
from .recurrence import RecurrenceCoeffs, relation_residual
from .scalars import GaussianRational, ONE, ZERO, dot, scalar


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
    """delta1(n) = sum_{s=1}^{min(n, N)} C(n, s) s! c_s, with
    C(n, s) s! = perm(n, s); empty at n = 0."""
    if n < 0:
        raise DomainError(f"negative index {n}")
    return dot((perm(n, s), op.c[s - 1]) for s in range(1, min(n, op.order) + 1))


def shapiro_delta1_column(op: ShapiroOperator, last: int) -> list[GaussianRational]:
    """delta1(0), ..., delta1(last): the column the closed forms below read."""
    if last < 0:
        raise DomainError(f"negative index {last}")
    return [shapiro_delta1(op, n) for n in range(last + 1)]


def shapiro_family(delta1) -> list[Poly]:
    """P_0, ..., P_last, the monic eigenpolynomials read off the column
    delta1(0..last), one per entry.

    The coefficients b(m, m-i) = delta1(m) ... delta1(m-i+1) / i! satisfy
    b(m, j) = b(m-1, j) delta1(m) / (m - j) for j < m, so each P_m is P_{m-1}
    times one scalar per coefficient, with the monic top appended.
    """
    coeffs = ()
    polys = []
    for m, value in enumerate(delta1):
        coeffs = tuple([b * (value / (m - j)) for j, b in enumerate(coeffs)] + [ONE])
        polys.append(Poly._raw(coeffs))
    return polys


def shapiro_alpha(op: ShapiroOperator, delta1) -> RecurrenceCoeffs:
    """The closed-form recurrence table of op's column delta1(0..n_max+1),
    rows 0..n_max: for 0 <= s <= min(N-1, n)

        alpha(n, n-s) = (delta1(n) ... delta1(n-s+1) / (s+1)!)
                        * (-1)^(s+1) Delta^(s+1) delta1(n-s),

    with the empty product at s = 0, and every other entry zero.  The
    products run along s; every difference is read from one difference
    table of the column, zero past its last level.
    """
    levels = _difference_levels(delta1)
    rows = []
    for n in range(len(delta1) - 1):
        row = [ZERO] * (n + 1)
        product = ONE
        for s in range(min(op.order - 1, n) + 1):
            if s + 1 < len(levels):
                weight = Fraction((-1) ** (s + 1), factorial(s + 1))
                row[n - s] = product * levels[s + 1][n - s] * weight
            product = product * delta1[n - s]
        rows.append(row)
    return RecurrenceCoeffs(rows)


def verify_shapiro_recurrence(alpha: RecurrenceCoeffs, delta1):
    """Check the (N+1)-term relation of the closed-form table, exactly.

    For every row n of `alpha` the combination
        sum_{s=1}^{N-1} alpha(n, n-s) P_{n-s} + (alpha(n, n) - x) P_n + P_{n+1}
    must vanish identically, with P of negative degree treated as zero.
    `delta1` is the column delta1(0..n_max+1) the table was built from.
    Returns None when every row holds, and otherwise the first failing row
    n and the lowest power of x left in its residual, as a pair (n, power).
    """
    n_max = alpha.n_max
    if n_max < 1:
        raise DomainError(f"n_max must be at least 1, got {n_max}")
    polys = shapiro_family(delta1)
    for n, row in enumerate(alpha.rows):
        residual = relation_residual(polys, row, n)
        if residual:
            for power, value in enumerate(residual.coeffs):
                if value:
                    return n, power
    return None
