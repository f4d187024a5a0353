"""Bochner differential operators, the triangular delta table, and the exact
two-way conversion between them.

The conversion pair is the backbone of the package: for a normalized
operator sum_i a_i(x) d^i of order N,

    delta(n, k) = sum_{i=k}^{n} C(n, i) i! a_{i, i-k}

and conversely

    n! a_{n, n-k} = sum_{i=k}^{n} C(n, i) (-1)^(n-i) delta(i, k),

where a_{i, j} is the x^j coefficient of a_i and a_i = 0 above the order.
Either direction determines the other exactly.

`deltas_from_operator` lifts the nonzero a_{i, i-k} over one common
denominator once per operator (`scalars.lift`), so every delta(n, k) is an
integer sum of C(n, i) i! = n!/(n-i)! times lifted numerators, reduced once
by `scalars.from_parts`: one reduction per table entry, where a chain of
scalar `+` and `*` would reduce after every term.

The inverse sum is the n-th forward difference at row 0 of column k, read
as a function of the row (zero above the diagonal).  For an operator of
order N every column is a polynomial of degree <= N in n, so its difference
table vanishes from level N + 1 on.  `operator_from_deltas` builds each
column's table over rows 0..K level by level and stops at the first
all-zero level: inverting at order K costs O(K N^2) subtractions plus
O(K^2) table reads and zero tests, where the binomial sums cost O(K^3)
weighted products, most of them for coefficients that come out zero.  On
data of no finite order no level vanishes and all K + 1 levels are built.
`shapiro` builds its recurrence table on the same `_difference_levels`.
"""
from __future__ import annotations

from math import perm

from .errors import DomainError, InsufficientData, InvalidOperator
from .polynomials import Poly
from .scalars import GaussianRational, ZERO, factorial, from_parts, lift, scalar


class BochnerOperator:
    """Differential operator sum_{i=0}^{N} a_i(x) d^i with deg(a_i) <= i.

    coeffs[i] is the polynomial multiplying the i-th derivative.  The leading
    coefficient a_N must not vanish identically and the order N is at least
    one.  a_0 may be a nonzero constant until `normalize` strips it.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        polys = tuple(p if isinstance(p, Poly) else Poly(p) for p in coeffs)
        if len(polys) < 2:
            raise InvalidOperator("operator order must be at least 1")
        for i, a in enumerate(polys):
            if a.degree is not None and a.degree > i:
                raise InvalidOperator(
                    f"coefficient of derivative {i} has degree {a.degree} > {i}"
                )
        if not polys[-1]:
            raise InvalidOperator("leading coefficient is identically zero")
        self.coeffs = polys

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int, j: int) -> GaussianRational:
        """The x^j coefficient of a_i, zero above the order."""
        if i < 0 or j < 0:
            raise DomainError(f"negative coefficient index ({i}, {j})")
        if i >= len(self.coeffs):
            return ZERO
        return self.coeffs[i].coeff(j)

    def is_normalized(self) -> bool:
        return not self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, BochnerOperator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            a = self.coeffs[i]
            if not a:
                continue
            d_part = "" if i == 0 else ("d" if i == 1 else f"d^{i}")
            parts.append(f"({a}){d_part}" if d_part else f"({a})")
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"BochnerOperator('{self}')"


class DeltaTable:
    """Triangular table delta(n, k) for 0 <= k <= n <= n_max.

    The table is a band: its width w is the length of the last row less
    one, and row n holds the min(n, w) + 1 entries delta(n, 0..min(n, w)).
    An operator's table is cut at its order N, so delta(n, k) = 0 for
    N < k <= n is implicit; a table no deeper than N, and any full
    triangle, is a band of width n_max.  Entries with k > n are zero by
    convention and never stored.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        stored = [tuple(scalar(v) for v in row) for row in rows]
        width = len(stored[-1]) - 1 if stored else 0
        if len(stored) > 1 and width < 1:
            raise DomainError("a table past row 0 needs a band of width at least 1")
        for n, entries in enumerate(stored):
            expected = min(n, width) + 1
            if len(entries) != expected:
                raise DomainError(
                    f"row {n} must have {expected} entries, got {len(entries)}"
                )
        self.rows = tuple(stored)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def value(self, n: int, k: int) -> GaussianRational:
        if n < 0 or k < 0:
            raise DomainError(f"negative table index ({n}, {k})")
        if k > n:
            return ZERO
        if n >= len(self.rows):
            raise InsufficientData(
                f"table holds rows up to {self.n_max}, row {n} requested"
            )
        row = self.rows[n]
        return row[k] if k < len(row) else ZERO

    def __eq__(self, other):
        if not isinstance(other, DeltaTable):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"DeltaTable(n_max={self.n_max})"


def normalize(op: BochnerOperator):
    """Strip the constant term a_0, returning (operator, removed constant).

    The eigenvalues of the input are those of the normalized operator
    shifted up by the removed constant.
    """
    shift = op.coeffs[0].coeff(0)
    if not op.coeffs[0]:
        return op, ZERO
    return BochnerOperator((Poly(),) + op.coeffs[1:]), shift


def deltas_from_operator(op: BochnerOperator, n_max: int) -> DeltaTable:
    """Build the delta table of a normalized operator up to row n_max.

    The nonzero a_{i, i-k} are lifted once over one common denominator D,
    so each delta(n, k) = sum_i perm(n, i) a_{i, i-k}, perm(n, i) = n!/(n-i)!,
    is an integer sum over them, reduced once.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if not op.is_normalized():
        raise InvalidOperator("operator must be normalized (a_0 = 0) first")
    order = op.order
    places = [
        (i, k) for k in range(order + 1) for i in range(k, order + 1) if op.coefficient(i, i - k)
    ]
    d, ps, qs = lift([op.coefficient(i, i - k) for i, k in places])
    # the lifted terms (i, p, q) of each column k, in increasing i
    columns = [[] for _ in range(order + 1)]
    for (i, k), p, q in zip(places, ps, qs):
        columns[k].append((i, p, q))
    rows = []
    for n in range(n_max + 1):
        width = min(n, order)
        perms = [perm(n, i) for i in range(width + 1)]
        row = []
        for column in columns[: width + 1]:
            p = q = 0
            for i, a, c in column:
                if i > width:
                    break
                w = perms[i]
                p += w * a
                if c:
                    q += w * c
            row.append(from_parts(p, q, d))
        rows.append(row)
    return DeltaTable(rows)


def _difference_levels(values: list) -> list[list]:
    """Forward differences of `values`, level j holding the j-th ones, up to
    the first all-zero level, past which every level vanishes."""
    levels = []
    level = values
    while any(level):
        levels.append(level)
        level = [b - a for a, b in zip(level, level[1:])]
    return levels


def operator_from_deltas(table: DeltaTable, order: int) -> BochnerOperator:
    """Invert the delta table into the operator of the given order.

    n! a_{n, n-k} is the n-th forward difference at row 0 of column k.  Each
    column's difference table over rows 0..order is built level by level and
    stops at the first all-zero level, past which every level vanishes.
    Trailing identically-zero coefficient polynomials are trimmed, so a table
    produced by an operator of lower true order still inverts cleanly.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if table.n_max < order:
        raise InsufficientData(
            f"need delta rows up to {order}, table holds {table.n_max}"
        )
    # heads[k][n] is the n-th difference of column k at row 0, for every n
    # below the column's first all-zero level
    heads = []
    for k in range(order + 1):
        levels = _difference_levels([table.value(i, k) for i in range(order + 1)])
        heads.append([level[0] for level in levels])
    polys = []
    for n in range(order + 1):
        coeffs = []
        for j in range(n + 1):
            column = heads[n - j]
            coeffs.append(column[n] / factorial(n) if n < len(column) else ZERO)
        polys.append(Poly(coeffs))
    while len(polys) > 2 and not polys[-1]:
        polys.pop()
    return BochnerOperator(polys)


# -- classical presets ----------------------------------------------------


def _real_rational(value, name) -> GaussianRational:
    v = scalar(value)
    if v.im:
        raise DomainError(f"{name} must be a real rational, got {v}")
    return v


def hermite_operator() -> BochnerOperator:
    """d^2 - 2x d; eigenvalues -2n."""
    return BochnerOperator([Poly(), Poly([0, -2]), Poly([1])])


def laguerre_operator(alpha) -> BochnerOperator:
    """x d^2 + (alpha + 1 - x) d; eigenvalues -n.  alpha > -1 is the
    classical range but is not enforced."""
    a = _real_rational(alpha, "alpha")
    return BochnerOperator([Poly(), Poly([a + 1, -1]), Poly([0, 1])])


def jacobi_operator(alpha, beta) -> BochnerOperator:
    """(1 - x^2) d^2 + (beta - alpha - (alpha + beta + 2) x) d.

    This normalization gives eigenvalues -n(n + 1 + alpha + beta).
    """
    a = _real_rational(alpha, "alpha")
    b = _real_rational(beta, "beta")
    return BochnerOperator([Poly(), Poly([b - a, -(a + b + 2)]), Poly([1, 0, -1])])
