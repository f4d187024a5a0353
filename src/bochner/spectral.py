"""The direct problem: eigenvalues and monic eigenpolynomials of a Bochner
operator, computed from its delta table.

Two independent routes to the eigenpolynomial coefficients are provided.
The default is the linear recursion

    b(n, n-i) = sum_{k} delta(n-i+k, k) b(n, n-i+k) / (lambda_n - lambda_{n-i})

descending from the monic top coefficient; the second expresses each
b(n, n-i) as an i x i upper Hessenberg determinant and exists to cross-check
the first.  `delta_extend` continues any delta column from its first few
entries, which pins down the whole spectrum of an order-N operator by rows
0..N of the table.

An operator of order N has delta(n, k) = 0 for every k > N, so both routes
read only the band k <= N of a table tagged with its order: the recursion
costs O(n N) scalar steps per eigenpolynomial, and the determinant matrix
gets its zeros past the band without a table lookup, so the Hessenberg
expansion's work is bounded by the band too.  An untagged table is read as
a full triangle.  `eigensystem` validates the spectrum once for all
degrees.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateSpectrum,
    DomainError,
    InsufficientData,
    InvalidEigenSystem,
)
from .hessenberg import hessenberg_determinant
from .operators import DeltaTable
from .polynomials import Poly
from .scalars import GaussianRational, ONE, ZERO, comb, scalar


def check_spectrum(lambdas: Sequence[GaussianRational]) -> None:
    """Raise DegenerateSpectrum on a collision or a vanishing lambda_n, n >= 1."""
    seen = {}
    for idx, lam in enumerate(lambdas):
        if idx >= 1 and not lam:
            raise DegenerateSpectrum((idx,))
        if lam in seen:
            raise DegenerateSpectrum((seen[lam], idx))
        seen[lam] = idx


class EigenSystem:
    """Eigenvalues lambda_0 = 0, lambda_1, ... with their monic
    eigenpolynomials P_n, deg P_n = n."""

    __slots__ = ("lambdas", "polys")

    def __init__(self, lambdas, polys):
        """Coerce and validate: matching lengths, lambda_0 = 0, monic P_n of
        degree n, and a non-degenerate spectrum."""
        lams = tuple(scalar(v) for v in lambdas)
        ps = tuple(p if isinstance(p, Poly) else Poly(p) for p in polys)
        if not lams or len(lams) != len(ps):
            raise InvalidEigenSystem(
                f"need matching nonempty sequences, got {len(lams)} eigenvalues "
                f"and {len(ps)} polynomials"
            )
        if lams[0] != ZERO:
            raise InvalidEigenSystem(f"lambda_0 must be 0, got {lams[0]}")
        for n, p in enumerate(ps):
            if p.degree != n:
                raise InvalidEigenSystem(f"polynomial {n} has degree {p.degree}, expected {n}")
            if not p.is_monic():
                raise InvalidEigenSystem(f"polynomial {n} is not monic")
        check_spectrum(lams)
        self.lambdas, self.polys = lams, ps

    @property
    def n_max(self) -> int:
        return len(self.polys) - 1

    def coeff(self, n: int, i: int) -> GaussianRational:
        """b(n, i): the x^i coefficient of P_n, zero out of range."""
        if n < 0 or n > self.n_max:
            raise DomainError(f"polynomial index {n} out of range")
        return self.polys[n].coeff(i)

    def __eq__(self, other):
        if not isinstance(other, EigenSystem):
            return NotImplemented
        return self.lambdas == other.lambdas and self.polys == other.polys

    def __repr__(self):
        return f"EigenSystem(n_max={self.n_max})"


def eigenvalues(table: DeltaTable) -> list[GaussianRational]:
    """The k = 0 column of the table, validated to be a usable spectrum."""
    return _lambda_prefix(table, table.n_max)


def _lambda_prefix(table: DeltaTable, n: int) -> list[GaussianRational]:
    """lambda_0..lambda_n from the k = 0 column, validated as a spectrum."""
    if table.n_max < n:
        raise InsufficientData(f"need delta rows up to {n}, table holds {table.n_max}")
    lams = [table.value(m, 0) for m in range(n + 1)]
    check_spectrum(lams)
    return lams


def _band(table: DeltaTable, n: int) -> int:
    """Last column k that can be nonzero in rows up to n."""
    return n if table.order is None else min(n, table.order)


def eigenpoly_recursive(table: DeltaTable, n: int) -> Poly:
    """The unique monic eigenpolynomial of degree n, by descending recursion."""
    if n < 0:
        raise DomainError(f"negative degree {n}")
    return _descend(table, _lambda_prefix(table, n), n)


def _descend(table: DeltaTable, lams: Sequence[GaussianRational], n: int) -> Poly:
    """P_n by the recursion, given a validated spectrum lams[0..n] and rows
    0..n of the table; only the band k <= order is read."""
    rows = table.rows
    width = _band(table, n)
    b = [ZERO] * (n + 1)
    b[n] = ONE
    for i in range(1, n + 1):
        total = ZERO
        for k in range(1, min(i, width) + 1):
            factor = b[n - i + k]
            if factor:
                d = rows[n - i + k][k]
                if d:
                    total = total + d * factor
        b[n - i] = total / (lams[n] - lams[n - i])
    return Poly(b)


def eigenpoly_coeff_det(table: DeltaTable, n: int, i: int) -> GaussianRational:
    """b(n, n-i) as an i x i upper Hessenberg determinant.

    Entry (j, c) above the diagonal band is delta(n+1-j, c+1-j) divided by
    (lambda_n - lambda_{n-c}); the subdiagonal is -1.  For n below the
    operator order the matrix is simply cut at i <= n columns, so no index
    ever leaves the table.  Evaluated by the prefix-determinant expansion.
    """
    if not 1 <= i <= n:
        raise DomainError(f"need 1 <= i <= n, got i={i}, n={n}")
    lams = _lambda_prefix(table, n)
    width = _band(table, n)
    matrix = []
    for j in range(1, i + 1):
        row = []
        for c in range(1, i + 1):
            if j == c + 1:
                row.append(-ONE)
            elif j > c + 1 or c + 1 - j > width:
                row.append(ZERO)
            else:
                d = table.rows[n + 1 - j][c + 1 - j]
                row.append(d / (lams[n] - lams[n - c]) if d else ZERO)
        matrix.append(row)
    return hessenberg_determinant(matrix)


def delta_extend(seed: DeltaTable, n: int, k: int, order: int | None = None) -> GaussianRational:
    """Extend a delta column beyond the seed rows.

    For an operator of the given order, delta(n, k) with n > order is a fixed
    binomial combination of the seed entries delta(k, k), ..., delta(order, k):

        delta(n, k) = sum_{i=k}^{order} (-1)^(order-i) C(n, i) C(n-i-1, order-i) delta(i, k)

    and delta(n, k) = 0 whenever k exceeds the order.  The seed must hold
    rows 0..order; `order` defaults to the seed's tag.
    """
    if k < 0 or n < 0:
        raise DomainError(f"negative position ({n}, {k})")
    big_n = order if order is not None else seed.order
    if big_n is None:
        raise InsufficientData("seed table carries no order tag and none was given")
    if k > big_n:
        return ZERO
    if n <= big_n:
        raise DomainError(
            f"extension applies to rows beyond the order; got n={n} <= {big_n}"
        )
    if seed.n_max < big_n:
        raise InsufficientData(
            f"seed must hold rows up to {big_n}, it holds {seed.n_max}"
        )
    total = ZERO
    for i in range(k, big_n + 1):
        sign = 1 if (big_n - i) % 2 == 0 else -1
        weight = sign * comb(n, i) * comb(n - i - 1, big_n - i)
        if weight:
            total = total + weight * seed.value(i, k)
    return total


def lambda_via_N2_identity(lambda1, lambda2, n: int) -> GaussianRational:
    """Eigenvalue of any order-2 operator from its first two:
    -n(n-2) lambda_1 + n(n-1)/2 lambda_2."""
    if n < 0:
        raise DomainError(f"negative index {n}")
    l1 = scalar(lambda1)
    l2 = scalar(lambda2)
    return (-n * (n - 2)) * l1 + Fraction(n * (n - 1), 2) * l2


def eigensystem(table: DeltaTable, n_max: int | None = None) -> EigenSystem:
    """Eigenvalues and eigenpolynomials up to degree n_max (table depth by default)."""
    top = table.n_max if n_max is None else n_max
    lams = _lambda_prefix(table, top)
    polys = [_descend(table, lams, m) for m in range(top + 1)]
    return EigenSystem(lams, polys)
