"""The direct problem: eigenvalues and monic eigenpolynomials of a Bochner
operator, computed from its delta table.

Two independent routes to the eigenpolynomial coefficients are provided.
The default is the linear recursion

    b(n, n-i) = sum_{k} delta(n-i+k, k) b(n, n-i+k) / (lambda_n - lambda_{n-i})

descending from the monic top coefficient.  Its step is the integer kernel
`scalars.descend`, which runs the whole descent of one polynomial: the
band and the spectrum are lifted over one common denominator once per
table (`scalars.lift_band`), that denominator cancels from every quotient,
and each coefficient is reduced once.  The second expresses each
b(n, n-i) as an i x i upper Hessenberg determinant with subdiagonal -1 and
exists to cross-check the first.  The i x i matrix of b(n, n-i) is the
leading submatrix of the n x n matrix of b(n, 0), so the determinant route
reads b(n, n-1), ..., b(n, 0) off the chain of nested leading minors of a
single expansion per degree (`eigenpoly_coeff_det`).  Column c of that
matrix is a tail of the table's diagonal delta(n-c+k, k), k >= 1, every
entry divided by the gap lambda_n - lambda_{n-c}: the diagonals are read
from the table once, each degree's columns are slices of them, and each
gap divides its minor once, not every entry.  The route never reads the
recursion's output, and sums with plain scalar arithmetic, not the
recursion's kernel.
`delta_extend` continues any delta column from its first few entries, which
pins down the whole spectrum of an order-N operator by rows 0..N of the
table.

An operator of order N has delta(n, k) = 0 for every k > N, and its table
stores only that band, so both routes read the band k <= N and nothing
else: the recursion costs O(n N) scalar steps per eigenpolynomial, and each
determinant column holds at most N entries, so the Hessenberg expansion's
work is bounded by the band too.  `eigensystem` and `eigenpoly_coeff_det`
run to the depth of their table; each validates the spectrum once for all
degrees, before any division, and builds its `EigenSystem` without
validating it again.  The recursion route is the per-degree iterator
`eigenpolys`, which checks the spectrum and lifts the band when called and
then yields P_0, P_1, ... one descent at a time, so a caller that writes
each P_n as it comes (`bochner direct`) never holds the family;
`eigensystem` is the tuple of that iterator.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from .errors import (
    DegenerateSpectrum,
    DomainError,
    InsufficientData,
    InvalidEigenSystem,
)
from .hessenberg import hessenberg_determinant
from .operators import DeltaTable
from .polynomials import Poly
from .scalars import GaussianRational, ZERO, descend, dot, lift_band, scalar


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

    @classmethod
    def _raw(cls, lambdas, polys):
        # internal: tuples of a spectrum already checked by `check_spectrum`
        # and of monic P_n of degree n
        system = object.__new__(cls)
        system.lambdas, system.polys = lambdas, polys
        return system

    @property
    def n_max(self) -> int:
        return len(self.polys) - 1

    def __eq__(self, other):
        if not isinstance(other, EigenSystem):
            return NotImplemented
        return self.lambdas == other.lambdas and self.polys == other.polys

    def __repr__(self):
        return f"EigenSystem(n_max={self.n_max})"


def _lambda_prefix(table: DeltaTable, n: int) -> list[GaussianRational]:
    """lambda_0..lambda_n from the k = 0 column, validated as a spectrum."""
    if n < 0:
        raise DomainError(f"negative degree {n}")
    if table.n_max < n:
        raise InsufficientData(f"need delta rows up to {n}, table holds {table.n_max}")
    lams = [table.value(m, 0) for m in range(n + 1)]
    check_spectrum(lams)
    return lams


def eigenpoly_recursive(table: DeltaTable, n: int) -> Poly:
    """The unique monic eigenpolynomial of degree n, by descending recursion."""
    lams = _lambda_prefix(table, n)
    return Poly._raw(descend(lift_band(table.rows, lams), n))


def eigenpoly_coeff_det(table: DeltaTable) -> EigenSystem:
    """Eigenvalues and eigenpolynomials up to the table's depth M by the
    determinant route, one Hessenberg expansion per degree.

    For degree n the matrix is n x n with subdiagonal -1: entry (j, c) on or
    above the diagonal (1-based) is delta(n+1-j, c+1-j) divided by
    (lambda_n - lambda_{n-c}), and zero past the band.  Its leading i x i
    minor is b(n, n-i), so the expansion's chain of minors is the whole
    polynomial, read from b(n, n) = 1 down.

    Column c depends on n only through its diagonal base n - c and its
    divisor: it is the last min(c, w) entries of

        diagonals[base] = [delta(base + k, k) for k = min(w, M - base), ..., 1]

    for the band width w, built once for every degree, and its divisor
    lambda_n - lambda_{n-c} is applied once to each minor.
    """
    lams = _lambda_prefix(table, table.n_max)
    rows = table.rows
    top = len(rows) - 1
    width = len(rows[-1]) - 1
    diagonals = [
        [rows[base + k][k] for k in range(min(width, top - base), 0, -1)]
        for base in range(top + 1)
    ]
    polys = []
    for n, lam in enumerate(lams):
        columns = []
        for c in range(1, n + 1):
            diagonal = diagonals[n - c]
            columns.append(diagonal[len(diagonal) - min(c, width):])
        gaps = [lam - lams[n - c] for c in range(1, n + 1)]
        polys.append(Poly._raw(tuple(hessenberg_determinant(columns, gaps)[::-1])))
    return EigenSystem._raw(tuple(lams), tuple(polys))


def delta_extend(seed: DeltaTable, n: int, k: int, order: int) -> GaussianRational:
    """Extend a delta column beyond the seed rows.

    For an operator of the given order, delta(n, k) with n > order is a fixed
    binomial combination of the seed entries delta(k, k), ..., delta(order, k):

        delta(n, k) = sum_{i=k}^{order} (-1)^(order-i) C(n, i) C(n-i-1, order-i) delta(i, k)

    and delta(n, k) = 0 whenever k exceeds the order.  The seed must hold
    rows 0..order.  The order is the caller's: a seed no deeper than it is
    a band of its own depth, which would extend at the wrong order.  A zero
    seed entry contributes no term, and each weight takes its sign from the
    parity of order - i.
    """
    if k < 0 or n < 0:
        raise DomainError(f"negative position ({n}, {k})")
    if k > order:
        return ZERO
    if n <= order:
        raise DomainError(
            f"extension applies to rows beyond the order; got n={n} <= {order}"
        )
    if seed.n_max < order:
        raise InsufficientData(
            f"seed must hold rows up to {order}, it holds {seed.n_max}"
        )
    pairs = []
    for i, row in enumerate(seed.rows[k : order + 1], k):
        value = row[k] if k < len(row) else ZERO
        if value:
            weight = comb(n, i) * comb(n - i - 1, order - i)
            pairs.append((-weight if (order - i) & 1 else weight, value))
    return dot(pairs)


def lambda_via_N2_identity(lambda1, lambda2, n: int) -> GaussianRational:
    """Eigenvalue of any order-2 operator from its first two:
    -n(n-2) lambda_1 + n(n-1)/2 lambda_2."""
    if n < 0:
        raise DomainError(f"negative index {n}")
    l1 = scalar(lambda1)
    l2 = scalar(lambda2)
    return (-n * (n - 2)) * l1 + Fraction(n * (n - 1), 2) * l2


def eigenpolys(table: DeltaTable) -> Iterator[Poly]:
    """P_0, ..., P_M for the table's depth M, one `descend` per degree, each
    computed when it is drawn.

    The spectrum is checked and the band lifted by this call, before the
    first P_n, so a caller has every error up front and may hold one
    polynomial at a time.
    """
    lams = _lambda_prefix(table, table.n_max)
    band = lift_band(table.rows, lams)
    return (Poly._raw(descend(band, m)) for m in range(len(lams)))


def eigensystem(table: DeltaTable) -> EigenSystem:
    """Eigenvalues and eigenpolynomials up to the table's depth."""
    polys = tuple(eigenpolys(table))
    return EigenSystem._raw(tuple(row[0] for row in table.rows), polys)
