"""Recurrence fitting for monic polynomial families and band detection.

Any family of monic polynomials with deg P_n = n satisfies a unique relation

    sum_{k=0}^{n} alpha(n, k) P_k - x P_n + P_{n+1} = 0

for each n, because {P_0, ..., P_n, x P_n} is a basis of the polynomials of
degree n+1.  A family solves the bispectral problem precisely when the alpha
table is banded, i.e. alpha(n, n-s) = 0 for all s beyond some fixed p, which
makes the relation a (p+2)-term recurrence.

`fit_recurrence` takes each row by one of two exact routes, which give the
same table:

- The sequential solve matches the x^(n-j) coefficients for j = 0, 1, ...:
  each alpha(n, k) is b(n, k-1) - b(n+1, k) minus a `dot` over the nonzero
  entries of the row solved so far.  It skips zeros, so a banded row costs
  little, but on a dense row it sums over the largest numbers of the fit.
- The transposed route uses the inverse connection coefficients d(m, k),
  x^m = sum_k d(m, k) P_k with d(m, m) = 1.  Applying the operator to x^m,
  L x^m = sum_j delta(m, j) x^(m-j), and matching P_k gives

      d(m, k) (lambda_k - lambda_m) = sum_{j=1}^{min(N, m-k)} delta(m, j) d(m-j, k),

  one `dot_over` per entry over the band that the eigenpolynomial recursion
  reads (it is that recursion transposed).  Expanding x P_n = sum_j
  b(n, j) x^(j+1) then gives each entry as one `dot`, independent of every
  other alpha:

      alpha(n, k) = sum_{j >= k-1} b(n, j) d(j+1, k).

Row n takes the transposed route when the delta table is tagged with its
order N and row n-1 has more than N nonzero entries, that is, once the
family has left the (N+1)-term band; d is built once, on first use, and
only up to row n + 1.  A family with an (N+1)-term recurrence has at most
N nonzeros per row, so the classical and product-form fits never leave the
sequential solve.
`relation_residual` re-expands a row symbolically, over Gaussian-integer
numerators, and reads neither route.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DomainError, InsufficientData
from .operators import DeltaTable
from .polynomials import Poly, _combination
from .scalars import GaussianRational, ONE, ZERO, dot, dot_over
from .spectral import EigenSystem

_MINUS_ONE = -ONE


class RecurrenceCoeffs:
    """Triangular table alpha(n, k), 0 <= k <= n <= n_max."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        stored = []
        for n, row in enumerate(rows):
            entries = tuple(row)
            if len(entries) != n + 1:
                raise DomainError(f"row {n} must have {n + 1} entries, got {len(entries)}")
            stored.append(entries)
        self.rows = tuple(stored)

    @property
    def n_max(self) -> int:
        return len(self.rows) - 1

    def alpha(self, n: int, k: int) -> GaussianRational:
        if n < 0 or n > self.n_max:
            raise DomainError(f"row {n} out of range")
        if k < 0 or k > n:
            return ZERO
        return self.rows[n][k]

    def __eq__(self, other):
        if not isinstance(other, RecurrenceCoeffs):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self):
        return f"RecurrenceCoeffs(n_max={self.n_max})"


def fit_recurrence(system: EigenSystem, table: DeltaTable) -> RecurrenceCoeffs:
    """Solve for the alpha table of a monic family; exact and unique.

    `table` is the delta table of the operator whose eigenfamily `system`
    is: it must hold rows up to system.n_max, and its k = 0 column must be
    the family's spectrum.  The family must reach one degree past the last
    fitted row.

    Row n is the sequential solve, matching the x^(n-j) coefficients of
    P_n and P_{n+1} for j = 0, 1, ..., unless the table carries its order N
    and row n-1 has more than N nonzero entries, i.e. the family has left
    the (N+1)-term band; then every entry is
    alpha(n, k) = sum_{j >= k-1} b(n, j) d(j+1, k), with the inverse
    connection coefficients

        d(m, k) = sum_{j=1}^{min(N, m-k)} delta(m, j) d(m-j, k) / (lambda_k - lambda_m)

    built as far as row n + 1 needs.
    """
    if system.n_max < 1:
        raise InsufficientData("need polynomials at least up to degree 1")
    lams = system.lambdas
    if table.n_max < system.n_max:
        raise InsufficientData(
            f"need delta rows up to {system.n_max}, table holds {table.n_max}"
        )
    for m, lam in enumerate(lams):
        if table.rows[m][0] != lam:
            raise DomainError(f"delta({m}, 0) is not the eigenvalue lambda_{m} of the family")
    coeffs = [p.coeffs for p in system.polys]
    order = table.order
    inverse = []
    rows = []
    nnz = 0
    for n in range(system.n_max):
        if order is not None and nnz > order:
            _extend_inverse(table, lams, inverse, n + 1)
            b = coeffs[n]
            row = [
                dot((b[j], inverse[j + 1][k]) for j in range(max(k - 1, 0), n + 1))
                for k in range(n + 1)
            ]
            nnz = sum(map(bool, row))
        else:
            row = [ZERO] * (n + 1)
            # (i, alpha(n, i)) for the nonzero entries solved so far
            found = []
            for k in range(n, -1, -1):
                value = (
                    system.coeff(n, k - 1)
                    - system.coeff(n + 1, k)
                    - dot((a, coeffs[i][k]) for i, a in found)
                )
                row[k] = value
                if value:
                    found.append((k, value))
            nnz = len(found)
        rows.append(row)
    return RecurrenceCoeffs(rows)


def _extend_inverse(
    table: DeltaTable, lams: Sequence[GaussianRational], inverse: list, m_max: int
) -> None:
    """Append rows of d(m, k) to `inverse` until it reaches row m_max; only
    the band j <= order of the table is read."""
    rows = table.rows
    for m in range(len(inverse), m_max + 1):
        delta = rows[m]
        top = len(delta) - 1
        d = [
            dot_over(
                ((delta[j], inverse[m - j][k]) for j in range(1, min(top, m - k) + 1)),
                lams[k],
                lams[m],
            )
            for k in range(m)
        ]
        d.append(ONE)
        inverse.append(d)


def relation_residual(polys: Sequence[Poly], alpha_row: Sequence, n: int) -> Poly:
    """P_{n+1} - x P_n + sum_k alpha_row[k] P_k, which is zero iff row n holds.

    A symbolic oracle that never reads a delta table.  It runs the kernel of
    `apply_operator`: each P_k is lifted to Gaussian-integer numerators over
    its own denominator once, and kept, so checking every row of a family
    lifts each polynomial once; the weights 1, -1 and the nonzero alpha_k
    are put over one denominator per call.  Each residual coefficient is
    then a sum of integer products, and only a nonzero one is reduced.
    """
    if n + 1 >= len(polys):
        raise InsufficientData(f"need polynomials up to degree {n + 1}")
    groups = [(polys[n + 1], 0, [(0, ONE)]), (polys[n], 0, [(1, _MINUS_ONE)])]
    groups += [(polys[k], 0, [(0, a)]) for k, a in enumerate(alpha_row) if a]
    return _combination(groups)


def bandwidth(coeffs: RecurrenceCoeffs, n_start: int):
    """Smallest p with alpha(n, n-s) = 0 for all s > p on rows n_start..n_max.

    Returns None when no band is visible over the window: the observed band
    must end strictly below the shortest row (p < n_start), otherwise a row
    carries no zero tail at all and stability cannot be claimed.  Small-n
    rows are unrepresentative (the triangle truncates them), hence the
    caller-chosen window start.
    """
    if not 0 <= n_start <= coeffs.n_max:
        raise DomainError(f"window start {n_start} outside table rows 0..{coeffs.n_max}")
    p = 0
    for n in range(n_start, coeffs.n_max + 1):
        row = coeffs.rows[n]
        for s in range(n, p, -1):
            if row[n - s]:
                p = s
                break
    return p if p < n_start else None
