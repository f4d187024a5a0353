"""Recurrence fitting for monic polynomial families and band detection.

Any family of monic polynomials with deg P_n = n satisfies a unique relation

    sum_{k=0}^{n} alpha(n, k) P_k - x P_n + P_{n+1} = 0

for each n, because {P_0, ..., P_n, x P_n} is a basis of the polynomials of
degree n+1.  Solving the triangular system row by row gives the alpha table
exactly; a family solves the bispectral problem precisely when the table is
banded, i.e. alpha(n, n-s) = 0 for all s beyond some fixed p, which makes
the relation a (p+2)-term recurrence.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DomainError, InsufficientData
from .polynomials import Poly, _fused_poly
from .scalars import GaussianRational, ONE, ZERO, dot
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


def fit_recurrence(system: EigenSystem) -> RecurrenceCoeffs:
    """Solve for the alpha table of a monic family; exact and unique.

    Row n is obtained from the coefficients of P_n and P_{n+1}: matching the
    x^(n-j) coefficient for j = 0, 1, ... gives each alpha(n, n-j) in terms
    of the previously solved entries.  The family must reach one degree past
    the last fitted row.
    """
    if system.n_max < 1:
        raise InsufficientData("need polynomials at least up to degree 1")
    coeffs = [p.coeffs for p in system.polys]
    rows = []
    for n in range(system.n_max):
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
        rows.append(row)
    return RecurrenceCoeffs(rows)


def relation_residual(polys: Sequence[Poly], alpha_row: Sequence, n: int) -> Poly:
    """P_{n+1} - x P_n + sum_k alpha_row[k] P_k, which is zero iff row n holds.

    A symbolic oracle that never reads a delta table: each coefficient of the
    residual is one fused `dot` over the pairs (1, P_{n+1}[m]),
    (-1, P_n[m-1]) and (alpha_k, P_k[m]) for the nonzero alpha_k.
    """
    if n + 1 >= len(polys):
        raise InsufficientData(f"need polynomials up to degree {n + 1}")
    terms = [(0, ONE, polys[n + 1].coeffs), (1, _MINUS_ONE, polys[n].coeffs)]
    terms += [(0, a, polys[k].coeffs) for k, a in enumerate(alpha_row) if a]
    return _fused_poly(terms)


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
