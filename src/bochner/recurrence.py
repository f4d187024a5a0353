"""Recurrence fitting for monic polynomial families and band detection.

Any family of monic polynomials with deg P_n = n satisfies a unique relation

    sum_{k=0}^{n} alpha(n, k) P_k - x P_n + P_{n+1} = 0

for each n, because {P_0, ..., P_n, x P_n} is a basis of the polynomials of
degree n+1.  A family solves the bispectral problem precisely when the alpha
table is banded, i.e. alpha(n, n-s) = 0 for all s beyond some fixed p, which
makes the relation a (p+2)-term recurrence.

`fit_recurrence` takes each row by one of two exact routes, which give the
same table.  Both sum the Gaussian-integer numerators of the P_n, each
lifted once over its own denominator and kept in the polynomial (the
kernel of `polynomials`), so an entry whose integer sums are both zero is
stored as ZERO with no gcd, and a nonzero one is reduced once
(`from_parts`).  Summed as scalars, each zero entry of a banded row took
three reductions of the row's largest numbers, which at a few hundred bits
made the zeros the bulk of a banded fit.

- The sequential solve matches the x^(n-j) coefficients for j = 0, 1, ...:
  alpha(n, k) is the x^k coefficient of x P_n - P_{n+1} minus
  alpha(n, i) P_i over the nonzero entries i > k of the row solved so far.
  The row starts as those two terms over one denominator (`_sums`), and
  each nonzero entry found adds its term (`_add_product`), the sums first
  put over a larger denominator when the term needs one.  A zero entry
  costs two integer tests; a nonzero one, one reduction and a pass over
  the numerators of one P_k, so a dense row costs a pass per entry.
- The transposed route uses the inverse connection coefficients d(m, k),
  x^m = sum_k d(m, k) P_k with d(m, m) = 1.  Applying the operator to x^m,
  L x^m = sum_j delta(m, j) x^(m-j), and matching P_k gives

      d(m, k) (lambda_k - lambda_m) = sum_{j=1}^{min(N, m-k)} delta(m, j) d(m-j, k),

  the eigenpolynomial recursion transposed.  Over the reversed band
  (`scalars.mirror_band`) it is that recursion itself, so each column
  d(k..M, k) is one `descend`, lifted once over its own denominator.
  Expanding x P_n = sum_j b(n, j) x^(j+1) then gives each entry as one
  integer inner product, over the product of the two denominators and
  independent of every other alpha:

      alpha(n, k) = sum_{j >= k-1} b(n, j) d(j+1, k).

Row n takes the transposed route when row n-1 has more nonzero entries
than the delta table's band is wide, that is, once the family of an
order-N operator has left the (N+1)-term band; every column of d is built
once, on the first such row, through row M = system.n_max, which the last
row reads.  A family with an (N+1)-term recurrence has at most N nonzeros
per row, so the classical and product-form fits never leave the sequential
solve, and neither does a fit on a table no deeper than its order or on a
full triangle, whose band is as wide as the table is deep.
`relation_residual` re-expands a row symbolically, over Gaussian-integer
numerators, and reads neither route.
"""
from __future__ import annotations

import math
from operator import add, mul
from typing import Sequence

from .errors import DomainError, InsufficientData
from .operators import DeltaTable
from .polynomials import Poly, _add_product, _combination, _lifted_coeffs, _sums
from .scalars import (
    GaussianRational,
    ONE,
    ZERO,
    descend,
    from_parts,
    lift,
    lift_band,
    mirror_band,
)
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
    P_n and P_{n+1} for j = 0, 1, ..., unless row n-1 has more nonzero
    entries than the table's band width N, i.e. the family has left the
    (N+1)-term band; then every entry is
    alpha(n, k) = sum_{j >= k-1} b(n, j) d(j+1, k), with the inverse
    connection coefficients

        d(m, k) = sum_{j=1}^{min(N, m-k)} delta(m, j) d(m-j, k) / (lambda_k - lambda_m)

    built once, column by column, as `descend` over the mirrored band.
    Both routes sum the lifted numerators of the P_n, and only a nonzero
    entry is reduced.
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
    polys = system.polys
    width = len(table.rows[-1]) - 1
    top = system.n_max
    columns = None
    rows = []
    nnz = 0
    for n in range(top):
        if nnz > width:
            if columns is None:
                band = mirror_band(lift_band(table.rows, lams))
                columns = [lift(descend(band, top - k)[::-1]) for k in range(top + 1)]
            den, xs, ys = _lifted_coeffs(polys[n])
            row = _transposed_row(xs, ys, den, columns)
        else:
            row = _sequential_row(polys, n)
        nnz = sum(map(bool, row))
        rows.append(row)
    return RecurrenceCoeffs(rows)


def _sequential_row(polys, n) -> list:
    """Row n of the alpha table by the sequential solve, from the top.

    (den, re, im) holds the numerators of x P_n - P_{n+1} - sum_i alpha(n, i) P_i
    over the nonzero entries i > k found so far, so its x^k coefficient is
    alpha(n, k): a zero one is skipped, a nonzero one is reduced once and
    its term -alpha(n, k) P_k added, with the sums first put over a larger
    denominator when the term needs one.
    """
    den, re, im = _sums([(polys[n], 0, [(1, ONE)]), (polys[n + 1], 0, [(0, _MINUS_ONE)])])
    row = [ZERO] * (n + 1)
    for k in range(n, -1, -1):
        if not (re[k] or im[k]):
            continue
        value = row[k] = from_parts(re[k], im[k], den)
        if not k:
            break
        d, xs, ys = _lifted_coeffs(polys[k])
        e, (wp,), (wq,) = lift((-value,), (d,))
        total = math.lcm(den, e)
        if total != den:
            scale = total // den
            re[:k] = [v * scale for v in re[:k]]
            im[:k] = [v * scale for v in im[:k]]
            den = total
        factor = total // e
        _add_product(re, im, 0, wp * factor, wq * factor, xs, ys)
    return row


def _transposed_row(xs, ys, den, columns) -> list:
    """Row n of the alpha table from the lifted coefficients
    (xs[j] + ys[j]*i)/den = b(n, j), j = 0..n (ys None for a real P_n), and
    the lifted columns columns[k] = (e, ps, qs), (ps[s] + qs[s]*i)/e =
    d(k + s, k): alpha(n, k) is one integer inner product of b(n, k-1..n)
    with d(k..n+1, k), b(n, -1) = 0, over den * e.  A non-real P_n takes
    three real inner products per entry, not four:
    (x + yi)(p + qi) = xp - yq + ((x + y)(p + q) - xp - yq) i.
    """
    n = len(xs) - 1
    xys = None if ys is None else list(map(add, xs, ys))
    row = []
    for k, (e, ps, qs) in enumerate(columns[: n + 1]):
        low = k - 1 if k else 0
        d_re, d_im = ps[low + 1 - k : n + 2 - k], qs[low + 1 - k : n + 2 - k]
        xp = sum(map(mul, xs[low:], d_re))
        if ys is None:
            re, im = xp, sum(map(mul, xs[low:], d_im))
        else:
            yq = sum(map(mul, ys[low:], d_im))
            re = xp - yq
            im = sum(map(mul, xys[low:], map(add, d_re, d_im))) - xp - yq
        row.append(from_parts(re, im, den * e))
    return row


def relation_residual(polys: Sequence[Poly], alpha_row: Sequence, n: int) -> Poly:
    """P_{n+1} - x P_n + sum_k alpha_row[k] P_k, which is zero iff row n holds.

    A symbolic oracle that never reads a delta table.  It runs the kernel of
    `apply_operator`: each P_k is lifted to Gaussian-integer numerators over
    its own denominator once, and kept, so checking every row of a family
    lifts each polynomial once; the weights 1, -1 and the nonzero alpha_k
    are put over one denominator per call.  Each residual coefficient is
    then a sum of integer products, and only a nonzero one is reduced.
    The row must hold the n + 1 entries alpha(n, 0..n).
    """
    if n < 0:
        raise DomainError(f"negative row {n}")
    if len(alpha_row) != n + 1:
        raise DomainError(f"row {n} must have {n + 1} entries, got {len(alpha_row)}")
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
