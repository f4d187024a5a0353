"""The inverse problem: recover a finite-order Bochner operator from
prescribed eigenvalues and monic eigenpolynomials, when one exists.

From the data alone a delta table is defined: delta(n, 0) = lambda_n, and
for 1 <= k <= n a k x k Hessenberg determinant, with subdiagonal -1, in the
lambdas and the polynomial coefficients.  Expanding that determinant along
its last column collapses it to the linear recursion

    delta(n, k) = (lambda_n - lambda_{n-k}) b(n, n-k)
                  - sum_{j=1}^{k-1} delta(n-k+j, j) b(n, n-k+j)

run row by row by `delta_rows`; `deltas_from_eigendata_rec` is the table of
its rows, as `spectral.eigensystem` is the tuple of `spectral.eigenpolys`.
The matrix of delta(n, k) depends on n and k only through the diagonal
base n - k, and the matrices along one diagonal are nested leading
submatrices, so `deltas_from_eigendata_det` reads every delta(base + k, k)
off the chain of leading minors of one expansion per diagonal.  The two
routes agree entrywise and are kept as mutual cross-checks.  The data comes
from an operator of order N exactly when every row past N of this table is the binomial extension of
rows 0..N and the columns above N vanish, that is, when
`first_order_violation` finds no entry where this breaks.  The operator
coefficients then fall out of the same inversion formula as in the direct
problem and `reconstruct` returns the operator, re-verified against the
symbolic eigen-equation.  Without a table from its caller, `reconstruct`
checks each row of `delta_rows` past the order as it is built, with the
same per-row check as `first_order_violation`, so on data of no operator it
computes and holds the rows up to the first violation and none after it.

The criterion is monotone in the order.  If it holds at K, the data's table
equals the table of the operator reconstructed at K over the whole window.
The table of an operator of order N meets the criterion at every K >= N,
because each column delta(., k) lies in the span of the C(n, i) for
i = k..N.  No order below N fits, because two operators whose tables agree on
rows 0..n_max are equal.  So one reconstruction at the largest testable order,
n_max - 1, trims to the smallest order that fits; when it fails, no smaller
order fits either.
"""
from __future__ import annotations

from itertools import chain, islice
from typing import Iterator

from .errors import (
    DomainError,
    InsufficientData,
    NoFiniteOrderOperator,
    VerificationError,
)
from .hessenberg import hessenberg_determinant
from .operators import BochnerOperator, DeltaTable, operator_from_deltas
from .polynomials import is_eigenpair
from .scalars import ZERO, dot
from .spectral import EigenSystem, delta_extend


def deltas_from_eigendata_det(data: EigenSystem) -> DeltaTable:
    """The full delta table of the data up to its top degree, straight from
    the determinant definition, one Hessenberg expansion per diagonal.

    For the diagonal base = n - k the matrix has subdiagonal -1; column c
    holds, top to bottom, (lambda_{base+c} - lambda_base) b(base+c, base) in
    the first row and -b(base+c, base+j-1) in row j >= 2.  Expanding its
    leading k x k minor along the last column is the recursion for
    delta(base + k, k) term by term.
    """
    n_max = data.n_max
    lams = data.lambdas
    rows = [[lams[n]] + [ZERO] * n for n in range(n_max + 1)]
    for base in range(n_max):
        columns = []
        for c in range(1, n_max - base + 1):
            b = data.polys[base + c].coeffs
            columns.append(
                [(lams[base + c] - lams[base]) * b[base]] + [-v for v in b[base + 1 : base + c]]
            )
        for k, minor in enumerate(hessenberg_determinant(columns)[1:], 1):
            rows[base + k][k] = minor
    return DeltaTable(rows)


def delta_rows(data: EigenSystem) -> Iterator[list]:
    """The rows delta(n, 0..n) of the data's table, n = 0 up to its top
    degree, by the recursion, each computed when it is drawn."""
    lams = data.lambdas
    rows = []
    for n, p in enumerate(data.polys):
        b = p.coeffs
        minus_b = [-c for c in b]
        lam = lams[n]
        row = [lam]
        for k in range(1, n + 1):
            # the gap term (lambda_n - lambda_{n-k}) b(n, n-k) enters as two pairs
            gap = ((lam, b[n - k]), (lams[n - k], minus_b[n - k]))
            rest = ((rows[n - k + j][j], minus_b[n - k + j]) for j in range(1, k))
            row.append(dot(chain(gap, rest)))
        rows.append(row)
        yield row


def deltas_from_eigendata_rec(data: EigenSystem) -> DeltaTable:
    """The full delta table of the data up to its top degree, by the recursion."""
    return DeltaTable(delta_rows(data))


def first_order_violation(table: DeltaTable, order: int):
    """First (n, k) at which the finite-order criterion breaks, or None.

    Rows order+1 .. table.n_max must match the extension from rows 0..order
    for k <= order and vanish for k > order.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if table.n_max <= order:
        raise InsufficientData(
            f"need rows beyond the order to test it: n_max={table.n_max}, order={order}"
        )
    return _first_violation(table.rows, order)[1]


def _first_violation(rows, order: int):
    """(seed, failure) for `rows`, an iterable of delta rows 0, 1, ...
    holding more than `order` + 1 of them: the table of rows 0..order, and
    the first (n, k) past it at which the criterion breaks, or None.  Each
    row is checked as it is drawn, so no row past a failure is drawn."""
    rows = iter(rows)
    seed = DeltaTable(islice(rows, order + 1))
    for n, row in enumerate(rows, order + 1):
        for k in range(n + 1):
            actual = row[k] if k < len(row) else ZERO
            if k <= order:
                if actual != delta_extend(seed, n, k, order=order):
                    return seed, (n, k)
            elif actual:
                return seed, (n, k)
    return seed, None


def reconstruct(data: EigenSystem, order: int, table: DeltaTable | None = None) -> BochnerOperator:
    """The operator of the given order with the prescribed eigen-data.

    `table` is the data's delta table, when the caller has already built it
    by `deltas_from_eigendata_rec`.  By default the rows are built here,
    one at a time, and each row past `order` is checked as soon as it is
    built, so a failure raises before any later row is computed.  A table
    of another depth than the data's is refused: a shallower one would test
    the criterion on a shorter window.

    Raises NoFiniteOrderOperator at the first (n, k) where the finite-order
    criterion fails on the data's window, the one `first_order_violation`
    of the whole table gives.  On success the operator (with trailing zero
    coefficients trimmed, so its order may come out lower) is re-verified
    against the symbolic eigen-equation for every prescribed degree.  The criterion holds
    at every order from the true one upward, so the trimmed order is the
    smallest order <= `order` that fits: `order = data.n_max - 1` searches
    all testable orders at once.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if data.n_max < order + 1:
        raise InsufficientData(
            f"need data at least to degree {order + 1}, got {data.n_max}"
        )
    if table is None:
        rows = delta_rows(data)
    elif table.n_max < data.n_max:
        raise InsufficientData(f"table holds rows up to {table.n_max}, need {data.n_max}")
    elif table.n_max > data.n_max:
        raise DomainError(f"table holds rows up to {table.n_max}, data only to {data.n_max}")
    else:
        rows = table.rows
    seed, violation = _first_violation(rows, order)
    if violation is not None:
        raise NoFiniteOrderOperator(order, violation)
    op = operator_from_deltas(seed, order)
    for n in range(data.n_max + 1):
        if not is_eigenpair(op, data.polys[n], data.lambdas[n]):
            raise VerificationError(
                f"reconstructed operator fails the eigen-equation at degree {n}"
            )
    return op
