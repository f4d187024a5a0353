"""The inverse problem: recover a finite-order Bochner operator from
prescribed eigenvalues and monic eigenpolynomials, when one exists.

From the data alone a delta table is defined: delta(n, 0) = lambda_n, and
for 1 <= k <= n a k x k Hessenberg determinant, with subdiagonal -1, in the
lambdas and the polynomial coefficients.  Expanding that determinant along
its last column collapses it to the linear recursion

    delta(n, k) = (lambda_n - lambda_{n-k}) b(n, n-k)
                  - sum_{j=1}^{k-1} delta(n-k+j, j) b(n, n-k+j)

used by `deltas_from_eigendata_rec`.  The matrix of delta(n, k) depends on
n and k only through the diagonal base n - k, and the matrices along one
diagonal are nested leading submatrices, so `deltas_from_eigendata_det`
reads every delta(base + k, k) off the chain of leading minors of one
expansion per diagonal.  The two routes agree entrywise and are kept as
mutual cross-checks.  The data comes from an operator of order N
exactly when every row past N of this table is the binomial extension of
rows 0..N and the columns above N vanish, that is, when
`first_order_violation` finds no entry where this breaks.  The operator
coefficients then fall out of the same inversion formula as in the direct
problem and `reconstruct` returns the operator, re-verified against the
symbolic eigen-equation.

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

from itertools import chain

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


def deltas_from_eigendata_rec(data: EigenSystem) -> DeltaTable:
    """The full delta table of the data up to its top degree, by the recursion."""
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
    return DeltaTable(rows)


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
    for n in range(order + 1, table.n_max + 1):
        for k in range(n + 1):
            actual = table.value(n, k)
            if k <= order:
                expected = delta_extend(table, n, k, order=order)
                if actual != expected:
                    return (n, k)
            elif actual:
                return (n, k)
    return None


def reconstruct(data: EigenSystem, order: int, table: DeltaTable | None = None) -> BochnerOperator:
    """The operator of the given order with the prescribed eigen-data.

    `table` is the data's delta table, when the caller has already built it
    by `deltas_from_eigendata_rec`; by default it is built here.  A table of
    another depth than the data's is refused: a shallower one would test
    the criterion on a shorter window.

    Raises NoFiniteOrderOperator when the finite-order criterion fails on the
    data's window.  On success the operator (with trailing zero coefficients
    trimmed, so its order may come out lower) is re-verified against the
    symbolic eigen-equation for every prescribed degree.  The criterion holds
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
        table = deltas_from_eigendata_rec(data)
    elif table.n_max < data.n_max:
        raise InsufficientData(f"table holds rows up to {table.n_max}, need {data.n_max}")
    elif table.n_max > data.n_max:
        raise DomainError(f"table holds rows up to {table.n_max}, data only to {data.n_max}")
    violation = first_order_violation(table, order)
    if violation is not None:
        raise NoFiniteOrderOperator(order, violation)
    op = operator_from_deltas(table, order)
    for n in range(data.n_max + 1):
        if not is_eigenpair(op, data.polys[n], data.lambdas[n]):
            raise VerificationError(
                f"reconstructed operator fails the eigen-equation at degree {n}"
            )
    return op
