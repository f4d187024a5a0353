"""The inverse problem: recover a finite-order Bochner operator from
prescribed eigenvalues and monic eigenpolynomials, when one exists.

From the data alone a delta table is defined: delta(n, 0) = lambda_n, and
for 1 <= k <= n a k x k Hessenberg determinant in the lambdas and the
polynomial coefficients.  Expanding that determinant along its last column
collapses it to the linear recursion

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
from .scalars import ONE, ZERO, dot
from .spectral import EigenSystem, delta_extend


def deltas_from_eigendata_det(data: EigenSystem, n_max: int) -> DeltaTable:
    """The full delta table of the data up to row n_max, straight from the
    determinant definition, one Hessenberg expansion per diagonal.

    For the diagonal base = n - k the matrix has unit subdiagonal; column c
    holds, top to bottom, (lambda_base - lambda_{base+c}) b(base+c, base) in
    the first row and b(base+c, base+j-1) in row j >= 2.  Its leading k x k
    minor is (-1)^k delta(base + k, k): the first row carries the negated gap
    lambda_{n-k} - lambda_n of the recursion, and with a +1 subdiagonal the
    cofactor signs (-1)^(k-j) of the last-column expansion do not cancel, so
    by induction on k every term of the expansion is (-1)^k times the
    matching term of the recursion.
    """
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if n_max > data.n_max:
        raise InsufficientData(f"data reaches degree {data.n_max}, need {n_max}")
    lams = data.lambdas
    rows = [[lams[n]] + [ZERO] * n for n in range(n_max + 1)]
    for base in range(n_max):
        size = n_max - base
        matrix = [
            [(lams[base] - lams[base + c]) * data.coeff(base + c, base) for c in range(1, size + 1)]
        ]
        for j in range(2, size + 1):
            row = [ZERO] * (j - 2) + [ONE]
            row += [data.coeff(base + c, base + j - 1) for c in range(j, size + 1)]
            matrix.append(row)
        chain = hessenberg_determinant(matrix)
        for k in range(1, size + 1):
            rows[base + k][k] = chain[k] if k % 2 == 0 else -chain[k]
    return DeltaTable(rows)


def deltas_from_eigendata_rec(data: EigenSystem, n_max: int) -> DeltaTable:
    """The full delta table of the data up to row n_max, by the recursion."""
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if n_max > data.n_max:
        raise InsufficientData(f"data reaches degree {data.n_max}, need {n_max}")
    lams = data.lambdas
    rows = []
    for n in range(n_max + 1):
        b = data.polys[n].coeffs
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


def first_order_violation(table: DeltaTable, order: int, n_max: int):
    """First (n, k) at which the finite-order criterion breaks, or None.

    Rows order+1 .. n_max must match the extension from rows 0..order for
    k <= order and vanish for k > order.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if n_max <= order:
        raise InsufficientData(
            f"need rows beyond the order to test it: n_max={n_max}, order={order}"
        )
    if table.n_max < n_max:
        raise InsufficientData(f"table holds rows up to {table.n_max}, need {n_max}")
    for n in range(order + 1, n_max + 1):
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

    `table` is the data's delta table up to row data.n_max, when the caller
    has already built it by `deltas_from_eigendata_rec`; by default it is
    built here.

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
        table = deltas_from_eigendata_rec(data, data.n_max)
    violation = first_order_violation(table, order, data.n_max)
    if violation is not None:
        raise NoFiniteOrderOperator(order, violation)
    op = operator_from_deltas(table, order)
    for n in range(data.n_max + 1):
        if not is_eigenpair(op, data.polys[n], data.lambdas[n]):
            raise VerificationError(
                f"reconstructed operator fails the eigen-equation at degree {n}"
            )
    return op
