"""The inverse problem: recover a finite-order Bochner operator from
prescribed eigenvalues and monic eigenpolynomials, when one exists.

From the data alone a delta table is defined: delta(n, 0) = lambda_n, and
for 1 <= k <= n a k x k Hessenberg determinant in the lambdas and the
polynomial coefficients (`deltas_from_eigendata_det`).  Expanding that
determinant along its last column collapses it to the linear recursion

    delta(n, k) = (lambda_n - lambda_{n-k}) b(n, n-k)
                  - sum_{j=1}^{k-1} delta(n-k+j, j) b(n, n-k+j)

used by `deltas_from_eigendata_rec`; the two routes agree entrywise and are
kept as mutual cross-checks.  The data comes from an operator of order N
exactly when every row past N of this table is the binomial extension of
rows 0..N and the columns above N vanish (`finite_order_test`); in that case
the operator coefficients fall out of the same inversion formula as in the
direct problem and `reconstruct` returns the operator, re-verified against
the symbolic eigen-equation.

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

from .errors import (
    DomainError,
    InsufficientData,
    NoFiniteOrderOperator,
    VerificationError,
)
from .hessenberg import hessenberg_determinant
from .operators import BochnerOperator, DeltaTable, operator_from_deltas
from .polynomials import is_eigenpair
from .scalars import GaussianRational, ONE, ZERO
from .spectral import EigenSystem, delta_extend


def deltas_from_eigendata_det(data: EigenSystem, n: int, k: int) -> GaussianRational:
    """delta(n, k) straight from its determinant definition.

    The matrix is k x k with unit subdiagonal; column c holds, top to bottom,
    (lambda_{n-k} - lambda_{n-k+c}) b(n-k+c, n-k) in the first row and
    b(n-k+c, n-k+j-1) in row j >= 2.  The determinant carries a (-1)^k sign.
    """
    if n < 0 or k < 0:
        raise DomainError(f"negative position ({n}, {k})")
    if n > data.n_max:
        raise InsufficientData(f"data reaches degree {data.n_max}, row {n} requested")
    if k == 0:
        return data.lambdas[n]
    if k > n:
        return ZERO
    lams = data.lambdas
    base = n - k
    matrix = []
    for j in range(1, k + 1):
        row = []
        for c in range(1, k + 1):
            if j == 1:
                row.append((lams[base] - lams[base + c]) * data.coeff(base + c, base))
            elif j == c + 1:
                row.append(ONE)
            elif j > c + 1:
                row.append(ZERO)
            else:
                row.append(data.coeff(base + c, base + j - 1))
        matrix.append(row)
    det = hessenberg_determinant(matrix)
    return det if k % 2 == 0 else -det


def deltas_from_eigendata_rec(data: EigenSystem, n_max: int) -> DeltaTable:
    """The full delta table of the data up to row n_max, by the recursion."""
    if n_max < 0:
        raise DomainError(f"n_max must be nonnegative, got {n_max}")
    if n_max > data.n_max:
        raise InsufficientData(f"data reaches degree {data.n_max}, need {n_max}")
    lams = data.lambdas
    rows = []
    for n in range(n_max + 1):
        row = [lams[n]]
        for k in range(1, n + 1):
            value = (lams[n] - lams[n - k]) * data.coeff(n, n - k)
            for j in range(1, k):
                b = data.coeff(n, n - k + j)
                if b:
                    d = rows[n - k + j][j]
                    if d:
                        value = value - d * b
            row.append(value)
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


def finite_order_test(table: DeltaTable, order: int, n_max: int) -> bool:
    """True iff the table is consistent with an operator of the given order,
    over the verified window of rows up to n_max."""
    return first_order_violation(table, order, n_max) is None


def reconstruct(data: EigenSystem, order: int) -> BochnerOperator:
    """The operator of the given order with the prescribed eigen-data.

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
