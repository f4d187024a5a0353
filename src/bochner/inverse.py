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
from an operator of order N exactly when every row past N of this table is
the binomial extension of rows 0..N and the columns above N vanish, that
is, when `first_order_violation` finds no entry where this breaks.  The
operator coefficients then fall out of the same inversion formula as in the
direct problem.

The criterion is monotone in the order.  If it holds at K, the data's table
equals the table of the operator reconstructed at K over the whole window.
The table of an operator of order N meets the criterion at every K >= N,
because each column delta(., k) lies in the span of the C(n, i) for
i = k..N.  No order below N fits, because two operators whose tables agree on
rows 0..n_max are equal.  So a reconstruction at the largest testable order,
n_max - 1, trims to the smallest order that fits; when it fails, no smaller
order fits either.

`reconstruct` decides the criterion on the candidate operator's own table,
through one residual identity.  Expand L x^u = sum_t delta_L(u, t) x^(u - t)
for an operator L: if L's table shares rows 0..m - 1 with the data's, the
x^(m - j) coefficient of L P_m - lambda_m P_m is delta_L(m, j) - delta(m, j),
the data's row m read off the eigen-equation of P_m coefficient by
coefficient.  So (lambda_m, P_m) is an eigenpair of L exactly when row m is
shared too, and where it is not, the first entry of row m that differs is
k = m - deg(L P_m - lambda_m P_m).  op_K, the operator inverted from rows
0..K, shares rows 0..K, so it passes the eigen-equation at every degree up
to K, and one bound rule follows: if m is the first degree where op_K fails
the eigen-equation, then m > K, rows 0..m - 1 are op_K's own rows and row m
is not, so every order that fits is at least m (for K < K' < m, inverting
rows 0..K' gives op_K again); if no degree fails, the criterion holds at K.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, islice

from .errors import (
    DomainError,
    InsufficientData,
    NoFiniteOrderOperator,
    VerificationError,
)
from .hessenberg import hessenberg_determinant
from .operators import BochnerOperator, DeltaTable, operator_from_deltas
from .polynomials import apply_operator, is_eigenpair
from .scalars import ZERO, dot
from .spectral import EigenSystem, delta_extend


def deltas_from_eigendata_det(data: EigenSystem) -> DeltaTable:
    """The full delta table of the data up to its top degree, straight from
    the determinant definition, one Hessenberg expansion per diagonal.

    For the diagonal base = n - k the matrix has subdiagonal -1; column c
    holds, top to bottom, (lambda_{base+c} - lambda_base) b(base+c, base) in
    the first row and -b(base+c, base+j-1) in row j >= 2.  Expanding its
    leading k x k minor along the last column is the recursion for
    delta(base + k, k) term by term.  A column's entries share no factor,
    so the expansion takes no divisors.
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
    for k <= order and vanish for k > order.  Past a row's band both sides
    are zero, so only the stored entries are compared.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if table.n_max <= order:
        raise InsufficientData(
            f"need rows beyond the order to test it: n_max={table.n_max}, order={order}"
        )
    for n, row in enumerate(table.rows[order + 1 :], order + 1):
        for k, actual in enumerate(row):
            if actual != delta_extend(table, n, k, order=order):
                return n, k
    return None


def reconstruct(data: EigenSystem, order: int) -> BochnerOperator:
    """The operator of the given order with the prescribed eigen-data.

    The search climbs candidate orders K = 1, 2, 4, ..., each the larger of
    twice the last and the proven lower bound, capped at `order`.  At each K
    it draws rows 0..K of `delta_rows`, inverts them to op_K and runs the
    eigen-equation of op_K once at every degree, those past K first.  By the
    bound rule of the module docstring, no failure is the criterion at K,
    and a first failure at degree m > K makes m the next lower bound; one at
    a degree up to K breaks the rows op_K shares with the data, a
    VerificationError.  So the first K whose operator passes gives the
    operator the criterion at `order` gives.

    Raises NoFiniteOrderOperator at the first (n, k) where the finite-order
    criterion fails on the data's window at `order`, the one
    `first_order_violation` of the whole table gives: (m, m - deg R) for the
    residual R = op_K P_m - lambda_m P_m at the failing degree m, by the
    residual identity of the module docstring.  On success the operator
    (with trailing zero coefficients trimmed, so its order may come out
    lower) has passed the symbolic eigen-equation for every prescribed
    degree.  The criterion holds at every order from the true one upward, so
    the trimmed order is the smallest order <= `order` that fits:
    `order = data.n_max - 1` searches all testable orders at once.
    """
    if order < 1:
        raise DomainError(f"order must be positive, got {order}")
    if data.n_max < order + 1:
        raise InsufficientData(
            f"need data at least to degree {order + 1}, got {data.n_max}"
        )
    source = delta_rows(data)
    rows = []
    pairs = list(zip(data.polys, data.lambdas))
    k = 1
    while True:
        rows.extend(islice(source, k + 1 - len(rows)))
        op = operator_from_deltas(DeltaTable(rows), k)
        # op_k passes degrees 0..k by construction, so they are checked
        # last: a first failure m past k makes every order that fits at
        # least m
        degrees = chain(range(k + 1, len(pairs)), range(k + 1))
        bound = next((m for m in degrees if not is_eigenpair(op, *pairs[m])), None)
        if bound is None:
            return op
        if bound <= k:
            raise VerificationError(
                f"reconstructed operator fails the eigen-equation at degree {bound}"
            )
        if k == order or bound > order:
            break
        k = min(max(2 * k, bound), order)
    # no order up to `order` fits: rows 0..bound - 1 are op's own rows, so
    # the criterion breaks first at the residual's top coefficient
    p, lam = pairs[bound]
    image = apply_operator(op, p)
    top = next(j for j in range(bound, -1, -1) if image.coeff(j) != lam * p.coeff(j))
    raise NoFiniteOrderOperator(order, (bound, bound - top))
