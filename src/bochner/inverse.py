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

`reconstruct` decides the criterion on the seed operator instead of on the
whole table.  For a non-degenerate spectrum the data's table is the unique
triangular solution of the eigen-equations with delta(n, 0) = lambda_n, so
the criterion holds at K exactly when every (lambda_n, P_n) is an eigenpair
of op_K, the operator inverted from rows 0..K.  Two lower bounds on every
fitting order follow:

- a violation in row K + 1 puts every fitting order at K + 1 or above;
- an eigen-equation failure of op_K at degree m puts it at m or above:
  degrees 0..m - 1 are eigenpairs of op_K, so rows 0..m - 1 are op_K's own
  rows, and for K < K' < m inverting rows 0..K' gives op_K again.

`reconstruct` climbs candidate orders on these bounds.  On data of an
operator of order N it draws the rows of `delta_rows` only up to K + 1 for
the first candidate K >= N, not the whole triangle; on data of none it
draws them only up to the row where the criterion at the requested order
first breaks.
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
    by `deltas_from_eigendata_rec`.  By default the rows are drawn from
    `delta_rows` here, only as far as the search needs them.  A table of
    another depth than the data's is refused: a shallower one would test
    the criterion on a shorter window.

    The search climbs candidate orders K = 1, 2, 4, ..., each the larger of
    twice the last and the proven lower bound, capped at `order`.  At each
    K the criterion is checked on row K + 1 only; when it holds there, op_K,
    inverted from rows 0..K, must pass the eigen-equation at every degree
    from K + 2 up.  For a non-degenerate spectrum this is the criterion at K
    (the data's table is the unique triangular solution of the
    eigen-equations with delta(n, 0) = lambda_n).  A violation in row K + 1
    proves every fitting order is at least K + 1; an eigen-equation failure
    at degree m proves it is at least m, because for K < K' < m rows 0..K'
    are op_K's own rows and give op_K again.  So the first K whose operator
    passes gives the operator the criterion at `order` gives.

    Raises NoFiniteOrderOperator at the first (n, k) where the finite-order
    criterion fails on the data's window at `order`, the one
    `first_order_violation` of the whole table gives; no row past it is
    drawn.  On success the operator (with trailing zero coefficients
    trimmed, so its order may come out lower) has passed the symbolic
    eigen-equation for every prescribed degree.  The criterion holds at
    every order from the true one upward, so the trimmed order is the
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
        source = delta_rows(data)
    elif table.n_max < data.n_max:
        raise InsufficientData(f"table holds rows up to {table.n_max}, need {data.n_max}")
    elif table.n_max > data.n_max:
        raise DomainError(f"table holds rows up to {table.n_max}, data only to {data.n_max}")
    else:
        source = iter(table.rows)
    rows = []
    pairs = list(zip(data.polys, data.lambdas))
    k = 1
    while True:
        rows.extend(islice(source, k + 2 - len(rows)))
        seed, violation = _first_violation(rows, k)
        if violation is not None:
            if k == order:
                raise NoFiniteOrderOperator(order, violation)
            # every order that fits is at least k + 1
            bound = k + 1
        else:
            # op_k fits unless it fails at some degree m, and then every
            # order that fits is at least m
            op = operator_from_deltas(seed, k)
            bound = next(
                (m for m in range(k + 2, len(pairs)) if not is_eigenpair(op, *pairs[m])), None
            )
            if bound is None:
                for n in range(k + 2):
                    if not is_eigenpair(op, *pairs[n]):
                        raise VerificationError(
                            f"reconstructed operator fails the eigen-equation at degree {n}"
                        )
                return op
            if k == order or bound > order:
                break
        k = min(max(2 * k, bound), order)
    # no order up to `order` fits: the criterion at `order` breaks first in
    # the row of the failing degree
    _, violation = _first_violation(chain(rows, source), order)
    if violation is None:
        raise VerificationError(
            f"reconstructed operator fails the eigen-equation at degree {bound}"
        )
    raise NoFiniteOrderOperator(order, violation)
