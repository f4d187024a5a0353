"""Shared fixtures: classical families generated independently of the
package's spectral machinery, and a reproducible corpus of random operators.
"""
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest
from hypothesis import strategies as st

from bochner import (
    BochnerOperator,
    DeltaTable,
    EigenSystem,
    GaussianRational,
    NoFiniteOrderOperator,
    Poly,
    RecurrenceCoeffs,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    reconstruct,
)
from bochner import cli
from bochner.errors import DomainError, InsufficientData, VerificationError
from bochner.hessenberg import hessenberg_determinant
from bochner.inverse import _first_violation, delta_rows
from bochner.operators import deltas_from_operator, normalize, operator_from_deltas
from bochner.polynomials import is_eigenpair
from bochner.scalars import ONE, ZERO, comb, dot, factorial, format_scalar
from bochner.serialize import delta_table_to_list, poly_to_list
from bochner.spectral import eigensystem


def combination(terms):
    """The polynomial sum of c x^j p over `terms` (c, j, p), coefficient by
    coefficient as a chain of plain scalar `+` and `*`, reduced after every
    step."""
    coeffs = []
    for c, j, p in terms:
        coeffs += [ZERO] * (j + len(p.coeffs) - len(coeffs))
        for u, b in enumerate(p.coeffs, j):
            coeffs[u] = coeffs[u] + c * b
    return Poly(coeffs)


def bump(p, k=0, by=1):
    """p with its x^k coefficient moved by `by`."""
    coeffs = list(p.coeffs)
    coeffs[k] = coeffs[k] + by
    return Poly(coeffs)


def derivative(p, order):
    """d^order p, each coefficient times the plain int perm(u, order)."""
    return Poly([b * math.perm(u, order) for u, b in enumerate(p.coeffs) if u >= order])


def monic_hermite(n_max):
    """Monic Hermite polynomials from their three-term recurrence
    P_{n+1} = x P_n - (n/2) P_{n-1}; independent of the delta machinery."""
    polys = [Poly([1])]
    if n_max >= 1:
        polys.append(Poly([0, 1]))
    for n in range(1, n_max):
        polys.append(combination([(1, 1, polys[n]), (-Fraction(n, 2), 0, polys[n - 1])]))
    return polys


def monic_laguerre(n_max, alpha=Fraction(0)):
    """Monic Laguerre polynomials from
    P_{n+1} = (x - (2n + 1 + alpha)) P_n - n (n + alpha) P_{n-1}."""
    polys = [Poly([1])]
    if n_max >= 1:
        polys.append(Poly([-(alpha + 1), 1]))
    for n in range(1, n_max):
        polys.append(combination([
            (1, 1, polys[n]),
            (-(2 * n + 1 + alpha), 0, polys[n]),
            (-n * (n + alpha), 0, polys[n - 1]),
        ]))
    return polys


def random_rational(rng, bound=1000):
    # biased toward small values so coefficient growth stays manageable
    if rng.random() < 0.6:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_gaussian(rng, bound=1000, allow_imag=True):
    re = random_rational(rng, bound)
    im = random_rational(rng, bound) if allow_imag and rng.random() < 0.3 else Fraction(0)
    return GaussianRational(re, im)


def _leading_lambda(polys, n):
    # eigenvalue of the operator with coefficient polynomials `polys` at
    # index n, straight from the definition: sum_i C(n, i) i! a_{i,i}
    total = GaussianRational(0)
    for i in range(1, len(polys)):
        lead = polys[i].coeff(i)
        if lead:
            total = total + (comb(n, i) * factorial(i)) * lead
    return total


def random_bochner(rng, order, distinct_to=25, bound=1000):
    """Random normalized operator of the exact order with a usable spectrum."""
    while True:
        polys = [Poly()]
        for i in range(1, order + 1):
            degree = rng.randint(0, i)
            coeffs = [
                random_gaussian(rng, bound) if rng.random() < 0.75 else GaussianRational(0)
                for _ in range(degree + 1)
            ]
            polys.append(Poly(coeffs))
        if not polys[order]:
            continue
        lams = [_leading_lambda(polys, n) for n in range(distinct_to + 1)]
        if any(not lam for lam in lams[1:]):
            continue
        if len(set(lams)) != len(lams):
            continue
        return BochnerOperator(polys)


def build_corpus(seed=20260808, random_count=25, distinct_to=25):
    rng = Random(seed)
    ops = [
        ("hermite", hermite_operator()),
        ("laguerre(0)", laguerre_operator(0)),
        ("jacobi(1/2,1/3)", jacobi_operator(Fraction(1, 2), Fraction(1, 3))),
    ]
    orders = [1, 2, 3, 4, 5]
    for idx in range(random_count):
        order = orders[idx % len(orders)]
        ops.append((f"random{idx}(N={order})", random_bochner(rng, order, distinct_to)))
    return ops


@pytest.fixture(scope="session")
def corpus():
    """Presets plus 25 random operators (orders 1..5, coefficients <= 10^3)."""
    return build_corpus()


def search_order_by_order(data):
    """Reference search: try orders 1, 2, ... and stop at the first that fits.

    Returns (order, operator, None) on success and (None, None, failure of
    the last order tried) when no order fits.
    """
    failure = None
    for order in range(1, data.n_max):
        try:
            return order, reconstruct(data, order), None
        except NoFiniteOrderOperator as exc:
            failure = exc.failure
    return None, None, failure


def reconstruct_by_row_criterion(data, order, table=None):
    """Reference inverse: the finite-order criterion checked on every delta
    row past `order`, then the operator inverted from rows 0..order and
    re-verified at every prescribed degree."""
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


def full_triangle(table):
    """The table's entries as a full triangle with explicit zeros, the
    shape the inverse problem builds from eigen-data: a band as wide as the
    table is deep."""
    return DeltaTable(
        [[table.value(n, k) for k in range(n + 1)] for n in range(table.n_max + 1)]
    )


def coefficient_by_binomial_sum(table, n, k):
    """Reference inversion: the x^(n-k) coefficient of a_n as the binomial
    sum (1/n!) sum_{i=k}^{n} (-1)^(n-i) C(n, i) delta(i, k)."""
    total = GaussianRational(0)
    for i in range(k, n + 1):
        total = total + (-1) ** (n - i) * comb(n, i) * table.value(i, k)
    return total / factorial(n)


def deltas_from_operator_by_scalar_chain(op, n_max):
    """Reference table build: each delta(n, k) = sum_i C(n, i) i! a_{i, i-k}
    as a chain of scalar `+` and `*` over the nonzero a_{i, i-k}, reduced
    after every term."""
    order = op.order
    rows = []
    for n in range(n_max + 1):
        width = min(n, order)
        row = []
        for k in range(width + 1):
            total = ZERO
            for i in range(k, width + 1):
                a = op.coefficient(i, i - k)
                if a:
                    total = total + (comb(n, i) * factorial(i)) * a
            row.append(total)
        rows.append(row)
    return DeltaTable(rows)


def eigenpoly_coeff_det_by_entry_division(table):
    """Reference determinant route: for each degree n its own copy of the
    band columns, column c holding delta(n-c+k, k) / (lambda_n - lambda_{n-c})
    for k from min(c, w) down to 1, every entry divided on its own, and the
    expansion over those pre-divided columns with no divisors."""
    rows = table.rows
    lams = [row[0] for row in rows]
    polys = []
    for n in range(len(rows)):
        width = len(rows[n]) - 1
        columns = []
        for c in range(1, n + 1):
            gap = lams[n] - lams[n - c]
            entries = (rows[n - c + k][k] for k in range(min(c, width), 0, -1))
            columns.append([d / gap if d else d for d in entries])
        polys.append(Poly(hessenberg_determinant(columns)[::-1]))
    return EigenSystem(lams, polys)


def eigensystem_by_plain_arithmetic(table, n_max):
    """Reference recursion: each b(n, n-i) as a chain of plain +, * and /
    over the whole triangle of `table.value`, reduced after every step."""
    lams = [table.value(m, 0) for m in range(n_max + 1)]
    polys = []
    for n in range(n_max + 1):
        b = [GaussianRational(0)] * (n + 1)
        b[n] = GaussianRational(1)
        for i in range(1, n + 1):
            total = GaussianRational(0)
            for k in range(1, i + 1):
                total = total + table.value(n - i + k, k) * b[n - i + k]
            b[n - i] = total / (lams[n] - lams[n - i])
        polys.append(Poly(b))
    return EigenSystem(lams, polys)


def eigensystem_by_dot_quotient(table, n_max):
    """Reference recursion: each b(n, n-i) as one `dot` over the band of
    the table, the stored entries of each row, divided by the difference of
    eigenvalues with one `/`."""
    lams = [table.value(m, 0) for m in range(n_max + 1)]
    rows = table.rows
    polys = []
    for n in range(n_max + 1):
        width = len(rows[n]) - 1
        b = [ZERO] * (n + 1)
        b[n] = ONE
        for i in range(1, n + 1):
            pairs = ((rows[n - i + k][k], b[n - i + k]) for k in range(1, min(i, width) + 1))
            b[n - i] = dot(pairs) / (lams[n] - lams[n - i])
        polys.append(Poly(b))
    return EigenSystem(lams, polys)


def inverse_connection_by_dot(table, lams, m_max):
    """Reference inverse connection coefficients, x^m = sum_k d(m, k) P_k:
    rows d(m, 0..m) for m <= m_max, upward from d(m, m) = 1, each entry one
    `dot` over the band of row m divided with one `/`:

        d(m, k) = sum_{j=1}^{min(N, m-k)} delta(m, j) d(m-j, k) / (lambda_k - lambda_m)."""
    rows = table.rows
    inverse = []
    for m in range(m_max + 1):
        delta = rows[m]
        top = len(delta) - 1
        d = [
            dot((delta[j], inverse[m - j][k]) for j in range(1, min(top, m - k) + 1))
            / (lams[k] - lams[m])
            for k in range(m)
        ]
        d.append(ONE)
        inverse.append(d)
    return inverse


def shapiro_poly(delta1, n):
    """Reference product-form eigenpolynomial of degree n, on its own:
    b(n, n-i) = delta1(n) ... delta1(n-i+1) / i!, from the column
    delta1(0..n)."""
    coeffs = [ZERO] * (n + 1)
    running = ONE
    coeffs[n] = ONE
    for i in range(1, n + 1):
        running = running * delta1[n - i + 1]
        coeffs[n - i] = running * Fraction(1, factorial(i))
    return Poly(coeffs)


def apply_operator_by_poly_chain(op, p):
    """Reference oracle: sum_i a_i d^i p as one `combination` of the
    terms a_{i,j} x^j d^i p."""
    return combination(
        (c, j, derivative(p, i)) for i, a in enumerate(op.coeffs) for j, c in enumerate(a.coeffs)
    )


def is_eigenpair_by_poly_chain(op, p, value):
    """Reference verdict: the two polynomials L p and value * p compared."""
    return apply_operator_by_poly_chain(op, p) == combination([(value, 0, p)])


def relation_residual_by_poly_chain(polys, alpha_row, n):
    """Reference residual P_{n+1} - x P_n + sum_k alpha_row[k] P_k as one
    `combination`."""
    terms = [(a, 0, polys[k]) for k, a in enumerate(alpha_row)]
    return combination([(1, 0, polys[n + 1]), (-1, 1, polys[n]), *terms])


def fit_recurrence_by_sequential_solve(system):
    """Reference fit: every row by the sequential solve, each alpha(n, k)
    from b(n, k-1) - b(n+1, k) minus a `dot` over the nonzero entries of
    the row solved so far; it never reads a delta table."""
    coeffs = [p.coeffs for p in system.polys]
    rows = []
    for n in range(system.n_max):
        row = [ZERO] * (n + 1)
        found = []
        for k in range(n, -1, -1):
            value = (
                system.polys[n].coeff(k - 1)
                - system.polys[n + 1].coeff(k)
                - dot((a, coeffs[i][k]) for i, a in found)
            )
            row[k] = value
            if value:
                found.append((k, value))
        rows.append(row)
    return RecurrenceCoeffs(rows)


def delta_extend_by_plain_sum(seed, n, k, order):
    """Reference extension of a delta column past row `order`: the binomial
    combination as a chain of plain `+`."""
    total = ZERO
    if k > order:
        return total
    for i in range(k, order + 1):
        weight = (-1) ** (order - i) * comb(n, i) * comb(n - i - 1, order - i)
        total = total + weight * seed.value(i, k)
    return total


def shapiro_delta1_by_plain_sum(op, n):
    """Reference delta1(n) = sum_s C(n, s) s! c_s as a chain of plain `+`."""
    total = ZERO
    for s in range(1, min(n, op.order) + 1):
        total = total + (comb(n, s) * factorial(s)) * op.c[s - 1]
    return total


def shapiro_alpha_by_binomial_sum(op, delta1, n, s):
    """Reference closed form alpha(n, n-s), 0 <= s <= N-1, entry by entry:

        (delta1(n) ... delta1(n-s+1) / (s+1)!) sum_{j=0}^{s+1} (-1)^j C(s+1, j) delta1(n-s+j),

    rebuilding the product and the binomial sum for each entry; zero below
    the triangle (s > n)."""
    if s > n:
        return ZERO
    product = ONE
    for m in range(n, n - s, -1):
        product = product * delta1[m]
    total = ZERO
    for j in range(s + 2):
        total = total + (-1) ** j * comb(s + 1, j) * delta1[n - s + j]
    return product * total * Fraction(1, factorial(s + 1))


def deltas_from_eigendata_by_plain_sum(data, n_max):
    """Reference delta recursion over plain `-` and `*`, reduced after every
    step: delta(n, k) = (lambda_n - lambda_{n-k}) b(n, n-k)
    - sum_{j=1}^{k-1} delta(n-k+j, j) b(n, n-k+j)."""
    lams = data.lambdas
    rows = []
    for n in range(n_max + 1):
        b = data.polys[n].coeffs
        row = [lams[n]]
        for k in range(1, n + 1):
            total = (lams[n] - lams[n - k]) * b[n - k]
            for j in range(1, k):
                total = total - rows[n - k + j][j] * b[n - k + j]
            row.append(total)
        rows.append(row)
    return rows


def direct_text_by_json_dumps(argv):
    """Reference `direct`: the whole family, then the whole payload of its
    strings, then json.dumps(payload, indent=2) and a newline.  Returns the
    exit status and that text.  `argv` follows the verb; the determinant
    route and the eigen-equation oracle are read off `bochner.cli`, so a
    test that replaces them there replaces them here too."""
    args = cli.build_parser().parse_args(cli._attach_negative_scalars(["direct", *argv]))
    op, _ = cli._operator_from_args(args)
    normalized, shift = normalize(op)
    table = deltas_from_operator(normalized, args.nmax)
    system = eigensystem(table)
    lambdas = [lam + shift for lam in system.lambdas]
    payload = {
        "lambda": [format_scalar(v) for v in lambdas],
        "P": [poly_to_list(p) for p in system.polys],
    }
    if args.deltas:
        payload["delta"] = delta_table_to_list(table)
    if args.decimal:
        payload["lambda_decimal"] = [cli._scalar_decimal(v, args.decimal) for v in lambdas]
        payload["P_decimal"] = [
            [cli._scalar_decimal(v, args.decimal) for v in p.coeffs] for p in system.polys
        ]
    status = 0
    if args.check:
        by_det = cli.eigenpoly_coeff_det(table)
        mismatches = []
        for n, poly in enumerate(system.polys):
            if not cli.is_eigenpair(op, poly, lambdas[n]):
                mismatches.append({"n": n, "check": "eigen-equation"})
            mismatches.extend(
                {"n": n, "i": i, "check": "determinant"}
                for i in range(1, n + 1)
                if by_det.polys[n].coeff(n - i) != poly.coeff(n - i)
            )
        payload["check"] = "failed" if mismatches else "ok"
        if mismatches:
            payload["mismatches"] = mismatches
            status = 1
    return status, json.dumps(payload, indent=2) + "\n"


# small Gaussian rationals, real, imaginary and complex, with zeros among them
small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)
small_scalars = st.one_of(
    st.just(GaussianRational(0)),
    st.builds(GaussianRational, small_fractions),
    st.builds(GaussianRational, small_fractions, small_fractions),
)


@st.composite
def bochner_operators(draw):
    """Operators sum_{i=0}^{N} a_i d^i of order 1-4 with complex coefficients,
    deg a_i <= i, a nonzero a_0 as often as not, and some zero coefficient
    polynomials."""
    order = draw(st.integers(1, 4))
    polys = [Poly([draw(small_scalars.filter(bool))]) if draw(st.booleans()) else Poly()]
    for i in range(1, order + 1):
        polys.append(Poly(draw(st.lists(small_scalars, max_size=i + 1))))
    if not polys[order]:
        polys[order] = Poly.monomial(order, draw(small_scalars.filter(bool)))
    return BochnerOperator(polys)


# the degrees through which `usable_bochner_operators` keeps the spectrum usable
USABLE_TO = 14


@st.composite
def usable_bochner_operators(draw):
    """`bochner_operators` with a usable spectrum through degree USABLE_TO.

    With R(n) = sum_{i >= 2} n!/(n-i)! a_{i,i}, the eigenvalues of the
    normalized operator are lambda_n = n a_{1,1} + R(n), so lambda_n = lambda_m
    (lambda_0 = 0 covers a vanishing lambda_n) exactly when a_{1,1} is
    (R(m) - R(n)) / (n - m).  a_{1,1} is drawn afresh and moved by the least
    integer that takes it off those finitely many values; lambda_1 = a_{1,1}
    rules out a_{1,1} = 0.
    """
    polys = list(draw(bochner_operators()).coeffs)

    def rest(n):
        return sum(
            (comb(n, i) * factorial(i) * polys[i].coeff(i) for i in range(2, len(polys))), ZERO
        )

    tail = [rest(n) for n in range(USABLE_TO + 1)]
    forbidden = {
        (tail[m] - tail[n]) / (n - m) for n in range(1, USABLE_TO + 1) for m in range(n)
    }
    a1_1 = draw(small_scalars)
    while a1_1 in forbidden:
        a1_1 = a1_1 + 1
    polys[1] = Poly([polys[1].coeff(0), a1_1])
    return BochnerOperator(polys)


# every a_{i,j} nonzero (its real part is)
dense_scalars = st.builds(
    GaussianRational,
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
    small_fractions,
)


@st.composite
def dense_operators(draw):
    """Operators of order 3-4 with a_0 = 0 and every a_{i,j}, j <= i,
    nonzero: their families have dense recurrence rows from n = 2N on."""
    order = draw(st.integers(3, 4))
    polys = [Poly()]
    for i in range(1, order + 1):
        polys.append(Poly(draw(st.lists(dense_scalars, min_size=i + 1, max_size=i + 1))))
    return BochnerOperator(polys)


@st.composite
def zero_column_operators(draw, keep_spectrum=False):
    """Normalized operators of order 1-5 with complex coefficients whose band
    columns k in a drawn nonempty set are all zero: a_{i, i-k} = 0 for every
    i.  With `keep_spectrum` the k = 0 column, the spectrum, is never one of
    them."""
    order = draw(st.integers(1, 5))
    zero = draw(st.sets(st.integers(1 if keep_spectrum else 0, order), min_size=1, max_size=order))
    polys = [Poly()]
    for i in range(1, order + 1):
        polys.append(Poly([ZERO if i - j in zero else draw(small_scalars) for j in range(i + 1)]))
    if not polys[order]:
        k = draw(st.sampled_from(sorted(set(range(order + 1)) - zero)))
        polys[order] = Poly.monomial(order - k, draw(small_scalars.filter(bool)))
    return BochnerOperator(polys)


# an order-3 operator whose band has an all-zero interior column: delta(m, 1)
# vanishes, so a lifted band keeps only the columns [2, 3], and its dense
# recurrence rows leave the sequential solve from row 5
INTERIOR_ZERO_COLUMN = {"N": 3, "a": [[], ["0", "1"], ["1", "0", "1"], ["1/3", "0", "0", "2+1*i"]]}


# a prime far above every denominator the strategies here give at small
# degrees, and the near-miss shifts 1/q and i/q by it
LARGE_PRIME = 2**61 - 1
NEAR_MISSES = (
    GaussianRational(Fraction(1, LARGE_PRIME)),
    GaussianRational(0, Fraction(1, LARGE_PRIME)),
)


def int_max_str_digits():
    """Python's process-wide int/str digit limit, or None on releases before
    3.10.7, which have no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()
