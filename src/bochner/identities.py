"""Residual checkers for the combinatorial identities underpinning the
delta-sequence calculus.

Each identity is evaluated as LHS - RHS with both sides computed
independently, term by term, with no algebraic simplification: a bug cannot
cancel symmetrically.  On the identity's domain every residual is exactly
zero, which is what the test suite and the `lemmas` CLI verb check.
`IDENTITIES` holds one record per id: its parameters, residual, domain test
and default sweep grid.

Identity ids (parameters, domain):

    1_lema1  (m, k)        m >= 0, 0 <= k <= m
        sum_{r=k}^{m+1} (-1)^(r-k) C(r,k) C(m+1,r)  =  0

    2_lema1  (m, k)        m >= 0, k >= 0
        sum_{r=0}^{m} (-1)^r C(m+k+1, r)  =  (-1)^m C(m+k, k)

    kym      (k, m)        k >= 1, m >= 1
        sum_{j=0}^{k-1} (-1)^j C(k-1,j) / (j+m+1)  =  1 / (k C(m+k, k))

    8_tilde  (n, q, r)     n >= 0, 0 <= q <= n, r >= 0
        sum_{s=0}^{q} (-1)^s C(q,s) C(n-q+s, r)
            =  0                     if r < q
            =  (-1)^q C(n-q, r-q)    if r >= q

    10_tilde (n, m, r, k)  0 <= r <= m <= n, 0 <= k <= n-m
        sum_{s=1}^{m+1} s/(s+k) (-1)^s C(m+1,s) C(n-m+s, r)
            =  - C(n-m-k, r) / C(m+k+1, k)

    31tilde  (n, N, s)     n >= N >= 0, rational s not in {1, ..., n-N+1}
        1 / prod_{i=1}^{n-N+1} (i-s)
            =  sum_{i=1}^{n-N+1} (-1)^(i-1) / ((n-N+1-i)! (i-1)! (i-s))
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Mapping, NamedTuple

from .errors import DomainError, ParseError
from .scalars import GaussianRational, ZERO, comb, factorial, scalar


def _int_param(params, name):
    if name not in params:
        raise DomainError(f"missing parameter {name!r}")
    value = params[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"parameter {name!r} must be an integer, got {value!r}")
    return value


def _scalar_param(params, name):
    if name not in params:
        raise DomainError(f"missing parameter {name!r}")
    try:
        return scalar(params[name])
    except (DomainError, ParseError) as exc:
        raise DomainError(f"parameter {name!r}: {exc}") from None


def _alternating_column_sum(m, k):
    # 1_lema1
    lhs = Fraction(0)
    for r in range(k, m + 2):
        lhs += (-1) ** (r - k) * comb(r, k) * comb(m + 1, r)
    return GaussianRational(lhs)


def _truncated_row_sum(m, k):
    # 2_lema1
    lhs = Fraction(0)
    for r in range(m + 1):
        lhs += (-1) ** r * comb(m + k + 1, r)
    rhs = (-1) ** m * comb(m + k, k)
    return GaussianRational(lhs - rhs)


def _harmonic_binomial(k, m):
    # kym
    lhs = Fraction(0)
    for j in range(k):
        lhs += Fraction((-1) ** j * comb(k - 1, j), j + m + 1)
    rhs = Fraction(1, k * comb(m + k, k))
    return GaussianRational(lhs - rhs)


def _shifted_vandermonde(n, q, r):
    # 8_tilde
    lhs = Fraction(0)
    for s in range(q + 1):
        lhs += (-1) ** s * comb(q, s) * comb(n - q + s, r)
    if r < q:
        rhs = Fraction(0)
    else:
        rhs = Fraction((-1) ** q * comb(n - q, r - q))
    return GaussianRational(lhs - rhs)


def _weighted_vandermonde(n, m, r, k):
    # 10_tilde
    lhs = Fraction(0)
    for s in range(1, m + 2):
        lhs += Fraction(s, s + k) * (-1) ** s * comb(m + 1, s) * comb(n - m + s, r)
    rhs = -Fraction(comb(n - m - k, r), comb(m + k + 1, k))
    return GaussianRational(lhs - rhs)


def _falling_product_fractions(n, big_n, s):
    # 31tilde
    width = n - big_n + 1
    product = GaussianRational(1)
    for i in range(1, width + 1):
        product = product * (GaussianRational(i) - s)
    lhs = GaussianRational(1) / product
    rhs = ZERO
    for i in range(1, width + 1):
        denominator = factorial(width - i) * factorial(i - 1)
        sign = 1 if (i - 1) % 2 == 0 else -1
        rhs = rhs + GaussianRational(sign) / ((GaussianRational(i) - s) * denominator)
    return lhs - rhs


def _domain_1_lema1(m, k):
    return m >= 0 and 0 <= k <= m


def _domain_2_lema1(m, k):
    return m >= 0 and k >= 0


def _domain_kym(k, m):
    return k >= 1 and m >= 1


def _domain_8_tilde(n, q, r):
    return n >= 0 and 0 <= q <= n and r >= 0


def _domain_10_tilde(n, m, r, k):
    return 0 <= r <= m <= n and 0 <= k <= n - m


def _domain_31tilde(n, big_n, s):
    if not (0 <= big_n <= n):
        return False
    if s.im:
        return True
    if s.re.denominator != 1:
        return True
    return not (1 <= s.re <= n - big_n + 1)


class _Identity(NamedTuple):
    names: tuple  # ordered parameter names
    scalar_names: tuple  # names of the non-integer parameters
    residual: Callable
    domain: Callable
    grid: dict  # default sweep range per integer parameter, (low, high) inclusive


# Rectangular default sweep grids: combinations falling outside an identity's
# domain are skipped (and counted as skipped by `sweep`).
IDENTITIES = {
    "1_lema1": _Identity(
        ("m", "k"), (), _alternating_column_sum, _domain_1_lema1,
        {"m": (0, 14), "k": (0, 14)},
    ),
    "2_lema1": _Identity(
        ("m", "k"), (), _truncated_row_sum, _domain_2_lema1,
        {"m": (0, 14), "k": (0, 10)},
    ),
    "kym": _Identity(
        ("k", "m"), (), _harmonic_binomial, _domain_kym,
        {"k": (1, 12), "m": (1, 12)},
    ),
    "8_tilde": _Identity(
        ("n", "q", "r"), (), _shifted_vandermonde, _domain_8_tilde,
        {"n": (0, 12), "q": (0, 12), "r": (0, 14)},
    ),
    "10_tilde": _Identity(
        ("n", "m", "r", "k"), (), _weighted_vandermonde, _domain_10_tilde,
        {"n": (0, 12), "m": (0, 12), "r": (0, 12), "k": (0, 12)},
    ),
    "31tilde": _Identity(
        ("n", "N", "s"), ("s",), _falling_product_fractions, _domain_31tilde,
        {"n": (0, 12), "N": (0, 12)},
    ),
}

IDENTITY_IDS = tuple(IDENTITIES)


def _lookup(identity: str) -> _Identity:
    if identity not in IDENTITIES:
        raise DomainError(f"unknown identity id {identity!r}")
    return IDENTITIES[identity]


def _collect_args(identity: str, params: Mapping):
    entry = _lookup(identity)
    unknown = set(params) - set(entry.names)
    if unknown:
        raise DomainError(
            f"identity {identity!r} does not take parameters {sorted(unknown)}"
        )
    args = []
    for name in entry.names:
        if name in entry.scalar_names:
            args.append(_scalar_param(params, name))
        else:
            args.append(_int_param(params, name))
    return entry, args


def lemma_residual(identity: str, params: Mapping) -> GaussianRational:
    """LHS - RHS of the named identity, evaluated exactly.

    Zero everywhere on the identity's domain; parameters outside the domain
    raise DomainError, as do unknown ids.
    """
    entry, args = _collect_args(identity, params)
    if not entry.domain(*args):
        raise DomainError(f"parameters {dict(params)!r} outside the domain of {identity!r}")
    return entry.residual(*args)


# Rational probe values for the 31tilde sweep: none is an integer in a
# positive range, so every (n, N) pair stays inside the identity's domain.
PROBE_VALUES = tuple(
    Fraction(text)
    for text in (
        "-5", "-4", "-3", "-2", "-1", "0",
        "1/2", "-1/2", "3/2", "5/2", "-3/2",
        "1/3", "-2/3", "4/3", "7/3", "-7/4",
        "9/4", "1/7", "22/7", "-13/6",
    )
)


def iter_grid(identity: str, overrides: Mapping | None = None) -> Iterator[dict]:
    """Yield parameter maps over the rectangular sweep grid of `identity`.

    `overrides` replaces the (low, high) range of the named integer
    variables.  The rational probe parameter of 31tilde is swept over
    PROBE_VALUES and cannot be overridden by an integer interval.
    """
    entry = _lookup(identity)
    grid = dict(entry.grid)
    for name, bounds in (overrides or {}).items():
        if name in grid:
            grid[name] = bounds
    axes = [
        PROBE_VALUES if name in entry.scalar_names else range(grid[name][0], grid[name][1] + 1)
        for name in entry.names
    ]
    if all(axes):
        for values in _points(axes):
            yield dict(zip(entry.names, values))


def _points(axes):
    """The points of the grid over `axes` in `itertools.product` order, the
    last axis fastest, reading each axis as it goes: `product` would first
    copy every axis, a wide range included, into a tuple."""
    if not axes:
        yield ()
        return
    for value in axes[0]:
        for tail in _points(axes[1:]):
            yield (value,) + tail


def sweep(identities=None, overrides: Mapping | None = None):
    """Evaluate residuals over sweep grids.

    Returns (checked, skipped, failures, per_id) where `failures` is a list
    of (identity, params, residual) triples for nonzero residuals and
    `per_id` maps each identity to its (checked, skipped) counts.  An
    override of a name that is no integer parameter of any chosen identity
    raises DomainError.
    """
    chosen = IDENTITY_IDS if identities is None else tuple(identities)
    swept = {name for identity in chosen for name in _lookup(identity).grid}
    for name in overrides or {}:
        if name not in swept:
            raise DomainError(
                f"range variable {name!r} is not an integer parameter of any identity "
                f"swept ({', '.join(chosen)})"
            )
    checked = 0
    skipped = 0
    failures = []
    per_id = {}
    for identity in chosen:
        id_checked = 0
        id_skipped = 0
        for params in iter_grid(identity, overrides):
            entry, args = _collect_args(identity, params)
            if not entry.domain(*args):
                id_skipped += 1
                continue
            residual = entry.residual(*args)
            id_checked += 1
            if residual != ZERO:
                failures.append((identity, params, residual))
        checked += id_checked
        skipped += id_skipped
        per_id[identity] = (id_checked, id_skipped)
    return checked, skipped, failures, per_id
