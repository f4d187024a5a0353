"""Shared fixtures: classical families generated independently of the
package's spectral machinery, and a reproducible corpus of random operators.
"""
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import pytest

from bochner import (
    BochnerOperator,
    GaussianRational,
    NoFiniteOrderOperator,
    Poly,
    X,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    reconstruct,
)
from bochner.scalars import comb, factorial


def monic_hermite(n_max):
    """Monic Hermite polynomials from their three-term recurrence
    P_{n+1} = x P_n - (n/2) P_{n-1}; independent of the delta machinery."""
    polys = [Poly([1])]
    if n_max >= 1:
        polys.append(X)
    for n in range(1, n_max):
        polys.append(polys[n].times_x() - Fraction(n, 2) * polys[n - 1])
    return polys


def monic_laguerre(n_max, alpha=Fraction(0)):
    """Monic Laguerre polynomials from
    P_{n+1} = (x - (2n + 1 + alpha)) P_n - n (n + alpha) P_{n-1}."""
    polys = [Poly([1])]
    if n_max >= 1:
        polys.append(Poly([-(alpha + 1), 1]))
    for n in range(1, n_max):
        shifted = polys[n].times_x() - (2 * n + 1 + alpha) * polys[n]
        polys.append(shifted - (n * (n + alpha)) * polys[n - 1])
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


def int_max_str_digits():
    """Python's process-wide int/str digit limit, or None on releases before
    3.10.7, which have no limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: None)()
