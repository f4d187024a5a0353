"""Scan recurrence bandwidths: product-form operators against generic ones.

For each order N the product-form operator yields a stable (N+1)-term
recurrence (band N-1), while a random operator of the same order produces a
dense coefficient table with no band at all.  Everything is exact, so a
reported zero is a real zero.
"""
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bochner import (
    BochnerOperator,
    DegenerateSpectrum,
    GaussianRational,
    Poly,
    ShapiroOperator,
    bandwidth,
    deltas_from_operator,
    eigensystem,
    fit_recurrence,
    to_bochner,
)


ORDERS = (1, 2, 3, 4, 5)
N_MAX = 20
N_START = 10
SEED = 7


def random_operator(rng, order):
    while True:
        polys = [Poly()]
        for i in range(1, order + 1):
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(i + 1)]
            polys.append(Poly(coeffs))
        if not polys[order]:
            continue
        op = BochnerOperator(polys)
        try:
            eigensystem(deltas_from_operator(op, 4))
        except DegenerateSpectrum:
            continue
        return op


def fitted_band(op):
    table = deltas_from_operator(op, N_MAX + 1)
    system = eigensystem(table)
    coeffs = fit_recurrence(system)
    return bandwidth(coeffs, N_START)


def main():
    rng = Random(SEED)
    print(f"rows fitted: 0..{N_MAX}, detection window starts at {N_START}")
    print(f"{'order':>5}  {'product-form band':>18}  {'generic band':>12}")
    for order in ORDERS:
        c = [GaussianRational(Fraction(rng.randint(1, 4), rng.randint(1, 3))) for _ in range(order)]
        product = fitted_band(to_bochner(ShapiroOperator(c)))
        generic = None
        for _ in range(10):
            try:
                generic = fitted_band(random_operator(rng, order))
                break
            except DegenerateSpectrum:
                continue
        print(f"{order:>5}  {str(product):>18}  {str(generic):>12}")
    print("\nA band of N-1 means an (N+1)-term recurrence; None means the table is dense.")


if __name__ == "__main__":
    main()
