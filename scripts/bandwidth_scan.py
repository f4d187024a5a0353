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
    DegenerateSpectrum,
    GaussianRational,
    ShapiroOperator,
    bandwidth,
    deltas_from_operator,
    eigensystem,
    fit_recurrence,
    to_bochner,
)
from random_operators import random_operator


ORDERS = (1, 2, 3, 4, 5)
N_MAX = 20
N_START = 10
SEED = 7


def fitted_band(op):
    table = deltas_from_operator(op, N_MAX + 1)
    system = eigensystem(table)
    coeffs = fit_recurrence(system, table)
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
                generic = fitted_band(random_operator(rng, order, bound=5, distinct_to=4))
                break
            except DegenerateSpectrum:
                continue
        print(f"{order:>5}  {str(product):>18}  {str(generic):>12}")
    print("\nA band of N-1 means an (N+1)-term recurrence; None means the table is dense.")


if __name__ == "__main__":
    main()
