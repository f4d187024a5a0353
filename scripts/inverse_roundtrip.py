"""Round-trip demonstration: operator -> eigen-data -> operator.

Generates a random operator, computes its eigen-family exactly, forgets the
operator, and reconstructs it from the family alone.  Also shows the
negative side: nudging a single polynomial coefficient makes every tested
order fail the finite-order criterion.
"""
import sys
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bochner import (
    EigenSystem,
    NoFiniteOrderOperator,
    Poly,
    deltas_from_operator,
    eigensystem,
    reconstruct,
)
from random_operators import random_operator


ORDER = 3
DEGREE = 12
SEED = 2024


def main():
    rng = Random(SEED)
    op = random_operator(rng, ORDER, bound=4, distinct_to=DEGREE)
    print(f"original operator:      {op}")

    system = eigensystem(deltas_from_operator(op, DEGREE))
    rebuilt = reconstruct(system, ORDER)
    print(f"reconstructed operator: {rebuilt}")
    print(f"exact match: {rebuilt == op}")

    perturbed_polys = list(system.polys)
    mid = DEGREE // 2
    perturbed_polys[mid] = perturbed_polys[mid] + Poly([1])
    perturbed = EigenSystem(system.lambdas, perturbed_polys)
    print(f"\nafter bumping one coefficient of P_{mid} by 1:")
    for order in range(1, ORDER + 3):
        try:
            reconstruct(perturbed, order)
            print(f"  order {order}: unexpectedly reconstructed")
        except NoFiniteOrderOperator as exc:
            print(f"  order {order}: no operator (first failure at {exc.failure})")


if __name__ == "__main__":
    main()
