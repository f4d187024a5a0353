"""Random Bochner operators with a usable spectrum, shared by the scripts.

Import it after `src` is on sys.path, as the scripts arrange.
"""
from fractions import Fraction

from bochner import BochnerOperator, DegenerateSpectrum, Poly, deltas_from_operator, eigensystem


def random_operator(rng, order, bound, distinct_to):
    """An operator of the given order whose coefficient polynomials have
    entries p/q with |p| <= bound and 1 <= q <= 3, redrawn until its
    eigenvalues up to degree distinct_to form a usable spectrum."""
    while True:
        polys = [Poly()]
        for i in range(1, order + 1):
            coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 3)) for _ in range(i + 1)]
            polys.append(Poly(coeffs))
        if not polys[order]:
            continue
        op = BochnerOperator(polys)
        try:
            eigensystem(deltas_from_operator(op, distinct_to))
        except DegenerateSpectrum:
            continue
        return op
