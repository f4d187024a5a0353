"""Dense univariate polynomials over exact scalars, and the oracle kernel.

`Poly` is a container: an immutable tuple of coefficients with no
arithmetic of its own.  Every combination of polynomials in the package is
one call of the integer kernel `_sums` below.

`apply_operator` is the brute-force oracle for the whole package: it applies
a differential operator symbolically, term by term, so any spectral quantity
computed elsewhere can be checked against it.  It never reads a delta table,
so it stays independent of the delta recursion.  `is_eigenpair` adds the
term -lambda p and tests L p - lambda p for zero.

Both, and `recurrence.relation_residual`, compute a combination
sum w x^j d^i q of a few polynomials q with scalar weights w, in integers:

- each q is lifted once over the lcm D_q of its denominators (`lift`); the
  Gaussian-integer numerators are kept in q, which is immutable, so a
  family's polynomials are lifted once however many checks read them;
- the derivative factor perm(u, i) of d^i x^u multiplies those numerators
  as a plain int;
- the weights of one call are lifted together as w / D_q, over one
  denominator D.

Every coefficient is then (re + im*i)/D with re and im sums of integer
products: no gcd and no division per term.  It is zero exactly when both
sums are, and only a nonzero coefficient is reduced (`from_parts`), so the
result is the same reduced polynomial a chain of scalar operations gives.
The sequential solve of `recurrence.fit_recurrence` runs the same kernel: it
starts each row from `_sums` and adds one term per entry it solves with
`_add_product`, the step of every sum here.
"""
from __future__ import annotations

import math
from operator import mul
from typing import TYPE_CHECKING

from .errors import DomainError
from .scalars import GaussianRational, ONE, ZERO, from_parts, lift, scalar

if TYPE_CHECKING:  # pragma: no cover
    from .operators import BochnerOperator


class Poly:
    """Dense polynomial; coeffs[i] multiplies x^i, trailing zeros stripped.

    The zero polynomial stores no coefficients and has degree None: the
    sentinel never enters index arithmetic by accident.  The oracles keep
    the lifted coefficients in a private slot, filled on first use.
    """

    __slots__ = ("coeffs", "_lifted")

    def __init__(self, coeffs=()):
        buffer = [scalar(c) for c in coeffs]
        while buffer and not buffer[-1]:
            buffer.pop()
        self.coeffs = tuple(buffer)
        self._lifted = None

    @classmethod
    def _raw(cls, coeffs):
        # internal: already-normalized tuple of GaussianRational
        p = object.__new__(cls)
        p.coeffs = coeffs
        p._lifted = None
        return p

    @classmethod
    def monomial(cls, power: int, coefficient=1) -> "Poly":
        if power < 0:
            raise DomainError(f"negative power {power}")
        return cls((0,) * power + (coefficient,))

    @property
    def degree(self):
        """Degree as an int, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, i: int) -> GaussianRational:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return ZERO

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    # -- comparisons / display ---------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            if c.im or (c.re < 0 and parts):
                text = f"({c})"
            else:
                text = str(c)
            if power == 0:
                parts.append(text)
            else:
                x_part = "x" if power == 1 else f"x^{power}"
                parts.append(x_part if text == "1" else f"{text}*{x_part}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly('{self}')"


def _lifted_coeffs(q: Poly):
    """(D, xs, ys) with q's coefficients (xs[u] + ys[u]*i)/D, ys None for a
    real q: `lift` runs on first use and its result is kept in q."""
    lifted = q._lifted
    if lifted is None:
        d, xs, ys = lift(q.coeffs)
        lifted = q._lifted = (d, xs, ys if any(ys) else None)
    return lifted


def _add_scaled(acc, j, w, seq):
    """acc[j + u] += w * seq[u] for every u."""
    for u, x in enumerate(seq, j):
        acc[u] += w * x


def _add_product(re, im, j, wp, wq, xs, ys):
    """re[m] + im[m]*i += the x^m coefficient of (wp + wq*i) x^j q, for the
    lifted numerators xs, ys of q (ys None for a real q)."""
    if wp:
        _add_scaled(re, j, wp, xs)
    if wq:
        _add_scaled(im, j, wq, xs)
    if ys is not None:
        if wq:
            _add_scaled(re, j, -wq, ys)
        if wp:
            _add_scaled(im, j, wp, ys)


def _sums(groups):
    """(D, re, im) such that sum w x^j d^i q over the `groups` (q, i, pairs),
    with the pairs (j, w), has the coefficients (re[m] + im[m]*i)/D, lowest
    power first.

    Each q is lifted once, over its own denominator D_q, and the weights
    are lifted together as w / D_q: each sum is then one of integer
    products over the lcm D of their denominators.
    """
    lifted = [_lifted_coeffs(q) for q, _, _ in groups]
    den, wps, wqs = lift(
        [w for _, _, pairs in groups for _, w in pairs],
        [d for (_, _, pairs), (d, _, _) in zip(groups, lifted) for _ in pairs],
    )
    size = max((j + len(q.coeffs) - i for q, i, pairs in groups for j, _ in pairs), default=0)
    re = [0] * size
    im = [0] * size
    weights = zip(wps, wqs)
    for (_, i, pairs), (_, xs, ys) in zip(groups, lifted):
        if i:
            # (d^i q)[u - i] = perm(u, i) q[u]
            factors = [math.perm(u, i) for u in range(i, len(xs))]
            xs = list(map(mul, xs[i:], factors))
            if ys is not None:
                ys = list(map(mul, ys[i:], factors))
        for (j, _), (wp, wq) in zip(pairs, weights):
            _add_product(re, im, j, wp, wq, xs, ys)
    return den, re, im


def _combination(groups) -> Poly:
    """sum w x^j d^i q over the `groups` (q, i, pairs), as a polynomial;
    only its nonzero coefficients are reduced."""
    den, re, im = _sums(groups)
    size = len(re)
    while size and not (re[size - 1] or im[size - 1]):
        size -= 1
    return Poly._raw(tuple(from_parts(re[m], im[m], den) for m in range(size)))


def _operator_groups(op: "BochnerOperator", p: Poly):
    """(p, i, pairs (j, a_{i,j})) over the nonzero a_{i,j} with i <= deg p."""
    return [
        (p, i, [(j, c) for j, c in enumerate(a.coeffs) if c])
        for i, a in enumerate(op.coeffs)
        if a and i < len(p.coeffs)
    ]


def apply_operator(op: "BochnerOperator", p: Poly) -> Poly:
    """Apply sum_i a_i(x) d^i to p by direct symbolic expansion."""
    return _combination(_operator_groups(op, p))


def is_eigenpair(op: "BochnerOperator", p: Poly, value) -> bool:
    """True iff applying the operator to p gives value * p, exactly."""
    groups = _operator_groups(op, p)
    groups.append((p, 0, [(0, -scalar(value))]))
    _, re, im = _sums(groups)
    return not (any(re) or any(im))
