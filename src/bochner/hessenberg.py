"""Determinants of upper Hessenberg matrices with subdiagonal -1, as a chain
of leading minors.

Both Hessenberg determinants of the paper (an eigenpolynomial coefficient,
and a delta of prescribed eigen-data) are written here with every
subdiagonal entry equal to -1.  Expanding det(H_m) along its last column,
the product of subdiagonal entries in each term then cancels its cofactor
sign, so that (0-based, det(H_0) = 1)

    det(H_{c+1}) = sum_{j<=c} h[j][c] det(H_j).

Each minor is one sum over its column's entries, and the expansion of an
m x m matrix produces every leading minor det(H_0), ..., det(H_m) on the
way; `hessenberg_determinant` returns that whole chain.  Callers whose
determinants are nested leading submatrices of one matrix (every
coefficient of one eigenpolynomial, every delta on one diagonal) pay for a
single expansion.  A column is given by its entries from its first
possibly nonzero row down to the diagonal, so a matrix that is zero above
its w-th superdiagonal costs O(m w) multiplications.

A matrix whose column c is a column of entries g[j] all divided by one
common divisor e_c is expanded without dividing any entry: the -1
subdiagonal takes no part in the sum, so

    det(H_{c+1}) = (sum_{j<=c} g[j] det(H_j)) / e_c,

one division per minor.  The eigenpolynomial determinant has that form,
every entry of its column c divided by the same gap of eigenvalues.  The
sum is plain scalar `*`, `+` and `/`, so neither cross-check shares a
summation kernel with the recursion it checks.
"""
from __future__ import annotations

from functools import reduce
from operator import add
from typing import Sequence

from .errors import DomainError
from .scalars import GaussianRational, ONE, ZERO


def hessenberg_determinant(
    columns: Sequence[Sequence[GaussianRational]],
    divisors: Sequence[GaussianRational] | None = None,
) -> list[GaussianRational]:
    """The leading principal minors det(H_0) = 1, det(H_1), ..., det(H_m) of
    the m x m upper Hessenberg matrix with subdiagonal -1 whose column c
    holds `columns[c]` in rows c + 1 - len(columns[c]) .. c and zeros above,
    each entry divided by `divisors[c]` when divisors are given; the last
    minor is its determinant.  A minor whose column sum has no nonzero term
    is zero, and no division is made for it."""
    prefix = [ONE]
    for c, column in enumerate(columns):
        top = c + 1 - len(column)
        if top < 0:
            raise DomainError(f"column {c} has {len(column)} entries, at most {c + 1} fit")
        terms = [h * minor for h, minor in zip(column, prefix[top:]) if h]
        if not terms:
            prefix.append(ZERO)
        elif divisors is None:
            prefix.append(reduce(add, terms))
        else:
            prefix.append(reduce(add, terms) / divisors[c])
    return prefix
