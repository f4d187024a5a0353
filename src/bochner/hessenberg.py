"""Determinants of upper Hessenberg matrices.

An upper Hessenberg matrix has zeros below the first subdiagonal, so its
determinant expands along the last column into determinants of leading
principal submatrices:

    det(H_m) = h[m][m] det(H_{m-1})
             + sum_{j<m} (-1)^(m-j) h[j][m] (prod_{l=j}^{m-1} h[l+1][l]) det(H_{j-1})

(1-based indices, det(H_0) = 1).  Evaluating the whole chain of prefixes
costs O(m^2) exact operations instead of the factorial cost of a general
cofactor expansion.  Each column's sum starts at its first nonzero entry
above the diagonal, so for a matrix that is zero above its w-th
superdiagonal the expansion does O(m w) multiplications, plus one zero test
per entry above the band.
"""
from __future__ import annotations

from typing import Sequence

from .errors import DomainError
from .scalars import GaussianRational, ONE


def hessenberg_determinant(matrix: Sequence[Sequence[GaussianRational]]) -> GaussianRational:
    """Exact determinant of a square upper Hessenberg matrix."""
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise DomainError("matrix is not square")
    prefix = [ONE]
    for m in range(1, size + 1):
        top = 0
        while top < m - 1 and not matrix[top][m - 1]:
            top += 1
        acc = matrix[m - 1][m - 1] * prefix[m - 1]
        subdiagonal_product = ONE
        sign = 1
        for j in range(m - 1, top, -1):
            subdiagonal_product = subdiagonal_product * matrix[j][j - 1]
            sign = -sign
            term = matrix[j - 1][m - 1] * subdiagonal_product * prefix[j - 1]
            acc = acc + term if sign > 0 else acc - term
        prefix.append(acc)
    return prefix[size]
