from random import Random

import pytest

from bochner import DomainError, GaussianRational
from bochner.hessenberg import hessenberg_determinant
from bochner.scalars import ONE, ZERO


def laplace_determinant(matrix):
    """Cofactor expansion along the first row; the independent oracle."""
    size = len(matrix)
    if size == 0:
        return ONE
    if size == 1:
        return matrix[0][0]
    total = ZERO
    for j in range(size):
        if not matrix[0][j]:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = matrix[0][j] * laplace_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def random_hessenberg(rng, size):
    matrix = []
    for i in range(size):
        row = []
        for j in range(size):
            if j < i - 1:
                row.append(ZERO)
            else:
                row.append(
                    GaussianRational(rng.randint(-9, 9), rng.randint(-3, 3))
                )
        matrix.append(row)
    return matrix


def test_small_cases():
    assert hessenberg_determinant([]) == ONE
    assert hessenberg_determinant([[GaussianRational(7)]]) == GaussianRational(7)
    two = [
        [GaussianRational(1), GaussianRational(2)],
        [GaussianRational(3), GaussianRational(4)],
    ]
    assert hessenberg_determinant(two) == GaussianRational(-2)


def test_matches_laplace_oracle():
    rng = Random(1234)
    for size in range(1, 7):
        for _ in range(8):
            matrix = random_hessenberg(rng, size)
            assert hessenberg_determinant(matrix) == laplace_determinant(matrix)


def test_unit_subdiagonal_case():
    rng = Random(99)
    for size in range(2, 6):
        matrix = random_hessenberg(rng, size)
        for i in range(1, size):
            matrix[i][i - 1] = -ONE
        assert hessenberg_determinant(matrix) == laplace_determinant(matrix)


def test_rejects_non_square():
    with pytest.raises(DomainError):
        hessenberg_determinant([[ONE, ONE]])


def zero_above_diagonal(matrix, keep):
    """Copy of `matrix` with entry (r, c), c > r, zeroed unless keep(r, c)."""
    return [
        [v if c <= r or keep(r, c) else ZERO for c, v in enumerate(row)]
        for r, row in enumerate(matrix)
    ]


def sparse_cases(size):
    """(label, keep) pairs: a band of w superdiagonals, one column all zero
    above the diagonal, and a band of w with superdiagonal d zeroed."""
    for w in range(size):
        yield f"band {w}", lambda r, c, w=w: c - r <= w
    for col in range(size):
        yield f"zero column {col}", lambda r, c, col=col: c != col
    for w in range(2, size):
        for d in range(1, w):
            yield f"band {w} gap {d}", lambda r, c, w=w, d=d: c - r <= w and c - r != d


def test_sparse_above_diagonal_matches_laplace_oracle():
    rng = Random(4321)
    for size in range(1, 8):
        for label, keep in sparse_cases(size):
            for _ in range(2):
                matrix = zero_above_diagonal(random_hessenberg(rng, size), keep)
                assert hessenberg_determinant(matrix) == laplace_determinant(matrix), (size, label)
