from random import Random

import pytest
from hypothesis import given, settings, strategies as st

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


def square_matrix(columns):
    """The square matrix the columns stand for: column c holds its entries in
    the rows just above and on the diagonal, -1 below it, zeros elsewhere."""
    size = len(columns)
    matrix = [[ZERO] * size for _ in range(size)]
    for c, column in enumerate(columns):
        for r, h in enumerate(column, c + 1 - len(column)):
            matrix[r][c] = h
        if c + 1 < size:
            matrix[c + 1][c] = -ONE
    return matrix


def random_entry(rng):
    return GaussianRational(rng.randint(-9, 9), rng.randint(-3, 3))


def random_columns(rng, size):
    return [[random_entry(rng) for _ in range(c + 1)] for c in range(size)]


def assert_chain_matches_laplace(columns, label=None):
    """The returned chain is det(H_0), ..., det(H_m): each entry must equal the
    oracle on the leading submatrix of that size."""
    chain = hessenberg_determinant(columns)
    matrix = square_matrix(columns)
    assert len(chain) == len(matrix) + 1
    for m, minor in enumerate(chain):
        leading = [row[:m] for row in matrix[:m]]
        assert minor == laplace_determinant(leading), (label, m)


def test_small_cases():
    assert hessenberg_determinant([]) == [ONE]
    assert hessenberg_determinant([[GaussianRational(7)]]) == [ONE, GaussianRational(7)]
    # [[1, 2], [-1, 4]]
    two = [[GaussianRational(1)], [GaussianRational(2), GaussianRational(4)]]
    assert hessenberg_determinant(two) == [ONE, GaussianRational(1), GaussianRational(6)]
    # [[1, 0], [-1, 4]]: a short column has zeros above its entries
    short = [[GaussianRational(1)], [GaussianRational(4)]]
    assert hessenberg_determinant(short) == [ONE, GaussianRational(1), GaussianRational(4)]
    # an empty column is a zero column, and so is every minor through it
    assert hessenberg_determinant([[], [GaussianRational(3)]]) == [ONE, ZERO, ZERO]


def test_matches_laplace_oracle():
    rng = Random(1234)
    for size in range(1, 7):
        for _ in range(8):
            assert_chain_matches_laplace(random_columns(rng, size))


def test_unit_subdiagonal_case():
    """Two closed forms of the -1 subdiagonal, with no oracle: an all-ones
    upper triangle has minors 1, 1, 2, 4, 8, ..., and a tridiagonal matrix
    with diagonal a_c and superdiagonal b_c has the continuant minors
    det(H_{c+1}) = a_c det(H_c) + b_c det(H_{c-1})."""
    ones = [[ONE] * (c + 1) for c in range(8)]
    assert hessenberg_determinant(ones) == [ONE] + [GaussianRational(2**m) for m in range(8)]
    rng = Random(99)
    for size in range(1, 8):
        diagonal = [random_entry(rng) for _ in range(size)]
        upper = [random_entry(rng) for _ in range(size)]
        columns = [[diagonal[0]]] + [[upper[c], diagonal[c]] for c in range(1, size)]
        expected = [ONE, diagonal[0]]
        for c in range(1, size):
            expected.append(diagonal[c] * expected[c] + upper[c] * expected[c - 1])
        assert hessenberg_determinant(columns) == expected


ENTRIES = st.builds(GaussianRational, st.integers(-9, 9), st.integers(-3, 3))


@st.composite
def sparse_hessenberg(draw):
    """Columns of w + 1 entries at most (the band), some of them zero from
    top to bottom, each padded above by a drawn number of explicit zeros."""
    size = draw(st.integers(0, 6))
    band = draw(st.integers(0, max(size - 1, 0)))
    zero_columns = draw(st.sets(st.integers(0, max(size - 1, 0)), max_size=size))
    columns = []
    for c in range(size):
        length = min(c, band) + 1
        entries = [ZERO if c in zero_columns else draw(ENTRIES) for _ in range(length)]
        padding = draw(st.integers(0, c + 1 - length))
        columns.append([ZERO] * padding + entries)
    return columns


@settings(max_examples=80, deadline=None)
@given(sparse_hessenberg())
def test_every_prefix_of_the_chain_is_a_leading_minor(columns):
    assert_chain_matches_laplace(columns)


def test_rejects_overlong_column():
    # column c reaches at most from row 0 to the diagonal, c + 1 entries
    with pytest.raises(DomainError):
        hessenberg_determinant([[ONE, ONE]])
    with pytest.raises(DomainError):
        hessenberg_determinant([[ONE], [ONE, ONE], [ONE, ONE, ONE, ONE]])


def zero_above_diagonal(columns, keep):
    """Copy of full `columns` with entry (r, c), c > r, zeroed unless keep(r, c)."""
    return [
        [v if r == c or keep(r, c) else ZERO for r, v in enumerate(column)]
        for c, column in enumerate(columns)
    ]


def trimmed(columns):
    """The same columns with their leading zeros dropped."""
    out = []
    for column in columns:
        top = 0
        while top < len(column) and not column[top]:
            top += 1
        out.append(column[top:])
    return out


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
    """Each case both with its zeros written out and with the zeros above
    every column's first nonzero entry left off."""
    rng = Random(4321)
    for size in range(1, 8):
        for label, keep in sparse_cases(size):
            for _ in range(2):
                columns = zero_above_diagonal(random_columns(rng, size), keep)
                assert_chain_matches_laplace(columns, (size, label))
                short = trimmed(columns)
                assert hessenberg_determinant(short) == hessenberg_determinant(columns)
                assert_chain_matches_laplace(short, (size, label, "trimmed"))


NONZERO_ENTRIES = ENTRIES.filter(bool)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_divisors_equal_the_expansion_over_pre_divided_columns(data):
    """One division per minor: column c with its entries divided by e_c has
    the same chain as the columns as given, each sum divided by e_c."""
    columns = data.draw(sparse_hessenberg())
    divisors = [data.draw(NONZERO_ENTRIES) for _ in columns]
    divided = [[h / e for h in column] for column, e in zip(columns, divisors)]
    assert hessenberg_determinant(columns, divisors) == hessenberg_determinant(divided)


def test_zero_column_divides_nothing():
    """A column with no nonzero entry gives the minor ZERO without a
    division, so even a zero divisor there is never used."""
    three, two = GaussianRational(3), GaussianRational(2, 1)
    columns = [[three], [ZERO, ZERO], [ONE, ZERO, two]]
    chain = hessenberg_determinant(columns, [GaussianRational(5), ZERO, GaussianRational(-1)])
    # det(H_3) = (1 * det(H_0) + 0 * det(H_1) + two * det(H_2)) / -1, det(H_2) = 0
    assert chain == [ONE, three / 5, ZERO, -ONE]
    assert hessenberg_determinant([[], [ONE]], [ZERO, ONE]) == [ONE, ZERO, ZERO]
    # a nonzero column divides its sum by its divisor
    with pytest.raises(ZeroDivisionError):
        hessenberg_determinant([[three]], [ZERO])
