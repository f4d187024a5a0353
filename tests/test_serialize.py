from fractions import Fraction
from random import Random

import pytest

from bochner import (
    DeltaTable,
    EigenSystem,
    GaussianRational,
    ParseError,
    Poly,
    ShapiroOperator,
    deltas_from_operator,
    eigensystem,
    fit_recurrence,
    hermite_operator,
    laguerre_operator,
)
from bochner.recurrence import RecurrenceCoeffs
from bochner.scalars import ONE, ZERO, format_scalar, parse_scalar
from bochner.serialize import (
    alpha_table_to_list,
    delta_table_to_list,
    eigendata_from_dict,
    operator_from_dict,
    operator_to_dict,
    poly_from_list,
    poly_to_list,
)
from bochner.shapiro import shapiro_delta1_column
from conftest import int_max_str_digits, random_bochner, shapiro_poly

# scalars whose text runs past Python's default 4300-digit int/str limit
HUGE = (
    GaussianRational(Fraction(7**6000, 3)),
    GaussianRational(Fraction(-2, 5**7000)),
    GaussianRational(Fraction(1, 3), -(11**4500)),
    GaussianRational(0, Fraction(3**9000, 2**20000)),
)


def parsed_rows(rows):
    """A table's rows of scalar strings, each entry read by `parse_scalar`."""
    return [[parse_scalar(v) for v in row] for row in rows]


def assert_digits_past_limit(rows):
    assert max(len(v) for row in rows for v in row) > 4300


def test_poly_round_trip():
    p = Poly([Fraction(1, 2), 0, GaussianRational(0, Fraction(-3, 4))])
    assert poly_from_list(poly_to_list(p)) == p
    assert poly_to_list(Poly()) == []


def test_zero_polynomial_parses_from_padding():
    assert poly_from_list(["0"]) == Poly()
    assert poly_from_list([0]) == Poly()
    assert poly_from_list([]) == Poly()


def test_operator_document_matches_spec_shape():
    doc = operator_to_dict(laguerre_operator(0))
    assert doc == {"N": 2, "a": [[], ["1", "-1"], ["0", "1"]]}
    assert operator_from_dict(doc) == laguerre_operator(0)
    # integer-valued entries are accepted on input
    relaxed = {"N": 2, "a": [[0], [1, -1], [0, 1]]}
    assert operator_from_dict(relaxed) == laguerre_operator(0)


def test_operator_document_round_trip_random():
    rng = Random(42)
    for order in (1, 2, 4):
        op = random_bochner(rng, order, distinct_to=6)
        assert operator_from_dict(operator_to_dict(op)) == op


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"N": 2},
        {"N": "2", "a": [[], [], []]},
        {"N": 2, "a": [[], ["1"]]},
        {"N": 1, "a": [[], ["1", "1", "1"]]},  # degree violation
        {"N": 1, "a": [[], []]},  # zero leading coefficient
    ],
)
def test_operator_document_rejects(doc):
    with pytest.raises(ParseError):
        operator_from_dict(doc)


def test_eigendata_round_trip():
    # the document `direct` writes: one format_scalar string per entry
    limit = int_max_str_digits()
    hermite = eigensystem(deltas_from_operator(hermite_operator(), 6))
    huge = EigenSystem([0, HUGE[0], HUGE[1]], [[1], [HUGE[2], 1], [HUGE[3], HUGE[0], 1]])
    for system in (hermite, huge):
        doc = {
            "lambda": [format_scalar(v) for v in system.lambdas],
            "P": [poly_to_list(p) for p in system.polys],
        }
        data = eigendata_from_dict(doc)
        assert data.lambdas == system.lambdas
        assert data.polys == system.polys
        assert data == system
    assert_digits_past_limit(doc["P"])
    assert int_max_str_digits() == limit


def test_eigendata_rejects_bad_documents():
    with pytest.raises(ParseError):
        eigendata_from_dict({"lambda": ["0"]})
    with pytest.raises(ParseError):
        eigendata_from_dict({"lambda": ["0", "-1"], "P": [["1"], ["1", "2"]]})


def test_delta_table_round_trip():
    table = deltas_from_operator(hermite_operator(), 5)
    assert DeltaTable(parsed_rows(delta_table_to_list(table))) == table
    table = DeltaTable([[ZERO], [HUGE[0], HUGE[1]], [HUGE[2], HUGE[3], ONE]])
    rows = delta_table_to_list(table)
    assert_digits_past_limit(rows)
    assert DeltaTable(parsed_rows(rows)) == table


def test_alpha_table_round_trip():
    table = deltas_from_operator(hermite_operator(), 7)
    coeffs = fit_recurrence(eigensystem(table), table)
    assert RecurrenceCoeffs(parsed_rows(alpha_table_to_list(coeffs))) == coeffs
    coeffs = RecurrenceCoeffs([[HUGE[3]], [HUGE[2], HUGE[1]], [ZERO, HUGE[0], ONE]])
    rows = alpha_table_to_list(coeffs)
    assert_digits_past_limit(rows)
    assert RecurrenceCoeffs(parsed_rows(rows)) == coeffs


def test_scalar_entries_must_be_strings_or_ints():
    with pytest.raises(ParseError):
        poly_from_list([1.5])
    with pytest.raises(ParseError):
        poly_from_list([True])


def test_poly_round_trip_past_int_str_digit_limit():
    # n = 900 coefficients run to about 4500 digits, past Python's default
    # 4300-digit int/str limit; the limit itself must stay as it was
    limit = int_max_str_digits()
    p = shapiro_poly(shapiro_delta1_column(ShapiroOperator([1, 1, 1]), 900), 900)
    values = poly_to_list(p)
    assert max(len(v) for v in values) > 4300
    assert poly_from_list(values) == p
    assert int_max_str_digits() == limit
