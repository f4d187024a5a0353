from fractions import Fraction
from random import Random

import pytest

from bochner import (
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
from bochner.serialize import (
    alpha_table_from_list,
    alpha_table_to_list,
    delta_table_from_list,
    delta_table_to_list,
    eigendata_from_dict,
    eigensystem_to_dict,
    operator_from_dict,
    operator_to_dict,
    poly_from_list,
    poly_to_list,
)
from bochner.shapiro import shapiro_poly
from conftest import int_max_str_digits, random_bochner


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
    system = eigensystem(deltas_from_operator(hermite_operator(), 6))
    doc = eigensystem_to_dict(system)
    data = eigendata_from_dict(doc)
    assert data.lambdas == system.lambdas
    assert data.polys == system.polys
    assert eigensystem_to_dict(data) == doc
    assert eigendata_from_dict(eigensystem_to_dict(system)) == system


def test_eigendata_rejects_bad_documents():
    with pytest.raises(ParseError):
        eigendata_from_dict({"lambda": ["0"]})
    with pytest.raises(ParseError):
        eigendata_from_dict({"lambda": ["0", "-1"], "P": [["1"], ["1", "2"]]})


def test_delta_table_round_trip():
    table = deltas_from_operator(hermite_operator(), 5)
    rows = delta_table_to_list(table)
    assert delta_table_from_list(rows, order=2) == table


def test_alpha_table_round_trip():
    system = eigensystem(deltas_from_operator(hermite_operator(), 7))
    coeffs = fit_recurrence(system)
    assert alpha_table_from_list(alpha_table_to_list(coeffs)) == coeffs


def test_scalar_entries_must_be_strings_or_ints():
    with pytest.raises(ParseError):
        poly_from_list([1.5])
    with pytest.raises(ParseError):
        poly_from_list([True])


def test_poly_round_trip_past_int_str_digit_limit():
    # n = 900 coefficients run to about 4500 digits, past Python's default
    # 4300-digit int/str limit; the limit itself must stay as it was
    limit = int_max_str_digits()
    p = shapiro_poly(ShapiroOperator([1, 1, 1]), 900)
    values = poly_to_list(p)
    assert max(len(v) for v in values) > 4300
    assert poly_from_list(values) == p
    assert int_max_str_digits() == limit
