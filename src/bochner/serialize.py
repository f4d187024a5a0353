"""JSON document formats.

All numbers travel as exact scalar strings ("p/q" or "a+b*i"); a polynomial
is the array of its coefficient strings indexed by power of x (the zero
polynomial is the empty array, though a lone "0" entry parses too).

    operator   {"N": 2, "a": [[], ["1", "-1"], ["0", "1"]]}
    eigen-data {"lambda": ["0", "-1", ...], "P": [["1"], ...]}
    delta / alpha tables: triangular array of arrays of scalar strings

Error messages name a bad value's type, never the value itself: str() of an
integer past Python's int/str digit limit raises.
"""
from __future__ import annotations

from .errors import InvalidEigenSystem, InvalidOperator, ParseError
from .operators import BochnerOperator, DeltaTable
from .polynomials import Poly
from .recurrence import RecurrenceCoeffs
from .scalars import GaussianRational, format_scalar, parse_scalar
from .spectral import EigenSystem


def poly_to_list(p: Poly) -> list[str]:
    return [format_scalar(c) for c in p.coeffs]


def poly_from_list(values) -> Poly:
    if not isinstance(values, list):
        raise ParseError(f"polynomial must be a JSON array, got {type(values).__name__}")
    return Poly([_scalar_from_json(v) for v in values])


def _scalar_from_json(value) -> GaussianRational:
    if isinstance(value, str):
        return parse_scalar(value)
    if isinstance(value, bool):
        raise ParseError("booleans are not scalars")
    if isinstance(value, int):
        return GaussianRational(value)
    raise ParseError(f"expected a scalar string, got {type(value).__name__}")


def operator_to_dict(op: BochnerOperator) -> dict:
    return {"N": op.order, "a": [poly_to_list(a) for a in op.coeffs]}


def operator_from_dict(doc) -> BochnerOperator:
    if not isinstance(doc, dict) or "N" not in doc or "a" not in doc:
        raise ParseError('operator document needs keys "N" and "a"')
    order = doc["N"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise ParseError(f'"N" must be an integer, got {type(order).__name__}')
    coeff_lists = doc["a"]
    if not isinstance(coeff_lists, list) or len(coeff_lists) != order + 1:
        raise ParseError('"a" must list N + 1 polynomials, one per derivative 0..N')
    try:
        return BochnerOperator([poly_from_list(entry) for entry in coeff_lists])
    except InvalidOperator as exc:
        raise ParseError(f"not a valid operator: {exc}") from exc


def eigensystem_to_dict(system: EigenSystem) -> dict:
    return {
        "lambda": [format_scalar(v) for v in system.lambdas],
        "P": [poly_to_list(p) for p in system.polys],
    }


def eigendata_from_dict(doc) -> EigenSystem:
    if not isinstance(doc, dict) or "lambda" not in doc or "P" not in doc:
        raise ParseError('eigen-data document needs keys "lambda" and "P"')
    lambdas = doc["lambda"]
    polys = doc["P"]
    if not isinstance(lambdas, list) or not isinstance(polys, list):
        raise ParseError('"lambda" and "P" must be JSON arrays')
    values = [_scalar_from_json(v) for v in lambdas]
    family = [poly_from_list(p) for p in polys]
    try:
        return EigenSystem(values, family)
    except InvalidEigenSystem as exc:
        raise ParseError(f"not valid eigen-data: {exc}") from exc


def delta_table_to_list(table: DeltaTable) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in table.rows]


def _rows_from_list(rows, name: str) -> list[list[GaussianRational]]:
    if not isinstance(rows, list):
        raise ParseError(f"{name} table must be a JSON array of arrays")
    parsed = []
    for row in rows:
        if not isinstance(row, list):
            raise ParseError(f"{name} table rows must be JSON arrays")
        parsed.append([_scalar_from_json(v) for v in row])
    return parsed


def delta_table_from_list(rows, order=None) -> DeltaTable:
    return DeltaTable(_rows_from_list(rows, "delta"), order=order)


def alpha_table_to_list(coeffs: RecurrenceCoeffs) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in coeffs.rows]


def alpha_table_from_list(rows) -> RecurrenceCoeffs:
    return RecurrenceCoeffs(_rows_from_list(rows, "alpha"))
