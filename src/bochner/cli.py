"""Command-line front end.

Verbs:
    direct      operator -> eigenvalues and monic eigenpolynomials
    preset      emit a classical operator document (hermite, laguerre, jacobi, shapiro)
    recurrence  fit the recurrence table of an operator's eigen-family, detect the band
    verify      run the full cross-check suite on an operator
    inverse     recover an operator from prescribed eigen-data
    lemmas      sweep the combinatorial identity residuals over integer grids

Exit codes: 0 success, 1 verification failure, 2 input error, 3 degenerate
spectrum.  Successful invocations print a JSON document with exact scalar
strings; --decimal adds labeled decimal renderings next to (never instead
of) the exact values.
"""
from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import (
    BochnerError,
    DegenerateSpectrum,
    DomainError,
    InsufficientData,
    InvalidEigenSystem,
    InvalidOperator,
    NoFiniteOrderOperator,
    ParseError,
    VerificationError,
)
from .identities import IDENTITY_IDS, sweep
from .inverse import deltas_from_eigendata_det, deltas_from_eigendata_rec, reconstruct
from .operators import (
    deltas_from_operator,
    hermite_operator,
    jacobi_operator,
    laguerre_operator,
    normalize,
)
from .polynomials import is_eigenpair
from .recurrence import bandwidth, fit_recurrence, relation_residual
from .scalars import GaussianRational, format_scalar, parse_int, parse_scalar
from .serialize import (
    alpha_table_to_list,
    delta_table_to_list,
    eigendata_from_dict,
    operator_from_dict,
    operator_to_dict,
    poly_to_list,
)
from .shapiro import ShapiroOperator, shapiro_alpha, to_bochner, verify_shapiro_recurrence
from .spectral import (
    delta_extend,
    eigenpoly_coeff_det,
    eigensystem,
    lambda_via_N2_identity,
)

PRESET_NAMES = ("hermite", "laguerre", "jacobi", "shapiro")


def _decimal_text(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = max(digits, 1)
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _scalar_decimal(value: GaussianRational, digits: int) -> str:
    if not value.im:
        return _decimal_text(value.re, digits)
    sign = "+" if value.im > 0 else "-"
    im_abs = value.im if value.im > 0 else -value.im
    return f"{_decimal_text(value.re, digits)}{sign}{_decimal_text(im_abs, digits)}*i"


def _decimal_rows(rows, digits):
    return [[_scalar_decimal(v, digits) for v in row] for row in rows]


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            raise ParseError(f"cannot write {args.out}: {exc}") from exc
    print(text)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_int=parse_int)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _preset_operator(name: str, args):
    if name == "hermite":
        return hermite_operator(), None
    if name == "laguerre":
        if args.alpha is None:
            raise ParseError("laguerre preset requires --alpha")
        return laguerre_operator(parse_scalar(args.alpha)), None
    if name == "jacobi":
        if args.alpha is None or args.beta is None:
            raise ParseError("jacobi preset requires --alpha and --beta")
        return jacobi_operator(parse_scalar(args.alpha), parse_scalar(args.beta)), None
    if name == "shapiro":
        if args.shapiro is None:
            raise ParseError("shapiro preset requires --shapiro c1,c2,...,cN")
        items = [piece for piece in args.shapiro.split(",") if piece.strip()]
        if not items:
            raise ParseError("empty coefficient list")
        product_op = ShapiroOperator([parse_scalar(piece) for piece in items])
        return to_bochner(product_op), product_op
    raise ParseError(f"unknown preset {name!r}")


def _operator_from_args(args):
    """Resolve the operator source flags; returns (operator, product_form_or_None)."""
    if args.operator is not None:
        if args.preset is not None or args.shapiro is not None:
            raise ParseError("give exactly one operator source")
        doc = _load_json(args.operator)
        return operator_from_dict(doc), None
    if args.preset is not None or args.shapiro is not None:
        return _preset_operator(args.preset or "shapiro", args)
    raise ParseError(
        "no operator source: use --operator FILE, --preset NAME or --shapiro LIST"
    )


def _direct_mismatches(op, table, system, shift):
    """Eigen-equation and determinant mismatches of `system`, in (n, i) order."""
    mismatches = []
    for n, poly in enumerate(system.polys):
        if not is_eigenpair(op, poly, system.lambdas[n] + shift):
            mismatches.append({"n": n, "check": "eigen-equation"})
        for i in range(1, n + 1):
            if eigenpoly_coeff_det(table, n, i) != poly.coeff(n - i):
                mismatches.append({"n": n, "i": i, "check": "determinant"})
    return mismatches


def _broken_rows(system, coeffs):
    """Rows of the fitted alpha table whose relation leaves a residual."""
    rows = range(coeffs.n_max + 1)
    return [n for n in rows if relation_residual(system.polys, coeffs.rows[n], n)]


# -- verbs ------------------------------------------------------------------


def run_direct(args) -> int:
    op, _ = _operator_from_args(args)
    normalized, shift = normalize(op)
    table = deltas_from_operator(normalized, args.nmax)
    system = eigensystem(table)
    lambdas = [lam + shift for lam in system.lambdas]
    if args.det:
        polys = []
        for n in range(args.nmax + 1):
            coeffs = [eigenpoly_coeff_det(table, n, i) for i in range(n, 0, -1)]
            polys.append(coeffs + [GaussianRational(1)])
        poly_lists = [[format_scalar(c) for c in row] for row in polys]
    else:
        poly_lists = [poly_to_list(p) for p in system.polys]
    payload = {
        "lambda": [format_scalar(v) for v in lambdas],
        "P": poly_lists,
    }
    if args.deltas:
        payload["delta"] = delta_table_to_list(table)
    if args.decimal:
        payload["lambda_decimal"] = [_scalar_decimal(v, args.decimal) for v in lambdas]
        payload["P_decimal"] = _decimal_rows((p.coeffs for p in system.polys), args.decimal)
    status = 0
    if args.check:
        mismatches = _direct_mismatches(op, table, system, shift)
        payload["check"] = "ok" if not mismatches else "failed"
        if mismatches:
            payload["mismatches"] = mismatches
            status = 1
    _emit(payload, args)
    return status


def run_preset(args) -> int:
    op, _ = _preset_operator(args.name, args)
    payload = operator_to_dict(op)
    if args.decimal:
        payload["a_decimal"] = _decimal_rows((a.coeffs for a in op.coeffs), args.decimal)
    _emit(payload, args)
    return 0


def run_recurrence(args) -> int:
    op, product_op = _operator_from_args(args)
    normalized, _ = normalize(op)
    table = deltas_from_operator(normalized, args.nmax + 1)
    system = eigensystem(table)
    coeffs = fit_recurrence(system)
    n_start = args.nstart if args.nstart is not None else args.nmax // 2 + 1
    detected = bandwidth(coeffs, n_start)
    payload = {
        "alpha": alpha_table_to_list(coeffs),
        "p": detected,
        "n_start": n_start,
        "n_max": coeffs.n_max,
    }
    if product_op is not None:
        payload["terms"] = product_op.order + 1
    if args.decimal:
        payload["alpha_decimal"] = _decimal_rows(coeffs.rows, args.decimal)
    status = 0
    if args.check:
        broken = _broken_rows(system, coeffs)
        payload["check"] = "ok" if not broken else "failed"
        if broken:
            payload["broken_rows"] = broken
            status = 1
    _emit(payload, args)
    return status


def run_verify(args) -> int:
    op, product_op = _operator_from_args(args)
    normalized, shift = normalize(op)
    nmax = args.nmax
    table = deltas_from_operator(normalized, nmax)
    system = eigensystem(table)
    failed = {m["check"] for m in _direct_mismatches(op, table, system, shift)}
    checks = {
        "eigen_equation": "eigen-equation" not in failed,
        "determinant_vs_recursion": "determinant" not in failed,
    }
    order = normalized.order
    checks["delta_extension"] = all(
        delta_extend(table, n, k) == table.value(n, k)
        for n in range(order + 1, nmax + 1)
        for k in range(order + 1)
    )
    coeffs = fit_recurrence(system)
    checks["recurrence_reconstruction"] = not _broken_rows(system, coeffs)
    if order == 2:
        checks["order2_eigenvalue_identity"] = all(
            lambda_via_N2_identity(system.lambdas[1], system.lambdas[2], n)
            == system.lambdas[n]
            for n in range(nmax + 1)
        )
    if product_op is not None:
        checks["product_form_recurrence"] = bool(
            verify_shapiro_recurrence(product_op, nmax)
        )
        checks["product_form_alpha_match"] = all(
            coeffs.alpha(n, n - s)
            == shapiro_alpha(product_op, n, s)
            for n in range(coeffs.n_max + 1)
            for s in range(min(product_op.order - 1, n) + 1)
        )
    payload = {
        "nmax": nmax,
        "checks": {name: ("ok" if good else "fail") for name, good in checks.items()},
    }
    _emit(payload, args)
    return 0 if all(checks.values()) else 1


def run_inverse(args) -> int:
    if args.order is None and not args.search:
        raise ParseError("inverse requires --order N or --search")
    doc = _load_json(args.data)
    data = eigendata_from_dict(doc)
    if args.search and data.n_max < 2:
        raise InsufficientData(f"--search needs data at least to degree 2, got {data.n_max}")
    if args.check:
        table = deltas_from_eigendata_rec(data, data.n_max)
        for n in range(data.n_max + 1):
            for k in range(n + 1):
                if deltas_from_eigendata_det(data, n, k) != table.value(n, k):
                    raise VerificationError(
                        f"delta determinant and recursion disagree at ({n}, {k})"
                    )  # pragma: no cover
    # the criterion holds from the true order upward: one call finds the smallest
    order = data.n_max - 1 if args.search else args.order
    try:
        op = reconstruct(data, order)
    except NoFiniteOrderOperator as exc:
        payload = {
            "found": False,
            "orders_tested": list(range(1, data.n_max)) if args.search else [order],
            "first_failure": list(exc.failure),
        }
        _emit(payload, args)
        return 1
    payload = {
        "found": True,
        "requested_order": op.order if args.search else order,
        "N": op.order,
        "operator": operator_to_dict(op),
        "verified_degree": data.n_max,
    }
    if args.decimal:
        payload["operator_decimal"] = _decimal_rows(
            (a.coeffs for a in op.coeffs), args.decimal
        )
    _emit(payload, args)
    return 0


def _parse_ranges(items):
    overrides = {}
    for item in items or ():
        try:
            name, bounds = item.split("=", 1)
            low_text, high_text = bounds.split(":", 1)
            low, high = int(low_text), int(high_text)
        except ValueError:
            raise ParseError(f"range {item!r} is not VAR=LO:HI") from None
        if low > high:
            raise ParseError(f"range {item!r} is empty")
        overrides[name.strip()] = (low, high)
    return overrides


def run_lemmas(args) -> int:
    identities = args.id or None
    overrides = _parse_ranges(args.range)
    checked, skipped, failures, per_id = sweep(identities, overrides)
    payload = {
        "checked": checked,
        "skipped": skipped,
        "per_id": {name: {"checked": c, "skipped": s} for name, (c, s) in per_id.items()},
        "failures": [
            {
                "id": name,
                "params": {key: str(value) for key, value in params.items()},
                "residual": format_scalar(residual),
            }
            for name, params, residual in failures
        ],
    }
    _emit(payload, args)
    return 0 if not failures else 1


# -- parser -----------------------------------------------------------------


def _add_operator_source(parser):
    parser.add_argument("--operator", metavar="FILE", help="operator JSON document")
    parser.add_argument("--preset", choices=PRESET_NAMES, help="classical operator")
    parser.add_argument("--alpha", help="parameter for laguerre/jacobi presets")
    parser.add_argument("--beta", help="parameter for the jacobi preset")
    parser.add_argument(
        "--shapiro",
        metavar="C1,C2,...",
        help="product-form operator from a comma list of exact scalars",
    )


def _add_common(parser):
    parser.add_argument("--out", metavar="FILE", help="also write the JSON output here")
    parser.add_argument(
        "--decimal",
        type=int,
        metavar="K",
        help="add K-digit decimal renderings beside the exact values",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bochner",
        description="Exact spectral computations for Bochner differential operators.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_direct = sub.add_parser("direct", help="eigenvalues and eigenpolynomials")
    _add_operator_source(p_direct)
    p_direct.add_argument("--nmax", type=int, default=10, help="highest degree (default 10)")
    p_direct.add_argument(
        "--check",
        action="store_true",
        help="run the eigen-equation oracle and the determinant cross-check",
    )
    p_direct.add_argument(
        "--det",
        action="store_true",
        help="compute coefficients by the determinant route instead of the recursion",
    )
    p_direct.add_argument(
        "--deltas",
        action="store_true",
        help="include the triangular delta table in the output",
    )
    _add_common(p_direct)
    p_direct.set_defaults(func=run_direct)

    p_preset = sub.add_parser("preset", help="emit a classical operator document")
    p_preset.add_argument("name", choices=PRESET_NAMES)
    p_preset.add_argument("--alpha")
    p_preset.add_argument("--beta")
    p_preset.add_argument("--shapiro", metavar="C1,C2,...")
    _add_common(p_preset)
    p_preset.set_defaults(func=run_preset)

    p_rec = sub.add_parser("recurrence", help="fit the recurrence table, detect the band")
    _add_operator_source(p_rec)
    p_rec.add_argument("--nmax", type=int, default=20, help="last fitted row (default 20)")
    p_rec.add_argument(
        "--nstart",
        type=int,
        help="first row of the band-detection window (default nmax//2 + 1)",
    )
    p_rec.add_argument(
        "--check",
        action="store_true",
        help="re-expand every fitted row and fail on any nonzero residual",
    )
    _add_common(p_rec)
    p_rec.set_defaults(func=run_recurrence)

    p_verify = sub.add_parser("verify", help="run the cross-check suite on an operator")
    _add_operator_source(p_verify)
    p_verify.add_argument("--nmax", type=int, default=10, help="verification depth (default 10)")
    _add_common(p_verify)
    p_verify.set_defaults(func=run_verify)

    p_inv = sub.add_parser("inverse", help="reconstruct an operator from eigen-data")
    p_inv.add_argument("--data", required=True, metavar="FILE", help="eigen-data JSON document")
    p_inv.add_argument("--order", type=int, help="order to test")
    p_inv.add_argument(
        "--search",
        action="store_true",
        help="report the smallest order that fits the data",
    )
    p_inv.add_argument(
        "--check",
        action="store_true",
        help="also verify the determinant and recursion delta paths against each other",
    )
    _add_common(p_inv)
    p_inv.set_defaults(func=run_inverse)

    p_lem = sub.add_parser("lemmas", help="sweep identity residuals over integer grids")
    p_lem.add_argument(
        "--id",
        action="append",
        choices=IDENTITY_IDS,
        help="restrict to this identity (repeatable)",
    )
    p_lem.add_argument(
        "--range",
        action="append",
        metavar="VAR=LO:HI",
        help="override a sweep interval, e.g. --range m=0:20 (repeatable)",
    )
    _add_common(p_lem)
    p_lem.set_defaults(func=run_lemmas)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateSpectrum as exc:
        print(f"degenerate spectrum: {exc}", file=sys.stderr)
        return 3
    except (
        ParseError,
        DomainError,
        InvalidOperator,
        InvalidEigenSystem,
        InsufficientData,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BochnerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
