"""Command-line front end.

Verbs:
    direct      operator -> eigenvalues and monic eigenpolynomials
    preset      emit a classical operator document (hermite, laguerre, jacobi, shapiro)
    recurrence  fit the recurrence table of an operator's eigen-family, detect the band
    verify      run the full cross-check suite on an operator
    inverse     recover an operator from prescribed eigen-data
    lemmas      sweep the combinatorial identity residuals over integer grids

Exit codes: 0 success, 1 verification failure, 2 input error, 3 degenerate
spectrum.  In process, `main(argv)` returns the exit status for every argv,
-h and argparse's refusals included; a package error's status is the
`exit_code` its type states in `errors.py`.  A standard output that refuses
the bytes, closed or on a full device, exits 2 with one error line, for -h
as for a verb's document.  Successful invocations print a JSON document
with exact scalar strings; on direct, preset, recurrence and inverse,
--decimal K adds labeled K-digit decimal renderings next to (never instead
of) the exact values, for K up to 10^6.

Every verb writes its document through one emitter, `_emit`, in the layout
and bytes of json.dumps(payload, indent=2).  `direct` streams: it runs every
check that can fail and opens --out before the first byte, then writes each
P_n as its descent yields it, so beyond the text it writes it holds O(n^2),
one polynomial and the band, plus the determinant family under --check.
The other verbs build their whole payload, and hold whole families, first.
`recurrence` hands its alpha tables to the emitter as iterators of rows,
which it writes one row of encoded strings at a time: json.dumps with an
indent runs the pure-Python encoder, entry by entry.

`main` reads argv[0] before it parses, because a call that names its verb
there needs only that verb's argument parser, and building all six took
about a millisecond, most of a small call's own work.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections.abc import Iterator
from decimal import Decimal, localcontext

from .errors import (
    BochnerError,
    DomainError,
    InsufficientData,
    NoFiniteOrderOperator,
    ParseError,
    VerificationError,
)
from .identities import IDENTITY_IDS, sweep
from .inverse import (
    deltas_from_eigendata_det,
    deltas_from_eigendata_rec,
    first_order_violation,
    reconstruct,
)
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
from .shapiro import (
    ShapiroOperator,
    shapiro_alpha,
    shapiro_delta1_column,
    to_bochner,
    verify_shapiro_recurrence,
)
from .spectral import (
    delta_extend,  # unused here; bench/tracing.py wraps this binding
    eigenpoly_coeff_det,
    eigenpolys,
    eigensystem,
    lambda_via_N2_identity,
)


def _product_form(text: str) -> ShapiroOperator:
    """The product-form operator of the coefficient list "c1,c2,...,cN"."""
    items = text.split(",")
    if not all(piece.strip() for piece in items):
        raise ParseError(f"empty item in the coefficient list {text!r}")
    return ShapiroOperator([parse_scalar(piece) for piece in items])


# each preset's builder and the parameter flags it reads, in argument order;
# giving a preset any other flag is an input error
_PRESETS = {
    "hermite": (hermite_operator, ()),
    "laguerre": (laguerre_operator, ("alpha",)),
    "jacobi": (jacobi_operator, ("alpha", "beta")),
    "shapiro": (_product_form, ("shapiro",)),
}
# every parameter flag, in the order the presets first read them
_PARAMETERS = tuple(dict.fromkeys(p for _, params in _PRESETS.values() for p in params))
# a scalar argument that starts with a minus sign: "-2/5", "-i", "-3/4,1"
_NEGATIVE_SCALAR = re.compile(r"-[\di]")
# a JSON string as json.dumps writes it by default
_encode = json.encoder.encode_basestring_ascii
# the largest --decimal K: each value's rendering costs time and memory
# linear in K; `direct --preset jacobi --nmax 10` renders 77 values, and took
# 0.8 s and 98 MiB at K = 10^6 and 7.4 s and 843 MiB at 10^7 (CPython 3.11,
# x86-64), and at 10^9 its `--nmax 2` call outgrew 7.6 GB
_DECIMAL_MAX = 10**6


def _decimal_text(value: Fraction, digits: int) -> str:
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def _scalar_decimal(value: GaussianRational, digits: int) -> str:
    if not value.im:
        return _decimal_text(value.re, digits)
    sign = "+" if value.im > 0 else "-"
    im_abs = value.im if value.im > 0 else -value.im
    return f"{_decimal_text(value.re, digits)}{sign}{_decimal_text(im_abs, digits)}*i"


def _decimal_rows(rows, digits):
    return [[_scalar_decimal(v, digits) for v in row] for row in rows]


def _emit(items, args) -> None:
    """Write the document of the (key, value) pairs `items` to standard
    output, and to --out when given, as json.dumps(dict(items), indent=2)
    and a newline, one piece at a time.

    --out is opened before the first byte, and `items` is drawn as it is
    written, so a value may be computed while the ones before it are
    written.  A value that is an iterator is an array of arrays of strings,
    drawn and written one row at a time; any other value is written as
    json.dumps(value, indent=2) indented one level, which is safe because a
    JSON string holds no raw newline.
    """
    path = getattr(args, "out", None)
    if not path:
        _write_document(items, sys.stdout.write)
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc

    def to_file(call, *args):
        try:
            call(*args)
        except OSError as exc:
            raise ParseError(f"cannot write {path}: {exc}") from exc

    def write(text):
        sys.stdout.write(text)
        to_file(handle.write, text)

    # closing flushes what the file still buffers, so a device that refuses
    # the bytes fails there, also after a write already failed
    try:
        _write_document(items, write)
    finally:
        to_file(handle.close)


def _write_document(items, write) -> None:
    opening = "{\n  "
    for key, value in items:
        head = opening + _encode(key) + ": "
        opening = ",\n  "
        if isinstance(value, Iterator):
            _write_rows(head, value, write)
        else:
            write(head + json.dumps(value, indent=2).replace("\n", "\n  "))
    write("{}\n" if opening == "{\n  " else "\n}\n")


def _write_rows(head, rows, write) -> None:
    opening = head + "[\n    "
    for row in rows:
        if row:
            write(opening + "[\n      ")
            write(",\n      ".join(map(_encode, row)))
            write("\n    ]")
        else:
            write(opening + "[]")
        opening = ",\n    "
    write("\n  ]" if opening == ",\n    " else head + "[]")


def _load_json(path: str):
    """The JSON document at `path`; an object that repeats a key, at any
    depth, is refused, since JSON would keep only its last value."""

    def unique_keys(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ParseError(f"{path} repeats the key {_encode(key)} in one object")
            obj[key] = value
        return obj

    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle, parse_int=parse_int, object_pairs_hook=unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError(f"{path} nests JSON too deeply to parse") from None


def _reject_unused_parameters(args, source: str, taken) -> None:
    for param in _PARAMETERS:
        if getattr(args, param) is not None and param not in taken:
            raise ParseError(f"{source} takes no --{param}")


def _preset_operator(name: str, args):
    build, params = _PRESETS[name]
    _reject_unused_parameters(args, f"the {name} preset", params)
    texts = [getattr(args, param) for param in params]
    if None in texts:
        flags = " and ".join(f"--{param}" for param in params)
        raise ParseError(f"{name} preset requires {flags}")
    op = build(*texts)
    if isinstance(op, ShapiroOperator):
        return to_bochner(op), op
    return op, None


def _operator_from_args(args):
    """Resolve the operator source flags; returns (operator, product_form_or_None)."""
    if args.operator is not None:
        if args.preset is not None or args.shapiro is not None:
            raise ParseError("give exactly one operator source")
        _reject_unused_parameters(args, "an --operator document", ())
        doc = _load_json(args.operator)
        return operator_from_dict(doc), None
    if args.preset is not None or args.shapiro is not None:
        return _preset_operator(args.preset or "shapiro", args)
    raise ParseError(
        "no operator source: use --operator FILE, --preset NAME or --shapiro LIST"
    )


def _mismatches(op, n, poly, lam, det_poly):
    """The eigen-equation mismatch of P_n = `poly` with eigenvalue `lam`,
    then its determinant mismatches against `det_poly`, in i order."""
    found = [] if is_eigenpair(op, poly, lam) else [{"n": n, "check": "eigen-equation"}]
    if det_poly != poly:
        found.extend(
            {"n": n, "i": i, "check": "determinant"}
            for i in range(1, n + 1)
            if det_poly.coeff(n - i) != poly.coeff(n - i)
        )
    return found


def _broken_rows(system, coeffs):
    """Rows of the fitted alpha table whose relation leaves a residual."""
    rows = range(coeffs.n_max + 1)
    return [n for n in rows if relation_residual(system.polys, coeffs.rows[n], n)]


# -- verbs ------------------------------------------------------------------


def run_direct(args) -> int:
    """Stream the document: every check that can fail runs before the first
    byte, then each P_n goes from its descent to its text, with its decimal
    strings and its check collected on the way, and is dropped."""
    op, _ = _operator_from_args(args)
    normalized, shift = normalize(op)
    table = deltas_from_operator(normalized, args.nmax)
    polys = eigenpolys(table)
    lambdas = [row[0] + shift for row in table.rows]
    by_det = eigenpoly_coeff_det(table).polys if args.check else None
    digits = args.decimal
    p_decimal, mismatches = [], []

    def row(n, poly):
        if digits:
            p_decimal.append([_scalar_decimal(v, digits) for v in poly.coeffs])
        if args.check:
            mismatches.extend(_mismatches(op, n, poly, lambdas[n], by_det[n]))
        return poly_to_list(poly)

    def items():
        yield "lambda", [format_scalar(v) for v in lambdas]
        yield "P", map(row, range(len(lambdas)), polys)
        if args.deltas:
            yield "delta", delta_table_to_list(table)
        if digits:
            yield "lambda_decimal", [_scalar_decimal(v, digits) for v in lambdas]
            yield "P_decimal", iter(p_decimal)
        if args.check:
            yield "check", "failed" if mismatches else "ok"
            if mismatches:
                yield "mismatches", mismatches

    _emit(items(), args)
    return 1 if mismatches else 0


def run_preset(args) -> int:
    op, _ = _preset_operator(args.name, args)
    payload = operator_to_dict(op)
    if args.decimal:
        payload["a_decimal"] = _decimal_rows((a.coeffs for a in op.coeffs), args.decimal)
    _emit(payload.items(), args)
    return 0


def run_recurrence(args) -> int:
    op, product_op = _operator_from_args(args)
    normalized, _ = normalize(op)
    if args.nmax < 0:
        # the fit reads one row past --nmax, so the table's own check would
        # name N + 1
        raise DomainError(f"n_max must be nonnegative, got {args.nmax}")
    table = deltas_from_operator(normalized, args.nmax + 1)
    system = eigensystem(table)
    coeffs = fit_recurrence(system, table)
    # the default window start stays inside the table when --nmax is 0
    n_start = args.nstart if args.nstart is not None else min(args.nmax // 2 + 1, args.nmax)
    detected = bandwidth(coeffs, n_start)
    payload = {
        "alpha": iter(alpha_table_to_list(coeffs)),
        "p": detected,
        "n_start": n_start,
        "n_max": coeffs.n_max,
    }
    if product_op is not None:
        payload["terms"] = product_op.order + 1
    if args.decimal:
        payload["alpha_decimal"] = iter(_decimal_rows(coeffs.rows, args.decimal))
    status = 0
    if args.check:
        broken = _broken_rows(system, coeffs)
        payload["check"] = "ok" if not broken else "failed"
        if broken:
            payload["broken_rows"] = broken
            status = 1
    _emit(payload.items(), args)
    return status


def run_verify(args) -> int:
    op, product_op = _operator_from_args(args)
    normalized, shift = normalize(op)
    nmax = args.nmax
    if nmax < 1:
        # the recurrence fit reads rows 0..1, and its own check names no flag
        raise DomainError(f"verify needs --nmax at least 1, got {nmax}")
    order = normalized.order
    table = deltas_from_operator(normalized, nmax)
    system = eigensystem(table)
    pairs = zip(system.polys, system.lambdas)
    checks = {
        "eigen_equation": all(is_eigenpair(op, poly, lam + shift) for poly, lam in pairs),
        "determinant_vs_recursion": eigenpoly_coeff_det(table) == system,
        # the criterion needs a row past the order; with none, nothing breaks it
        "delta_extension": nmax <= order or first_order_violation(table, order) is None,
    }
    coeffs = fit_recurrence(system, table)
    checks["recurrence_reconstruction"] = not _broken_rows(system, coeffs)
    if order == 2:
        if nmax < 2:
            raise InsufficientData(
                f"the order-2 eigenvalue identity needs --nmax at least 2, got {nmax}"
            )
        checks["order2_eigenvalue_identity"] = all(
            lambda_via_N2_identity(system.lambdas[1], system.lambdas[2], n)
            == system.lambdas[n]
            for n in range(nmax + 1)
        )
    if product_op is not None:
        # delta1 from the closed form, never from `table`, so the match below
        # stays an independent check of the table
        delta1 = shapiro_delta1_column(product_op, nmax + 1)
        alpha = shapiro_alpha(product_op, delta1)
        checks["product_form_recurrence"] = verify_shapiro_recurrence(alpha, delta1) is None
        checks["product_form_alpha_match"] = coeffs.rows == alpha.rows[: coeffs.n_max + 1]
    payload = {
        "nmax": nmax,
        "checks": {name: ("ok" if good else "fail") for name, good in checks.items()},
    }
    _emit(payload.items(), args)
    return 0 if all(checks.values()) else 1


def run_inverse(args) -> int:
    if args.order is None and not args.search:
        raise ParseError("inverse requires --order N or --search")
    doc = _load_json(args.data)
    data = eigendata_from_dict(doc)
    if args.search and data.n_max < 2:
        raise InsufficientData(f"--search needs data at least to degree 2, got {data.n_max}")
    if args.check:
        table = deltas_from_eigendata_rec(data)
        by_det = deltas_from_eigendata_det(data)
        if by_det != table:
            n, k = next(
                (n, k)
                for n in range(data.n_max + 1)
                for k in range(n + 1)
                if by_det.value(n, k) != table.value(n, k)
            )
            raise VerificationError(f"delta determinant and recursion disagree at ({n}, {k})")
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
        _emit(payload.items(), args)
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
    _emit(payload.items(), args)
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
    _emit(payload.items(), args)
    return 0 if not failures else 1


# -- parser -----------------------------------------------------------------


def _add_operator_source(parser):
    parser.add_argument("--operator", metavar="FILE", help="operator JSON document")
    parser.add_argument("--preset", choices=_PRESETS, help="classical operator")
    _add_parameters(parser)


def _add_parameters(parser):
    for param in _PARAMETERS:
        readers = [name for name, (_, params) in _PRESETS.items() if param in params]
        parser.add_argument(f"--{param}", help=f"parameter of the {'/'.join(readers)} preset")


def _add_out(parser):
    parser.add_argument("--out", metavar="FILE", help="also write the JSON output here")


def _add_decimal(parser):
    parser.add_argument(
        "--decimal",
        type=int,
        metavar="K",
        help=f"add K-digit decimal renderings beside the exact values, K <= {_DECIMAL_MAX}",
    )


def _direct_arguments(parser):
    _add_operator_source(parser)
    parser.add_argument("--nmax", type=int, default=10, help="highest degree (default 10)")
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the eigen-equation oracle and the determinant cross-check",
    )
    parser.add_argument(
        "--deltas",
        action="store_true",
        help="include the triangular delta table in the output",
    )
    _add_out(parser)
    _add_decimal(parser)


def _preset_arguments(parser):
    parser.add_argument("name", choices=_PRESETS)
    _add_parameters(parser)
    _add_out(parser)
    _add_decimal(parser)


def _recurrence_arguments(parser):
    _add_operator_source(parser)
    parser.add_argument("--nmax", type=int, default=20, help="last fitted row (default 20)")
    parser.add_argument(
        "--nstart",
        type=int,
        help="first row of the band-detection window (default nmax//2 + 1, at most nmax)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="re-expand every fitted row and fail on any nonzero residual",
    )
    _add_out(parser)
    _add_decimal(parser)


def _verify_arguments(parser):
    _add_operator_source(parser)
    parser.add_argument("--nmax", type=int, default=10, help="verification depth (default 10)")
    _add_out(parser)


def _inverse_arguments(parser):
    parser.add_argument("--data", required=True, metavar="FILE", help="eigen-data JSON document")
    target = parser.add_mutually_exclusive_group()
    target.add_argument("--order", type=int, help="order to test")
    target.add_argument(
        "--search",
        action="store_true",
        help="report the smallest order that fits the data",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also verify the determinant and recursion delta paths against each other",
    )
    _add_out(parser)
    _add_decimal(parser)


def _lemmas_arguments(parser):
    parser.add_argument(
        "--id",
        action="append",
        choices=IDENTITY_IDS,
        help="restrict to this identity (repeatable)",
    )
    parser.add_argument(
        "--range",
        action="append",
        metavar="VAR=LO:HI",
        help="override a sweep interval, e.g. --range m=0:20 (repeatable)",
    )
    _add_out(parser)


# each verb, in the order the help lists them: its help line, the function
# that declares its arguments, and the function that runs it
_VERBS = {
    "direct": ("eigenvalues and eigenpolynomials", _direct_arguments, run_direct),
    "preset": ("emit a classical operator document", _preset_arguments, run_preset),
    "recurrence": (
        "fit the recurrence table, detect the band",
        _recurrence_arguments,
        run_recurrence,
    ),
    "verify": ("run the cross-check suite on an operator", _verify_arguments, run_verify),
    "inverse": ("reconstruct an operator from eigen-data", _inverse_arguments, run_inverse),
    "lemmas": ("sweep identity residuals over integer grids", _lemmas_arguments, run_lemmas),
}


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):
        # argparse drops a failed write from Python 3.11 on; the help written
        # here fails on a closed standard output as a verb's document does
        (file or sys.stdout).write(self.format_help())


def build_parser(verbs) -> argparse.ArgumentParser:
    """The parser of `verbs`, _VERBS keys in _VERBS order.  On an argv that
    names one of them its help, usage and error text is the whole parser's,
    byte for byte."""
    parser = _Parser(
        prog="bochner",
        description="Exact spectral computations for Bochner differential operators.",
    )
    # the usage line lists the verbs a parser was given, so a parser of fewer
    # verbs lists them all through the metavar; only the whole parser can
    # refuse a verb, and it keeps no metavar, which would replace the name
    # "verb" in those refusals
    sub = parser.add_subparsers(
        dest="verb",
        required=True,
        metavar=None if len(verbs) == len(_VERBS) else "{" + ",".join(_VERBS) + "}",
    )
    for verb in verbs:
        help_text, declare, run = _VERBS[verb]
        verb_parser = sub.add_parser(verb, help=help_text)
        declare(verb_parser)
        verb_parser.set_defaults(func=run)
    return parser


def _attach_negative_scalars(argv):
    """Join `--beta -2/5` into `--beta=-2/5`: a negative value to the long
    flag before it, abbreviated or not, unless that flag already holds "="
    or is a bare "--".

    argparse takes a separate argument that starts with "-" for an option
    unless it looks like a plain negative number, so "-2/5" or "-3/4,1"
    would be refused as a value.  Behind "=" it is the flag's value, and
    argparse still resolves an abbreviated flag.
    """
    joined = []
    for arg in argv:
        last = joined[-1] if joined else ""
        open_flag = last.startswith("--") and last != "--" and "=" not in last
        if open_flag and _NEGATIVE_SCALAR.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    argv = _attach_negative_scalars(sys.argv[1:] if argv is None else argv)
    # a verb's own parser suffices once argv[0] names it; -h, no verb or an
    # unknown verb takes the whole parser
    verbs = argv[:1] if argv and argv[0] in _VERBS else _VERBS
    try:
        try:
            args = build_parser(verbs).parse_args(argv)
        except SystemExit as exc:
            # argparse has written the help, or its usage and error line
            status = exc.code
        else:
            digits = getattr(args, "decimal", None)
            if digits is not None and digits < 1:
                raise ParseError(f"--decimal K needs K >= 1, got {digits}")
            if digits is not None and digits > _DECIMAL_MAX:
                raise ParseError(
                    f"--decimal K renders at most {_DECIMAL_MAX} digits, got {digits}"
                )
            status = args.func(args)
        sys.stdout.flush()
        return status
    except OSError as exc:
        # stdout refused the bytes (its reader closed it, or its device is
        # full; every file the verbs open turns its own OSError into a
        # ParseError); send what is still buffered to devnull, or the
        # interpreter's final flush raises the same error again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write to standard output: {exc}", file=sys.stderr)
        return 2
    except BochnerError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
