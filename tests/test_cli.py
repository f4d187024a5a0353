import json
import os
import subprocess
import sys
from decimal import MAX_PREC, Decimal
from pathlib import Path

import pytest

import bochner.cli
import bochner.inverse
import bochner.polynomials
import bochner.spectral
from bochner import (
    DeltaTable,
    EigenSystem,
    Poly,
    RecurrenceCoeffs,
    hermite_operator,
    laguerre_operator,
)
from bochner.cli import main
from bochner.identities import iter_grid
from bochner.serialize import eigendata_from_dict, operator_from_dict, poly_to_list
from conftest import int_max_str_digits, monic_hermite, search_order_by_order

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    payload = json.loads(out) if out.strip() else None
    return code, payload, err


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_direct_hermite_preset(capsys):
    code, payload, _ = run_json(
        capsys, "direct", "--preset", "hermite", "--nmax", "4", "--check"
    )
    assert code == 0
    assert payload["lambda"] == ["0", "-2", "-4", "-6", "-8"]
    assert payload["P"][2] == ["-1/2", "0", "1"]
    assert payload["check"] == "ok"


def test_direct_bochner_violation_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "bad.json", {"N": 1, "a": [[], ["0", "0", "1"]]})
    code, out, err = run_cli(capsys, "direct", "--operator", path)
    assert code == 2
    assert "degree" in err


def test_direct_degenerate_spectrum_exits_3(tmp_path, capsys):
    # x^2 d^2 has eigenvalue 0 at n = 1
    path = write_json(tmp_path / "deg.json", {"N": 2, "a": [[], [], ["0", "0", "1"]]})
    code, out, err = run_cli(capsys, "direct", "--operator", path)
    assert code == 3
    assert "degenerate" in err.lower()


ROUTES = [(), ("--check",)]


@pytest.mark.parametrize("flags", ROUTES, ids=["plain", "check"])
def test_direct_degenerate_spectrum_exits_3_on_every_route(tmp_path, capsys, flags):
    path = write_json(tmp_path / "deg.json", {"N": 2, "a": [[], [], ["0", "0", "1"]]})
    code, out, err = run_cli(capsys, "direct", "--operator", path, *flags)
    assert code == 3
    assert out == ""
    assert err.startswith("degenerate spectrum:") and err.count("\n") == 1


@pytest.mark.parametrize("flags", ROUTES, ids=["plain", "check"])
def test_direct_checks_the_spectrum_once_per_route(capsys, monkeypatch, flags):
    calls = []
    real = bochner.spectral.check_spectrum

    def counted(lambdas):
        calls.append(len(lambdas))
        return real(lambdas)

    monkeypatch.setattr(bochner.spectral, "check_spectrum", counted)
    code, _, _ = run_cli(capsys, "direct", "--preset", "hermite", "--nmax", "8", *flags)
    assert code == 0
    # one route, or both when --check compares them
    assert calls == [9] * (2 if "--check" in flags else 1)


@pytest.mark.parametrize(
    "flags,status,descents", [(("--det",), 2, 0), ((), 0, 9)], ids=["det", "plain"]
)
def test_direct_det_runs_no_recursion(capsys, monkeypatch, flags, status, descents):
    """`direct` runs the recursion once, and has no `--det` option: argparse
    refuses it before any route runs."""
    calls = []
    real = bochner.spectral.descend

    def counted(band, n):
        calls.append(n)
        return real(band, n)

    monkeypatch.setattr(bochner.spectral, "descend", counted)
    code, out, err = run_cli(capsys, "direct", "--preset", "hermite", "--nmax", "8", *flags)
    assert code == status
    # one descent per degree, in order
    assert calls == list(range(descents))
    if flags:
        assert out == ""
        assert err.rstrip().endswith("error: unrecognized arguments: --det")


def test_direct_det_check_builds_the_determinant_system_once(capsys, monkeypatch):
    calls = []
    real = bochner.cli.eigenpoly_coeff_det

    def counted(table):
        calls.append(table.n_max)
        return real(table)

    monkeypatch.setattr(bochner.cli, "eigenpoly_coeff_det", counted)
    code, payload, _ = run_json(capsys, "direct", "--preset", "hermite", "--nmax", "8", "--check")
    assert code == 0
    assert payload["check"] == "ok"
    assert calls == [8]


def test_direct_shift_folded_into_lambdas(tmp_path, capsys):
    doc = {"N": 2, "a": [["3"], ["0", "-2"], ["1"]]}
    path = write_json(tmp_path / "shifted.json", doc)
    code, payload, _ = run_json(capsys, "direct", "--operator", path, "--nmax", "3", "--check")
    assert code == 0
    assert payload["lambda"] == ["3", "1", "-1", "-3"]
    assert payload["check"] == "ok"


def test_preset_laguerre_document(capsys):
    code, payload, _ = run_json(capsys, "preset", "laguerre", "--alpha", "0")
    assert code == 0
    assert payload == {"N": 2, "a": [[], ["1", "-1"], ["0", "1"]]}
    assert operator_from_dict(payload) == laguerre_operator(0)


def test_preset_hermite_document(capsys):
    code, payload, _ = run_json(capsys, "preset", "hermite")
    assert code == 0
    assert payload == {"N": 2, "a": [[], ["0", "-2"], ["1"]]}


def test_preset_shapiro_document(capsys):
    code, payload, _ = run_json(capsys, "preset", "shapiro", "--shapiro", "1,0,1/2")
    assert code == 0
    assert payload["N"] == 3
    assert payload["a"] == [[], ["1", "1"], [], ["0", "0", "1/2"]]


def test_preset_jacobi_requires_parameters(capsys):
    code, out, err = run_cli(capsys, "preset", "jacobi", "--alpha", "1/2")
    assert code == 2
    assert "beta" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["preset", "laguerre"], "laguerre preset requires --alpha"),
        (["preset", "jacobi", "--alpha", "1"], "jacobi preset requires --alpha and --beta"),
        (["preset", "shapiro"], "shapiro preset requires --shapiro"),
        (
            ["direct", "--preset", "jacobi", "--beta", "1"],
            "jacobi preset requires --alpha and --beta",
        ),
        (["direct", "--preset", "shapiro"], "shapiro preset requires --shapiro"),
    ],
)
def test_preset_missing_flags_name_every_flag_it_reads(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_preset_rejects_malformed_scalar(capsys):
    code, _, err = run_cli(capsys, "preset", "laguerre", "--alpha", "one half")
    assert code == 2


def test_preset_shapiro_needs_coefficients(capsys):
    code, _, err = run_cli(capsys, "preset", "shapiro")
    assert code == 2
    code, _, err = run_cli(capsys, "preset", "shapiro", "--shapiro", ",")
    assert code == 2
    code, _, err = run_cli(capsys, "preset", "shapiro", "--shapiro", "1,0")
    assert code == 2  # trailing zero coefficient lowers the order


def test_recurrence_hermite_band(capsys):
    code, payload, _ = run_json(
        capsys, "recurrence", "--preset", "hermite", "--nmax", "12"
    )
    assert code == 0
    assert payload["p"] == 1
    assert payload["alpha"][4] == ["0", "0", "0", "2", "0"]


def test_recurrence_shapiro_band(capsys):
    code, payload, _ = run_json(
        capsys, "recurrence", "--shapiro", "1,1,1", "--nmax", "14", "--nstart", "8"
    )
    assert code == 0
    assert payload["p"] == 2
    assert payload["terms"] == 4


def test_recurrence_check_flag(capsys):
    code, payload, _ = run_json(
        capsys, "recurrence", "--preset", "hermite", "--nmax", "8", "--check"
    )
    assert code == 0
    assert payload["check"] == "ok"


@pytest.mark.parametrize("n,k", [(0, 0), (4, 1), (7, 7)])
def test_recurrence_check_names_the_broken_row(capsys, monkeypatch, n, k):
    """One wrong entry of the fitted table breaks its row's relation and no
    other: --check fails, exits 1 and names that row alone."""
    real = bochner.cli.fit_recurrence

    def bumped(system, table):
        rows = [list(row) for row in real(system, table).rows]
        rows[n][k] += 1
        return RecurrenceCoeffs(rows)

    monkeypatch.setattr(bochner.cli, "fit_recurrence", bumped)
    code, payload, _ = run_json(
        capsys, "recurrence", "--preset", "hermite", "--nmax", "8", "--check"
    )
    assert code == 1
    assert payload["check"] == "failed"
    assert payload["broken_rows"] == [n]


def test_recurrence_nmax_0_default_window(capsys):
    # one fitted row: the default window starts at row 0, and one row shows
    # no band
    code, payload, err = run_json(capsys, "recurrence", "--preset", "hermite", "--nmax", "0")
    assert code == 0, err
    assert payload["n_start"] == 0
    assert payload["n_max"] == 0
    assert payload["p"] is None


@pytest.mark.parametrize("nmax", ["-1", "-3"])
def test_recurrence_negative_nmax_names_the_given_n(capsys, nmax):
    # the fit reads one row past --nmax; the message still names --nmax
    code, out, err = run_cli(capsys, "recurrence", "--preset", "hermite", "--nmax", nmax)
    assert code == 2 and out == ""
    assert err == f"error: n_max must be nonnegative, got {nmax}\n"


def test_recurrence_explicit_window_outside_table_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "recurrence", "--preset", "hermite", "--nmax", "0", "--nstart", "1"
    )
    assert code == 2
    assert out == ""
    assert err == "error: window start 1 outside table rows 0..0\n"


def test_verify_hermite(capsys):
    code, payload, _ = run_json(capsys, "verify", "--preset", "hermite", "--nmax", "8")
    assert code == 0
    assert payload["checks"]["eigen_equation"] == "ok"
    assert payload["checks"]["determinant_vs_recursion"] == "ok"
    assert payload["checks"]["delta_extension"] == "ok"
    assert payload["checks"]["order2_eigenvalue_identity"] == "ok"


def test_verify_shapiro_source(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "--shapiro", "2/3,-1/5", "--nmax", "8"
    )
    assert code == 0
    assert payload["checks"]["product_form_recurrence"] == "ok"
    assert payload["checks"]["product_form_alpha_match"] == "ok"


def test_verify_shapiro_builds_the_alpha_table_once(capsys, monkeypatch):
    calls = []
    real = bochner.cli.shapiro_alpha

    def counted(op, delta1):
        calls.append(len(delta1) - 2)  # the table's last row reads delta1(n_max + 1)
        return real(op, delta1)

    monkeypatch.setattr(bochner.cli, "shapiro_alpha", counted)
    code, payload, _ = run_json(capsys, "verify", "--shapiro=1,-2,3,1/2", "--nmax", "20")
    assert code == 0
    assert set(payload["checks"].values()) == {"ok"}
    assert calls == [20]


@pytest.mark.parametrize(
    "source", [("--preset", "hermite"), ("--shapiro=2/3,-1/5",)], ids=["hermite", "shapiro"]
)
def test_verify_order_2_below_nmax_2_exits_2(capsys, source):
    code, out, err = run_cli(capsys, "verify", *source, "--nmax", "1")
    assert code == 2
    assert out == ""
    assert err == "error: the order-2 eigenvalue identity needs --nmax at least 2, got 1\n"


@pytest.mark.parametrize("nmax", ["0", "-1"])
def test_verify_nmax_below_1_names_the_given_n(capsys, nmax):
    code, out, err = run_cli(capsys, "verify", "--shapiro=1", "--nmax", nmax)
    assert (code, out) == (2, "")
    assert err == f"error: verify needs --nmax at least 1, got {nmax}\n"


@pytest.mark.parametrize("s", [1, 2], ids=["in-band", "off-band"])
def test_verify_alpha_match_covers_the_whole_row(capsys, monkeypatch, s):
    """An order-2 product form has alpha(n, n-s) = 0 for s >= 2; the match
    against the closed form reads every entry of a fitted row, so a nonzero
    off the band fails it as an entry inside the band does."""
    real = bochner.cli.fit_recurrence

    def bumped(system, table):
        coeffs = real(system, table)
        rows = [list(row) for row in coeffs.rows]
        rows[6][6 - s] += 1
        return RecurrenceCoeffs(rows)

    monkeypatch.setattr(bochner.cli, "fit_recurrence", bumped)
    code, payload, _ = run_json(capsys, "verify", "--shapiro", "2/3,-1/5", "--nmax", "8")
    assert code == 1
    assert payload["checks"]["product_form_alpha_match"] == "fail"


def bump_det_coefficient(monkeypatch, n, i):
    """Make the CLI's determinant route return b(n, n-i) off by one, and
    every other coefficient as computed."""
    real = bochner.cli.eigenpoly_coeff_det

    def bumped(table):
        system = real(table)
        polys = list(system.polys)
        coeffs = list(polys[n].coeffs)
        coeffs[n - i] = coeffs[n - i] + 1
        polys[n] = Poly(coeffs)
        return EigenSystem(system.lambdas, polys)

    monkeypatch.setattr(bochner.cli, "eigenpoly_coeff_det", bumped)


@pytest.mark.parametrize("eigen_fails", [False, True], ids=["det-only", "with-eigen"])
def test_direct_check_locates_one_determinant_mismatch(capsys, monkeypatch, eigen_fails):
    bump_det_coefficient(monkeypatch, 5, 3)
    if eigen_fails:
        real = bochner.cli.is_eigenpair
        monkeypatch.setattr(
            bochner.cli, "is_eigenpair", lambda op, p, lam: p.degree != 5 and real(op, p, lam)
        )
    code, payload, _ = run_json(capsys, "direct", "--preset", "hermite", "--nmax", "8", "--check")
    assert code == 1
    assert payload["check"] == "failed"
    expected = [{"n": 5, "i": 3, "check": "determinant"}]
    if eigen_fails:
        expected.insert(0, {"n": 5, "check": "eigen-equation"})
    assert payload["mismatches"] == expected


def test_verify_reports_a_determinant_mismatch(capsys, monkeypatch):
    bump_det_coefficient(monkeypatch, 7, 1)
    code, payload, _ = run_json(capsys, "verify", "--shapiro", "2/3,-1/5", "--nmax", "8")
    assert code == 1
    assert payload["checks"]["determinant_vs_recursion"] == "fail"
    others = dict(payload["checks"])
    del others["determinant_vs_recursion"]
    assert set(others.values()) == {"ok"}


def bump_last_row(real):
    """`deltas_from_operator` with delta(n_max, 1) off by one, a row past the
    order, so the table is no operator's past its first rows."""

    def bumped(op, n_max):
        rows = [list(row) for row in real(op, n_max).rows]
        rows[-1][1] += 1
        return DeltaTable(rows)

    return bumped


# verify's verdict keys, in order: those of every operator, then those of
# order 2, then those of a product form (which has order 2 here)
CHECK_KEYS = (
    "eigen_equation",
    "determinant_vs_recursion",
    "delta_extension",
    "recurrence_reconstruction",
)
ORDER2_KEYS = (*CHECK_KEYS, "order2_eigenvalue_identity")
PRODUCT_FORM_KEYS = (*ORDER2_KEYS, "product_form_recurrence", "product_form_alpha_match")


@pytest.mark.parametrize(
    "source,name,wrap,failing",
    [
        (
            ("--preset", "hermite"),
            "is_eigenpair",
            lambda real: lambda op, p, lam: p.degree != 5 and real(op, p, lam),
            ("eigen_equation",),
        ),
        # the bumped table's own P_8 is no eigenpolynomial of the operator
        (
            ("--preset", "hermite"),
            "deltas_from_operator",
            bump_last_row,
            ("eigen_equation", "delta_extension"),
        ),
        (
            ("--preset", "hermite"),
            "relation_residual",
            lambda real: lambda polys, row, n: Poly([1]) if n == 4 else real(polys, row, n),
            ("recurrence_reconstruction",),
        ),
        (
            ("--preset", "hermite"),
            "lambda_via_N2_identity",
            lambda real: lambda l1, l2, n: real(l1, l2, n) + 1 if n == 5 else real(l1, l2, n),
            ("order2_eigenvalue_identity",),
        ),
        (
            ("--shapiro=2/3,-1/5",),
            "verify_shapiro_recurrence",
            lambda real: lambda alpha, delta1: (3, 0),
            ("product_form_recurrence",),
        ),
    ],
    ids=["eigen_equation", "delta_extension", "recurrence", "order2_identity", "product_form"],
)
def test_verify_reports_each_failing_check(capsys, monkeypatch, source, name, wrap, failing):
    monkeypatch.setattr(bochner.cli, name, wrap(getattr(bochner.cli, name)))
    code, payload, _ = run_json(capsys, "verify", *source, "--nmax", "8")
    keys = PRODUCT_FORM_KEYS if source[0].startswith("--shapiro") else ORDER2_KEYS
    assert code == 1
    assert list(payload["checks"].items()) == [
        (key, "fail" if key in failing else "ok") for key in keys
    ]


# an order-3 operator with non-real coefficients
ORDER3 = {"N": 3, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]]}


@pytest.mark.parametrize("nmax", ["2", "3"])
def test_verify_delta_extension_holds_with_no_row_past_the_order(tmp_path, capsys, nmax):
    # no row past the order is there to break the criterion
    path = write_json(tmp_path / "order3.json", ORDER3)
    code, payload, err = run_json(capsys, "verify", "--operator", path, "--nmax", nmax)
    assert (code, err) == (0, "")
    assert list(payload["checks"].items()) == [(key, "ok") for key in CHECK_KEYS]


def test_inverse_check_locates_a_delta_mismatch(tmp_path, capsys, monkeypatch):
    real = bochner.cli.deltas_from_eigendata_det

    def bumped(data):
        rows = [list(row) for row in real(data).rows]
        rows[6][4] = rows[6][4] + 1
        return DeltaTable(rows)

    monkeypatch.setattr(bochner.cli, "deltas_from_eigendata_det", bumped)
    path = write_json(tmp_path / "hermite.json", hermite_data_doc(8))
    code, out, err = run_cli(capsys, "inverse", "--data", path, "--order", "2", "--check")
    assert code == 1
    assert out == ""
    assert err == "error: delta determinant and recursion disagree at (6, 4)\n"


def hermite_data_doc(n_max):
    return {
        "lambda": [str(-2 * n) for n in range(n_max + 1)],
        "P": [poly_to_list(p) for p in monic_hermite(n_max)],
    }


def test_inverse_recovers_hermite(tmp_path, capsys):
    path = write_json(tmp_path / "hermite.json", hermite_data_doc(8))
    code, payload, _ = run_json(
        capsys, "inverse", "--data", path, "--order", "2", "--check"
    )
    assert code == 0
    assert payload["found"] is True
    assert payload["N"] == 2
    assert operator_from_dict(payload["operator"]) == hermite_operator()
    assert payload["verified_degree"] == 8


def test_inverse_search_finds_smallest_order(tmp_path, capsys):
    path = write_json(tmp_path / "hermite.json", hermite_data_doc(8))
    code, payload, _ = run_json(capsys, "inverse", "--data", path, "--search")
    assert code == 0
    assert payload["requested_order"] == 2


@pytest.mark.parametrize(
    "extra,expected", [((), [3]), (("--check",), [9, 3])], ids=["plain", "check"]
)
def test_inverse_search_builds_the_delta_table_once(
    tmp_path, capsys, monkeypatch, extra, expected
):
    # every route to the recursion's table draws the row iterator: the
    # search in `reconstruct`, --check in `deltas_from_eigendata_rec`.  The
    # search stops at the order-2 seed, rows 0..2; --check first builds both
    # whole tables, rows 0..8, the recursion's once
    drawn = []
    rows = bochner.inverse.delta_rows

    def counted(data):
        drawn.append(0)
        for row in rows(data):
            drawn[-1] += 1
            yield row

    monkeypatch.setattr(bochner.inverse, "delta_rows", counted)
    path = write_json(tmp_path / "hermite.json", hermite_data_doc(8))
    code, payload, _ = run_json(capsys, "inverse", "--data", path, "--search", *extra)
    assert code == 0
    assert payload["requested_order"] == 2
    assert drawn == expected


def test_inverse_search_failure_reports_last_order(tmp_path, capsys):
    doc = hermite_data_doc(8)
    doc["P"][5][0] = "1"  # perturb one coefficient by one
    path = write_json(tmp_path / "broken.json", doc)
    code, payload, _ = run_json(capsys, "inverse", "--data", path, "--search")
    assert code == 1
    assert payload["found"] is False
    assert payload["orders_tested"] == list(range(1, 8))
    order, _, failure = search_order_by_order(eigendata_from_dict(doc))
    assert order is None
    assert payload["first_failure"] == list(failure)


def test_inverse_failure_exits_1(tmp_path, capsys):
    doc = hermite_data_doc(8)
    doc["P"][5][0] = "1"  # perturb one coefficient by one
    path = write_json(tmp_path / "broken.json", doc)
    code, payload, _ = run_json(capsys, "inverse", "--data", path, "--order", "2")
    assert code == 1
    assert payload["found"] is False
    assert payload["first_failure"] is not None
    # the rows checked as they are built fail where the two full tables of
    # --check do
    code, checked, _ = run_json(capsys, "inverse", "--data", path, "--order", "2", "--check")
    assert code == 1
    assert checked == payload


def test_inverse_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "inverse", "--data", "/nonexistent.json", "--order", "2")
    assert code == 2


MALFORMED_FILES = {"not-utf8": b'{"N": 1, "a": ["\xff"]}', "deep-nesting": b"[" * 200000}


@pytest.mark.parametrize("content", sorted(MALFORMED_FILES))
@pytest.mark.parametrize(
    "argv", [("direct", "--operator"), ("inverse", "--search", "--data")], ids=["operator", "data"]
)
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, content):
    path = tmp_path / "doc.json"
    path.write_bytes(MALFORMED_FILES[content])
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path} ") and err.count("\n") == 1


OPERATOR_TEXT = '"N": 1, "a": [[], ["0", "1"]]'
DATA_TEXT = '"lambda": ["0", "1"], "P": [["1"], ["0", "1"]]'


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (("direct", "--operator"), '{%s, "a": [[], ["0", "2"]]}' % OPERATOR_TEXT, "a"),
        (("direct", "--operator"), '{"N": 1, %s}' % OPERATOR_TEXT, "N"),
        (("direct", "--operator"), '{%s, "note": [{"x": 1, "x": 1}]}' % OPERATOR_TEXT, "x"),
        (("inverse", "--search", "--data"), '{%s, "lambda": ["0", "2"]}' % DATA_TEXT, "lambda"),
        (("inverse", "--search", "--data"), '{%s, "check": {"P": 1, "P": 2}}' % DATA_TEXT, "P"),
    ],
    ids=["operator-a", "operator-N", "operator-nested", "data-lambda", "data-nested"],
)
def test_repeated_key_exits_2_before_any_output(tmp_path, capsys, argv, text, key):
    # JSON keeps the last value of a repeated key, which would run silently
    path, target = tmp_path / "doc.json", tmp_path / "out.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path), "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f'error: {path} repeats the key "{key}" in one object\n'
    assert not target.exists()


def test_inverse_reads_a_direct_document_with_every_field(tmp_path, capsys):
    # keys that no verb reads are accepted
    path = tmp_path / "direct.json"
    argv = ("--preset", "hermite", "--nmax", "4", "--deltas", "--decimal", "3", "--check")
    code, payload, _ = run_json(capsys, "direct", *argv, "--out", str(path))
    assert code == 0
    assert {"delta", "lambda_decimal", "P_decimal", "check"} <= payload.keys()
    code, payload, _ = run_json(capsys, "inverse", "--search", "--data", str(path))
    assert code == 0
    assert payload["N"] == 2


def test_inverse_requires_order_or_search(tmp_path, capsys):
    path = write_json(tmp_path / "hermite.json", hermite_data_doc(5))
    code, _, err = run_cli(capsys, "inverse", "--data", path)
    assert code == 2


def test_lemmas_single_identity(capsys):
    code, payload, _ = run_json(capsys, "lemmas", "--id", "kym")
    assert code == 0
    assert payload["checked"] == 144
    assert payload["failures"] == []


def test_lemmas_reports_skipped(capsys):
    code, payload, _ = run_json(
        capsys, "lemmas", "--id", "kym", "--range", "k=0:3", "--range", "m=1:4"
    )
    assert code == 0
    assert payload["checked"] == 12
    assert payload["skipped"] == 4


def test_lemmas_skips_every_point_below_the_domain(capsys):
    """Every integer variable swept over -3:3: the binomials and factorials
    of a residual never see a negative argument, since a point outside an
    identity's domain is counted as skipped before its residual is taken."""
    names = ("m", "k", "n", "q", "r", "N")

    def lemmas(low):
        ranges = [arg for name in names for arg in ("--range", f"{name}={low}:3")]
        code, payload, err = run_json(capsys, "lemmas", *ranges)
        assert code == 0 and err == ""
        assert payload["failures"] == []
        return payload

    wide, narrow = lemmas(-3), lemmas(0)
    assert wide["checked"] == narrow["checked"] == 310
    overrides = {name: (-3, 3) for name in names}
    for identity, counts in wide["per_id"].items():
        assert counts["checked"] == narrow["per_id"][identity]["checked"]
        points = sum(1 for _ in iter_grid(identity, overrides))
        assert counts["checked"] + counts["skipped"] == points


def test_lemmas_sweeps_a_repeated_identity_once(capsys):
    argv = ["lemmas", "--id", "kym", "--range", "k=1:2", "--range", "m=1:2"]
    code, once, _ = run_json(capsys, *argv)
    code_twice, twice, _ = run_json(capsys, *argv, "--id", "kym")
    assert code == code_twice == 0
    assert twice == once
    assert once["checked"] == once["per_id"]["kym"]["checked"] == 4


def test_lemmas_unknown_identity_exits_2(capsys):
    code, _, _ = run_cli(capsys, "lemmas", "--id", "bogus")
    assert code == 2


def test_lemmas_malformed_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "lemmas", "--id", "kym", "--range", "k=3")
    assert code == 2


def test_lemmas_range_of_an_unknown_variable_exits_2(capsys):
    code, out, err = run_cli(capsys, "lemmas", "--id", "1_lema1", "--range", "M=0:2")
    assert code == 2 and out == ""
    assert "'M'" in err
    # s is a parameter of 31tilde, but a rational one that no range sweeps
    code, out, err = run_cli(capsys, "lemmas", "--id", "31tilde", "--range", "s=0:2")
    assert code == 2 and "'s'" in err
    # a variable of one selected identity is enough
    code, payload, _ = run_json(
        capsys, "lemmas", "--id", "kym", "--id", "1_lema1", "--range", "k=1:2"
    )
    assert code == 0 and payload["failures"] == []


def test_verify_shapiro_lifts_each_polynomial_once(capsys, monkeypatch):
    # the oracles lift a polynomial's stored coefficient tuple, and weights
    # as fresh lists: a tuple seen twice is a polynomial lifted again
    lifted = []
    real = bochner.polynomials.lift

    def spy(values, over=None):
        lifted.append(values)
        return real(values, over)

    monkeypatch.setattr(bochner.polynomials, "lift", spy)
    code, payload, _ = run_json(capsys, "verify", "--shapiro=1,-1/2,11/3,1", "--nmax", "12")
    assert code == 0 and set(payload["checks"].values()) == {"ok"}
    polys = [values for values in lifted if isinstance(values, tuple)]
    # P_0..P_12 of the family, and P_0..P_13 of the closed form
    assert len(polys) == 27
    assert len({id(values) for values in polys}) == len(polys)


def test_direct_delta_export(capsys):
    code, payload, _ = run_json(
        capsys, "direct", "--preset", "hermite", "--nmax", "3", "--deltas"
    )
    assert code == 0
    assert payload["delta"] == [["0"], ["-2", "0"], ["-4", "0", "2"], ["-6", "0", "6"]]


def test_decimal_flag_adds_labeled_rendering(capsys):
    code, payload, _ = run_json(
        capsys, "direct", "--preset", "hermite", "--nmax", "2", "--decimal", "4"
    )
    assert code == 0
    assert payload["lambda"] == ["0", "-2", "-4"]  # exact values untouched
    assert payload["lambda_decimal"] == ["0", "-2", "-4"]
    assert payload["P_decimal"][2][0] == "-0.5"


@pytest.mark.parametrize("digits", ["0", "-5"])
def test_decimal_below_one_digit_exits_2(capsys, digits):
    code, out, err = run_cli(
        capsys, "direct", "--preset", "hermite", "--nmax", "2", "--decimal", digits
    )
    assert code == 2 and out == ""
    assert err == f"error: --decimal K needs K >= 1, got {int(digits)}\n"


# every K above 10**6 gets the one refusal; K past Decimal's own MAX_PREC, the
# largest precision it accepts, is refused by the same line
@pytest.mark.parametrize("digits", [MAX_PREC + 1, 10**30], ids=["max_prec+1", "1e30"])
@pytest.mark.parametrize(
    "argv",
    [("direct", "--preset", "hermite", "--nmax", "2"), ("preset", "laguerre", "--alpha", "1/3")],
    ids=["direct", "preset"],
)
def test_decimal_past_max_prec_exits_2_before_any_output(capsys, argv, digits):
    code, out, err = run_cli(capsys, *argv, "--decimal", str(digits))
    assert code == 2 and out == ""
    assert err == f"error: --decimal K renders at most 1000000 digits, got {digits}\n"


@pytest.mark.parametrize(
    "argv", [("verify", "--preset", "hermite"), ("lemmas", "--id", "kym")], ids=["verify", "lemmas"]
)
def test_verbs_without_decimal_fields_refuse_decimal(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--decimal", "3")
    assert code == 2
    assert out == ""


def test_out_flag_mirrors_stdout(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "direct", "--preset", "hermite", "--nmax", "2", "--out", str(target)
    )
    assert code == 0
    assert target.read_bytes() == out.encode()


def test_round_trip_through_cli_documents(tmp_path, capsys):
    code, preset_out, _ = run_cli(capsys, "preset", "jacobi", "--alpha", "1/2", "--beta", "1/3")
    assert code == 0
    path = tmp_path / "jacobi.json"
    path.write_text(preset_out)
    code, payload, _ = run_json(capsys, "direct", "--operator", str(path), "--nmax", "3")
    assert code == 0
    assert payload["lambda"][1] == "-17/6"  # -(1 + 1 + 5/6)


def test_operator_source_is_exclusive(capsys):
    code, _, err = run_cli(
        capsys, "direct", "--preset", "hermite", "--operator", "x.json"
    )
    assert code == 2


def test_out_to_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(
        capsys, "direct", "--preset", "hermite", "--nmax", "2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_inverse_search_on_too_little_data_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "short.json", hermite_data_doc(1))
    code, out, err = run_cli(capsys, "inverse", "--data", path, "--search")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ("direct", "--preset", "hermite", "--shapiro", "1,2"),
            "the hermite preset takes no --shapiro",
        ),
        (("direct", "--preset", "hermite", "--alpha", "0"), "the hermite preset takes no --alpha"),
        (
            ("recurrence", "--preset", "laguerre", "--alpha", "0", "--beta", "1"),
            "the laguerre preset takes no --beta",
        ),
        (
            ("verify", "--preset", "jacobi", "--alpha", "1", "--beta", "2", "--shapiro", "1"),
            "the jacobi preset takes no --shapiro",
        ),
        (("verify", "--shapiro", "1,2", "--alpha", "1/2"), "the shapiro preset takes no --alpha"),
        (("preset", "hermite", "--beta", "0"), "the hermite preset takes no --beta"),
        (
            ("preset", "shapiro", "--shapiro", "1", "--alpha", "0"),
            "the shapiro preset takes no --alpha",
        ),
        # refused before the file is read
        (
            ("direct", "--operator", "/nonexistent.json", "--beta", "1"),
            "an --operator document takes no --beta",
        ),
    ],
    ids=[
        "hermite-shapiro",
        "hermite-alpha",
        "laguerre-beta",
        "jacobi-shapiro",
        "shapiro-alpha",
        "preset-hermite",
        "preset-shapiro",
        "operator-beta",
    ],
)
def test_parameter_the_source_does_not_take_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_shapiro_preset_takes_its_coefficient_list(capsys):
    expected = run_cli(capsys, "direct", "--shapiro", "1,2", "--nmax", "3")
    assert expected[0] == 0
    argv = ("direct", "--preset", "shapiro", "--shapiro", "1,2", "--nmax", "3")
    assert run_cli(capsys, *argv) == expected
    # whitespace around an item is whitespace around a scalar
    assert run_cli(capsys, "direct", "--shapiro", " 1, 2 ", "--nmax", "3") == expected


@pytest.mark.parametrize("items", ["1,,2", "1,", ",1", "1, ,2", ",", ""])
@pytest.mark.parametrize(
    "verb", [("direct",), ("recurrence",), ("verify",), ("preset", "shapiro")], ids=lambda v: v[0]
)
def test_shapiro_list_with_an_empty_item_exits_2(capsys, verb, items):
    # an empty item is refused, not dropped: "1,,2" would run the order-2
    # operator c = (1, 2)
    code, out, err = run_cli(capsys, *verb, f"--shapiro={items}")
    assert code == 2
    assert out == ""
    assert err == f"error: empty item in the coefficient list {items!r}\n"


@pytest.mark.parametrize(
    "argv, document",
    [
        (("preset", "laguerre", "--alpha=-*i"), None),
        (("direct", "--shapiro=1,2+*i"), None),
        (("direct", "--operator"), {"N": 1, "a": [[], ["*i", "1"]]}),
        (("inverse", "--search", "--data"), {"lambda": ["0", "2-*i"], "P": [["1"], ["0", "1"]]}),
    ],
    ids=["alpha", "shapiro", "operator", "eigen-data"],
)
def test_star_with_no_coefficient_exits_2_at_every_entry_point(tmp_path, capsys, argv, document):
    if document is not None:
        argv += (write_json(tmp_path / "doc.json", document),)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed scalar ") and err.count("\n") == 1


def test_inverse_order_and_search_together_exit_2(tmp_path, capsys):
    path = write_json(tmp_path / "hermite.json", hermite_data_doc(4))
    code, out, err = run_cli(capsys, "inverse", "--data", path, "--search", "--order", "1")
    assert code == 2
    assert out == ""
    assert err.rstrip().endswith("error: argument --order: not allowed with argument --search")


def test_negative_scalar_flags_attach_with_equals(capsys):
    code, payload, _ = run_json(
        capsys, "direct", "--preset", "jacobi", "--alpha=1/2", "--beta=-2/5", "--nmax", "2"
    )
    assert code == 0
    assert payload["lambda"][1] == "-21/10"  # -(1 + 1 + 1/2 - 2/5)
    code, payload, _ = run_json(capsys, "recurrence", "--shapiro=-3/4,1", "--nmax", "6")
    assert code == 0
    assert payload["terms"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ("direct", "--preset", "jacobi", "--alpha", "1/2", "--beta", "-2/5", "--nmax", "3"),
        ("direct", "--preset", "laguerre", "--alpha", "-1/2", "--nmax", "3"),
        ("verify", "--shapiro", "-3/4,1"),
        ("recurrence", "--shapiro", "-i,1", "--nmax", "6"),
        ("preset", "jacobi", "--alpha", "-1/3", "--beta", "-2/5"),
    ],
    ids=["jacobi-beta", "laguerre-alpha", "verify-shapiro", "complex-shapiro", "preset"],
)
def test_negative_scalar_as_separate_argument(capsys, argv):
    flags = {f"--{param}" for param in bochner.cli._PARAMETERS}
    attached = []
    for arg in argv:
        if attached and attached[-1] in flags:
            attached[-1] += "=" + arg
        else:
            attached.append(arg)
    expected = run_cli(capsys, *attached)
    assert expected[0] == 0, expected[2]
    assert run_cli(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv, canonical",
    [
        (
            ("preset", "jacobi", "--alpha", "1", "--bet", "-2/5"),
            ("preset", "jacobi", "--alpha=1", "--beta=-2/5"),
        ),
        (
            ("recurrence", "--preset", "laguerre", "--alph", "-1/2", "--nmax", "4"),
            ("recurrence", "--preset", "laguerre", "--alpha=-1/2", "--nmax=4"),
        ),
        (("direct", "--shap", "-1,2", "--nmax", "3"), ("direct", "--shapiro=-1,2", "--nmax=3")),
    ],
    ids=["bet", "alph", "shap"],
)
def test_negative_value_after_an_abbreviated_flag(capsys, argv, canonical):
    expected = run_cli(capsys, *canonical)
    assert expected[0] == 0, expected[2]
    assert run_cli(capsys, *argv) == expected


def test_negative_nmax_still_reaches_its_check(capsys):
    # joined to "--nmax=-1" like any negative value, it is still refused
    assert run_cli(capsys, "direct", "--preset", "hermite", "--nmax", "-1") == (
        2,
        "",
        "error: n_max must be nonnegative, got -1\n",
    )


# argvs whose help, usage or error text comes from argparse, and two that
# parse; the text is compared with the same interpreter's whole parser,
# because argparse words it differently from one Python version to another
PARSER_CORPUS = [
    ("-h",),
    *((verb, "-h") for verb in bochner.cli._VERBS),
    (),
    ("bogus",),
    ("x", "direct"),
    ("direct", "--bogus"),
    ("direct", "--preset", "hermite", "extra"),
    ("direct", "--nmax"),
    ("recurrence", "--n", "3"),
    ("inverse", "--search"),
    ("inverse", "--data", "data.json", "--order", "1", "--search"),
    ("direct", "--preset", "hermite", "--nm", "3"),
    ("preset", "jacobi", "--alpha", "1", "--bet", "-2/5"),
    ("preset", "nope"),
    ("lemmas", "--id", "nope"),
]


@pytest.mark.parametrize("argv", PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "no-argv")
def test_verb_parser_gives_the_whole_parsers_bytes(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    build_parser = bochner.cli.build_parser
    built = []

    def recording(verbs):
        built.append(tuple(verbs))
        return build_parser(verbs)

    monkeypatch.setattr(bochner.cli, "build_parser", recording)
    shipped = run_cli(capsys, *argv)
    monkeypatch.setattr(bochner.cli, "build_parser", lambda verbs: build_parser(bochner.cli._VERBS))
    assert run_cli(capsys, *argv) == shipped
    # a verb's argv builds that verb's parser alone, anything else all six
    names_a_verb = bool(argv) and argv[0] in bochner.cli._VERBS
    assert built == [argv[:1] if names_a_verb else tuple(bochner.cli._VERBS)]


@pytest.mark.parametrize("argv", [(), ("bogus",)], ids=["no-verb", "unknown-verb"])
def test_whole_parser_names_the_verb_operand_by_its_dest(capsys, argv):
    # the brace list of every verb is the operand's metavar only in a parser
    # of fewer verbs; in the whole parser's refusals it would replace "verb"
    code, _, err = run_cli(capsys, *argv)
    last = err.splitlines()[-1]
    assert code == 2
    assert " verb" in last and "{" not in last, last


CLOSED_STDOUT_ARGVS = {
    "3": ("direct", "--preset", "hermite", "--nmax", "3"),
    "150": ("direct", "--preset", "hermite", "--nmax", "150"),
    "-h": ("-h",),
    "verify -h": ("verify", "-h"),
}


# an id without a suffix runs Python's default, buffered standard output
@pytest.mark.parametrize(
    "argv,unbuffered",
    [
        pytest.param(argv, unbuffered, id=name + ("-unbuffered" if unbuffered else ""))
        for unbuffered in (False, True)
        for name, argv in CLOSED_STDOUT_ARGVS.items()
    ],
)
def test_closed_stdout_exits_2_without_traceback(argv, unbuffered):
    # no reader is left on the pipe when the child writes: buffered, small
    # output fails at the final flush and large output at a write
    # mid-document; unbuffered, every output fails at its first write; the
    # help is small output
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    try:
        result = subprocess.run(
            [sys.executable, "-m", "bochner", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no full device")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv", [("-h",), ("direct", "--preset", "hermite", "--nmax", "150")], ids=["-h", "150"]
)
def test_full_stdout_exits_2_without_traceback(argv, unbuffered):
    # every write to /dev/full fails with ENOSPC, an OSError but no pipe
    # error: buffered at the flush, unbuffered at the first write, which
    # argparse would drop from Python 3.11 on
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "bochner", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            timeout=120,
        )
    assert result.returncode == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write to standard output:")


# A constant past Python's 4300-digit int/str conversion limit.
BIG = "1" + "2" * 4999


def test_direct_with_5000_digit_coefficient(tmp_path, capsys):
    limit = int_max_str_digits()
    path = write_json(tmp_path / "big.json", {"N": 1, "a": [[], [BIG, "1"]]})
    code, payload, err = run_json(capsys, "direct", "--operator", path, "--nmax", "2")
    assert code == 0, err
    assert payload["P"][1] == [BIG, "1"]  # P_1 = x + c for (c + x) d/dx
    assert int_max_str_digits() == limit


def big_data_text(bare):
    # eigen-data of (c + x) d/dx: lambda_n = n, P_n = (x + c)^n
    c = int(Decimal(BIG))
    doc = {
        "lambda": ["0", "1", "2"],
        "P": [["1"], ["<c>", "1"], [str(Decimal(c * c)), str(Decimal(2 * c)), "1"]],
    }
    return json.dumps(doc).replace('"<c>"', BIG if bare else f'"{BIG}"')


@pytest.mark.parametrize("bare", [False, True], ids=["string", "bare-int"])
def test_inverse_with_5000_digit_data(tmp_path, capsys, bare):
    path = tmp_path / "big.json"
    path.write_text(big_data_text(bare))
    code, payload, err = run_json(capsys, "inverse", "--data", str(path), "--order", "1")
    assert code == 0, err
    assert payload["found"] is True
    assert payload["operator"]["a"][1] == [BIG, "1"]


@pytest.mark.parametrize(
    "verb, flag, text",
    [
        ("direct", "--operator", '{"N": %s, "a": []}' % BIG),
        ("direct", "--operator", '{"N": [%s], "a": []}' % BIG),
        ("direct", "--operator", '{"N": 1, "a": [[], [[%s]]]}' % BIG),
        ("inverse", "--data", '{"lambda": ["0", [%s]], "P": [["1"], ["0", "1"]]}' % BIG),
    ],
    ids=["N", "N-list", "a-entry", "lambda-entry"],
)
def test_malformed_document_with_5000_digit_integer_exits_2(tmp_path, capsys, verb, flag, text):
    # the error message must not format the document's integer, whose
    # str() would raise past the int/str digit limit
    path = tmp_path / "doc.json"
    path.write_text(text)
    extra = ["--order", "1"] if verb == "inverse" else []
    code, out, err = run_cli(capsys, verb, flag, str(path), *extra)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
