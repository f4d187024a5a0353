import json
from decimal import Decimal

import pytest

from bochner import (
    EigenSystem,
    GaussianRational,
    hermite_operator,
    laguerre_operator,
)
from bochner.cli import main
from bochner.serialize import eigendata_from_dict, eigensystem_to_dict, operator_from_dict
from conftest import int_max_str_digits, monic_hermite, search_order_by_order


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


def test_direct_det_route_matches(capsys):
    code_a, default, _ = run_json(capsys, "direct", "--preset", "hermite", "--nmax", "6")
    code_b, via_det, _ = run_json(
        capsys, "direct", "--preset", "hermite", "--nmax", "6", "--det"
    )
    assert code_a == code_b == 0
    assert default["P"] == via_det["P"]
    assert default["lambda"] == via_det["lambda"]


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


def hermite_data_doc(n_max):
    lambdas = [GaussianRational(-2 * n) for n in range(n_max + 1)]
    return eigensystem_to_dict(EigenSystem(lambdas, monic_hermite(n_max)))


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


def test_inverse_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "inverse", "--data", "/nonexistent.json", "--order", "2")
    assert code == 2


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


def test_lemmas_unknown_identity_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["lemmas", "--id", "bogus"])
    assert info.value.code == 2


def test_lemmas_malformed_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "lemmas", "--id", "kym", "--range", "k=3")
    assert code == 2


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


def test_out_flag_mirrors_stdout(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run_cli(
        capsys, "direct", "--preset", "hermite", "--nmax", "2", "--out", str(target)
    )
    assert code == 0
    assert json.loads(out) == json.loads(target.read_text())


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


def test_negative_scalar_flags_attach_with_equals(capsys):
    code, payload, _ = run_json(
        capsys, "direct", "--preset", "jacobi", "--alpha=1/2", "--beta=-2/5", "--nmax", "2"
    )
    assert code == 0
    assert payload["lambda"][1] == "-21/10"  # -(1 + 1 + 1/2 - 2/5)
    code, payload, _ = run_json(capsys, "recurrence", "--shapiro=-3/4,1", "--nmax", "6")
    assert code == 0
    assert payload["terms"] == 3


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
