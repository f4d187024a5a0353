"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they go.
The heavy shared artifacts (delta tables and eigen-systems of the corpus)
are cached at module scope so each criterion only pays for its own work.
"""
import json
import time
from fractions import Fraction
from random import Random

import pytest

from bochner import (
    DeltaTable,
    EigenSystem,
    GaussianRational,
    NoFiniteOrderOperator,
    ShapiroOperator,
    bandwidth,
    delta_extend,
    deltas_from_eigendata_det,
    deltas_from_eigendata_rec,
    deltas_from_operator,
    eigenpoly_coeff_det,
    eigensystem,
    fit_recurrence,
    hermite_operator,
    is_eigenpair,
    jacobi_operator,
    lambda_via_N2_identity,
    laguerre_operator,
    normalize,
    reconstruct,
    shapiro_alpha,
    shapiro_delta1_column,
    to_bochner,
    verify_shapiro_recurrence,
)
from bochner.cli import main as cli_main
from bochner.inverse import first_order_violation
from bochner.scalars import ZERO
from bochner.spectral import check_spectrum
from conftest import bump, monic_hermite, random_rational, shapiro_poly


@pytest.fixture(scope="module")
def tables(corpus):
    return {name: deltas_from_operator(op, 40) for name, op in corpus}


def prefix(table, n_max):
    """Rows 0..n_max of `table`: the table of the same operator to that depth."""
    return DeltaTable(table.rows[: n_max + 1])


@pytest.fixture(scope="module")
def tables_25(tables):
    # built outside the timed gates, which run to depth 25
    return {name: prefix(table, 25) for name, table in tables.items()}


@pytest.fixture(scope="module")
def shared_systems():
    return {}


def systems_for(shared, tables, names):
    for name in names:
        if name not in shared:
            shared[name] = eigensystem(tables[name])
    return shared


def test_criterion_1_classical_eigenvalues():
    started = time.perf_counter()
    alpha, beta = Fraction(1, 2), Fraction(1, 3)
    specs = [
        (hermite_operator(), lambda n: Fraction(-2 * n)),
        (laguerre_operator(0), lambda n: Fraction(-n)),
        (laguerre_operator(Fraction(1, 2)), lambda n: Fraction(-n)),
        (jacobi_operator(alpha, beta), lambda n: -Fraction(n) * (n + 1 + alpha + beta)),
    ]
    for op, formula in specs:
        table = deltas_from_operator(op, 50)
        lams = [table.value(n, 0) for n in range(51)]
        check_spectrum(lams)
        for n in range(51):
            assert lams[n] == GaussianRational(formula(n)), (op, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: classical eigenvalue formulas exact to n=50 ({elapsed:.2f}s < 1s)")


def test_criterion_2_eigenpair_oracle(corpus, tables_25, shared_systems):
    started = time.perf_counter()
    systems = systems_for(shared_systems, tables_25, [name for name, _ in corpus])
    for name, op in corpus:
        system = systems[name]
        for n in range(26):
            assert is_eigenpair(op, system.polys[n], system.lambdas[n]), (name, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nACCEPTANCE 2 PASS: eigen-equation oracle exact for {len(corpus)} operators, "
        f"n<=25 ({elapsed:.2f}s < 30s)"
    )


def test_criterion_3_determinant_cross_check(corpus, tables_25, shared_systems):
    systems = systems_for(shared_systems, tables_25, [name for name, _ in corpus])
    checked = 0
    for name, _ in corpus:
        system = systems[name]
        by_det = eigenpoly_coeff_det(prefix(tables_25[name], 20))
        for n in range(1, 21):
            poly = system.polys[n]
            for i in range(1, n + 1):
                assert by_det.polys[n].coeff(n - i) == poly.coeff(n - i), (name, n, i)
                checked += 1
    print(
        f"\nACCEPTANCE 3 PASS: determinant route equals the recursion on "
        f"{checked} coefficients (1<=i<=n<=20)"
    )


def test_criterion_4_delta_extension(corpus, tables):
    checked = 0
    for name, op in corpus:
        table = tables[name]
        order = op.order
        for n in range(order + 1, 41):
            for k in range(order + 1):
                assert delta_extend(table, n, k, order) == table.value(n, k), (name, n, k)
                checked += 1
        if order == 2:
            l1, l2 = table.value(1, 0), table.value(2, 0)
            for n in range(41):
                assert lambda_via_N2_identity(l1, l2, n) == table.value(n, 0), (name, n)
    print(
        f"\nACCEPTANCE 4 PASS: seed rows reproduce all deltas to n=40 "
        f"({checked} entries), order-2 eigenvalue identity verified"
    )


def test_criterion_5_product_form_recurrence():
    started = time.perf_counter()
    rng = Random(20260505)
    families = 0
    for order in range(1, 6):
        for _ in range(10):
            c = [GaussianRational(random_rational(rng, 30)) for _ in range(order)]
            if not c[-1]:
                c[-1] = GaussianRational(1)
            op = ShapiroOperator(c)
            delta1 = shapiro_delta1_column(op, 26)
            alpha = shapiro_alpha(op, delta1)
            assert verify_shapiro_recurrence(alpha, delta1) is None, c
            polys = [shapiro_poly(delta1, m) for m in range(27)]
            lambdas = [GaussianRational(m) for m in range(27)]
            table = deltas_from_operator(to_bochner(op), 26)
            coeffs = fit_recurrence(EigenSystem(lambdas, polys), table)
            # the whole fitted table, off-band zeros included
            assert coeffs == alpha, c
            assert bandwidth(coeffs, 10) == order - 1, c
            families += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 5 PASS: (N+1)-term recurrence verified and fitted band "
        f"matches closed form for {families} families ({elapsed:.2f}s < 60s)"
    )


def test_criterion_6_inverse_round_trip(corpus, tables_25, shared_systems):
    systems = systems_for(shared_systems, tables_25, [name for name, _ in corpus])
    for name, op in corpus:
        system = systems[name]
        data = EigenSystem(system.lambdas[:13], system.polys[:13])
        rebuilt = reconstruct(data, op.order)
        assert rebuilt == normalize(op)[0], name
        table = deltas_from_eigendata_rec(data)
        by_det = deltas_from_eigendata_det(data)
        for n in range(13):
            for k in range(n + 1):
                assert by_det.value(n, k) == table.value(n, k), (name, n, k)
    print(
        f"\nACCEPTANCE 6 PASS: reconstruction from degree-12 data returns every "
        f"corpus operator exactly; determinant and recursion delta paths agree"
    )


def test_criterion_7_inverse_negative_control():
    n_max = 9
    polys = list(monic_hermite(n_max))
    polys[5] = bump(polys[5])
    data = EigenSystem([GaussianRational(-2 * n) for n in range(n_max + 1)], polys)
    table = deltas_from_eigendata_rec(data)
    for order in range(1, 7):
        assert first_order_violation(table, order) is not None, order
        with pytest.raises(NoFiniteOrderOperator):
            reconstruct(data, order)
    print(
        "\nACCEPTANCE 7 PASS: perturbing one coefficient defeats the finite-order "
        "criterion for every order <= 6"
    )


def test_criterion_8_identity_sweep(capsys):
    started = time.perf_counter()
    code = cli_main(["lemmas"])
    elapsed = time.perf_counter() - started
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["failures"] == []
    assert payload["checked"] >= 5000
    assert elapsed < 10.0
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 8 PASS: {payload['checked']} identity residuals all zero "
            f"({elapsed:.2f}s < 10s)"
        )


def test_criterion_9_hermite_recurrence_fit():
    polys = monic_hermite(31)
    lambdas = [GaussianRational(-2 * n) for n in range(32)]
    table = deltas_from_operator(hermite_operator(), 31)
    coeffs = fit_recurrence(EigenSystem(lambdas, polys), table)
    assert coeffs.n_max == 30
    for n in range(31):
        for k in range(n + 1):
            expected = GaussianRational(Fraction(n, 2)) if k == n - 1 else ZERO
            assert coeffs.rows[n][k] == expected, (n, k)
    print(
        "\nACCEPTANCE 9 PASS: independently generated monic Hermite family fits "
        "alpha(n, n-1) = n/2 with zeros elsewhere, n<=30"
    )
