import tracemalloc
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from bochner import DomainError, GaussianRational, lemma_residual
from bochner.identities import (
    IDENTITY_IDS,
    PROBE_VALUES,
    _lookup,
    iter_grid,
    sweep,
)
from bochner.scalars import ZERO


def test_spec_case_truncated_row_sum():
    # both sides recomputed by hand: 1 - 4 + 6 = 3 = C(3, 1)
    lhs = sum((-1) ** r * comb(4, r) for r in range(3))
    assert lhs == 3 == comb(3, 1)
    assert lemma_residual("2_lema1", {"m": 2, "k": 1}) == ZERO


def test_spec_case_harmonic_binomial():
    # 1/2 - 1/3 = 1/6 = 1/(2 C(3,2))
    lhs = Fraction(1, 2) - Fraction(1, 3)
    assert lhs == Fraction(1, 6) == Fraction(1, 2 * comb(3, 2))
    assert lemma_residual("kym", {"k": 2, "m": 1}) == ZERO


def test_spec_case_shifted_vandermonde_low_branch():
    # r < q branch: the alternating sum cancels to zero
    lhs = sum((-1) ** s * comb(3, s) * comb(2 + s, 2) for s in range(4))
    assert lhs == 0
    assert lemma_residual("8_tilde", {"n": 5, "q": 3, "r": 2}) == ZERO


def test_alternating_column_sum_grid():
    for m in range(13):
        for k in range(m + 1):
            assert lemma_residual("1_lema1", {"m": m, "k": k}) == ZERO


def test_truncated_row_sum_grid():
    for m in range(13):
        for k in range(9):
            assert lemma_residual("2_lema1", {"m": m, "k": k}) == ZERO


def test_harmonic_binomial_grid():
    for k in range(1, 11):
        for m in range(1, 11):
            assert lemma_residual("kym", {"k": k, "m": m}) == ZERO


def test_shifted_vandermonde_grid():
    for n in range(11):
        for q in range(n + 1):
            for r in range(13):
                assert lemma_residual("8_tilde", {"n": n, "q": q, "r": r}) == ZERO


def test_weighted_vandermonde_grid():
    for n in range(11):
        for m in range(n + 1):
            for r in range(m + 1):
                for k in range(n - m + 1):
                    assert lemma_residual(
                        "10_tilde", {"n": n, "m": m, "r": r, "k": k}
                    ) == ZERO


def test_falling_product_fractions():
    probes = [Fraction(0), Fraction(-3), Fraction(1, 2), Fraction(22, 7), Fraction(-5, 3)]
    for n in range(9):
        for big_n in range(n + 1):
            for s in probes:
                assert lemma_residual("31tilde", {"n": n, "N": big_n, "s": s}) == ZERO


def test_falling_product_fractions_complex_probe():
    s = GaussianRational(1, 1)
    assert lemma_residual("31tilde", {"n": 6, "N": 2, "s": s}) == ZERO


def test_unknown_identity():
    with pytest.raises(DomainError):
        lemma_residual("nonsense", {"m": 1})


@pytest.mark.parametrize(
    "identity,params",
    [
        ("1_lema1", {"m": 3, "k": 4}),
        ("2_lema1", {"m": -1, "k": 0}),
        ("kym", {"k": 0, "m": 2}),
        ("8_tilde", {"n": 3, "q": 4, "r": 1}),
        ("10_tilde", {"n": 5, "m": 2, "r": 3, "k": 0}),
        ("31tilde", {"n": 5, "N": 2, "s": 3}),
        ("31tilde", {"n": 2, "N": 5, "s": Fraction(1, 2)}),
    ],
)
def test_out_of_domain(identity, params):
    with pytest.raises(DomainError):
        lemma_residual(identity, params)


def test_bad_parameter_maps():
    with pytest.raises(DomainError):
        lemma_residual("kym", {"k": 2})
    with pytest.raises(DomainError):
        lemma_residual("kym", {"k": 2, "m": 1, "extra": 0})
    with pytest.raises(DomainError):
        lemma_residual("kym", {"k": "two", "m": 1})


def test_sweep_counts_and_skips():
    checked, skipped, failures, per_id = sweep(["kym"], {"k": (0, 3), "m": (1, 4)})
    assert failures == []
    assert checked == 12  # k in 1..3 with m in 1..4
    assert skipped == 4  # the k = 0 row is outside the domain
    assert per_id["kym"] == (12, 4)
    # an identity given twice is swept once, in the order first given
    ranges = {"k": (0, 3), "m": (1, 4)}
    twice = sweep(["kym", "1_lema1", "kym"], ranges)
    assert twice == sweep(["kym", "1_lema1"], ranges)
    assert list(twice[3]) == ["kym", "1_lema1"]
    assert twice[:2] == tuple(map(sum, zip(*twice[3].values())))


def test_default_grid_sizes():
    assert sum(1 for _ in iter_grid("kym")) == 144
    _, _, domain, _ = _lookup("8_tilde")
    count_8 = sum(1 for p in iter_grid("8_tilde") if domain(*p.values()))
    assert count_8 == 91 * 15


def test_grid_points_in_product_order():
    # the lazy walk gives the points itertools.product gives, in its order
    for identity in IDENTITY_IDS:
        names, _, _, grid = _lookup(identity)
        lows = {name: low for name, (low, _) in grid.items()}
        overrides = {name: (low, low + 2) for name, low in lows.items()}
        axes = [
            range(lows[name], lows[name] + 3) if name in lows else PROBE_VALUES
            for name in names
        ]
        expected = [dict(zip(names, values)) for values in product(*axes)]
        assert list(iter_grid(identity, overrides)) == expected, identity
    assert list(iter_grid("kym", {"m": (3, 2)})) == []


def test_wide_range_yields_its_first_point_at_once():
    # product() would copy the 10^12 + 1 values of m into a tuple first
    points = iter_grid("kym", {"k": (1, 2), "m": (0, 10**12)})
    tracemalloc.start()
    try:
        first, second = next(points), next(points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (first, second) == ({"k": 1, "m": 0}, {"k": 1, "m": 1})
    assert peak < 64 * 1024
