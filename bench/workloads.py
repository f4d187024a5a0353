"""Seeded inputs, jobs and output checks for the three benchmark workloads.

Every workload is a pool of jobs built from ``--seed`` alone.  A job is one
or two CLI invocations; the program sees only their argv and the JSON
documents they name.  The generators below are the benchmark's own and do
not use the library: random operators and product-form coefficients are
plain ``Fraction`` values written out in the CLI's scalar format.  The
eigen-data for the round trip is made by the CLI itself (``direct``) during
set-up.  The checks run outside the timed section and may use the library's
independent oracles (``is_eigenpair``, ``relation_residual``).

Negative parameters are always passed as ``--flag=value``: written as two
arguments, argparse takes a leading ``-3/4`` for an option and exits 2.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, factorial
from pathlib import Path
from random import Random

WORKLOADS = ("classical_direct", "random_roundtrip", "product_form_verify")

_NUMBER = re.compile(r"\d+")


class Job:
    """One closed-loop request: the invocations it makes and how to check them.

    ``check(lib, results)`` receives the ``(exit_code, stdout)`` pair of each
    invocation and returns True when every output is right.
    """

    __slots__ = ("label", "argvs", "check", "bits_argv")

    def __init__(self, label, argvs, check, bits_argv=None):
        self.label = label
        self.argvs = argvs
        self.check = check
        # argv whose output holds the coefficients this job computes, when the
        # job's own output holds none (verify prints only check verdicts)
        self.bits_argv = bits_argv


# -- scalar text -------------------------------------------------------------


def scalar_text(re_part: Fraction, im_part: Fraction = Fraction(0)) -> str:
    """The CLI's canonical scalar string for re + im*i."""
    if not im_part:
        return str(re_part)
    im_abs = f"{abs(im_part)}*i"
    if not re_part:
        return ("-" if im_part < 0 else "") + im_abs
    return f"{re_part}{'+' if im_part > 0 else '-'}{im_abs}"


def parse_text(text: str) -> tuple[Fraction, Fraction]:
    """Inverse of :func:`scalar_text` for the canonical forms it writes."""
    if not text.endswith("i"):
        return Fraction(text), Fraction(0)
    head = text[:-1].rstrip("*")
    for idx in range(len(head) - 1, 0, -1):
        if head[idx] in "+-":
            return Fraction(head[:idx]), _unit(head[idx:])
    return Fraction(0), _unit(head)


def _unit(text: str) -> Fraction:
    return Fraction({"": "1", "+": "1", "-": "-1"}.get(text, text))


def max_bits(text: str) -> int:
    """Largest bit-length of any integer (numerator or denominator) in text."""
    return max((int(m).bit_length() for m in _NUMBER.findall(text)), default=0)


def _small_rational(rng: Random, den: int, above_minus_one: bool = False) -> Fraction:
    """Seeded p/den with |p/den| <= 4, or -1 < p/den <= 4."""
    low = -den + 1 if above_minus_one else -4 * den
    return Fraction(rng.randint(low, 4 * den), den)


def _nonzero_rational(rng: Random, den: int) -> Fraction:
    while True:
        value = _small_rational(rng, den)
        if value:
            return value


# Denominators of preset parameters and product-form coefficients are fixed
# by a job's place in the pool and only the numerators are seeded: the
# denominators set the coefficient bit-lengths, so every seed costs alike.
_DENOMINATORS = (2, 3, 5, 7, 4, 6)


def _stratified(values):
    """`values` sorted, then reordered by bit-reversed index (0, 4, 2, 6, 1,
    ...), so that every prefix of the job list spans the whole range."""
    ordered = sorted(values)
    width = max(len(ordered) - 1, 1).bit_length()
    key = lambda i: int(format(i, f"0{width}b")[::-1], 2)  # noqa: E731
    return [ordered[i] for i in sorted(range(len(ordered)), key=key)]


# -- classical_direct ----------------------------------------------------------


def _classical_jobs(seed: int) -> list[Job]:
    rng = Random(seed)
    sizes = _stratified([90, 95, 100, 105, 110, 115, 120, 125])
    jobs = []
    for slot, size in enumerate(sizes):
        for family in ("hermite", "laguerre", "jacobi"):
            n = size + rng.randint(0, 4)
            alpha = _small_rational(rng, _DENOMINATORS[slot % 6], above_minus_one=True)
            beta = _small_rational(rng, _DENOMINATORS[(slot + 3) % 6], above_minus_one=True)
            argv = ["direct", "--preset", family]
            if family == "hermite":
                lams = [Fraction(-2 * m) for m in range(n + 1)]
                params = ()
            elif family == "laguerre":
                argv.append(f"--alpha={alpha}")
                lams = [Fraction(-m) for m in range(n + 1)]
                params = (alpha,)
            else:
                argv += [f"--alpha={alpha}", f"--beta={beta}"]
                lams = [-m * (m + 1 + alpha + beta) for m in range(n + 1)]
                params = (alpha, beta)
            argv += ["--nmax", str(n)]
            sample = rng.randint(n // 2, n)
            check = _direct_check(family, params, [str(v) for v in lams], sample)
            jobs.append(Job(f"{family}{list(map(str, params))} n={n}", [argv], check))
    return jobs


def _direct_check(family, params, lambdas, sample):
    def check(lib, results):
        ((code, out),) = results
        if code != 0:
            return False
        doc = json.loads(out)
        polys = doc["P"]
        if doc["lambda"] != lambdas or len(polys) != len(lambdas):
            return False
        if any(len(p) != n + 1 or p[-1] != "1" for n, p in enumerate(polys)):
            return False
        op = getattr(lib.operators, f"{family}_operator")(*params)
        poly = lib.serialize.poly_from_list(polys[sample])
        return lib.polynomials.is_eigenpair(op, poly, lib.scalars.parse_scalar(lambdas[sample]))

    return check


# -- random_roundtrip ----------------------------------------------------------

# (order, degrees): degrees chosen so that every order gives coefficients of
# several hundred to about 1650 bits and jobs of comparable cost.  Each order
# gets one job per degree plus two with perturbed data, so a quarter of the
# jobs are the negative control.
_ROUNDTRIP_GRID = (
    (2, (30, 32, 34, 36, 38, 40)),
    (3, (23, 24, 25, 26, 27, 28)),
    (4, (19, 20, 21, 22, 23, 24)),
)


def random_operator(rng: Random, order: int, distinct_to: int, slot: int):
    """Random normalized operator of exact order `order` as coefficient lists
    of (re, im) pairs: a_0 = 0, deg a_i <= i, and eigenvalues 0, lambda_1,
    ... distinct and nonzero up to `distinct_to`.

    Which coefficients are non-real, and their denominators, are fixed by the
    pool `slot`; the seed draws the numerators.  The leading coefficient of
    a_N is always non-real, so the eigenvalues are too: whether they are real
    roughly halves or doubles the coefficient bit-lengths.
    """
    while True:
        polys = [[]]
        for i in range(1, order + 1):
            coeffs = []
            for j in range(i + 1):
                re_part = _small_rational(rng, _DENOMINATORS[(slot + i + j) % 6])
                im_part = Fraction(0)
                if (i, j) == (order, order) or (slot + i + 2 * j) % 3 == 0:
                    im_part = _nonzero_rational(rng, _DENOMINATORS[(slot + i + j + 2) % 6])
                coeffs.append((re_part, im_part))
            polys.append(coeffs)
        # lambda_n = sum_i C(n, i) i! a_{i,i}, the leading coefficients only
        lams = [
            tuple(
                sum(comb(n, i) * factorial(i) * polys[i][i][part] for i in range(1, order + 1))
                for part in (0, 1)
            )
            for n in range(distinct_to + 1)
        ]
        if (0, 0) not in lams[1:] and len(set(lams)) == len(lams):
            return polys


def operator_document(polys) -> dict:
    """The operator JSON document, trailing zero coefficients trimmed."""
    rows = []
    for coeffs in polys:
        texts = [scalar_text(re_part, im_part) for re_part, im_part in coeffs]
        while texts and texts[-1] == "0":
            texts.pop()
        rows.append(texts)
    return {"N": len(polys) - 1, "a": rows}


def _bump(doc: dict, rng: Random) -> dict:
    """Eigen-data with one lower coefficient of a middle P_n raised by 1."""
    polys = [list(p) for p in doc["P"]]
    n = len(polys) // 2
    power = rng.randint(0, n - 1)
    re_part, im_part = parse_text(polys[n][power])
    polys[n][power] = scalar_text(re_part + 1, im_part)
    return {"lambda": doc["lambda"], "P": polys}


def _roundtrip_jobs(seed: int, workdir: Path, run_cli) -> list[Job]:
    rng = Random(seed)
    specs = []
    for order, degrees in _ROUNDTRIP_GRID:
        specs += [(order, n, False) for n in degrees]
        specs += [(order, degrees[1], True), (order, degrees[4], True)]
    order_of_specs = _stratified(range(len(specs)))
    jobs = []
    for idx in order_of_specs:
        order, n, perturbed = specs[idx]
        op_doc = operator_document(random_operator(rng, order, n, idx))
        op_path = workdir / f"op{idx}.json"
        eig_path = workdir / f"eig{idx}.json"
        op_path.write_text(json.dumps(op_doc), encoding="utf-8")
        code, out = run_cli(["direct", "--operator", str(op_path), "--nmax", str(n)])
        if code != 0:
            raise RuntimeError(f"direct failed on generated operator {idx} (exit {code})")
        eig_doc = json.loads(out)
        data_doc = _bump(eig_doc, rng) if perturbed else eig_doc
        eig_path.write_text(json.dumps(data_doc), encoding="utf-8")
        inverse = ["inverse", "--data", str(eig_path)]
        inverse += ["--order", str(order)] if perturbed else ["--search"]
        argvs = [["recurrence", "--operator", str(op_path), "--nmax", str(n - 1)], inverse]
        check = _roundtrip_check(op_doc, eig_doc, perturbed, rng.randint(0, n - 1))
        label = f"order={order} n={n}" + (" perturbed" if perturbed else "")
        jobs.append(Job(label, argvs, check))
    return jobs


def _roundtrip_check(op_doc, eig_doc, perturbed, row):
    def check(lib, results):
        (rec_code, rec_out), (inv_code, inv_out) = results
        if rec_code != 0:
            return False
        alpha = json.loads(rec_out)["alpha"]
        if len(alpha) != len(eig_doc["P"]) - 1:
            return False
        polys = [lib.serialize.poly_from_list(p) for p in eig_doc["P"][: row + 2]]
        coeffs = [lib.scalars.parse_scalar(v) for v in alpha[row]]
        if lib.recurrence.relation_residual(polys, coeffs, row):
            return False
        inv = json.loads(inv_out)
        if perturbed:
            return inv_code == 1 and inv["found"] is False
        return inv_code == 0 and inv["found"] is True and inv["operator"] == op_doc

    return check


# -- product_form_verify -------------------------------------------------------

_PRODUCT_CHECKS = {
    "eigen_equation",
    "determinant_vs_recursion",
    "delta_extension",
    "recurrence_reconstruction",
    "product_form_recurrence",
    "product_form_alpha_match",
}


def _product_jobs(seed: int) -> list[Job]:
    rng = Random(seed)
    jobs = []
    for slot, n in enumerate(_stratified(range(20, 28))):
        for order in (2, 3, 4):
            dens = [_DENOMINATORS[(slot + order + j) % 6] for j in range(order)]
            cs = [_small_rational(rng, den) for den in dens[:-1]]
            cs.append(_nonzero_rational(rng, dens[-1]))
            shapiro = "--shapiro=" + ",".join(str(c) for c in cs)
            expected = _PRODUCT_CHECKS | ({"order2_eigenvalue_identity"} if order == 2 else set())
            jobs.append(
                Job(
                    f"c={','.join(map(str, cs))} n={n}",
                    [["verify", shapiro, "--nmax", str(n)]],
                    _verify_check(n, expected),
                    bits_argv=["direct", shapiro, "--nmax", str(n)],
                )
            )
    return jobs


def _verify_check(n, expected):
    def check(lib, results):
        ((code, out),) = results
        doc = json.loads(out)
        checks = doc["checks"]
        return (
            code == 0
            and doc["nmax"] == n
            and set(checks) == expected
            and all(v == "ok" for v in checks.values())
        )

    return check


def build(workload: str, seed: int, workdir: Path, run_cli) -> list[Job]:
    """The seeded job pool of a workload; `run_cli(argv)` gives (exit, stdout)."""
    if workload == "classical_direct":
        return _classical_jobs(seed)
    if workload == "random_roundtrip":
        return _roundtrip_jobs(seed, workdir, run_cli)
    if workload == "product_form_verify":
        return _product_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")
