"""`direct` streams its document: the same bytes as json.dumps of the whole
payload, one polynomial's text in memory at a time, and one emitter shared
by every verb."""
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from argparse import Namespace
from collections.abc import Iterator
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bochner.cli
from bochner import BochnerError, DegenerateSpectrum, EigenSystem, Poly
from bochner.cli import main
from bochner.scalars import format_scalar
from bochner.serialize import operator_to_dict
from conftest import (
    USABLE_TO,
    direct_text_by_json_dumps,
    small_fractions,
    small_scalars,
    usable_bochner_operators,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_main(argv):
    """`main(argv)` with standard output and error captured: (status, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(list(argv))
    return status, out.getvalue(), err.getvalue()


def assert_direct_matches_json_dumps(argv, out=True):
    """`direct argv` writes the reference text to standard output byte for
    byte, and to --out when `out` is set; a call the reference refuses
    writes nothing, and creates no --out file."""
    try:
        expected = direct_text_by_json_dumps(argv)
    except BochnerError as exc:
        expected = (3 if isinstance(exc, DegenerateSpectrum) else 2, "")
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out.json"
        extra = ["--out", str(target)] if out else []
        status, text, _ = run_main(["direct", *argv, *extra])
        assert (status, text) == expected
        if out and text:
            assert target.read_bytes() == text.encode()
        else:
            assert not target.exists()


above_minus_one = st.fractions(min_value=-1, max_value=9, max_denominator=6).filter(
    lambda f: f > -1
)
preset_sources = st.one_of(
    st.just(["--preset", "hermite"]),
    st.builds(lambda a: ["--preset", "laguerre", f"--alpha={a}"], small_fractions),
    st.builds(
        lambda a, b: ["--preset", "jacobi", f"--alpha={a}", f"--beta={b}"],
        above_minus_one,
        above_minus_one,
    ),
)
product_forms = st.builds(
    lambda head, last: ["--shapiro=" + ",".join(format_scalar(c) for c in [*head, last])],
    st.lists(small_scalars, max_size=3),
    small_scalars.filter(bool),
)


@st.composite
def direct_flags(draw):
    flags = []
    if draw(st.booleans()):
        flags.append("--deltas")
    if draw(st.booleans()):
        flags += ["--decimal", str(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        flags.append("--check")
    return flags


@given(st.one_of(preset_sources, product_forms), st.integers(0, 30), direct_flags(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_direct_matches_json_dumps_on_presets_and_product_forms(source, nmax, flags, out):
    assert_direct_matches_json_dumps([*source, "--nmax", str(nmax), *flags], out)


@given(usable_bochner_operators(), st.integers(0, USABLE_TO), direct_flags(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_direct_matches_json_dumps_on_random_operators(op, nmax, flags, out):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.json"
        path.write_text(json.dumps(operator_to_dict(op)))
        argv = ["--operator", str(path), "--nmax", str(nmax), *flags]
        assert_direct_matches_json_dumps(argv, out)


def test_direct_matches_json_dumps_on_a_degenerate_spectrum(tmp_path):
    # x^2 d^2 has eigenvalue 0 at n = 1: exit 3 before the first byte
    path = tmp_path / "deg.json"
    path.write_text(json.dumps({"N": 2, "a": [[], [], ["0", "0", "1"]]}))
    assert_direct_matches_json_dumps(["--operator", str(path), "--check", "--decimal", "3"])


@pytest.mark.parametrize("eigen_fails", [False, True], ids=["det-only", "with-eigen"])
def test_direct_matches_json_dumps_on_a_forced_mismatch(monkeypatch, eigen_fails):
    real_det = bochner.cli.eigenpoly_coeff_det

    def bumped(table):
        # b(5, 2) of the determinant route off by one
        system = real_det(table)
        polys = list(system.polys)
        coeffs = list(polys[5].coeffs)
        coeffs[2] = coeffs[2] + 1
        polys[5] = Poly(coeffs)
        return EigenSystem(system.lambdas, polys)

    monkeypatch.setattr(bochner.cli, "eigenpoly_coeff_det", bumped)
    if eigen_fails:
        real_oracle = bochner.cli.is_eigenpair
        monkeypatch.setattr(
            bochner.cli,
            "is_eigenpair",
            lambda op, p, lam: p.degree != 5 and real_oracle(op, p, lam),
        )
    argv = ["--preset", "jacobi", "--alpha=1/2", "--beta=-2/5", "--nmax", "9", "--check"]
    status, _ = direct_text_by_json_dumps(argv)
    assert status == 1
    assert_direct_matches_json_dumps([*argv, "--decimal", "5", "--deltas"])


def test_direct_matches_json_dumps_with_a_5000_digit_coefficient(tmp_path):
    big = "1" + "2" * 4999
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": 1, "a": [[], [big, "1"]]}))
    assert_direct_matches_json_dumps(["--operator", str(path), "--nmax", "3", "--check"])
    assert_direct_matches_json_dumps(["--operator", str(path), "--nmax", "2", "--decimal", "7"])


class Discard:
    """A standard output that keeps only the length of its longest write."""

    def __init__(self):
        self.longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))
        return len(text)

    def flush(self):
        pass


def test_direct_holds_about_one_polynomial_at_a_time(monkeypatch):
    """Jacobi(5/2, -2/7) to degree 200 writes 5.2 MiB, and its longest
    write is P_200's joined text, 79 KiB.  Holding the family, its payload
    and the whole text peaked at 22.2 MiB under tracemalloc; streamed, the
    peak is 0.41 MiB, 5.3 times that text (Python 3.10 and 3.11).  A call
    at degree 2 first imports what the verb imports, outside the trace."""
    sink = Discard()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["direct", "--preset", "jacobi", "--alpha=5/2", "--beta=-2/7", "--nmax"]
    assert main([*argv, "2"]) == 0
    tracemalloc.start()
    try:
        status = main([*argv, "200"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert 70_000 < sink.longest < 90_000
    assert peak < 6 * sink.longest


def closed_mid_stream(unbuffered):
    """Exit status and stderr of a large `direct` whose reader closes the
    pipe after the first bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "bochner", "direct", "--preset", "hermite", "--nmax", "150"]
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        # the document is about 490 KB, far more than a pipe buffers
        assert child.stdout.read(100).startswith(b'{\n  "lambda": [\n')
        child.stdout.close()
        err = child.stderr.read().decode()
        return child.wait(timeout=120), err
    finally:
        child.kill()
        child.wait()


def test_closed_stdout_mid_stream_exits_2_without_traceback():
    # both buffering modes, whatever PYTHONUNBUFFERED the tests run under:
    # buffered, a full buffer's flush fails; unbuffered, the next write
    for unbuffered in (False, True):
        status, err = closed_mid_stream(unbuffered)
        assert status == 2, (unbuffered, err)
        lines = err.splitlines()
        assert len(lines) == 1, (unbuffered, err)
        assert lines[0].startswith("error: cannot write to standard output")
        assert "Traceback" not in err


# -- the emitter every verb shares -------------------------------------------------

json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(st.text(), inner)),
    max_leaves=12,
)
string_rows = st.lists(st.lists(st.text(), max_size=4), max_size=4)


def is_string_rows(value):
    return isinstance(value, list) and all(
        isinstance(row, list) and all(isinstance(v, str) for v in row) for row in value
    )


@given(st.dictionaries(st.text(), st.tuples(st.one_of(json_values, string_rows), st.booleans())))
@settings(max_examples=150, deadline=None)
def test_emitter_writes_the_layout_of_json_dumps(doc):
    """Any document: ordinary values, and arrays of string arrays drawn as
    iterators, empty ones and any text included."""
    payload = {key: value for key, (value, _) in doc.items()}
    items = (
        (key, iter(value) if lazy and is_string_rows(value) else value)
        for key, (value, lazy) in doc.items()
    )
    out = io.StringIO()
    with redirect_stdout(out):
        bochner.cli._emit(items, Namespace(out=None))
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


def direct_document(tmp_path, nmax):
    path = tmp_path / "jacobi.json"
    argv = ["direct", "--preset", "jacobi", "--alpha=1/2", "--beta=-1/3", "--nmax", str(nmax)]
    status, _, _ = run_main([*argv, "--out", str(path)])
    assert status == 0
    return str(path)


def dense_order4_document(tmp_path):
    """A non-real order-4 operator with every a_{i,j} of full degree: its
    alpha rows are dense from row 5 on."""
    path = tmp_path / "order4.json"
    a = [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]]
    path.write_text(json.dumps({"N": 4, "a": [*a, ["1", "-1/2", "3*i", "2", "1/2+1*i"]]}))
    return str(path)


OTHER_VERBS = {
    "preset": lambda tmp_path: ["preset", "jacobi", "--alpha=1/2", "--beta=1/3", "--decimal", "4"],
    "recurrence": lambda tmp_path: [
        "recurrence", "--shapiro=1,-1/2,1+1*i", "--nmax", "10", "--check", "--decimal", "3"
    ],
    "recurrence-dense": lambda tmp_path: [
        "recurrence", "--operator", dense_order4_document(tmp_path), "--nmax", "16", "--decimal", "6"
    ],
    "verify": lambda tmp_path: ["verify", "--shapiro=1,-2,3,1/2", "--nmax", "8"],
    "inverse": lambda tmp_path: [
        "inverse", "--search", "--check", "--decimal", "3", "--data", direct_document(tmp_path, 6)
    ],
    "inverse-not-found": lambda tmp_path: [
        "inverse", "--order", "1", "--data", direct_document(tmp_path, 6)
    ],
    "lemmas": lambda tmp_path: ["lemmas", "--id", "8_tilde", "--range", "r=0:4"],
}


@pytest.mark.parametrize("verb", sorted(OTHER_VERBS))
def test_every_verb_writes_json_dumps_of_its_payload(tmp_path, monkeypatch, verb):
    argv = OTHER_VERBS[verb](tmp_path)
    payloads = []
    real = bochner.cli._emit

    def recorded(items, args):
        # a table handed over as an iterator of rows is drawn for the
        # reference and handed on as an iterator, for the row writer
        payload, lazy = {}, set()
        for key, value in items:
            if isinstance(value, Iterator):
                lazy.add(key)
                value = list(value)
            payload[key] = value
        payloads.append(payload)
        real(((key, iter(v) if key in lazy else v) for key, v in payload.items()), args)

    monkeypatch.setattr(bochner.cli, "_emit", recorded)
    target = tmp_path / "out.json"
    status, text, _ = run_main([*argv, "--out", str(target)])
    assert status == (1 if verb == "inverse-not-found" else 0)
    assert len(payloads) == 1
    assert text == json.dumps(payloads[0], indent=2) + "\n"
    assert target.read_bytes() == text.encode()


FULL_DEVICE = Path("/dev/full")
REFUSED_OUT = {
    **OTHER_VERBS,
    "direct": lambda tmp_path: ["direct", "--preset", "hermite", "--nmax", "3"],
    # about 42 KB, far more than the file buffers before its first write
    "direct-large": lambda tmp_path: ["direct", "--preset", "hermite", "--nmax", "60"],
}


@pytest.mark.skipif(not FULL_DEVICE.exists(), reason="no /dev/full on this system")
@pytest.mark.parametrize("verb", sorted(REFUSED_OUT))
def test_out_on_a_device_that_refuses_the_bytes_exits_2(tmp_path, verb):
    """Every write to /dev/full fails: a small document fails when the file
    is closed, a large one at a write, and both are one line of input error."""
    status, _, err = run_main([*REFUSED_OUT[verb](tmp_path), "--out", str(FULL_DEVICE)])
    assert status == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith(f"error: cannot write {FULL_DEVICE}: ")
