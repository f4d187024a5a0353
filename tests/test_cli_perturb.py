"""The CLI on a valid document or a valid argv with one perturbation:
whatever the perturbation, `main` returns an exit code in 0-3 and lets no
exception escape; on exit 0 standard output is one JSON document, the one
written to --out, and on exit 2 or 3 standard output is empty and standard
error is one line, or, when argparse refuses the argv, its usage block and
one error line.  A census holds the same contract on one fixed argv for
each exit code that each verb returns, and `-h` returns 0."""
import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from decimal import MAX_PREC
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bochner import errors, normalize
from bochner.cli import _DECIMAL_MAX, _PRESETS, _VERBS, main
from bochner.inverse import deltas_from_eigendata_rec, first_order_violation
from bochner.serialize import eigendata_from_dict, operator_to_dict
from conftest import usable_bochner_operators
from test_scalars import near_valid_scalars

# a JSON value of each type that no entry of either document takes
WRONG_TYPES = (None, True, 1.5, [], {}, "x")
# stands for a JSON integer of 5,000 digits, past Python's default int/str
# digit limit of 4300, which json.dumps would refuse to write
LONG_INTEGER = "<long integer>"
# the perturbations of eigen-data that make it invalid
REFUSED_EIGENDATA = ("not monic", "degree up", "degree down", "lambda_0")


def run_on(document, verb, *flags):
    """Write `document`, run `verb` on it with `flags` and --out, check the
    contract above, and return the exit code and standard output."""
    with tempfile.TemporaryDirectory() as tmp:
        source, target = Path(tmp) / "in.json", Path(tmp) / "out.json"
        text = json.dumps(document).replace(json.dumps(LONG_INTEGER), "7" * 5000)
        source.write_text(text)
        return run_argv([verb, *flags, str(source)], target)[:2]


def entry_paths(doc, key):
    """(key, i, j) for every entry doc[key][i][j]."""
    return [(key, i, j) for i, row in enumerate(doc[key]) for j in range(len(row))]


def put(doc, path, value):
    *head, last = path
    target = doc
    for step in head:
        target = target[step]
    target[last] = value


@st.composite
def perturbed_operator_documents(draw):
    """The document of a usable operator with one perturbation: a key
    dropped, a value of the wrong JSON type, one near-valid scalar, a JSON
    integer of 5,000 digits, or one a_i a degree too high."""
    doc = operator_to_dict(draw(usable_bochner_operators()))
    entries = entry_paths(doc, "a")
    ways = ["drop key", "wrong type", "long integer", "degree too high"]
    if entries:
        ways.append("near-valid scalar")
    way = draw(st.sampled_from(ways))
    if way == "drop key":
        del doc[draw(st.sampled_from(["N", "a"]))]
    elif way == "wrong type":
        # a level of the document first, so that "N" and "a" are drawn as
        # often as any one a_i or any one entry
        places = [[("N",)], [("a",)], [("a", i) for i in range(len(doc["a"]))]]
        if entries:
            places.append(entries)
        place = draw(st.sampled_from(draw(st.sampled_from(places))))
        put(doc, place, draw(st.sampled_from(WRONG_TYPES)))
    elif way == "long integer":
        put(doc, draw(st.sampled_from([("N",)] + entries)), LONG_INTEGER)
    elif way == "degree too high":
        i = draw(st.integers(0, doc["N"]))
        doc["a"][i] = doc["a"][i] + ["0"] * (i + 1 - len(doc["a"][i])) + ["1"]
    else:
        text, _ = draw(near_valid_scalars())
        put(doc, draw(st.sampled_from(entries)), text)
    return doc


@given(perturbed_operator_documents())
@example({"N": None, "a": [[], ["0", "-2"], ["1"]]})
@example({"N": 2, "a": [[], ["0", "-2"], ["1", "0", "0", "1"]]})
@example({"N": 2, "a": [[], ["0", "-2"], [LONG_INTEGER]]})
@settings(max_examples=40, deadline=None)
def test_direct_on_a_perturbed_operator_document(doc):
    run_on(doc, "direct", "--nmax", "4", "--operator")


@st.composite
def perturbed_eigendata_documents(draw):
    """(way, document): the `direct --nmax 4` document of a usable operator,
    normalized so that it is valid eigen-data, with one perturbation.  Some
    P_n not monic, some P_n of the wrong degree, or lambda_0 not zero make it
    invalid; one coefficient of some P_n below its top moved keeps it
    valid."""
    op_doc = operator_to_dict(normalize(draw(usable_bochner_operators()))[0])
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "op.json"
        source.write_text(json.dumps(op_doc))
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["direct", "--nmax", "4", "--operator", str(source)]) == 0
    doc = json.loads(out.getvalue())
    polys = doc["P"]
    way = draw(st.sampled_from(REFUSED_EIGENDATA + ("bump lower",)))
    # P_0 has no coefficient below its top to move
    n = draw(st.integers(way == "bump lower", len(polys) - 1))
    if way == "not monic":
        polys[n][-1] = draw(st.sampled_from(["2", "-1", "1/2", "1+1*i", "0"]))
    elif way == "degree up":
        polys[n].append("1")
    elif way == "degree down":
        polys[n].pop()
    elif way == "lambda_0":
        doc["lambda"][0] = draw(st.sampled_from(["1", "-1/3", "2*i"]))
    else:
        j = draw(st.integers(0, n - 1))
        moved = [v for v in ("1/12345", "-7/3", "2*i") if v != polys[n][j]]
        polys[n][j] = draw(st.sampled_from(moved))
    return way, doc


def hermite_data_with(n, coeffs):
    """The `direct --preset hermite --nmax 4` document with P_n replaced."""
    polys = [["1"], ["0", "1"], ["-1/2", "0", "1"], ["0", "-3/2", "0", "1"]]
    polys.append(["3/4", "0", "-3", "0", "1"])
    polys[n] = coeffs
    return {"lambda": ["0", "-2", "-4", "-6", "-8"], "P": polys}


@given(perturbed_eigendata_documents())
@example(("not monic", hermite_data_with(2, ["-1/2", "0", "2"])))
@example(("bump lower", hermite_data_with(2, ["1/12345", "0", "1"])))
@settings(max_examples=40, deadline=None)
def test_inverse_search_on_perturbed_eigendata(perturbed):
    way, doc = perturbed
    status, out = run_on(doc, "inverse", "--search", "--data")
    if way in REFUSED_EIGENDATA:
        assert status == 2
    elif status == 1:
        data = eigendata_from_dict(doc)
        expected = first_order_violation(deltas_from_eigendata_rec(data), data.n_max - 1)
        assert json.loads(out)["first_failure"] == list(expected)


def test_long_integer_lambda_is_data_of_no_operator():
    doc = hermite_data_with(0, ["1"])
    doc["lambda"][2] = LONG_INTEGER
    status, out = run_on(doc, "inverse", "--search", "--data")
    assert status == 1
    doc["lambda"][2] = "7" * 5000
    data = eigendata_from_dict(doc)
    expected = first_order_violation(deltas_from_eigendata_rec(data), data.n_max - 1)
    assert json.loads(out)["first_failure"] == list(expected)


def test_long_integer_top_coefficient_is_not_monic(tmp_path):
    doc = hermite_data_with(2, ["-1/2", "0", LONG_INTEGER])
    source = tmp_path / "data.json"
    source.write_text(json.dumps(doc).replace(json.dumps(LONG_INTEGER), "7" * 5000))
    status, _, err = run_argv(["inverse", "--search", "--data", str(source)])
    assert status == 2
    assert err == "error: not valid eigen-data: polynomial 2 is not monic\n"


# a value of each parameter flag, negative ones among them; a product-form
# list holds one to three of the scalars
SCALARS = ("1/2", "-2/5", "3", "-1", "-i", "1+1*i")
PARAMETER_VALUES = {
    "alpha": st.sampled_from(SCALARS),
    "beta": st.sampled_from(SCALARS),
    "shapiro": st.lists(st.sampled_from(SCALARS), min_size=1, max_size=3).map(",".join),
}


def render(head, options):
    """The argv of `head` and the (flag, value, joined) options, each as
    "--flag=value" when joined and as "--flag value" otherwise."""
    argv = list(head)
    for flag, value, joined in options:
        argv += [f"--{flag}={value}"] if joined else [f"--{flag}", value]
    return argv


def run_argv(argv, target=None):
    """(exit code, stdout, stderr) of `main` on `argv`, and --out `target`
    when given, checking the contract above."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv if target is None else [*argv, "--out", str(target)])
    out, err = out.getvalue(), err.getvalue()
    assert status in (0, 1, 2, 3)
    if status == 0:
        document = json.loads(out)
        assert target is None or document == json.loads(target.read_text())
    if status in (2, 3):
        assert out == ""
        assert err.endswith("\n")
        *usage, last = err.splitlines()
        if usage:
            # argparse's refusal: its usage block, wrapped lines indented
            assert status == 2
            assert usage[0].startswith("usage: bochner")
            assert all(line.startswith(" ") for line in usage[1:])
            assert re.match(r"bochner( [a-z]+)?: error: ", last), last
        else:
            assert last.startswith("error: " if status == 2 else "degenerate spectrum: ")
    return status, out, err


@st.composite
def preset_argvs(draw):
    """(head, options, name): a valid argv of direct, recurrence or preset on
    the preset `name`, with --nmax at most 6, each parameter joined to its
    flag by "=" and maybe --decimal; a product-form operator is named by
    --shapiro alone or with --preset shapiro."""
    verb = draw(st.sampled_from(["direct", "recurrence", "preset"]))
    name = draw(st.sampled_from(sorted(_PRESETS)))
    options = [(param, draw(PARAMETER_VALUES[param]), True) for param in _PRESETS[name][1]]
    if draw(st.booleans()):
        options.append(("decimal", str(draw(st.integers(1, 8))), False))
    if verb == "preset":
        return [verb, name], options, name
    options.append(("nmax", str(draw(st.integers(0, 6))), False))
    if name != "shapiro" or draw(st.booleans()):
        options.insert(0, ("preset", name, False))
    return [verb], options, name


@given(preset_argvs(), st.data())
@settings(max_examples=40, deadline=None)
def test_respelled_argv_gives_the_same_bytes(argv, data):
    # "--flag=value" and "--flag value" swapped on one flag, or a parameter
    # flag abbreviated, negative values included
    head, options, _ = argv
    assume(options)
    expected = run_argv(render(head, options))
    j = data.draw(st.integers(0, len(options) - 1))
    flag, value, joined = options[j]
    if flag in PARAMETER_VALUES and data.draw(st.booleans()):
        flag = flag[: data.draw(st.integers(1, len(flag) - 1))]
        joined = data.draw(st.booleans())
    else:
        joined = not joined
    options[j] = (flag, value, joined)
    assert run_argv(render(head, options)) == expected


@given(preset_argvs(), st.data())
@settings(max_examples=40, deadline=None)
def test_parameter_added_or_dropped_exits_2_naming_it(argv, data):
    head, options, name = argv
    taken = _PRESETS[name][1]
    unused = [param for param in PARAMETER_VALUES if param not in taken]
    way = data.draw(st.sampled_from(["add", "drop"] if taken else ["add"]))
    if way == "add":
        param = data.draw(st.sampled_from(unused))
        joined = data.draw(st.booleans())
        options.append((param, data.draw(PARAMETER_VALUES[param]), joined))
    else:
        param = data.draw(st.sampled_from(taken))
        options = [option for option in options if option[0] != param]
    status, out, err = run_argv(render(head, options))
    assert status == 2
    assert f"--{param}" in err


@given(preset_argvs(), st.data())
@settings(max_examples=30, deadline=None)
def test_value_out_of_range_exits_2(argv, data):
    head, options, _ = argv
    ways = [("decimal", str(k)) for k in (0, _DECIMAL_MAX + 1, MAX_PREC + 1)]
    if head[0] != "preset":
        ways.append(("nmax", "-1"))
    flag, value = data.draw(st.sampled_from(ways))
    options = [option for option in options if option[0] != flag]
    options.append((flag, value, data.draw(st.booleans())))
    status, out, _ = run_argv(render(head, options))
    assert status == 2
    assert out == ""


# a value of every flag that preset_argvs gives
FLAG_VALUES = {
    "preset": st.sampled_from(sorted(_PRESETS)),
    "nmax": st.integers(0, 6).map(str),
    "decimal": st.integers(1, 8).map(str),
    **PARAMETER_VALUES,
}


def test_repeated_nmax_reads_as_its_last_value():
    hermite = ["direct", "--preset", "hermite"]
    expected = run_argv([*hermite, "--nmax", "5"])
    assert run_argv([*hermite, "--nmax", "3", "--nmax", "5"]) == expected


@given(preset_argvs(), st.data())
@settings(max_examples=20, deadline=None)
def test_repeated_flag_gives_the_bytes_of_its_last_value(argv, data):
    head, options, _ = argv
    assume(options)
    expected = run_argv(render(head, options))
    j = data.draw(st.integers(0, len(options) - 1))
    flag = options[j][0]
    # an earlier copy of option j, maybe with another value and spelling
    options.insert(j, (flag, data.draw(FLAG_VALUES[flag]), data.draw(st.booleans())))
    assert run_argv(render(head, options)) == expected


# (verb, flag, value) at a bound of --nstart or --order or just past it, and
# the exit code: the band window starts in table rows 0..nmax, here 0..5, and
# a candidate order K is at least 1 and needs eigen-data to degree K + 1, here
# Hermite's to degree 4
AT_BOUNDS = {
    ("recurrence", "--nstart", "5"): 0,
    ("recurrence", "--nstart", "6"): 2,
    ("recurrence", "--nstart", "-1"): 2,
    ("inverse", "--order", "3"): 0,
    ("inverse", "--order", "4"): 2,
    ("inverse", "--order", "0"): 2,
}
# the field of the exit-0 document that echoes the flag
ECHOED = {"--nstart": "n_start", "--order": "requested_order"}


@pytest.mark.parametrize("verb, flag, value", list(AT_BOUNDS), ids=map(" ".join, AT_BOUNDS))
def test_nstart_and_order_at_and_past_their_bounds(verb, flag, value):
    if verb == "inverse":
        status, out = run_on(hermite_data_with(0, ["1"]), verb, flag, value, "--data")
    else:
        status, out, _ = run_argv([verb, "--preset", "hermite", "--nmax", "5", flag, value])
    assert status == AT_BOUNDS[verb, flag, value]
    if status == 0:
        assert json.loads(out)[ECHOED[flag]] == int(value)


# an operator whose lambda_1 vanishes, and eigen-data whose lambda_1 and
# lambda_2 coincide
DEGENERATE_OPERATOR = {"N": 2, "a": [[], [], ["1"]]}
DEGENERATE_DATA = {"lambda": ["0", "-2", "-2"], "P": [["1"], ["0", "1"], ["-1/2", "0", "1"]]}
# (verb, exit code) -> (flags, document): the flags after the verb of one
# argv for each exit code that the verb returns unpatched; the path of the
# document, if any, ends them
EXIT_CENSUS = {
    ("direct", 0): (["--preset", "hermite", "--nmax", "4"], None),
    ("direct", 2): (["--preset", "hermite", "--nmax", "-1"], None),
    ("direct", 3): (["--operator"], DEGENERATE_OPERATOR),
    ("recurrence", 0): (["--preset", "hermite", "--nmax", "4"], None),
    ("recurrence", 2): (["--preset", "hermite", "--nmax", "-1"], None),
    ("recurrence", 3): (["--operator"], DEGENERATE_OPERATOR),
    ("verify", 0): (["--preset", "hermite", "--nmax", "4"], None),
    ("verify", 2): (["--preset", "hermite", "--nmax", "1"], None),
    ("verify", 3): (["--operator"], DEGENERATE_OPERATOR),
    ("inverse", 0): (["--search", "--data"], hermite_data_with(0, ["1"])),
    ("inverse", 1): (["--search", "--data"], hermite_data_with(2, ["1/12345", "0", "1"])),
    ("inverse", 2): (["--search", "--data"], hermite_data_with(2, ["-1/2", "0", "2"])),
    ("inverse", 3): (["--search", "--data"], DEGENERATE_DATA),
    ("preset", 0): (["jacobi", "--alpha", "1/2", "--beta", "-2/5"], None),
    ("preset", 2): (["jacobi", "--alpha", "1/2"], None),
    ("lemmas", 0): (["--id", "8_tilde", "--range", "r=0:3"], None),
    ("lemmas", 2): (["--range", "r=3:0"], None),
}


@pytest.mark.parametrize("verb, code", list(EXIT_CENSUS))
def test_exit_code_census(tmp_path, verb, code):
    flags, document = EXIT_CENSUS[verb, code]
    if document is None:
        status = run_argv([verb, *flags], tmp_path / "out.json")[0]
    else:
        status = run_on(document, verb, *flags)[0]
    assert status == code


@st.composite
def refused_argvs(draw):
    """(argv, named): a valid argv of `preset_argvs` with one perturbation
    that argparse refuses, and a text that its error line names: an unknown
    flag, a flag with no value, a non-integer --nmax, an unknown preset or
    an unknown verb."""
    head, options, _ = draw(preset_argvs())
    argv = render(head, options)
    way = draw(st.sampled_from(["flag", "no value", "nmax", "preset", "verb"]))
    if way == "flag":
        return [*argv, "--bogus"], "--bogus"
    if way == "no value":
        flag = "--" + draw(st.sampled_from(["alpha", "beta", "shapiro", "decimal", "out"]))
        return [*argv, flag], flag
    if way == "nmax":
        # `preset` takes no --nmax, and refuses the flag with its value
        return [*argv, "--nmax", draw(st.sampled_from(["x", "1.5", "", "-1.5"]))], "--nmax"
    if way == "preset":
        if argv[0] == "preset":
            argv[1] = "nope"
        else:
            argv += ["--preset", "nope"]
        return argv, "nope"
    argv[0] = draw(st.sampled_from(["bogus", argv[0][:-1], argv[0].upper()]))
    return argv, argv[0]


@given(refused_argvs())
@example(([], "verb"))
@settings(max_examples=40, deadline=None)
def test_argparse_refusal_returns_2(refused):
    argv, named = refused
    status, _, err = run_argv(argv)
    assert status == 2
    lines = err.splitlines()
    assert lines[0].startswith("usage: bochner") and named in lines[-1], err


@pytest.mark.parametrize("argv", [["-h"], *([verb, "-h"] for verb in _VERBS)], ids=" ".join)
def test_help_returns_0(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = main(argv)
    assert status == 0
    assert out.getvalue().startswith("usage: bochner") and err.getvalue() == ""


# each error type of the package and the exit code it states
EXIT_CODES = {
    "BochnerError": 1,
    "DomainError": 2,
    "ParseError": 2,
    "InvalidOperator": 2,
    "InvalidEigenSystem": 2,
    "InsufficientData": 2,
    "DegenerateSpectrum": 3,
    "NoFiniteOrderOperator": 1,
    "VerificationError": 1,
}


def test_every_error_type_is_in_the_exit_code_table():
    declared = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.BochnerError)
    }
    assert declared == EXIT_CODES.keys()


@pytest.mark.parametrize("name", list(EXIT_CODES))
def test_main_returns_the_exit_code_the_error_type_states(monkeypatch, name):
    # stated in the type's own body, so a new type cannot inherit a code
    cls = getattr(errors, name)
    assert "exit_code" in vars(cls) and cls.exit_code == EXIT_CODES[name]
    args = {"DegenerateSpectrum": [(1, 2)], "NoFiniteOrderOperator": [2, (3, 1)]}
    error = cls(*args.get(name, ["broken"]))

    def fail(*_):
        raise error

    monkeypatch.setattr("bochner.cli.sweep", fail)
    status, out, err = run_argv(["lemmas"])
    assert status == cls.exit_code and out == ""
    assert err == f"{'degenerate spectrum' if status == 3 else 'error'}: {error}\n"
