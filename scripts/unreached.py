"""Find library functions that no CLI verb runs.

Runs every verb of `bochner` and its main flags in process under the
stdlib `trace` module, the exit 1, 2 and 3 paths included, and lists each
function or method in src/bochner/ none of whose body lines ran.  It fails
on any such function that is not on KEEP, which names the few that stay for
another reason.

    python3 scripts/unreached.py

Exits 0 when every unreached function is on KEEP, and 1 otherwise, or when
a verb exits with another status than the one expected of it.
"""
import ast
import contextlib
import io
import json
import sys
import tempfile
import trace
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from bochner import cli  # noqa: E402

PACKAGE = SRC / "bochner"

# function -> why it stays although no verb runs it
KEEP = {
    **dict.fromkeys(
        ("identities.lemma_residual", "polynomials.apply_operator"),
        "public oracle",
    ),
    **dict.fromkeys(
        ("inverse.first_order_violation", "spectral.eigenpoly_recursive"),
        "bound by the bench: bench/tracing.py BINDINGS names it",
    ),
    **dict.fromkeys(
        (
            "operators.BochnerOperator.__eq__",
            "operators.BochnerOperator.__hash__",
            "operators.BochnerOperator.__str__",
            "operators.BochnerOperator.__repr__",
            "operators.DeltaTable.__repr__",
            "polynomials.Poly.__hash__",
            "polynomials.Poly.__str__",
            "polynomials.Poly.__repr__",
            "recurrence.RecurrenceCoeffs.__eq__",
            "recurrence.RecurrenceCoeffs.__repr__",
            "scalars.GaussianRational.__rsub__",
            "scalars.GaussianRational.__rtruediv__",
            "scalars.GaussianRational.__pos__",
            "scalars.GaussianRational.__str__",
            "scalars.GaussianRational.__repr__",
            "shapiro.ShapiroOperator.__eq__",
            "shapiro.ShapiroOperator.__repr__",
            "spectral.EigenSystem.__eq__",
            "spectral.EigenSystem.__repr__",
        ),
        "dunder: Python's data model calls it",
    ),
}

ORDER3 = {"N": 3, "a": [[], ["1/2", "-3"], ["2", "1+1*i", "-1/3*i"], ["0", "1", "-2", "1+1*i"]]}
# lambda_n = n(n - 3): lambda_3 = lambda_0
DEGENERATE = {"N": 2, "a": [[], ["0", "-2"], ["0", "0", "1"]]}


def runs(work):
    """(expected exit status, argv) of every run, in order.  A generator: the
    bumped data is written from the data of the run before it."""
    op = str(work / "order3.json")
    data = str(work / "order3-data.json")
    yield 0, ["direct", "--operator", op, "--nmax", "8", "--check", "--out", data]
    doc = json.loads(Path(data).read_text())
    doc["P"][6][1] = "1/12345"
    bumped = str(work / "order3-bumped.json")
    Path(bumped).write_text(json.dumps(doc))
    yield from [
        (0, ["direct", "--preset", "hermite", "--nmax", "6", "--check", "--deltas", "--decimal", "5"]),
        (0, ["direct", "--preset", "laguerre", "--alpha", "1/2", "--nmax", "6", "--check"]),
        (0, ["direct", "--preset", "jacobi", "--alpha", "1/2", "--beta", "-1/3", "--nmax", "5"]),
        (0, ["direct", "--shapiro=1,-2,1/2+i", "--nmax", "6", "--check"]),
        (0, ["preset", "hermite"]),
        (0, ["preset", "laguerre", "--alpha", "2"]),
        (0, ["preset", "jacobi", "--alpha", "1", "--beta", "-1/2", "--decimal", "4"]),
        (0, ["preset", "shapiro", "--shapiro", "1,2"]),
        (0, ["recurrence", "--preset", "hermite", "--nmax", "6", "--check", "--decimal", "3"]),
        (0, ["recurrence", "--shapiro=1,2,3", "--nmax", "8", "--nstart", "4", "--check"]),
        (0, ["recurrence", "--operator", op, "--nmax", "10", "--check"]),
        (0, ["verify", "--preset", "laguerre", "--alpha", "1/3", "--nmax", "6"]),
        (0, ["verify", "--shapiro=1/2+1/3*i,i", "--nmax", "6"]),
        (0, ["verify", "--operator", op, "--nmax", "6"]),
        (0, ["inverse", "--data", data, "--search", "--decimal", "3"]),
        (0, ["inverse", "--data", data, "--order", "4", "--check"]),
        (1, ["inverse", "--data", bumped, "--order", "3"]),
        (1, ["inverse", "--data", bumped, "--search", "--check"]),
        (0, ["lemmas", "--id", "kym", "--id", "31tilde", "--range", "k=1:3", "--range", "n=0:3"]),
        (0, ["lemmas", "--range", "m=0:2", "--range", "n=0:2", "--range", "k=0:2",
             "--range", "q=0:2", "--range", "r=0:2", "--range", "N=0:2"]),
        (2, ["lemmas", "--range", "z=0:1"]),
        (2, ["lemmas", "--range", "m=3:1"]),
        (2, ["direct", "--preset", "laguerre"]),
        (2, ["direct", "--preset", "hermite", "--alpha", "1"]),
        (2, ["direct", "--operator", op, "--preset", "hermite"]),
        (2, ["direct"]),
        (2, ["direct", "--shapiro=1,2x"]),
        (2, ["direct", "--operator", str(work / "missing.json")]),
        (2, ["direct", "--operator", str(work / "not-utf8.json")]),
        (2, ["direct", "--operator", str(work / "not-json.json")]),
        (2, ["direct", "--operator", str(work / "bad-doc.json")]),
        (2, ["direct", "--preset", "hermite", "--decimal", "0"]),
        (2, ["verify", "--preset", "hermite", "--nmax", "1"]),
        (2, ["inverse", "--data", data]),
        (2, ["inverse", "--data", op, "--search"]),
        (3, ["direct", "--operator", str(work / "degenerate.json"), "--nmax", "4"]),
    ]


def write_inputs(work):
    (work / "order3.json").write_text(json.dumps(ORDER3))
    (work / "degenerate.json").write_text(json.dumps(DEGENERATE))
    (work / "not-utf8.json").write_bytes(b"\xff\n")
    (work / "not-json.json").write_text("{")
    (work / "bad-doc.json").write_text(json.dumps({"N": 1, "a": [[], []]}))


def run_verbs(work):
    """Run every verb; returns (argv, status, expected) for each run whose
    exit status was not the expected one."""
    wrong = []
    for expected, argv in runs(work):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(argv)
        if status != expected:
            wrong.append((argv, status, expected))
    return wrong


def functions(path):
    """(dotted name, first and last body line) of every function and
    method defined in the module at `path`, nested ones included."""
    module = path.stem

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                yield name, child.body[0].lineno, child.end_lineno
                yield from walk(child, name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}.{child.name}")

    return list(walk(ast.parse(path.read_text()), module))


def unreached(counts):
    """Dotted names of the functions in src/bochner/ with no executed line."""
    ran = {}
    for (filename, line), count in counts.items():
        if count:
            ran.setdefault(str(Path(filename).resolve()), set()).add(line)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path.resolve()), set())
        for name, first, last in functions(path):
            if not any(first <= line <= last for line in lines):
                found.append(name)
    return found


def main():
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        write_inputs(work)
        tracer = trace.Trace(count=1, trace=0)
        wrong = tracer.runfunc(run_verbs, work)
    for argv, status, expected in wrong:
        print(f"exit {status}, expected {expected}: bochner {' '.join(argv)}")
    missing = unreached(tracer.results().counts)
    failing = [name for name in missing if name not in KEEP]
    for name in missing:
        print(f"kept       {name}  ({KEEP[name]})" if name in KEEP else f"UNREACHED  {name}")
    print(f"{len(missing)} functions unreached, {len(failing)} not on the keep-list")
    return 1 if wrong or failing else 0


if __name__ == "__main__":
    sys.exit(main())
