"""The benchmark's tracer wraps library functions by the names their callers
bind, and the scalar type's arithmetic and zero-test methods; each of those
names must still exist, or a traced run breaks."""
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from bochner.cli import main
from bochner.scalars import GaussianRational

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module_name,attr", [(module, attr) for module, attr, _ in load_tracing().BINDINGS]
)
def test_traced_binding_exists(module_name, attr):
    module = importlib.import_module(f"bochner.{module_name}")
    assert callable(getattr(module, attr, None)), f"bochner.{module_name}.{attr}"


def test_call_counter_wraps_scalar_arithmetic(capsys):
    tracing = load_tracing()
    for attr in [name for name, _ in tracing._ARITHMETIC] + ["__bool__"]:
        assert callable(getattr(GaussianRational, attr, None)), attr
    argv = ["verify", "--shapiro=-3/4,1/2+i", "--nmax", "6"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    lib = SimpleNamespace(
        **{
            name: importlib.import_module(f"bochner.{name}")
            for name in ("cli", "spectral", "inverse", "shapiro", "scalars")
        }
    )
    counter = tracing.CallCounter(lib)
    with counter.job():
        assert main(argv) == 0
    assert capsys.readouterr().out == expected
    metrics = counter.metrics(1)
    assert metrics["scalars.ops"] > 0
    assert metrics["scalars.zero_tests"] > 0
    assert 0 < metrics["scalars.complex_op_share"] < 1
