"""The benchmark's tracer wraps library functions by the names their callers
bind; each of those names must still exist, or a traced run breaks."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_bindings():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


@pytest.mark.parametrize(
    "module_name,attr", [(module, attr) for module, attr, _ in load_bindings()]
)
def test_traced_binding_exists(module_name, attr):
    module = importlib.import_module(f"bochner.{module_name}")
    assert callable(getattr(module, attr, None)), f"bochner.{module_name}.{attr}"
