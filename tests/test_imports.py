"""No module of the package imports `typing`: its annotations are strings
under `from __future__ import annotations`, so nothing needs it at run time,
and loading it is a share of every short CLI call.  Each check starts a
fresh interpreter with -S, so that no site hook imports a module first."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "argv",
    [("-c", "import bochner"), ("-m", "bochner", "preset", "hermite")],
    ids=["import", "preset"],
)
def test_typing_is_never_imported(argv):
    result = subprocess.run(
        [sys.executable, "-S", "-X", "importtime", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    # -X importtime writes "import time: SELF | CUMULATIVE | NAME" per module
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {"bochner", "bochner.identities"} <= imported
    assert "typing" not in imported
