"""Smoke tests: the demo scripts run to completion from a plain checkout."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name)],
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_inverse_roundtrip_script():
    result = run_script("inverse_roundtrip.py")
    assert result.returncode == 0, result.stderr
    assert "exact match: True" in result.stdout


def test_bandwidth_scan_script():
    result = run_script("bandwidth_scan.py")
    assert result.returncode == 0, result.stderr
