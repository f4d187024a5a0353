"""Smoke tests: the demo scripts run to completion from a plain checkout,
and CI runs the checked-in cross-check smoke script."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
WORKFLOW = SCRIPTS.parent / ".github" / "workflows" / "tests.yml"


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
    # the bumped family fits no order the script tries
    for order in range(1, 6):
        assert f"  order {order}: no operator" in result.stdout


def test_bandwidth_scan_script():
    result = run_script("bandwidth_scan.py")
    assert result.returncode == 0, result.stderr


def workflow_step(name):
    """The lines of the workflow step called `name`, up to the next step."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index(f"      - name: {name}")
    end = next(
        (i for i in range(start + 1, len(lines)) if lines[i].lstrip().startswith("- name:")),
        len(lines),
    )
    return lines[start + 1 : end]


def test_cross_check_smoke_step_runs_the_script():
    # the step holds no inline commands: CI and a local run execute the same
    # bytes, and the script stops at its first failing command
    body = [line.strip() for line in workflow_step("Cross-check smoke")]
    assert [line for line in body if line and not line.startswith("#")] == [
        "run: bash scripts/smoke.sh"
    ]
    assert "set -eo pipefail" in (SCRIPTS / "smoke.sh").read_text().splitlines()
