"""Compare two checkouts on one workload with alternating, paired runs.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --workload classical_direct

Each directory is a checkout holding ``BENCHMARK.json``, ``bench/`` and
``src/``; both must hold the same benchmark, byte for byte, or the
comparison stops before any run.  Pair i of PAIRS runs both with seed
FIRST_SEED + i; the parent runs first in even pairs and the change first in
odd ones.  For every metric the report gives each side's median and
quartiles, the pairs the change won, and a verdict:

* ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's own spread, the
  distance between its quartiles;
* ``regression``: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* ``unresolved``: the parent's spread, as a share of its median, exceeds the
  bound and not every change run beats every parent run;
* ``same`` otherwise.  Per-layer metrics (``--trace 1``) have no bound and
  get only ``gain`` or ``same``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
FIRST_SEED = 101


def harness_files(checkout: Path) -> dict:
    """The benchmark's own files of a checkout, by name: their bytes."""
    files = {"BENCHMARK.json": checkout / "BENCHMARK.json"}
    files.update({f"bench/{f.name}": f for f in (checkout / "bench").glob("*.py")})
    return {name: path.read_bytes() for name, path in files.items()}


def run_once(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed} reported incorrect output")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def verdict(parent, change, better, bound):
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    spread = q3 - q1
    if wins >= 0.9 * len(parent) and abs(c_med - p_med) > spread and sign * (c_med - p_med) > 0:
        return "gain", wins, losses
    if bound is None:
        return "same", wins, losses
    if p_med and -sign * (c_med - p_med) / abs(p_med) > bound:
        return "regression", wins, losses
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if p_med and spread / abs(p_med) > bound and not every_run_better:
        return "unresolved", wins, losses
    return "same", wins, losses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    parent_files, change_files = harness_files(args.parent), harness_files(args.change)
    differing = sorted(name for name in parent_files.keys() | change_files.keys()
                       if parent_files.get(name) != change_files.get(name))
    if differing:
        print(f"error: the checkouts hold different benchmarks: {', '.join(differing)}",
              file=sys.stderr)
        return 2

    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    runs = {"parent": [], "change": []}
    for pair in range(PAIRS):
        seed = FIRST_SEED + pair
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_once(checkout, args.workload, seed, args.trace))
        print(f"pair {pair + 1}/{PAIRS} done (seed {seed}, {order[0]} first)", flush=True)

    print(f"{'metric':<40} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34}"
          f" {'won':>7}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        outcome, wins, losses = verdict(parent, change, metric["better"], metric.get("bound"))
        cells = []
        for values in (parent, change):
            q1, _, q3 = statistics.quantiles(values, n=4)
            cells.append(f"{statistics.median(values):.5g} [{q1:.5g}, {q3:.5g}]")
        print(f"{name:<40} {cells[0]:>34} {cells[1]:>34} {wins:>3}/{len(parent):<3}  {outcome}"
              f"{'' if not losses else f' ({losses} lost)'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
