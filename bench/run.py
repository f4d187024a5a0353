"""Seeded, single-process benchmark of the bochner CLI verbs.

    python3 bench/run.py --workload classical_direct --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all        # every workload, every metric by name

Load model: closed loop, one client, one process, no threads.  Each job calls
``bochner.cli.main(argv)`` in process with stdout captured, so argparse, the
verb and JSON encoding and decoding are inside the timed job; the next job
starts when the previous one returns.  The library is imported from the
``src/`` directory beside this one and nowhere else.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-module metrics from jobs run untraced and traced back to back, a
counting pass over every job of the pool and a scalar replay (see
``tracing.py``).  The last line of standard output is one JSON object:
correct, attempted, failed, metrics.
Per-job records (seconds, exit codes, stdout sha256, verdict), descriptors
and spans go to ``bench/out/``.  See ``bench/HOWTO.md``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MODULES = ("cli", "errors", "inverse", "operators", "polynomials", "recurrence", "scalars",
           "serialize", "shapiro", "spectral")
# Machine speed on a shared host drifts by up to 1.7x over seconds, for every
# process alike.  Each time is therefore scaled by CALIBRATION_S over the time
# a fixed calibration kernel takes around it (see Gauge): the figures are
# seconds at the speed where that kernel takes CALIBRATION_S.  The kernel is
# the geometric mean of a small-number and a 600-bit Fraction loop, the two
# kinds of arithmetic the library does; each alone tracks job times less well.
CALIBRATION_S = 1.5e-3
_rng = Random(0)
_BIG = [Fraction(_rng.getrandbits(600) | 1, _rng.getrandbits(600) | 1) for _ in range(64)]
SETUP_REPEATS = 3
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND_TAIL = 10
# trace run: share of --seconds spent in untraced jobs; each is repeated
# traced, so the pair takes about (1 + overhead) times this share
TRACE_SHARE = 0.35
# the traced self times must add up to the untraced job time to within the
# measured tracing overhead, plus this slack for run-to-run noise
SELF_SUM_SLACK = 0.05


def _small_kernel():
    total = Fraction(0)
    for i in range(1, 400):
        total += Fraction(1, i)


def _big_kernel():
    for a, b in zip(_BIG[::2], _BIG[1::2]):
        a * b + a - b


def calibrate() -> float:
    """Seconds the calibration kernel takes now, each half the best of three
    tries.  It uses only the standard library, so no change to bochner can
    move it."""
    product = 1.0
    for kernel in (_small_kernel, _big_kernel):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        product *= best
    return product ** 0.5


class Gauge:
    """Scales wall time measured between two calls to the reference speed,
    by the mean of the calibrations taken just before and just after."""

    def __init__(self):
        self.last = calibrate()

    def scale(self, seconds: float) -> float:
        now = calibrate()
        factor = CALIBRATION_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


def load_library() -> SimpleNamespace:
    """Import bochner afresh from SRC, dropping any copy already imported."""
    for name in [m for m in sys.modules if m == "bochner" or m.startswith("bochner.")]:
        del sys.modules[name]
    package = importlib.import_module("bochner")
    if Path(package.__file__).resolve().parent != SRC / "bochner":
        raise ImportError(f"bochner imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"bochner.{m}") for m in MODULES})


def invoke(main, argv):
    """One CLI call: (exit code, stdout, stderr).  An uncaught exception is a
    traceback a user would see; it is recorded and reported as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - the loop must go on and report it
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def run_job(lib, job, call=None):
    """Run a job's invocations back to back; returns (seconds, results)."""
    main = lib.cli.main
    start = time.perf_counter()
    if call is None:
        results = [invoke(main, argv) for argv in job.argvs]
    else:
        results = [call(lambda argv=argv: invoke(main, argv)) for argv in job.argvs]
    return time.perf_counter() - start, results


def set_up(workload, seed, workdir):
    """Import, generate the inputs and run one warm-up job; returns the time."""
    start = time.perf_counter()
    lib = load_library()
    jobs = workloads.build(workload, seed, workdir, lambda argv: invoke(lib.cli.main, argv)[:2])
    run_job(lib, jobs[0])
    return time.perf_counter() - start, lib, jobs


class Checker:
    """Checks each job's outputs outside the timed section.

    A verdict is cached per (pool index, stdout digest): a byte-identical
    output of the same input has the same verdict.
    """

    def __init__(self, lib, jobs):
        self.lib, self.jobs = lib, jobs
        self.verdicts = {}
        self.bits = {}
        self.records = []
        self.failed = 0

    def __call__(self, index, wall_s, scaled_s, results, label):
        digest = hashlib.sha256("\0".join(out for _, out, _ in results).encode()).hexdigest()
        key = (index, digest)
        if key not in self.verdicts:
            self.verdicts[key] = self._check(index, results)
        ok = self.verdicts[key]
        self.failed += not ok
        self.records.append({
            "pass": label,
            "job": index,
            "wall_s": wall_s,
            "scaled_s": scaled_s,
            "exit": [code for code, _, _ in results],
            "stdout_bytes": sum(len(out) for _, out, _ in results),
            "sha256": digest,
            "ok": ok,
            "stderr": [err[-2000:] for _, _, err in results if err] if not ok else [],
        })
        return ok

    def _check(self, index, results):
        job = self.jobs[index]
        if index not in self.bits:
            text = "".join(out for _, out, _ in results)
            if job.bits_argv is not None:
                text = invoke(self.lib.cli.main, job.bits_argv)[1]
            self.bits[index] = workloads.max_bits(text)
        if any(code is None for code, _, _ in results):
            return False
        try:
            return bool(job.check(self.lib, [(code, out) for code, out, _ in results]))
        except (ValueError, KeyError, TypeError, IndexError, self.lib.errors.BochnerError):
            # malformed or unparsable output is a wrong output
            return False


def loop(lib, jobs, check, seconds):
    """Closed loop over the pool until the scaled job times add up to
    `seconds`; returns them.  Stopping on scaled rather than wall time keeps
    the job count, and so the tail percentile, independent of machine speed."""
    gauge = Gauge()
    times = []
    busy = 0.0
    while busy < seconds:
        index = len(times) % len(jobs)
        elapsed, results = run_job(lib, jobs[index])
        scaled = gauge.scale(elapsed)
        check(index, elapsed, scaled, results, "untraced")
        times.append(scaled)
        busy += scaled
    return times


def tail(times):
    """Highest percentile of TAIL_LEVELS with at least MIN_BEYOND_TAIL samples
    beyond it: (percentile, value)."""
    ordered = sorted(times)
    for level in TAIL_LEVELS:
        beyond = int(len(ordered) * (100 - level) / 100)
        if beyond >= MIN_BEYOND_TAIL:
            return level, ordered[len(ordered) - 1 - beyond]
    return 50.0, statistics.median(ordered)


def end_to_end(workload, seed, seconds, workdir):
    gauge = Gauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        elapsed, lib, jobs = set_up(workload, seed, workdir)
        setups.append(gauge.scale(elapsed))
    check = Checker(lib, jobs)
    times = loop(lib, jobs, check, seconds)
    level, tail_value = tail(times)
    metrics = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_value,
        "jobs_per_s": len(times) / sum(times),
        "success_ratio": (len(times) - check.failed) / len(times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    details = {
        "speed_factor_median": statistics.median(
            r["scaled_s"] / r["wall_s"] for r in check.records
        ),
        "setup_runs_s": setups,
        "jobs": len(times),
        "tail_percentile": level,
        "max_coeff_bits": max(check.bits.values()),
        "output_bytes_per_job": statistics.mean(r["stdout_bytes"] for r in check.records),
    }
    return metrics, details, check


def _replay_values(lib, workload, job):
    """Nonzero scalars from the first output of `job`: real ones for the real
    workloads, non-real ones for random_roundtrip."""
    argv = job.bits_argv or job.argvs[0]
    doc = json.loads(invoke(lib.cli.main, argv)[1])
    texts = []
    stack = [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            stack.extend(node.values())
        elif isinstance(node, list):
            stack.extend(node)
        elif isinstance(node, str) and node not in ("0", "ok"):
            texts.append(node)
    complex_wanted = workload == "random_roundtrip"
    return [lib.scalars.parse_scalar(t) for t in texts if ("i" in t) == complex_wanted]


def per_layer(workload, seed, seconds, workdir):
    _, lib, jobs = set_up(workload, seed, workdir)
    check = Checker(lib, jobs)
    recorder = tracing.SpanRecorder(lib)
    gauge = Gauge()
    totals = {False: 0.0, True: 0.0}  # scaled job time, by traced or not
    jobs_traced = 0
    while totals[False] < seconds * TRACE_SHARE:
        index = jobs_traced % len(jobs)
        # each job runs untraced and traced back to back, in alternating
        # order, so that drift in machine speed cancels out of the overhead
        for traced in (False, True) if jobs_traced % 2 == 0 else (True, False):
            if traced:
                with recorder.job(jobs_traced):
                    elapsed, results = run_job(lib, jobs[index], call=recorder.root)
            else:
                elapsed, results = run_job(lib, jobs[index])
            scaled = gauge.scale(elapsed)
            if traced:
                recorder.scale_job(jobs_traced, scaled / elapsed)
            totals[traced] += scaled
            check(index, elapsed, scaled, results, "traced" if traced else "untraced")
        jobs_traced += 1
    layers = recorder.summary(jobs_traced)
    untraced_total, traced_total = totals[False], totals[True]

    # every pool job once, so the counts are exact means over the pool
    counter = tracing.CallCounter(lib)
    for index in range(len(jobs)):
        with counter.job():
            elapsed, results = run_job(lib, jobs[index])
        check(index, elapsed, elapsed, results, "counted")

    per_job = untraced_total / jobs_traced
    overhead = traced_total / untraced_total
    self_sum = sum(layer["self_s"] for layer in layers.values())
    self_sum_ratio = self_sum / per_job
    consistent = abs(self_sum_ratio - 1) <= abs(overhead - 1) + SELF_SUM_SLACK

    metrics = {}
    for name, metric in tracing.INCLUSIVE.items():
        metrics[metric] = layers.get(name, {}).get("inclusive_s", 0.0)
    for name, metric in tracing.SELF.items():
        metrics[metric] = layers.get(name, {}).get("self_s", 0.0)
    metrics.update(counter.metrics(len(jobs)))
    untraced_records = [r for r in check.records if r["pass"] == "untraced"]
    metrics["serialize.bytes_out"] = statistics.mean(r["stdout_bytes"] for r in untraced_records)
    metrics["serialize.bytes_in"] = statistics.mean(
        _input_bytes(jobs[r["job"]]) for r in untraced_records
    )
    values = _replay_values(lib, workload, jobs[0])
    gauge = Gauge()
    for name, ns in tracing.replay_ns(values, seed).items():
        metrics[name] = gauge.scale(ns)
    metrics["trace.overhead_ratio"] = overhead
    metrics["descriptor.max_coeff_bits"] = max(check.bits.values())

    shares = {}
    for name, layer in layers.items():
        module = name.split(".")[0]
        shares[module] = shares.get(module, 0.0) + layer["self_s"] / self_sum
    details = {
        "jobs_traced": jobs_traced,
        "jobs_counted": len(jobs),
        "untraced_job_s": per_job,
        "self_sum_ratio": self_sum_ratio,
        "self_sum_consistent": consistent,
        "module_self_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "layers": layers,
    }
    spans_path = OUT / f"{workload}-seed{seed}-spans.json"
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"columns": ["job", "parent", "name", "start_ns", "end_ns"],
                   "spans": recorder.spans}, handle, separators=(",", ":"))
    details["spans_file"] = spans_path.name
    return metrics, details, check, consistent


def _input_bytes(job):
    total = 0
    for argv in job.argvs:
        for flag, value in zip(argv, argv[1:]):
            if flag in ("--operator", "--data"):
                total += Path(value).stat().st_size
    return total


def run(workload, seed, seconds, trace, units):
    """One benchmark run; returns the result object of the last output line."""
    workdir = OUT / f"{workload}-seed{seed}-inputs"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, details, check, consistent = per_layer(workload, seed, seconds, workdir)
        else:
            metrics, details, check = end_to_end(workload, seed, seconds, workdir)
            consistent = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": check.failed == 0 and consistent,
        "attempted": len(check.records),
        "failed": check.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "python": sys.version.split()[0], "result": result, "details": details,
              "pool": [job.label for job in check.jobs], "job_records": check.records}
    with open(OUT / f"{workload}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(f"# {workload} seed={seed} seconds={seconds} trace={trace}")
    for name, entry in result["metrics"].items():
        print(f"{workload:>20}  {name:<40} {entry['value']:>16.6g} {entry['unit']}")
    for name in ("jobs", "tail_percentile", "max_coeff_bits", "output_bytes_per_job",
                 "jobs_traced", "self_sum_ratio", "module_self_shares"):
        if name in details:
            print(f"{workload:>20}  [{name}] {details[name]}")
    return result


def main(argv=None) -> int:
    # metric names, units and the run length come from the benchmark definition
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if not (SRC / "bochner" / "__init__.py").is_file():
        print(f"error: no bochner package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run(name, args.seed, args.seconds, args.trace, units) for name in names}
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
