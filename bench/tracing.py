"""Per-module spans, counts and the scalar replay, recorded from outside.

Nothing under ``src/`` is instrumented.  Each public function of interest is
wrapped where its caller binds it (``bochner.cli.eigensystem``,
``bochner.spectral.hessenberg_determinant``, ...), so the wrapper sees
exactly the calls the CLI verbs make.  Wrappers are installed for the
duration of one job and removed before its output is checked.

Two passes use the same bindings:

* spans: name, start, end, parent and job id per call, kept in memory.  Self
  time is a span's duration minus the time its child spans cover.
* counts: calls per name plus a few work counters, and every
  ``GaussianRational`` add, sub, mul, div and zero test.  Wrapping the
  arithmetic would swamp the self times, hence the separate pass; the
  counts repeat exactly for a given seed.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from random import Random

# (module under bochner, attribute as that module binds it, span name)
BINDINGS = (
    ("cli", "deltas_from_operator", "operators.deltas_from_operator"),
    ("cli", "eigensystem", "spectral.eigensystem"),
    ("cli", "eigenpoly_coeff_det", "spectral.eigenpoly_coeff_det"),
    ("cli", "delta_extend", "spectral.delta_extend"),
    ("cli", "is_eigenpair", "polynomials.is_eigenpair"),
    ("cli", "fit_recurrence", "recurrence.fit_recurrence"),
    ("cli", "relation_residual", "recurrence.relation_residual"),
    ("cli", "bandwidth", "recurrence.bandwidth"),
    ("cli", "verify_shapiro_recurrence", "shapiro.verify_recurrence"),
    ("cli", "shapiro_alpha", "shapiro.alpha"),
    ("cli", "reconstruct", "inverse.reconstruct"),
    ("cli", "operator_from_dict", "serialize.parse"),
    ("cli", "eigendata_from_dict", "serialize.parse"),
    ("cli", "format_scalar", "serialize.format"),
    ("cli", "poly_to_list", "serialize.format"),
    ("cli", "operator_to_dict", "serialize.format"),
    ("cli", "alpha_table_to_list", "serialize.format"),
    ("cli", "delta_table_to_list", "serialize.format"),
    ("spectral", "check_spectrum", "spectral.check_spectrum"),
    ("spectral", "eigenpoly_recursive", "spectral.eigenpoly_recursive"),
    ("spectral", "hessenberg_determinant", "hessenberg.determinant"),
    ("inverse", "deltas_from_eigendata_rec", "inverse.deltas_rec"),
    ("inverse", "first_order_violation", "inverse.first_order_violation"),
    ("inverse", "delta_extend", "spectral.delta_extend"),
    ("inverse", "is_eigenpair", "polynomials.is_eigenpair"),
    ("inverse", "hessenberg_determinant", "hessenberg.determinant"),
    ("shapiro", "shapiro_alpha", "shapiro.alpha"),
    ("shapiro", "shapiro_delta1", "shapiro.delta1"),
)

ROOT = "cli.main"

# span name -> metric, for inclusive ("_s") and self ("_self_s") seconds per job
INCLUSIVE = {
    "spectral.eigensystem": "spectral.eigensystem_s",
    "hessenberg.determinant": "hessenberg.determinant_s",
    "recurrence.fit_recurrence": "recurrence.fit_recurrence_s",
    "recurrence.relation_residual": "recurrence.relation_residual_s",
    "recurrence.bandwidth": "recurrence.bandwidth_s",
    "inverse.reconstruct": "inverse.reconstruct_s",
    "inverse.deltas_rec": "inverse.deltas_rec_s",
    "inverse.first_order_violation": "inverse.first_order_violation_s",
    "polynomials.is_eigenpair": "polynomials.is_eigenpair_s",
    "shapiro.verify_recurrence": "shapiro.verify_recurrence_s",
    "shapiro.alpha": "shapiro.alpha_s",
    "operators.deltas_from_operator": "operators.deltas_from_operator_s",
    "serialize.format": "serialize.format_s",
    "serialize.parse": "serialize.parse_s",
}
SELF = {
    "spectral.eigenpoly_recursive": "spectral.eigenpoly_recursive_self_s",
    "spectral.eigenpoly_coeff_det": "spectral.eigenpoly_coeff_det_self_s",
    ROOT: "cli.self_s",
}


def _targets(lib):
    for module_name, attr, name in BINDINGS:
        yield getattr(lib, module_name), attr, name


@contextmanager
def _patched(replacements):
    """Set (owner, attr, value) triples; put the originals back on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    for owner, attr, value in replacements:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


# -- spans ---------------------------------------------------------------------


class SpanRecorder:
    """Spans as [job, parent index, name, start ns, end ns] rows, in memory."""

    def __init__(self, lib):
        self.spans = []
        self.job_scale = {}
        self._stack = []
        self._job = -1
        self._wrapped = [
            (owner, attr, self._wrap(getattr(owner, attr), name))
            for owner, attr, name in _targets(lib)
        ]

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            record = [self._job, stack[-1] if stack else -1, name, 0, 0]
            spans.append(record)
            stack.append(idx)
            record[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()

        return traced

    @contextmanager
    def job(self, index):
        """Trace the calls made inside the block as job `index`."""
        self._job = index
        with _patched(self._wrapped):
            yield

    def scale_job(self, index, factor):
        """Scale the durations of job `index` by `factor` in the summary."""
        self.job_scale[index] = factor

    def root(self, call):
        """Run `call()` as a root span: one CLI invocation."""
        return self._wrap(call, ROOT)()

    def summary(self, jobs: int) -> dict:
        """Per-job inclusive seconds, self seconds and calls by span name,
        each job's durations scaled by its factor from `scale_job`."""
        inclusive, self_ns, calls = Counter(), Counter(), Counter()
        child_ns = [0] * len(self.spans)
        for job, parent, name, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (job, parent, name, start, end), covered in zip(self.spans, child_ns):
            factor = self.job_scale.get(job, 1.0)
            inclusive[name] += (end - start) * factor
            self_ns[name] += (end - start - covered) * factor
            calls[name] += 1
        scale = 1e-9 / jobs
        return {
            name: {
                "inclusive_s": inclusive[name] * scale,
                "self_s": self_ns[name] * scale,
                "calls": calls[name] / jobs,
            }
            for name in sorted(calls)
        }


# -- counts ----------------------------------------------------------------------

_ARITHMETIC = (
    ("__add__", "add"),
    ("__radd__", "add"),
    ("__sub__", "sub"),
    ("__rsub__", "sub"),
    ("__mul__", "mul"),
    ("__rmul__", "mul"),
    ("__truediv__", "div"),  # __rtruediv__ delegates here
)


class CallCounter:
    """Calls per span name, work counters and scalar-arithmetic counts."""

    def __init__(self, lib):
        self.calls = Counter()
        self.work = Counter()
        self._delta1_keys = set()
        special = {
            "hessenberg.determinant": self._hessenberg,
            "operators.deltas_from_operator": self._table,
            "shapiro.delta1": self._delta1,
        }
        self._wrapped = [
            (owner, attr, self._wrap(getattr(owner, attr), name, special.get(name)))
            for owner, attr, name in _targets(lib)
        ]
        scalar_type = lib.scalars.GaussianRational
        self._wrapped += [
            (scalar_type, attr, self._arith(getattr(scalar_type, attr), op))
            for attr, op in _ARITHMETIC
        ]
        self._wrapped.append((scalar_type, "__bool__", self._zero_test(scalar_type.__bool__)))

    def _wrap(self, fn, name, observe):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return counted

    def _hessenberg(self, args, result):
        # only the entries on or above the subdiagonal (column >= row - 1) are
        # read by the expansion; the structural zeros below it are not counted
        read = [v for r, row in enumerate(args[0]) for v in row[max(r - 1, 0):]]
        self.work["hessenberg.matrix_entries"] += len(read)
        # components are Fractions, so no GaussianRational zero test is counted
        self.work["hessenberg.zero_entries"] += sum(1 for v in read if not (v.re or v.im))

    def _table(self, args, result):
        self.work["operators.table_entries"] += sum(len(row) for row in result.rows)

    def _delta1(self, args, result):
        op, n = args
        self._delta1_keys.add((id(op), n))

    def _arith(self, fn, op):
        work = self.work

        def counted(a, b):
            work[op] += 1
            if a.im or getattr(b, "im", 0):
                work["complex"] += 1
            return fn(a, b)

        return counted

    def _zero_test(self, fn):
        work = self.work

        def counted(a):
            work["zero_tests"] += 1
            return fn(a)

        return counted

    @contextmanager
    def job(self):
        with _patched(self._wrapped):
            yield
        self.work["delta1_distinct"] += len(self._delta1_keys)
        self._delta1_keys.clear()

    def metrics(self, jobs: int) -> dict:
        calls, work = self.calls, self.work
        ops = sum(work[op] for op in ("add", "sub", "mul", "div"))
        entries = work["hessenberg.matrix_entries"]
        delta1 = calls["shapiro.delta1"]
        return {
            "spectral.check_spectrum_calls": calls["spectral.check_spectrum"] / jobs,
            "spectral.delta_extend_calls": calls["spectral.delta_extend"] / jobs,
            "hessenberg.calls": calls["hessenberg.determinant"] / jobs,
            "hessenberg.matrix_entries": entries / jobs,
            "hessenberg.zero_entry_share": (
                work["hessenberg.zero_entries"] / entries if entries else 0.0
            ),
            "inverse.deltas_rec_calls_per_job": calls["inverse.deltas_rec"] / jobs,
            "polynomials.is_eigenpair_calls": calls["polynomials.is_eigenpair"] / jobs,
            "shapiro.delta1_calls": delta1 / jobs,
            "shapiro.delta1_distinct_share": work["delta1_distinct"] / delta1 if delta1 else 0.0,
            "operators.table_entries": work["operators.table_entries"] / jobs,
            "scalars.ops": ops / jobs,
            "scalars.add_ops": work["add"] / jobs,
            "scalars.sub_ops": work["sub"] / jobs,
            "scalars.mul_ops": work["mul"] / jobs,
            "scalars.div_ops": work["div"] / jobs,
            "scalars.zero_tests": work["zero_tests"] / jobs,
            "scalars.complex_op_share": work["complex"] / ops if ops else 0.0,
        }


# -- scalar replay ---------------------------------------------------------------


def replay_ns(values, seed: int, pairs: int = 256, repeats: int = 7) -> dict:
    """Median ns per add and per mul over operand pairs drawn from `values`."""
    rng = Random(seed)
    operands = [(rng.choice(values), rng.choice(values)) for _ in range(pairs)]
    rounds = 20
    result = {}
    for name, op in (("scalars.add_ns", "add"), ("scalars.mul_ns", "mul")):
        samples = []
        for _ in range(repeats):
            start = time.perf_counter_ns()
            if op == "add":
                for _ in range(rounds):
                    for a, b in operands:
                        a + b
            else:
                for _ in range(rounds):
                    for a, b in operands:
                        a * b
            samples.append((time.perf_counter_ns() - start) / (rounds * pairs))
        result[name] = statistics.median(samples)
    return result
