"""Benchmark of comtes: one workload per run, checked against independent
oracles, reported as one JSON line.

    python3 benchmarks/run.py --workload census --seed 1 --seconds 5 --trace 0

With ``--trace 0`` the run times set-ups of the workload (a fresh import of
comtes plus every input) before the passes and after the checks and reports
their median.  It runs whole passes over the workload's operations until
``--seconds`` have passed (at least one pass), checking each pass and
dropping its answers before the next, and reports the median pass time and
the peak resident memory, read after the first pass and before its check.
With ``--trace 1`` it runs one untraced and one traced pass, each under its
own speed probe, and reports the per-layer metrics of the traced pass; spans
are written to ``.bench_build/benchmarks/``.

Times are processor seconds of the benchmark process (``time.process_time``),
rescaled to a reference speed by ``common.SpeedProbe``: the computation is
single-threaded and does no I/O, and on a shared virtual machine wall time
also counts the periods the host runs other guests, while processor time
drifts with the host's load.  A pass's time is the sum of its operations'
times.  An operation with a deadline runs in a child process and is charged
the whole deadline when it fails, so that mending it lowers the times.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``; the
line before it holds the time of each query group (per pass median), the raw
pass time and, for each probe, its scale, sample count and sample spread.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SpeedProbe, import_comtes, run_isolated  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups timed before the passes, and as many again after the checks, so
# that the median of set-up time samples two stretches of the run.
SETUPS = 16


class Pass:
    """One pass over a workload's operations, with the processor time of
    each (the probe's own time excluded)."""

    def __init__(self, ops, probe: SpeedProbe):
        self.results: dict = {}
        # (group, seconds, measured): measured times scale with the probe's
        # speed; a failed deadline-bound operation is charged its deadline.
        self.times: list[tuple[str, float, bool]] = []
        # the speed probe's scale over this pass, set once the pass has run
        self.scale = 1.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        for op in ops:
            if op.deadline is None:
                seconds, self.results[op.name] = self._run(op, probe)
                self.times.append((op.group, seconds, True))
            else:
                with probe.paused():
                    measured, seconds, self.results[op.name] = self._run_isolated(op)
                self.times.append((op.group, seconds, measured))
            self.attempted += 1

    def _run(self, op, probe):
        t0, spent = time.process_time(), probe.spent
        try:
            result = op.fn(self.results)
        except Exception as exc:  # every operation without a deadline is expected to succeed
            self.failed += 1
            self.errors.append(f"{op.name}: {exc!r}")
            result = None
        return time.process_time() - t0 - (probe.spent - spent), result

    def _run_isolated(self, op):
        """Run a deadline-bound operation in a child process; a failure is
        charged the whole deadline."""
        status, seconds, result = run_isolated(op.fn, op.args, op.deadline)
        if status == "ok":
            return True, seconds, result
        self.failed += 1
        if status == "error":
            self.errors.append(f"{op.name}: {result}")
        return False, op.deadline, None

    def cpu_s(self, group: str | None = None, raw: bool = False) -> float:
        """Time of the pass, or of one query group, at reference speed
        (``raw``: as measured)."""
        scale = 1.0 if raw else self.scale
        return sum(s * scale if measured else s for g, s, measured in self.times if group in (None, g))

    def check(self, workload, C, inputs) -> list[str]:
        """Check the answers against the oracles, then drop them."""
        # an operation that raised leaves None where later checks expect an answer
        problems = list(self.errors) or workload.check(C, inputs, self.results)
        self.results.clear()
        return problems


def _timed_pass(workload, C, inputs, probe: SpeedProbe) -> Pass:
    """One pass under its own speed probe."""
    probe.start()
    try:
        p = Pass(workload.ops(C, inputs), probe)
    finally:
        probe.stop()
    p.scale = probe.scale()
    return p


def _setups(workload, seed, times, probe):
    """Set the workload up SETUPS times under the probe, appending each
    processor time to ``times``; returns the package and inputs of the last."""
    probe.start()
    try:
        for _ in range(SETUPS):
            t0, spent = time.process_time(), probe.spent
            C = import_comtes()
            inputs = workload.build(C, random.Random(seed))
            times.append(time.process_time() - t0 - (probe.spent - spent))
    finally:
        probe.stop()
    return C, inputs


def _traced_run(workload, seed, C, inputs):
    """One untraced and one traced pass, each under its own speed probe;
    returns both, their probes, the check problems and the per-layer metrics
    of the traced pass.  The tracer's clock leaves out the probe's own time."""
    plain_probe, probe = SpeedProbe(), SpeedProbe()
    plain = _timed_pass(workload, C, inputs, plain_probe)
    problems = plain.check(workload, C, inputs)
    tracer = Tracer(clock=lambda: time.process_time() - probe.spent)
    tracer.install(C)
    try:
        # rebuilt under the tracer, so that input construction is traced too
        inputs = workload.build(C, random.Random(seed))
        traced = _timed_pass(workload, C, inputs, probe)
    finally:
        tracer.uninstall()
    problems += traced.check(workload, C, inputs)
    tracer.write_spans(ROOT / ".bench_build" / "benchmarks" / f"spans-{workload.name}-seed{seed}.tsv.gz")
    layer = tracer.layer_metrics()
    # at reference speed, as the two passes ran at different host speeds; a
    # difference below the run-to-run noise may come out negative
    layer["trace.overhead_s"] = max(0.0, traced.cpu_s() - plain.cpu_s())
    metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit, _ in PER_LAYER}
    return [plain, traced], [plain_probe, probe], problems, metrics


def _timed_run(workload, C, inputs, seconds):
    """Whole passes under the speed probe until ``seconds`` of wall time have
    passed; returns the passes, the probe, the check problems and the median
    pass time at reference speed and the peak memory.

    Each pass is checked, with the probe paused, right after it has run, and
    its answers are dropped before the next pass starts.  The peak memory is
    read after the first pass, before its check, so it is one pass's working
    set whatever the number of passes."""
    probe = SpeedProbe()
    passes, problems = [], []
    peak_rss_mib = 0.0
    start = time.perf_counter()
    probe.start()
    try:
        while not passes or time.perf_counter() - start < seconds:
            p = Pass(workload.ops(C, inputs), probe)
            if not passes:
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            with probe.paused():
                problems += p.check(workload, C, inputs)
            passes.append(p)
    finally:
        probe.stop()
    for p in passes:
        p.scale = probe.scale()
    metrics = {
        "cpu_s": {"value": statistics.median(p.cpu_s() for p in passes), "unit": "s"},
        "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
    }
    return passes, [probe], problems, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    setup_probe = SpeedProbe()
    setup_times: list[float] = []
    C, inputs = _setups(workload, args.seed, setup_times, setup_probe)
    if args.trace:
        passes, probes, problems, metrics = _traced_run(workload, args.seed, C, inputs)
    else:
        passes, probes, problems, metrics = _timed_run(workload, C, inputs, args.seconds)
    for line in problems:
        print(f"benchmark: {args.workload}: {line}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "passes": len(passes),
        "probe": [probe.summary() for probe in probes],
        "raw_cpu_s": statistics.median(p.cpu_s(raw=True) for p in passes),
        "query_s": {g: statistics.median(p.cpu_s(g) for p in passes) for g in workload.groups},
    }
    result = {
        "correct": not problems,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
    }
    if not args.trace:
        del passes, inputs, C  # free the inputs before the second set of set-ups
        _setups(workload, args.seed, setup_times, setup_probe)
        setup_s = statistics.median(setup_times) * setup_probe.scale()
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    result["metrics"] = metrics
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
