"""One fresh process that runs one workload through ``asymqkd.cli.main``.

Started by ``run.py``; prints one JSON object on its last stdout line.

    worker.py --workload W --seed S --seconds T --trace 0
        closed loop of untraced jobs: job and kernel times, failures, ru_maxrss
    worker.py --workload W --seed S --seconds T --trace 1 --spans FILE
        untraced and traced jobs in turn: per-layer metrics, spans to FILE

Jobs run one after another on one thread; the next job starts when the
previous one returns.  Every job's stdout is captured and checked.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

from calibrate import Sampler
from workloads import WORKLOADS, load_asymqkd

MIN_JOBS = 3
MIN_TRACED_JOBS = 2


def run_job(cli, argv: list[str], sampler=None) -> tuple[float, str, str | None]:
    """(wall seconds, captured stdout, error or None) of one CLI call.

    With a ``Sampler``, the kernel parts run inside the timed
    interval and the returned seconds exclude them.
    """
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(buf), sampler or nullcontext():
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:  # a failed job is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        error = f"raised {exc!r}"
    else:
        error = None if code == 0 else f"exit code {code}"
    elapsed = time.perf_counter() - t0 - (sampler.spent if sampler else 0.0)
    return elapsed, buf.getvalue(), error


class Judge:
    """Checks each job's output and that repeated jobs print the same bytes."""

    def __init__(self, workload, argv: list[str]):
        self.workload = workload
        self.argv = argv
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0

    def __call__(self, out: str, error: str | None) -> None:
        if error is not None:
            problems = [error]
        elif not out:
            problems = ["empty stdout"]
        else:
            problems = self.workload.check(self.argv, out)
            if self.first is None:
                self.first = out
            elif out != self.first:
                problems.append("stdout differs from the first job's")
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"job {self.attempted} failed: " + "; ".join(problems[:5]), file=sys.stderr)


def measure(cli, judge: Judge, seconds: float) -> dict:
    """Closed loop of untraced jobs, each timed with a kernel sampler.

    The first job warms the process up and gives ``peak_rss_mb``; it is
    checked but not timed.  ``kernel_s[i]`` is the round time of the
    workload's reference kernel measured during timed job ``i``.
    """
    began = time.perf_counter()
    _, out, error = run_job(cli, judge.argv)
    # Peak of a fresh process after one job, as a CLI user sees it, read
    # before the checker and the kernel add their own memory.  Later jobs
    # in the same process add heap fragmentation that depends on how many
    # jobs fit in the run.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    judge(out, error)
    times, kernels, scaled = [], [], []
    while True:
        sampler = Sampler(judge.workload.kernel)
        elapsed, out, error = run_job(cli, judge.argv, sampler)
        judge(out, error)
        times.append(elapsed)
        kernels.append(sampler.round_s())
        scaled.append(judge.workload.kernel.scaled(elapsed, kernels[-1]))
        spent = time.perf_counter() - began
        if len(times) >= MIN_JOBS and spent + statistics.median(times) > seconds:
            break
    return {"job_s": times, "kernel_s": kernels, "scaled_job_s": scaled, "peak_rss_mb": peak_rss_mb}


def alloc_peak_mb(cli, judge: Judge) -> float:
    """tracemalloc peak inside run_protocol, from one extra untraced job."""
    import tracemalloc

    original = cli.run_protocol
    peaks = []

    def measured(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    cli.run_protocol = measured
    try:
        _, out, error = run_job(cli, judge.argv)
    finally:
        cli.run_protocol = original
    judge(out, error)
    return max(peaks) / 2**20


def trace(cli, judge: Judge, seconds: float, spans: Path) -> dict:
    from tracing import EXACT, MODULES, PER_LAYER, Tracer

    modules = {name: sys.modules[f"asymqkd.{name}"] for name in MODULES}
    tracer = Tracer(modules)
    untraced, traced, per_job, problems = [], [], [], []
    began = time.perf_counter()
    while True:
        elapsed, out, error = run_job(cli, judge.argv)
        judge(out, error)
        untraced.append(elapsed)

        job = len(traced)
        tracer.install(job)
        try:
            elapsed, out, error = run_job(cli, judge.argv)
        finally:
            tracer.uninstall()
        judge(out, error)
        traced.append(elapsed)
        metrics, found = tracer.job_metrics(job, len(out.encode()))
        per_job.append(metrics)
        problems.extend(found)

        spent = time.perf_counter() - began
        pair = statistics.median(untraced) + statistics.median(traced)
        if len(traced) >= MIN_TRACED_JOBS and spent + pair > seconds:
            break
    tracer.save(spans)

    metrics = {}
    for name, _, _ in PER_LAYER:
        values = [m[name] for m in per_job if name in m]
        if not values:
            continue
        if name in EXACT:
            if any(v != values[0] for v in values):
                problems.append(f"{name} differs between traced jobs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    metrics["sim.alloc_peak_mb"] = (
        alloc_peak_mb(cli, judge) if metrics.get("sim.run_protocol.calls") else 0.0)
    return {
        "metrics": metrics,
        "problems": problems,
        "job_s": untraced,
        "traced_job_s": traced,
        "spans": len(tracer.start),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()

    cli = load_asymqkd()
    import numpy

    workload = WORKLOADS[args.workload]
    judge = Judge(workload, workload.argv(args.seed))
    if args.trace:
        result = trace(cli, judge, args.seconds, args.spans)
    else:
        result = measure(cli, judge, args.seconds)
    result.update(argv=judge.argv, attempted=judge.attempted, failed=judge.failed,
                  numpy=numpy.__version__)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
