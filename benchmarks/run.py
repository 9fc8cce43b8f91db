"""asymqkd benchmark: runs one workload (or all) and prints its metrics.

    python3 benchmarks/run.py --workload fig1_sweep --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all

With ``--trace 0`` it reports the end-to-end metrics (job_s, peak_rss_mb,
setup_s, passed_frac); with ``--trace 1`` the per-layer metrics of a traced
run.  Each metric is printed on its own line with its unit, followed by
run metadata, and the last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
raw samples included, goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import INTERPRETER
from tracing import PER_LAYER
from workloads import DEFAULT_SEED, ROOT, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
# Set-up probes per untraced run: half before the workload, half after, so
# that their median spans the same stretch of host load as the jobs.  Each
# probe is a fresh process of about 0.65 s, kernel rounds included.
SETUP_PROBES = 12
RUN_LIMIT_S = 170.0

END_TO_END = [
    ("job_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("passed_frac", "ratio"),
]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if (ROOT / ".git").exists():  # else git would answer for an enclosing repository
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
        except OSError:
            return "unknown (git not found)"
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown (not a git checkout)"


def run_worker(script: str, extra: list[str], deadline: float) -> dict:
    """Run a benchmark script in a fresh process and return its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / script), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{script} {extra} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    meta = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "commit": git_commit(),
    }
    if traced:
        spans = OUT / f"spans-{name}.npz"
        result = run_worker("worker.py", ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", "1", "--spans", str(spans)], deadline)
        metrics = dict(result["metrics"])
        units = {metric: unit for metric, unit, _ in PER_LAYER}
        meta.update(spans_file=str(spans.relative_to(ROOT)), spans=result["spans"],
                    traced_jobs=len(result["traced_job_s"]))
        problems = result["problems"]
    else:
        def probe() -> float:
            times = run_worker("setup_probe.py", [], deadline)
            setup_raw.append(times["setup_s"])
            return INTERPRETER.scaled(times["setup_s"], times["kernel_s"])

        setup_raw: list[float] = []
        setup = [probe() for _ in range(SETUP_PROBES // 2)]
        result = run_worker("worker.py", ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
                             "--trace", "0"], deadline)
        setup += [probe() for _ in range(SETUP_PROBES - len(setup))]
        attempted = result["attempted"]
        metrics = {
            "job_s": statistics.median(result["scaled_job_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
            "passed_frac": (attempted - result["failed"]) / attempted,
        }
        units = dict(END_TO_END)
        meta.update(setup_samples=setup, setup_raw_samples=setup_raw,
                    scaled_job_samples=result["scaled_job_s"], kernel_samples=result["kernel_s"])
        problems = []
    jobs = result["job_s"]
    meta.update(numpy=result["numpy"], argv=result["argv"], jobs=len(jobs), job_samples=jobs)
    if traced:
        meta.update(traced_job_samples=result["traced_job_s"])
    return {
        "correct": result["failed"] == 0 and not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "meta": meta,
    }


def describe(record: dict) -> list[str]:
    meta = record["meta"]
    lines = [f"# workload {meta['workload']}: asymqkd {' '.join(meta['argv'])}"]
    for name, metric in record["metrics"].items():
        note = ""
        if name == "job_s":
            jobs = meta["scaled_job_samples"]
            quartiles = statistics.quantiles(jobs, n=4) if len(jobs) > 1 else [jobs[0]] * 3
            note = (f"  (scaled median of {len(jobs)} timed jobs; quartiles {quartiles[0]:.4f}"
                    f"..{quartiles[2]:.4f}; wall median {statistics.median(meta['job_samples']):.4f} s)")
        elif name == "setup_s":
            note = (f"  (scaled median of {len(meta['setup_samples'])} fresh processes;"
                    f" wall median {statistics.median(meta['setup_raw_samples']):.4f} s)")
        elif name == "passed_frac":
            note = (f"  ({record['attempted'] - record['failed']}/{record['attempted']} jobs passed;"
                    f" failed_frac = {record['failed'] / record['attempted']!r})")
        lines.append(f"{name} = {metric['value']!r} {metric['unit']}{note}")
    for problem in record["problems"]:
        lines.append(f"# problem: {problem}")
    lines.append("# meta: " + json.dumps({k: v for k, v in meta.items() if not k.endswith("samples")}))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="asymqkd benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it seeds numpy's SeedSequence)")

    if not (ROOT / "src" / "asymqkd" / "cli.py").is_file():
        print(f"error: no asymqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S * len(names)
    records = []
    try:
        for name in names:
            record = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            records.append(record)
            print("\n".join(describe(record)), flush=True)
            OUT.mkdir(exist_ok=True)
            path = OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json"
            path.write_text(json.dumps(record, indent=1) + "\n")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['meta']['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
