"""Span tracing of the CLI's calls into each asymqkd module, from outside.

``Tracer.install`` replaces each traced function where its callers look it
up (the attribute of every asymqkd module that holds it, and
``PauliRates.__init__`` for the constructor) with a wrapper that records a
span: name, start, end, parent span and job id, plus one number per span
(``value``) for the counts the metrics need.  Spans stay in memory in
compact arrays until ``save`` writes them out; ``job_metrics`` derives the
per-layer metrics of one job from them.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

MODULES = ("cli", "threshold", "distill", "keyrates", "channel", "sim")

# Span name -> (defining module, attribute).  cli.main is the root span of
# every job.  sweep_fig1 is traced, though not reported, so that its loop
# is not counted as CLI time.
TRACED = {
    "cli.main": ("cli", "main"),
    "threshold.sweep_fig1": ("threshold", "sweep_fig1"),
    "threshold.threshold_total_noise": ("threshold", "threshold_total_noise"),
    "threshold.is_distillable": ("threshold", "is_distillable"),
    "distill.distill_schedule": ("distill", "distill_schedule"),
    "distill.distillable_in_limit": ("distill", "distillable_in_limit"),
    "distill.majority_phase_error": ("distill", "majority_phase_error"),
    "distill.b_step": ("distill", "b_step"),
    "distill.modified_rate_one_bstep": ("distill", "modified_rate_one_bstep"),
    "keyrates.shannon4": ("keyrates", "shannon4"),
    "keyrates.rate_sixstate_separate": ("keyrates", "rate_sixstate_separate"),
    "keyrates.binary_entropy": ("keyrates", "binary_entropy"),
    "channel.PauliRates": ("channel", "PauliRates"),
    "channel.conjugate": ("channel", "conjugate"),
    "channel.flip_rates": ("channel", "flip_rates"),
    "channel.average_over_mixture": ("channel", "average_over_mixture"),
    "sim.run_protocol": ("sim", "run_protocol"),
}

# Spans whose calls and self time are reported (cli.main reports as cli.self_s).
LAYER_SPANS = [
    "distill.majority_phase_error",
    "distill.distill_schedule",
    "threshold.is_distillable",
    "threshold.threshold_total_noise",
    "distill.distillable_in_limit",
    "distill.b_step",
    "distill.modified_rate_one_bstep",
    "keyrates.shannon4",
    "keyrates.rate_sixstate_separate",
    "keyrates.binary_entropy",
    "channel.PauliRates",
    "channel.conjugate",
    "channel.flip_rates",
    "channel.average_over_mixture",
    "sim.run_protocol",
]

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{span}.{kind}", unit, "lower") for span in LAYER_SPANS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("distill.majority_terms", "count", "lower"),
        ("distill.schedule_success_ratio", "ratio", "higher"),
        ("threshold.witness_decisive", "count", "higher"),
        ("threshold.witness_decisive_ratio", "ratio", "higher"),
        ("cli.self_s", "s", "lower"),
        ("cli.output_bytes", "bytes", "lower"),
        ("sim.qubits_per_s", "1/s", "higher"),
        ("sim.alloc_peak_mb", "MB", "lower"),
        ("sim.n_transmitted", "count", "lower"),
        ("sim.key_bits_final", "count", "higher"),
        ("sim.key_yield", "ratio", "higher"),
        ("sim.sifted_fraction", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)

# Metrics that must repeat exactly between traced jobs of one argv.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "bytes")] + [
    "distill.schedule_success_ratio",
    "threshold.witness_decisive_ratio",
    "sim.key_yield",
    "sim.sifted_fraction",
]


def _majority_terms(idx, args, kwargs, result):
    """Binomial terms majority_phase_error sums: j = (k+1)//2 .. k when 0 < p < 1."""
    bound = dict(zip(("p_z", "k"), args), **kwargs)
    p_z, k = bound["p_z"], bound["k"]
    return float(k + 1 - (k + 1) // 2) if 0.0 < p_z < 1.0 else 0.0


class Tracer:
    """Records spans of the calls listed in ``TRACED`` while installed."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules
        self.names = list(TRACED)
        self.name_id = array("h")
        self.parent = array("i")
        self.job = array("h")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.current_job = -1
        self.job_first: dict[int, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []
        # distill_schedule spans whose witness succeeded, with their input,
        # and run_protocol reports, both examined after the job.
        self.witness_inputs: list[tuple[int, object]] = []
        self.reports: list[tuple[int, object]] = []
        self._distillable_in_limit = package_modules["distill"].distillable_in_limit

    def _wrap(self, name: str, fn, value_of=None):
        nid = self.names.index(name)
        name_id, parent, job, start, end, value = (
            self.name_id, self.parent, self.job, self.start, self.end, self.value)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            job.append(tracer.current_job)
            start.append(0.0)
            end.append(0.0)
            value.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if value_of is not None:
                value[idx] = value_of(idx, args, kwargs, result)
            return result

        return traced

    def _value_of(self, name: str):
        if name == "distill.majority_phase_error":
            return _majority_terms
        if name == "distill.distill_schedule":
            def succeeded(idx, args, kwargs, result):
                if result.succeeded:
                    self.witness_inputs.append((idx, args[0] if args else kwargs["rates"]))
                return float(result.succeeded)
            return succeeded
        if name == "sim.run_protocol":
            def keep_report(idx, args, kwargs, result):
                self.reports.append((self.current_job, result))
                return float(result.n_transmitted)
            return keep_report
        return None

    def install(self, job_id: int) -> None:
        """Patch every traced function in every asymqkd module; spans go to ``job_id``."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.current_job = job_id
        self.job_first[job_id] = len(self.start)
        for name, (module, attr) in TRACED.items():
            original = getattr(self.modules[module], attr)
            if attr == "PauliRates":
                self._saved.append((original, "__init__", original.__init__))
                original.__init__ = self._wrap(name, original.__init__)
                continue
            wrapper = self._wrap(name, original, self._value_of(name))
            for mod in self.modules.values():
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()

    def _slice(self, first: int, last: int) -> dict[str, np.ndarray]:
        columns = {"name_id": (self.name_id, np.int16), "parent": (self.parent, np.int32),
                   "job": (self.job, np.int16), "start": (self.start, np.float64),
                   "end": (self.end, np.float64), "value": (self.value, np.float64)}
        return {key: np.array(column[first:last], dtype=dtype)
                for key, (column, dtype) in columns.items()}

    def save(self, path: Path) -> None:
        """Write every recorded span to ``path`` (numpy .npz, one array per field)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), **self._slice(0, len(self.start)))

    def job_metrics(self, job_id: int, output_bytes: int) -> tuple[dict[str, float], list[str]]:
        """Per-layer metrics of one finished traced job and the consistency problems found.

        A job's spans are contiguous: jobs run one after another in one thread.
        """
        first = self.job_first[job_id]
        a = self._slice(first, len(self.start))
        problems = []
        n = a["start"].size
        if n == 0 or np.any(a["job"] != job_id):
            return {}, [f"job {job_id}: no spans, or spans of other jobs interleaved"]
        parent = a["parent"] - first
        dur = a["end"] - a["start"]
        is_root = a["parent"] < 0
        root_name = self.names.index("cli.main")
        if is_root.sum() != 1 or not is_root[0] or a["name_id"][0] != root_name:
            problems.append(f"job {job_id}: want exactly one root span, cli.main, first")
        child = np.flatnonzero(~is_root)
        up = parent[child]
        if np.any((up < 0) | (up >= child)):
            return {}, problems + [f"job {job_id}: a span's parent lies outside the job"]
        if np.any(a["start"][child] < a["start"][up]) or np.any(a["end"][child] > a["end"][up]):
            problems.append(f"job {job_id}: a span lies outside its parent")
        # Self time: duration minus the durations of direct children.
        self_s = dur - np.bincount(up, weights=dur[child], minlength=n)
        if self_s.min() < -1e-9:
            problems.append(f"job {job_id}: sibling spans overlap")
        root_dur = float(dur[is_root].sum())
        if abs(float(self_s.sum()) - root_dur) > 1e-6:
            problems.append(
                f"job {job_id}: self times sum to {float(self_s.sum())!r}, root span is {root_dur!r}")

        names = a["name_id"]
        calls = np.bincount(names, minlength=len(self.names))
        selfs = np.bincount(names, weights=self_s, minlength=len(self.names))
        values = np.bincount(names, weights=a["value"], minlength=len(self.names))
        metrics: dict[str, float] = {}
        for span in LAYER_SPANS:
            i = self.names.index(span)
            metrics[f"{span}.calls"] = int(calls[i])
            metrics[f"{span}.self_s"] = float(selfs[i])
        i_major = self.names.index("distill.majority_phase_error")
        metrics["distill.majority_terms"] = int(values[i_major])
        i_sched = self.names.index("distill.distill_schedule")
        succeeded = int(values[i_sched])
        metrics["distill.schedule_success_ratio"] = (
            succeeded / int(calls[i_sched]) if calls[i_sched] else 0.0)

        # Two-way probes are the schedule searches run under is_distillable; the
        # witness decides a probe when it succeeds where the limit criterion fails.
        i_probe = self.names.index("threshold.is_distillable")
        sched = np.flatnonzero(names == i_sched)
        two_way = int(np.count_nonzero(names[parent[sched]] == i_probe)) if sched.size else 0
        decisive = sum(1 for span, rates in self.witness_inputs
                       if span >= first and not self._distillable_in_limit(rates))
        metrics["threshold.witness_decisive"] = decisive
        metrics["threshold.witness_decisive_ratio"] = decisive / two_way if two_way else 0.0
        metrics["cli.self_s"] = float(selfs[root_name])
        metrics["cli.output_bytes"] = output_bytes

        reports = [report for job, report in self.reports if job == job_id]
        sim_time = float(dur[names == self.names.index("sim.run_protocol")].sum())
        n_tx = sum(r.n_transmitted for r in reports)
        key_bits = sum(r.stage_counts[-1].n_kept for r in reports if not r.aborted)
        metrics["sim.n_transmitted"] = n_tx
        metrics["sim.key_bits_final"] = key_bits
        metrics["sim.key_yield"] = key_bits / n_tx if n_tx else 0.0
        metrics["sim.sifted_fraction"] = sum(r.n_sifted for r in reports) / n_tx if n_tx else 0.0
        metrics["sim.qubits_per_s"] = n_tx / sim_time if sim_time > 0.0 else 0.0
        return metrics, problems
