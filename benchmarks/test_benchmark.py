"""Tests of the benchmark's own code.

    python3 -m pytest benchmarks -q

Each checker must pass the CLI's real output and reject a doctored copy;
the tracer's spans must partition each job and repeat their counts;
BENCHMARK.json must list exactly the metrics the benchmark prints.
"""

import ast
import io
import json
from contextlib import redirect_stdout

import pytest

import calibrate
import run
from tracing import MODULES, PER_LAYER, Tracer
from worker import Judge
from workloads import (
    DEFAULT_SEED,
    FIG1_GRID,
    FIG2_GRID,
    FIG2_SAMPLE_EVERY,
    HELD_OUT_SEED,
    ROOT,
    TWO_WAY_CROSSING,
    WORKLOADS,
    check_fig1,
    check_fig2,
    check_sim,
    grid_points,
    grid_text,
    limit_threshold,
    load_asymqkd,
)

cli = load_asymqkd()

FIG1_ARGV = ["sweep-fig1", "--grid", "0.0:1.0:0.5", "--tol", "0.001", "--target", "0.05"]
FIG2_ARGV = ["sweep-fig2", "--cases", "0.0,0.005,0.01,0.02", "--grid", "0.0:0.5:0.0025"]
SIM_ARGV = ["simulate", "--qx", "0.10", "--qy", "0.03", "--qz", "0.02",
            "--n", "20000", "--seed", "5", "--abort-sigma", "5"]


def cli_output(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.fixture(scope="module")
def outputs():
    return {"fig1": cli_output(FIG1_ARGV), "fig2": cli_output(FIG2_ARGV), "sim": cli_output(SIM_ARGV)}


def replace_field(out, row_prefix, column, delta):
    """Add ``delta`` to one numeric CSV field of the row starting with ``row_prefix``."""
    lines = out.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(row_prefix))
    fields = lines[at].split(",")
    fields[column] = repr(float(fields[column]) + delta)
    lines[at] = ",".join(fields)
    return "\n".join(lines) + "\n"


def test_real_outputs_pass(outputs):
    assert check_fig1(FIG1_ARGV, outputs["fig1"]) == []
    assert check_fig2(FIG2_ARGV, outputs["fig2"]) == []
    assert check_sim(SIM_ARGV, outputs["sim"]) == []


@pytest.mark.parametrize("row_prefix", ["0.0,", "0.5,", "1.0,"])
@pytest.mark.parametrize("column", [2, 3])
@pytest.mark.parametrize("delta", [0.01, -0.01])
def test_fig1_rejects_threshold_shifted_by_001(outputs, row_prefix, column, delta):
    doctored = replace_field(outputs["fig1"], row_prefix, column, delta)
    assert check_fig1(FIG1_ARGV, doctored)


def test_fig1_rejects_missing_row_and_error_note(outputs):
    lines = outputs["fig1"].splitlines()
    assert check_fig1(FIG1_ARGV, "\n".join(lines[:-1]) + "\n")
    assert check_fig1(FIG1_ARGV, "\n".join(lines[:-1] + [lines[-1] + "error"]) + "\n")


@pytest.mark.parametrize("q_y0", sorted(TWO_WAY_CROSSING))
def test_fig2_rejects_crossing_off_by_1e6(outputs, q_y0):
    prefix = f"# crossing: q_y0={q_y0!r} total_noise="
    lines = outputs["fig2"].splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[at] = prefix + repr(float(lines[at][len(prefix):]) + 1e-6)
    assert check_fig2(FIG2_ARGV, "\n".join(lines) + "\n")


def test_fig2_rejects_missing_row_and_wrong_rate(outputs):
    lines = outputs["fig2"].splitlines()
    # A data row the checker recomputes: q_y0 = 0, so its rates are not nan.
    checked = lines.index("q_y0,total_noise,rate_one_way,rate_two_way") + 1 + 2 * FIG2_SAMPLE_EVERY
    assert lines[checked].startswith("0.0,")
    assert check_fig2(FIG2_ARGV, "\n".join(lines[:checked] + lines[checked + 1:]) + "\n")
    fields = lines[checked].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[checked] = ",".join(fields)
    assert check_fig2(FIG2_ARGV, "\n".join(lines) + "\n")


def test_sim_rejects_aborted_report(outputs):
    doctored = outputs["sim"].replace("aborted = false", "aborted = true")
    assert doctored != outputs["sim"]
    assert check_sim(SIM_ARGV, doctored)


def test_sim_rejects_far_off_row(outputs):
    key = "row.key:parity.bit_error.analytic = "
    lines = [key + "0.3" if line.startswith(key) else line for line in outputs["sim"].splitlines()]
    assert check_sim(SIM_ARGV, "\n".join(lines) + "\n")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_empty_stdout_fails(name):
    """``python -m asymqkd.cli`` exits 0 and prints nothing; that must count as failed."""
    judge = Judge(WORKLOADS[name], WORKLOADS[name].argv(DEFAULT_SEED))
    judge("", None)
    assert (judge.attempted, judge.failed) == (1, 1)


def test_judge_rejects_changed_bytes(outputs):
    judge = Judge(WORKLOADS["sim_1e6"], SIM_ARGV)
    judge(outputs["sim"], None)
    judge(outputs["sim"].replace("\n", "\n\n", 1), None)
    assert (judge.attempted, judge.failed) == (2, 1)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED, 1, 2, 99])
@pytest.mark.parametrize("grid", [FIG1_GRID, FIG2_GRID])
def test_seeded_grid_keeps_default_count_and_range(seed, grid):
    lo, hi, step = grid
    points = grid_points(grid_text(lo, hi, step, seed))
    assert len(points) == round((hi - lo) / step) + 1
    assert lo <= points[0] < lo + step
    assert points[-1] <= hi + 1e-12


def test_default_seed_sends_default_grids():
    assert WORKLOADS["fig1_sweep"].argv(DEFAULT_SEED)[:3] == ["sweep-fig1", "--grid", "0.0:1.0:0.05"]
    assert grid_points(grid_text(*FIG2_GRID, DEFAULT_SEED)) == grid_points("0.0:0.5:0.00002")


def test_closed_form_thresholds_match_paper():
    assert abs(limit_threshold(0.0, "ybasis") - 0.5) < 1e-12
    for ratio in (0.0, 0.5, 1.0):
        assert abs(limit_threshold(ratio, "chau") - 0.414) < 0.001
    assert abs(limit_threshold(1.0, "ybasis") - limit_threshold(1.0, "chau")) < 1e-12


def test_crossing_goldens_match_acceptance_tests():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "TWO_WAY_CROSSING":
            assert ast.literal_eval(node.value) == TWO_WAY_CROSSING
            return
    pytest.fail("TWO_WAY_CROSSING not found")


def traced_jobs(argv, jobs=2):
    import sys

    tracer = Tracer({name: sys.modules[f"asymqkd.{name}"] for name in MODULES})
    results = []
    for job in range(jobs):
        tracer.install(job)
        try:
            out = cli_output(argv)
        finally:
            tracer.uninstall()
        results.append((out, *tracer.job_metrics(job, len(out.encode()))))
    return tracer, results


@pytest.mark.parametrize("argv", [FIG1_ARGV, FIG2_ARGV, SIM_ARGV])
def test_traced_spans_partition_and_repeat(argv):
    original = cli.main
    tracer, results = traced_jobs(argv)
    assert cli.main is original
    (out_a, metrics_a, problems_a), (out_b, metrics_b, problems_b) = results
    assert problems_a == [] and problems_b == []
    assert out_a == out_b == cli_output(argv)
    counts = [name for name, unit, _ in PER_LAYER if unit == "count"]
    assert {k: metrics_a[k] for k in counts if k in metrics_a} == {
        k: metrics_b[k] for k in counts if k in metrics_b}


def test_tracer_flags_span_outside_parent():
    tracer, results = traced_jobs(FIG2_ARGV, jobs=1)
    child = next(i for i in range(len(tracer.parent)) if tracer.parent[i] == 0)
    tracer.end[child] = tracer.end[0] + 1.0
    _, problems = tracer.job_metrics(0, 0)
    assert any("outside its parent" in p for p in problems)


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better in PER_LAYER]


def test_reference_kernels_are_independent_of_asymqkd():
    tree = ast.parse((ROOT / "benchmarks" / "calibrate.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not any(name.startswith("asymqkd") for name in imported)


@pytest.mark.parametrize("kernel", [calibrate.INTERPRETER, calibrate.ARRAYS])
def test_sampler_excludes_kernel_time_and_scales_by_it(kernel):
    from worker import run_job

    sampler = calibrate.Sampler(kernel)
    elapsed, out, error = run_job(cli, FIG2_ARGV[:-1] + ["0.0:0.5:0.00005"], sampler)
    assert error is None and out
    assert all(sampler.samples) and 0.0 < sampler.spent < elapsed
    assert kernel.scaled(elapsed, sampler.round_s()) == pytest.approx(
        elapsed * kernel.reference_s / sampler.round_s())
    assert kernel.scaled(2.0, 2 * kernel.reference_s) == pytest.approx(1.0)
