"""What the benchmark relies on by name: functions, flags and outputs.

The span tracer patches package functions by name: ``benchmarks/tracing.py``
lists them in ``TRACED``; a rename or deletion there would otherwise only
surface when the benchmark runs with ``--trace 1``.  The worker reads every
module of ``tracing.MODULES`` from ``sys.modules`` right after
``import asymqkd.cli``, and measures the simulator's allocations by
patching ``cli.run_protocol``.  Each workload of ``benchmarks/workloads.py``
sends a fixed argv, so a deleted flag would otherwise only surface when
``benchmarks/run.py`` runs.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from asymqkd import cli, sim
from oracles import fresh_interpreter

_BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name):
    """``benchmarks/<name>.py`` as a module; its own imports resolve in ``benchmarks/``."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", _BENCHMARKS / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    sys.path.insert(0, str(_BENCHMARKS))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(_BENCHMARKS))
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_traced_modules_import():
    # A fresh interpreter: in this one the test modules have imported them all.
    missing = fresh_interpreter(f"""
import sys
import asymqkd.cli
print([m for m in {tracing.MODULES!r} if "asymqkd." + m not in sys.modules])
""")
    assert missing == "[]\n"


def test_simulate_calls_run_protocol_through_cli(monkeypatch, capsys):
    calls = []

    def recorded(*args, **kwargs):
        calls.append(kwargs["seed"])
        return sim.run_protocol(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", recorded)
    argv = ["simulate", "--qx", "0.1", "--qy", "0.03", "--qz", "0.02", "--n", "200", "--seed", "7"]
    assert cli.main(argv) == 0
    assert calls == [7]
    assert "seed = 7\n" in capsys.readouterr().out


@pytest.mark.parametrize("module, attr", sorted(tracing.TRACED.values()))
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"asymqkd.{module}"), attr))


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_argv_parses(name, seed):
    cli._parser().parse_args(workloads.WORKLOADS[name].argv(seed))


def test_fig1_workload_output_passes_its_check(capsys):
    argv = workloads.fig1_argv(workloads.DEFAULT_SEED)
    assert cli.main(argv) == 0
    assert workloads.check_fig1(argv, capsys.readouterr().out) == []
