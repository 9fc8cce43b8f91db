"""The benchmark's span tracer patches package functions by name.

``benchmarks/tracing.py`` lists them in ``TRACED``; a rename or deletion
there would otherwise only surface when the benchmark runs with
``--trace 1``.  The worker reads every module of ``tracing.MODULES`` from
``sys.modules`` right after ``import asymqkd.cli``, and measures the
simulator's allocations by patching ``cli.run_protocol``.
"""

import importlib
import importlib.util
import pathlib

import pytest

from asymqkd import cli, sim
from oracles import fresh_interpreter

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


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
