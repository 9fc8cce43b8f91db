"""The benchmark's span tracer patches package functions by name.

``benchmarks/tracing.py`` lists them in ``TRACED``; a rename or deletion
there would otherwise only surface when the benchmark runs with
``--trace 1``.
"""

import importlib
import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("benchmark_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_modules_import():
    for module in tracing.MODULES:
        importlib.import_module(f"asymqkd.{module}")


@pytest.mark.parametrize("module, attr", sorted(tracing.TRACED.values()))
def test_traced_attribute_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"asymqkd.{module}"), attr))
