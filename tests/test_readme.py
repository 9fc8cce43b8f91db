"""The Python quick start of README.md runs as written."""

import pathlib

from oracles import fresh_interpreter

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_python_quick_start_runs():
    section = README.read_text(encoding="utf-8").split("## Python quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = fresh_interpreter(block)
    assert "\naborted = false\n" in out
