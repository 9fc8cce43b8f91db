#!/usr/bin/env python3
"""Check that two source trees of asymqkd print the same bytes.

    python3 scripts/compare_outputs.py [--python PY] PARENT_SRC CHANGE_SRC

Each argument is the ``src`` directory of a checkout (the directory that
holds the ``asymqkd`` package); give the same one twice with ``--python``
to compare one tree across interpreters.  Every argv of ``ARGVS`` goes through
``asymqkd.cli.main`` of each tree, once as given and once with ``--out``
added; the exit code, stdout, stderr and the ``--out`` file must all match.
An exception other than ``SystemExit`` counts as exit code 1, with its
type and message as stderr.
Each tree runs in its own subprocess, which imports the package from that
tree alone: the parent under this interpreter, the change under ``PY``
(default: this one too).  An interpreter without numpy passes over the
``sweep-fig2`` argvs, which need it.  Prints ``same``, ``DIFF`` or ``skip``
per argv and exits 1 on any difference.  The whole list takes a few
seconds per tree.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from typing import Optional

_CHANNEL = ["--qx", "0.10", "--qy", "0.03", "--qz", "0.02"]
_NOISELESS = ["--qx", "0", "--qy", "0", "--qz", "0"]


def _simulate(*args: str, channel=_CHANNEL) -> list[str]:
    return ["simulate", *channel, *args]


ARGVS = [
    # Runs to completion.
    _simulate("--n", "1000000", "--seed", "0", "--abort-sigma", "5"),
    _simulate("--n", "1000000", "--seed", "20040406", "--abort-sigma", "5"),
    _simulate("--n", "1000000000000", "--abort-sigma", "5"),  # 8 * 10^12 transmitted qubits
    # The largest parity group, drawn as counts over its 171,700 compositions.
    _simulate("--n", "1000000000000", "--p-group", "99", "--abort-sigma", "5"),
    # No Y error: a flag of probability 0 in every basis.
    _simulate("--n", "1000000", "--seed", "5", "--abort-sigma", "5",
              channel=["--qx", "0.1", "--qy", "0", "--qz", "0.02"]),
    # Almost no noise: the no-flag probability is 1 - 2e-12.
    _simulate("--n", "1000000000000", "--abort-sigma", "5",
              channel=["--qx", "1e-12", "--qy", "0", "--qz", "1e-12"]),
    _simulate("--n", "100", "--seed", "1"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "ZX"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "XY"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "Z,X,Y"),
    # Repeated attack bases add their weights: ZZ prints what Z does, bar the eve line.
    _simulate("--n", "70001", "--seed", "3", "--eve", "Z"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "ZZ"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "ZZX"),  # unequal weights, by repeats
    # An attacker in X alone and in Y alone: each basis's relabelling of the channel on its own.
    _simulate("--n", "70001", "--seed", "3", "--eve", "X"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "Y"),
    _simulate("--n", "70001", "--seed", "3", "--eve", "z, x"),  # prints what ZX does
    _simulate("--n", "5000", "--seed", "21", "--eve", "none"),
    _simulate("--n", "300000", "--seed", "9", "--eve", "ZXY", "--abort-sigma", "1000"),
    # Every protocol setting given, none at its default.
    _simulate("--n", "20000", "--seed", "4", "--delta", "2.5", "--b-rounds", "1", "--p-group", "5",
              "--target", "0.1", "--abort-sigma", "4"),
    _simulate("--n", "20000", "--seed", "4", "--b-rounds", "0"),
    _simulate("--n", "20000", "--seed", "4", "--b-rounds", "1"),
    _simulate("--n", "20000", "--seed", "4", "--b-rounds", "3"),
    _simulate("--n", "20000", "--seed", "4", "--b-rounds", "5"),
    _simulate("--n", "20000", "--seed", "4", "--b-rounds", "20"),
    _simulate("--n", "20000", "--seed", "4", "--p-group", "1"),
    _simulate("--n", "20000", "--seed", "4", "--p-group", "5"),
    _simulate("--n", "20000", "--seed", "4", "--p-group", "99"),
    _simulate("--n", "99", "--b-rounds", "0", "--p-group", "99"),  # one group at the bound
    _simulate("--n", "20000", "--seed", "4", "--p-group", "9", "--abort-sigma", "1000"),
    # One argv per abort reason, in the order run_protocol checks them.
    _simulate("--n", "1000", "--delta", "0.001", "--seed", "1", channel=_NOISELESS),
    _simulate("--n", "1000", "--delta", "0.01", "--seed", "6", channel=_NOISELESS),
    _simulate("--n", "1000", "--delta", "0.5", "--seed", "0", channel=_NOISELESS),
    _simulate("--n", "20000", "--seed", "22", "--eve", "ZX"),
    _simulate("--n", "1000", "--b-rounds", "1000000000"),
    _simulate("--n", "6", "--seed", "36", "--abort-sigma", "1000",
              channel=["--qx", "0.2", "--qy", "0", "--qz", "0.2"]),
    _simulate("--n", "300", "--p-group", "99"),  # two rounds leave at most 75 bits
    # Parity groups above the bound of 99 (exit 2).
    _simulate("--n", "1000", "--p-group", "100000001"),
    _simulate("--n", "1000", "--p-group", "101"),
    # Parity groups that are even or below 1 (exit 2).
    _simulate("--n", "1000", "--p-group", "4"),
    _simulate("--n", "1000", "--p-group", "0"),
    _simulate("--n", "1000", "--p-group", "-3"),
    _simulate("--n", "1000", "--seed", "-1"),  # a negative seed (exit 2)
    # (6 + delta) * n transmitted qubits past 2^63.
    _simulate("--n", "10", "--delta", "1e18", channel=["--qx", "0.1", "--qy", "0", "--qz", "0.02"]),
    _simulate("--n", "4611686018427387904", channel=["--qx", "0.1", "--qy", "0", "--qz", "0.02"]),
    # The analytic subcommands.
    ["sweep-fig1"],
    ["sweep-fig1", "--grid", "0:3:0.5"],  # rows past ratio 2 carry error notes
    ["sweep-fig1", "--grid", "0:1:0.001", "--tol", "1e-10"],  # 2,002 thresholds
    ["sweep-fig1", "--grid=-1:1:0.25"],  # rows below ratio 0 carry error notes
    ["sweep-fig1", "--grid", "0:1e-320:1e-321"],  # subnormal ratios
    ["sweep-fig1", "--grid", "1e300:1.7e308:1e307"],  # huge ratios, all on re-entrant rays
    ["sweep-fig2"],
    # The rate_curves workload's argv at seed 0 and at seed 20040406: 25,001
    # points a case, in seven blocks of at most 4,096 rows.
    ["sweep-fig2", "--cases", "0.0,0.005,0.01,0.02", "--grid", "0.0:0.5:2e-05"],
    ["sweep-fig2", "--cases", "0.0,0.005,0.01,0.02",
     "--grid", "1.1122310348791343e-06:0.5:1.9999955510758606e-05"],
    # At q_y0 = 0 the first crossing cell is points 4095 and 4096, across a block edge.
    ["sweep-fig2", "--cases", "0.0,0.005", "--grid", "0.08577:0.1278:0.00001"],
    # Past total = 1, and cases above the grid's start: NaN rows cross a block boundary.
    ["sweep-fig2", "--cases", "0.0,0.005,0.01,0.02,0.3,0.7", "--grid", "0.0137:1.02:0.000131"],
    # Totals below 0 and past 1; negative rates, and rates below 1e-4 in exponent form.
    ["sweep-fig2", "--cases", "0.0,0.5,1.0", "--grid=-0.05:1.05:0.0007"],
    # Totals 2^-7 .. 2^-1 among the multiples of 2^-7: significand 2^52, the
    # irregular interval, in the band formatted without repr.
    ["sweep-fig2", "--cases", "0.0,0.01", "--grid", "0:0.5:0.0078125"],
    ["sweep-fig2", "--cases", "0.0", "--grid", "0:1e-300:1e-301"],  # tiny totals
    ["sweep-fig2", "--cases", "0.0", "--grid", "0:1e20:1e18"],  # huge totals, in exponent form
    # q_y rows of 3 or 4 adjacent floats a block (0.05, 0.2, 0.3, 0.07), a q_y0 on the
    # grid (a zero in the q_x row), and a subnormal q_y0.
    ["sweep-fig2", "--cases", "0.05,0.2,0.3,1e-310", "--grid", "0:1:0.001"],
    ["sweep-fig2", "--cases", "0.07,0.2,0.45,1e-310", "--grid", "0:1:0.0001"],
    # Cases outside [0, 1] (exit 2).
    ["sweep-fig2", "--cases", "0.0,1.5"],
    ["sweep-fig2", "--cases", "nan"],
    ["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.02"],
    # Four distinct nonzero components: the mixed six-state rate reads the X and Y relabellings.
    ["rates", "--qx", "0.10", "--qy", "0.03", "--qz", "0.02"],
    ["rates", "--family-ratio", "0.3", "--scale", "0.2"],
    # Family channels, each error component the exact ray's correctly rounded.
    ["rates", "--family-ratio", "1.0", "--scale", "0.3"],
    ["rates", "--family-ratio", "1.617041888556059", "--scale", "0.7851612110506287"],
    ["simulate", "--family-ratio", "0.26557031278685206", "--scale", "0.031395679761311475",
     "--n", "20000", "--seed", "1"],
    ["threshold", "--variant", "single-basis", "--family-ratio", "0.05"],
    # Symmetric channels: rate pairs tied in exact arithmetic, apart by round-off in floats.
    ["rates", "--qx", "0.042", "--qy", "0.042", "--qz", "0.042"],
    ["rates", "--qx", "0.062", "--qy", "0.062", "--qz", "0.062"],
    *(
        ["threshold", "--variant", variant, "--family-ratio", ratio]
        for variant in ("ybasis", "chau", "single-basis", "sixstate-separate")
        for ratio in ("0", "0.3", "1", "2")
    ),
    ["threshold", "--variant", "sixstate-separate", "--family-ratio", "1.0"],
    # Ratios at the ends of the float range: the exact ray has huge integers.
    ["threshold", "--variant", "ybasis", "--family-ratio", "1e308"],
    ["threshold", "--variant", "ybasis", "--family-ratio", "5e-324"],
    ["threshold", "--variant", "chau", "--family-ratio", "1e308"],
    # Usage errors (exit 2), and a negative zero that is a valid ratio and is echoed.
    *(["threshold", "--variant", "chau", "--family-ratio", ratio] for ratio in ("-1", "nan", "inf")),
    ["threshold", "--variant", "chau", "--family-ratio", "-0.0"],
    # Re-entrant rays: the threshold command reports the error and exits 1.
    ["threshold", "--variant", "ybasis", "--family-ratio", "2.5"],
    ["threshold", "--variant", "ybasis", "--family-ratio", "3998"],
    ["threshold", "--variant", "single-basis", "--family-ratio", "60"],
    ["threshold", "--variant", "sixstate-separate", "--family-ratio", "18"],
]


def _call(main, argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # uncaught, the command would exit 1 with a traceback
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _worker(src: str) -> None:
    """Run every argv against the package under ``src``; print the results as JSON."""
    import asymqkd
    from asymqkd.cli import main

    package = pathlib.Path(asymqkd.__file__).resolve()
    if pathlib.Path(src).resolve() not in package.parents:
        sys.exit(f"imported {package}, which is not under {src}")
    has_numpy = importlib.util.find_spec("numpy") is not None
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        out_path = os.path.join(tmp, "out")
        for argv in ARGVS:
            if argv[0] == "sweep-fig2" and not has_numpy:
                results.append(None)
                continue
            plain = _call(main, argv)
            with_out = _call(main, argv + ["--out", out_path])
            with_out["file"] = None  # no file when the argv fails before writing
            if os.path.exists(out_path):
                with open(out_path, encoding="utf-8") as fh:
                    with_out["file"] = fh.read()
                os.remove(out_path)
            results.append({"plain": plain, "with_out": with_out})
    json.dump(results, sys.stdout)


def _run_tree(src: str, python: str) -> list[Optional[dict]]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    run = subprocess.run(
        [python, os.path.abspath(__file__), "--worker", src],
        capture_output=True, text=True, env=env, check=False,
    )
    if run.returncode != 0:
        sys.exit(f"{src}: worker failed\n{run.stderr}")
    return json.loads(run.stdout)


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "--worker":
        _worker(argv[1])
        return 0
    python = sys.executable
    if len(argv) == 4 and argv[0] == "--python":
        python, argv = argv[1], argv[2:]
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = _run_tree(argv[0], sys.executable), _run_tree(argv[1], python)
    counts = {"same": 0, "DIFF": 0, "skip": 0}
    for args, old, new in zip(ARGVS, parent, change):
        verdict = "skip" if old is None or new is None else "same" if old == new else "DIFF"
        counts[verdict] += 1
        print(f"{verdict}  {' '.join(args)}")
    print(f"{counts['same']} same, {counts['DIFF']} differ, {counts['skip']} skipped")
    return 1 if counts["DIFF"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
