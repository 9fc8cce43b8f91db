import argparse
import importlib.util
import itertools
import math
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import asymqkd
from asymqkd import cli
from asymqkd.channel import Basis, PauliRates
from asymqkd.cli import main
from asymqkd.sim import EveModel, ProtocolParams, run_protocol
from asymqkd.threshold import ProtocolVariant, _grid_points
from oracles import fig2_csv, fresh_interpreter

GOLDEN = pathlib.Path(__file__).parent / "golden"

# (name, argv) pairs whose outputs are pinned byte for byte.  Regenerate a
# file by running the listed invocation with --out pointing at it, but only
# when the change in output is intended and understood.
GOLDEN_CASES = [
    (
        "rates_asym.csv",
        ["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.02"],
    ),
    (
        "threshold_single_basis.csv",
        ["threshold", "--variant", "single-basis", "--family-ratio", "0.0"],
    ),
    (
        "sweep_fig1_coarse.csv",
        ["sweep-fig1", "--grid", "0.0:1.0:0.5", "--tol", "1e-3"],
    ),
    (
        "sweep_fig2_coarse.csv",
        ["sweep-fig2", "--cases", "0.0,0.02", "--grid", "0.0:0.3:0.01"],
    ),
    (  # reaches the parity step
        "simulate_small.csv",
        ["simulate", "--qx", "0.10", "--qy", "0.03", "--qz", "0.02", "--n", "20000", "--seed", "4"],
    ),
    (  # the attacker overlay, up to the abort at the Z check
        "simulate_attacked.csv",
        ["simulate", "--qx", "0.10", "--qy", "0.03", "--qz", "0.02", "--n", "20000",
         "--seed", "22", "--eve", "ZX"],
    ),
]


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(tmp_path, name, argv):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_stdout_matches_file_output(tmp_path, capsys):
    argv = ["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.02"]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    assert stdout.encode() == (GOLDEN / "rates_asym.csv").read_bytes()


def _run_module(module, argv, **env_vars):
    src = str(pathlib.Path(asymqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p), **env_vars)
    run = subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, env=env, timeout=60,
        check=False,
    )
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


def test_module_entry_point_matches_in_process_main(capsys):
    argv = ["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.1"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert _run_module("asymqkd", argv) == expected


def test_cli_module_entry_point_matches_the_package_one():
    argv = ["rates", "--qx", "0.1", "--qy", "0", "--qz", "0.02"]
    package_out = _run_module("asymqkd", argv)
    assert package_out  # an entry point that prints nothing would match itself
    assert _run_module("asymqkd.cli", argv) == package_out


@pytest.mark.parametrize("name", ["simulate_small.csv", "simulate_attacked.csv"])
def test_simulate_bytes_do_not_depend_on_the_hash_seed(tmp_path, name):
    # The streams are seeded with strings, which random hashes with SHA-512,
    # not with the per-process hash().
    argv = dict(GOLDEN_CASES)[name]
    for hash_seed in ("0", "1"):
        out = tmp_path / f"{hash_seed}.csv"
        _run_module("asymqkd", [*argv, "--out", str(out)], PYTHONHASHSEED=hash_seed)
        assert out.read_bytes() == (GOLDEN / name).read_bytes(), hash_seed


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    # main reuses one parser per process: every golden command, run twice in
    # interleaved order with a usage error and an --eve run in between, must
    # give the bytes it gives on a fresh parser.
    attacked = dict(GOLDEN_CASES)["simulate_attacked.csv"]
    assert attacked[-2:] == ["--eve", "ZX"]
    unattacked = attacked[:-2]
    cli._parser.cache_clear()
    runs = itertools.count()

    def run(argv):
        out = tmp_path / f"{next(runs)}.csv"
        assert main(argv + ["--out", str(out)]) == 0
        return capsys.readouterr().out, out.read_bytes()

    unattacked_first = run(unattacked)
    stdout_first = {}
    for _ in range(2):
        for name, argv in GOLDEN_CASES:
            stdout, written = run(argv)
            assert written == (GOLDEN / name).read_bytes(), name
            assert stdout_first.setdefault(name, stdout) == stdout, name
            with pytest.raises(SystemExit) as exc:
                main(["sweep-fig1", "--grid", "0:1:0"])
            assert exc.value.code == 2
            assert "step > 0" in capsys.readouterr().err
            assert run(attacked)[1] == (GOLDEN / "simulate_attacked.csv").read_bytes()
            assert run(unattacked) == unattacked_first


def test_main_builds_its_parser_once(monkeypatch):
    # A fresh process still pays for one full build, which the set-up probe times.
    assert cli.build_parser() is not cli.build_parser()
    build_parser, built = cli.build_parser, []

    def counting_build_parser():
        built.append(None)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    assert main(["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.02"]) == 0
    assert main(["threshold", "--variant", "chau", "--family-ratio", "1.0"]) == 0
    assert main(["sweep-fig1", "--grid", "0.0:1.0:0.5"]) == 0
    assert len(built) == 1
    cli._parser.cache_clear()


# Commands that compute with scalars and integers only, with their exit codes.
SCALAR_ARGVS = [
    (["--help"], 0),
    (["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.02"], 0),
    *((["threshold", "--variant", v.value, "--family-ratio", "1.0"], 0) for v in ProtocolVariant),
    (["threshold", "--variant", "ybasis", "--family-ratio", "2.5"], 1),  # re-entrant
    (["sweep-fig1"], 0),
]


def test_compare_outputs_argvs_parse():
    # An argv that names a deleted flag fails here, not only when the script runs.
    path = pathlib.Path(__file__).parents[1] / "scripts" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    compare_outputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(compare_outputs)
    for argv in compare_outputs.ARGVS:
        cli._parser().parse_args(argv)


def test_numpy_loads_only_for_the_array_commands(tmp_path):
    # Only sweep-fig2 computes with arrays: simulate, with or without an
    # attacker, draws from the package's own sampler and loads neither numpy
    # nor numpy.random.  Start-up also loads neither dataclasses nor inspect,
    # which it would pay for on every command; pytest loads both, hence the
    # fresh interpreter.
    array_cases = [case for case in GOLDEN_CASES if case[0].startswith("simulate_")]
    array_cases += [case for case in GOLDEN_CASES if case[0] == "sweep_fig2_coarse.csv"]
    out = fresh_interpreter(f"""
import contextlib, io, sys
from asymqkd.cli import build_parser, main
build_parser()
print([name for name in ("numpy", "asymqkd._floatfmt", "dataclasses", "inspect")
       if name in sys.modules])
for argv, want in {SCALAR_ARGVS!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    print(argv[0], code == want, "numpy" in sys.modules, "asymqkd._floatfmt" in sys.modules)
for name, argv in {array_cases!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", {str(tmp_path)!r} + "/" + name])
    print(name, code, "numpy" in sys.modules, "numpy.random" in sys.modules)
""")
    assert out.splitlines() == [
        "[]",
        *(f"{argv[0]} True False False" for argv, _ in SCALAR_ARGVS),
        "simulate_small.csv 0 False False",
        "simulate_attacked.csv 0 False False",
        "sweep_fig2_coarse.csv 0 True False",
    ]
    for name, _ in array_cases:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_simulate_runs_where_numpy_cannot_be_imported(tmp_path):
    # A None entry in sys.modules makes every import of numpy raise ImportError.
    name, argv = GOLDEN_CASES[4]
    assert name == "simulate_small.csv"
    out = tmp_path / name
    fresh_interpreter(f"""
import sys
sys.modules["numpy"] = None
from asymqkd.cli import main
assert main({argv!r} + ["--out", {str(out)!r}]) == 0
""")
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_rates_family_form_matches_triple_form(tmp_path):
    # 0.375/3 = 0.125 is exact in binary, so the two input paths must
    # resolve to the identical channel and the identical bytes.
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["rates", "--family-ratio", "1.0", "--scale", "0.375", "--out", str(a)])
    main(["rates", "--qx", "0.125", "--qy", "0.125", "--qz", "0.125", "--out", str(b)])
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("q", ["0.05", "0.042", "0.062"])
def test_rates_symmetric_channel_prints_tied_rates(capsys, q):
    # Each pair is equal in exact arithmetic; at 0.042 and 0.062 the floats
    # differ by round-off, so the output prints the rows and no difference.
    assert main(["rates", "--qx", q, "--qy", q, "--qz", q]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# schema: asymqkd.rates.v2"
    assert not any(line.startswith("#") for line in lines[2:])
    rate = {name: float(value) for name, value in (line.split(",") for line in lines[3:])}
    assert rate["rate_single_basis"] == pytest.approx(rate["rate_bb84_symmetrized"], abs=1e-12)
    assert rate["rate_sixstate_separate"] == pytest.approx(rate["rate_sixstate_mixed"], abs=1e-12)


class TestSweepFig2Blocks:
    """Block-wise rows against the scalar per-point oracle, byte for byte.

    Both grids run past total = 1 and start below some q_y0, so NaN rows
    fall inside and across block boundaries.
    """

    def test_many_small_blocks_to_stdout(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_FIG2_BLOCK_ROWS", 16)
        cases, grid = "0.0,0.02,0.3,1.0", "0.0:1.05:0.005"
        assert main(["sweep-fig2", "--cases", cases, "--grid", grid]) == 0
        assert capsys.readouterr().out == fig2_csv(cases, grid)

    def test_crossing_between_two_blocks(self, monkeypatch, capsys):
        # At q_y0 = 0 the gap first turns positive between points 4095 and
        # 4096: the last point of one block and the first of the next, at 16
        # rows a block as at the default 4096.  At 0.005 it turns inside a block.
        monkeypatch.setattr(cli, "_FIG2_BLOCK_ROWS", 16)
        cases, grid = "0.0,0.005", "0.08577:0.1278:0.00001"
        assert main(["sweep-fig2", "--cases", cases, "--grid", grid]) == 0
        out = capsys.readouterr().out
        assert out == fig2_csv(cases, grid)
        gaps = [float(two) - float(one) for _, _, one, two in
                (line.split(",") for line in out.splitlines()[3:3 + 4204])]
        assert min(i for i in range(1, len(gaps)) if gaps[i] > 0.0 >= gaps[i - 1]) == 4096

    def test_default_block_size_to_file(self, tmp_path):
        cases, grid = "0.25", "0.0:1.0125:0.0001"
        out = tmp_path / "fig2.csv"
        assert main(["sweep-fig2", "--cases", cases, "--grid", grid, "--out", str(out)]) == 0
        assert out.read_text() == fig2_csv(cases, grid)

    def test_negative_totals_and_rates_to_stdout(self, monkeypatch, capsys):
        # Totals from below 0 to past 1: rows formatted by repr (nan, 0.0,
        # 1.0, |rate| < 1e-4 in exponent form) sit among negative rates and
        # cross the boundaries of the small blocks.
        monkeypatch.setattr(cli, "_FIG2_BLOCK_ROWS", 64)
        cases, grid = "0.0,0.5,1.0", "-0.05:1.05:0.0007"
        assert main(["sweep-fig2", "--cases", cases, f"--grid={grid}"]) == 0
        out = capsys.readouterr().out
        assert out == fig2_csv(cases, grid)
        values = [value for line in out.splitlines() if not line.startswith(("#", "q_y0"))
                  for value in line.split(",")[1:]]
        assert {"nan", "0.0", "1.0"} <= set(values)
        rates = values[1::3] + values[2::3]
        assert any(v.startswith("-0.") for v in rates) and any("e-" in v for v in rates)


class TestSimulateCli:
    ARGS = [
        "simulate", "--qx", "0.05", "--qy", "0.05", "--qz", "0.05",
        "--n", "5000", "--seed", "42",
    ]

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        text1 = capsys.readouterr().out
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        text2 = capsys.readouterr().out
        assert text1 == text2
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, capsys):
        main(self.ARGS)
        base = capsys.readouterr().out
        main(self.ARGS[:-1] + ["43"])
        other = capsys.readouterr().out
        assert base != other

    def test_abort_is_a_valid_outcome_with_zero_exit(self, capsys):
        code = main(self.ARGS + ["--eve", "ZX"])
        text = capsys.readouterr().out
        assert code == 0
        assert "aborted = true" in text
        assert "check error" in text

    @pytest.mark.parametrize("flags,reason", [
        (["--n", "1000", "--b-rounds", "1000000000"], "key exhausted before rejection round 10"),
        # Two rounds leave at most n / 4 = 75 bits, fewer than a group of 99.
        (["--n", "300", "--p-group", "99"], "key exhausted before parity step"),
    ])
    def test_huge_distillation_settings_finish_at_once(self, capsys, flags, reason):
        # No work or memory per round or per group member that the key never fills.
        start = time.perf_counter()
        code = main(["simulate", "--qx", "0.10", "--qy", "0.03", "--qz", "0.02", *flags])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert f"abort_reason = {reason}\n" in capsys.readouterr().out
        assert elapsed < 1.0

    def test_eve_match_prep_is_a_usage_error(self, capsys):
        # The attacker in the preparation basis was no attacker at all.
        for text in ("match", "match-prep", "match-prep-probe"):
            with pytest.raises(SystemExit) as exc:
                main(self.ARGS + ["--eve", text])
            assert exc.value.code == 2
            assert "eve must be 'none' or bases from Z/X/Y" in capsys.readouterr().err

    def test_eve_spellings(self):
        zx = cli._parse_eve("ZX")
        assert zx == EveModel((Basis.Z, Basis.X))
        assert cli._parse_eve("z, x") == cli._parse_eve("Z,X") == zx
        assert cli._parse_eve("none") is cli._parse_eve(" None ") is None

    SETTINGS = {"delta": 3.5, "b_rounds": 1, "p_group": 5, "target": 0.1, "abort_sigma": 4.0}  # none a default

    @staticmethod
    def _params_lines(text):
        return [line for line in text.splitlines() if line.startswith("params.")]

    def test_settings_default_to_protocol_params(self, capsys):
        assert main(self.ARGS) == 0
        lines = self._params_lines(capsys.readouterr().out)
        report = run_protocol(PauliRates(1.0, 0.0, 0.0, 0.0), ProtocolParams(5000), seed=0)
        assert lines == self._params_lines(report.to_text())

    @pytest.mark.parametrize("name", list(SETTINGS))
    def test_each_setting_overrides_its_default(self, capsys, name):
        value = self.SETTINGS[name]
        assert main(self.ARGS + ["--" + name.replace("_", "-"), repr(value)]) == 0
        lines = self._params_lines(capsys.readouterr().out)
        assert f"params.{name} = {value!r}" in lines
        report = run_protocol(PauliRates(1.0, 0.0, 0.0, 0.0), ProtocolParams(5000, **{name: value}), seed=0)
        assert lines == self._params_lines(report.to_text())

    def test_channel_clipped_at_validation_runs(self, capsys):
        # q_i = 1 - 1.0000000000001 is clipped to 0; the rest must then be
        # divided by what is kept, or q_x + q_y stays above 1.
        code = main(["simulate", "--qx", "0.5", "--qy", "0.5000000000001", "--qz", "0"])
        assert code == 0
        assert "aborted = " in capsys.readouterr().out

    def test_repeated_attack_bases_add_their_weights(self, capsys):
        # ZZ attacks in Z with weights 0.5 and 0.5: the same attacker as Z.
        lines = {}
        for bases in ("Z", "ZZ"):
            assert main(self.ARGS + ["--eve", bases]) == 0
            lines[bases] = capsys.readouterr().out.splitlines()
        assert "eve = bases=Z,Z;weights=0.5,0.5" in lines["ZZ"]
        assert "eve = bases=Z;weights=1.0" in lines["Z"]
        assert [line for line in lines["ZZ"] if not line.startswith("eve = ")] == [
            line for line in lines["Z"] if not line.startswith("eve = ")
        ]


class TestBadInput:
    def test_unnormalized_channel_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--qx", "0.9", "--qy", "0.4", "--qz", "0.2"])
        assert exc.value.code == 2

    def test_channel_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["rates"])
        assert exc.value.code == 2

    def test_both_channel_forms_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--qx", "0.1", "--qy", "0.0", "--qz", "0.0",
                  "--family-ratio", "1.0", "--scale", "0.1"])
        assert exc.value.code == 2

    def test_bad_grid_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-fig2", "--grid", "0.5:0.1:0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["sweep-fig1", "sweep-fig2"])
    @pytest.mark.parametrize("grid", ["0:nan:0.1", "0:inf:0.1", "-inf:0:0.1", "0:1:nan", "0:1:inf"])
    def test_non_finite_grid_exits_2(self, capsys, command, grid):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--grid={grid}"])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep-fig1", "sweep-fig2"])
    def test_oversized_grid_exits_2(self, capsys, command):
        # About 10^12 points: rejected before any of them is built.
        with pytest.raises(SystemExit) as exc:
            main([command, "--grid", "0:1:1e-12"])
        assert exc.value.code == 2
        assert "at most" in capsys.readouterr().err

    def test_grid_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID_POINTS", 5)
        assert cli._parse_grid("0:1:0.25") == (0.0, 0.25, 5)
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_grid("0:1:0.2")
        with pytest.raises(argparse.ArgumentTypeError):
            cli._parse_grid("-1e308:1e308:1")  # hi - lo overflows to inf

    def test_grid_never_passes_hi(self):
        assert cli._parse_grid("0:0.5:0.3") == (0.0, 0.3, 2)
        assert cli._parse_grid("0:1:0.6") == (0.0, 0.6, 2)

    def test_grid_keeps_hi_despite_division_round_off(self):
        # 0.5 / 2e-5 is 24999.999999999996 in floats.
        lo, step, count = cli._parse_grid("0:0.5:2e-5")
        assert count == 25001
        assert lo + (count - 1) * step == pytest.approx(0.5)
        # The point kept for HI is lo + i * step in floats, which may round past HI.
        grid = cli._parse_grid("0.1:0.7:0.2")
        assert _grid_points(grid, 0, 10).tolist() == [
            0.1, 0.30000000000000004, 0.5, 0.7000000000000001]

    @pytest.mark.parametrize("command", ["sweep-fig1", "sweep-fig2"])
    def test_grid_ending_past_the_float_range_exits_2(self, capsys, command):
        # A finite HI, but the third point, 2 * 8.98846567431158e307, rounds to inf.
        with pytest.raises(SystemExit) as exc:
            main([command, "--grid", "0:1.7976931348623157e308:8.98846567431158e307"])
        assert exc.value.code == 2
        assert "must end at a finite point" in capsys.readouterr().err

    @pytest.mark.parametrize("cases", ["0.0,abc", "-0.1", "nan", "1.5"])
    def test_bad_fig2_cases_exit_nonzero(self, cases):
        with pytest.raises(SystemExit) as exc:
            main(["sweep-fig2", "--cases", cases, "--grid", "0.0:0.3:0.1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cases,message", [
        ("0.0,1.5", "--cases: q_y0=1.5 outside [0, 1]"),
        ("nan", "--cases: q_y0=nan outside [0, 1]"),
        ("abc", "--cases: 'abc' is not a number"),
    ])
    def test_bad_fig2_cases_are_named(self, capsys, cases, message):
        with pytest.raises(SystemExit):
            main(["sweep-fig2", "--cases", cases, "--grid", "0.0:0.3:0.1"])
        assert capsys.readouterr().err.endswith(f"error: {message}\n")

    def test_bad_eve_argument_exits_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--qx", "0", "--qy", "0", "--qz", "0", "--eve", "Q"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["sweep-fig1", "--grid", "0.0:0.0:1.0"],
    ])
    def test_bad_target_exits_nonzero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--target", "0.7"])
        assert exc.value.code == 2
        assert "invalid search parameters" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep-fig1", "--grid", "0.0:0.0:1.0"],
        ["sweep-fig1"],
    ])
    @pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "abc"])
    def test_bad_tol_exits_2(self, capsys, argv, tol):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", tol])
        assert exc.value.code == 2
        assert "argument --tol: tol must be" in capsys.readouterr().err

    def test_threshold_has_no_tol(self, capsys):
        # Every threshold is bisected to adjacent floats or is a closed-form root.
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--variant", "single-basis", "--family-ratio", "0", "--tol", "1e-4"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tol 1e-4" in capsys.readouterr().err

    def test_threshold_has_no_target(self, capsys):
        # No threshold depends on the schedule search's residual-error target.
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--variant", "chau", "--family-ratio", "1.0", "--target", "0.7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --target 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize("ratio", ["-1", "nan", "inf"])
    def test_bad_family_ratio_exits_2(self, capsys, ratio):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--variant", "ybasis", f"--family-ratio={ratio}"])
        assert exc.value.code == 2
        assert "invalid channel family" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--abort-sigma", "nan"], ["--abort-sigma", "inf"], ["--delta", "nan"], ["--delta", "inf"],
        # (6 + delta) * n transmitted qubits past 2^63, the last one past the float range.
        ["--n", "10", "--delta", "1e18"], ["--n", str(2**62)], ["--n", "1" + "0" * 400],
    ])
    def test_non_finite_protocol_params_exit_2(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--qx", "0", "--qy", "0", "--qz", "0", *flags])
        assert exc.value.code == 2
        assert "invalid protocol parameters" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--qx", "0", "--qy", "0", "--qz", "0", "--seed", "-1"])
        assert exc.value.code == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    def test_bad_protocol_params_exit_nonzero(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--qx", "0", "--qy", "0", "--qz", "0", "--p-group", "2"])
        assert exc.value.code == 2

    def test_p_group_above_the_bound_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--qx", "0", "--qy", "0", "--qz", "0", "--p-group", "101"])
        assert exc.value.code == 2
        assert "invalid protocol parameters: p_group must be <= 99, got 101" in capsys.readouterr().err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(-1e308, 1e308), step=st.floats(5e-324, 1e308),
       intervals=st.integers(0, 300), rows=st.integers(1, 64))
@example(lo=0.0, step=2e-5, intervals=25_000, rows=4096)
@example(lo=0.1, step=0.2, intervals=3, rows=1)
def test_grid_blocks_are_the_floats_lo_plus_i_step(lo, step, intervals, rows):
    # However the progression is split into blocks, its points are those of
    # lo + i * step in Python floats, bit for bit.
    hi = min(lo + intervals * step, sys.float_info.max)
    try:
        grid = cli._parse_grid(f"{lo!r}:{hi!r}:{step!r}")
    except argparse.ArgumentTypeError:
        assume(False)
    count = grid[2]
    points = np.concatenate([_grid_points(grid, start, rows) for start in range(0, count, rows)])
    assert [p.hex() for p in points.tolist()] == [(lo + i * step).hex() for i in range(count)]


def test_default_sweep_fig1_has_one_chau_threshold(capsys):
    # The three-basis average puts every ray at a = 2/3: one exact root.
    assert main(["sweep-fig1"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[3:]]
    assert len(rows) == 21
    assert {row[3] for row in rows} == {"0.41458980337503154"}


def test_threshold_prints_a_one_way_bracket_of_adjacent_floats(capsys):
    assert main(["threshold", "--variant", "single-basis", "--family-ratio", "0"]) == 0
    row = capsys.readouterr().out.splitlines()[-1].split(",")
    threshold, low, high = map(float, row[2:])
    assert math.nextafter(low, 1.0) == high
    assert threshold in (low, high)  # the midpoint of adjacent floats rounds to one of them
    assert row[2].startswith("0.22005572887671")


def test_threshold_failure_reports_error_and_nonzero_exit(tmp_path):
    # Families dominated by sigma_y noise have no single feasibility flip
    # under the Y-frame protocol: one rejection round cancels the nearly
    # deterministic phase flip, so very high noise is usable again.
    out = tmp_path / "t.csv"
    code = main(["threshold", "--variant", "ybasis", "--family-ratio", "60",
                 "--out", str(out)])
    assert code == 1
    assert "# error:" in out.read_text()
