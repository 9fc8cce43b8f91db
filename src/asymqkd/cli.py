"""Command-line front end.

Five subcommands expose the library as reproducible experiments:

* ``rates``       one-way key rates plus the one-rejection two-way rate
* ``threshold``   total-noise threshold of one protocol variant
* ``sweep-fig1``  Y-basis vs baseline thresholds across channel shapes
* ``sweep-fig2``  rate-vs-noise curves with two-way crossing points
* ``simulate``    one seeded Monte Carlo protocol run

This module only parses arguments and formats output; the library
computes everything, the sweeps included (``sweep_fig1`` and
``fig2_blocks`` in ``asymqkd.threshold``).

Every output starts with ``#`` header lines carrying a schema version and
the fully resolved configuration (and seed where one is used), so a stored
file is self-describing and a rerun with the same flags is byte-identical.
Numbers are the bytes ``repr`` prints, which keeps golden files exact;
fractions, never percentages.  A grid is the progression (lo, step, count)
and no list of it is built: ``sweep-fig1`` writes each row as it comes, and
``sweep-fig2`` each block of rates, in bytes built by numpy
(``asymqkd._floatfmt``), keeping only its formatted totals, 24 B a grid point.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .channel import Basis, PauliRates, flip_rates
from .distill import SearchParams, modified_rate_one_bstep
from .keyrates import (
    rate_bb84_symmetrized,
    rate_single_basis,
    rate_sixstate_mixed,
    rate_sixstate_separate,
)
from .sim import EveModel, ProtocolParams, run_protocol
from .threshold import (
    ChannelFamily,
    NonMonotoneFamilyError,
    ProtocolVariant,
    _FIG2_BLOCK_ROWS,
    _grid_points,
    fig2_blocks,
    sweep_fig1,
    threshold_total_noise,
)

# Largest grid a sweep accepts, checked before any point is computed.
_MAX_GRID_POINTS = 10**7

def _add_channel_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("channel (q-triple or family form)")
    group.add_argument("--qx", type=float, help="sigma_x rate q_x0")
    group.add_argument("--qy", type=float, help="sigma_y rate q_y0")
    group.add_argument("--qz", type=float, help="sigma_z rate q_z0")
    group.add_argument("--family-ratio", type=float, metavar="R",
                       help="channel shape q_y0/q_x0 with q_x0 = q_z0")
    group.add_argument("--scale", type=float, help="total noise along the family ray")


def _resolve_channel(parser: argparse.ArgumentParser, args: argparse.Namespace) -> PauliRates:
    triple = (args.qx, args.qy, args.qz)
    if all(v is not None for v in triple):
        if args.family_ratio is not None or args.scale is not None:
            parser.error("give either --qx/--qy/--qz or --family-ratio/--scale, not both")
        try:
            return PauliRates.from_error_rates(args.qx, args.qy, args.qz)
        except ValueError as exc:
            parser.error(f"invalid channel: {exc}")
    if args.family_ratio is not None and args.scale is not None:
        try:
            return ChannelFamily.from_y_ratio(args.family_ratio).rates_at(args.scale)
        except ValueError as exc:
            parser.error(f"invalid channel family: {exc}")
    parser.error("channel required: --qx/--qy/--qz or --family-ratio with --scale")
    raise AssertionError  # parser.error exits


def _parse_grid(text: str) -> tuple[float, float, int]:
    """``--grid LO:HI:STEP`` as the progression (lo, step, count) of points lo + i * step."""
    try:
        lo_s, hi_s, step_s = text.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:step, got {text!r}")
    if not all(map(math.isfinite, (lo, hi, step))):
        raise argparse.ArgumentTypeError(f"grid bounds and step must be finite, got {text!r}")
    if step <= 0.0 or hi < lo:
        raise argparse.ArgumentTypeError(f"grid needs step > 0 and hi >= lo, got {text!r}")
    # Capped before flooring: hi - lo may overflow to inf.  The relative
    # slack absorbs the rounding of the division, so 0:0.5:2e-5 (ratio
    # 24999.999999999996) keeps its last point.  No step past hi is taken,
    # but lo + i * step may round past it: 0.1:0.7:0.2 ends at 0.7000000000000001.
    count = math.floor(min((hi - lo) / step, _MAX_GRID_POINTS) * (1.0 + 1e-9)) + 1
    if count > _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid must have at most {_MAX_GRID_POINTS} points, got {text!r}")
    if not math.isfinite(lo + (count - 1) * step):  # a finite HI, rounded past the float range
        raise argparse.ArgumentTypeError(f"grid must end at a finite point, got {text!r}")
    return lo, step, count


def _parse_tol(text: str) -> float:
    """``--tol``: positive and finite."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tol must be a number, got {text!r}")
    if not 0.0 < tol < math.inf:  # also rejects nan
        raise argparse.ArgumentTypeError(f"tol must be positive and finite, got {text!r}")
    return tol


def _parse_eve(text: str) -> Optional[EveModel]:
    if text.strip().lower() in ("none", ""):
        return None
    letters = [c for c in text.upper() if c not in ", "]
    try:
        return EveModel(map(Basis, letters))
    except ValueError:
        raise argparse.ArgumentTypeError(f"eve must be 'none' or bases from Z/X/Y, got {text!r}")


def _emit(blocks: Iterable[str], out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.writelines(blocks)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(blocks)


def _search_params(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Validate ``sweep-fig1 --target``, which only its header echoes."""
    try:
        SearchParams(target=args.target)
    except ValueError as exc:
        parser.error(f"invalid search parameters: {exc}")


def _cmd_rates(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    rates = _resolve_channel(parser, args)
    flips = flip_rates(rates)
    values = [
        ("bit_flip_rate", flips.p_x),
        ("phase_flip_rate", flips.p_z),
        ("rate_bb84_symmetrized", rate_bb84_symmetrized(rates)),
        ("rate_single_basis", rate_single_basis(rates)),
        ("rate_sixstate_mixed", rate_sixstate_mixed(rates)),
        ("rate_sixstate_separate", rate_sixstate_separate(rates)),
        ("rate_two_way_one_reject", modified_rate_one_bstep(rates)),
    ]
    lines = [
        "# schema: asymqkd.rates.v2",
        f"# config: q_i={rates.q_i!r} q_x={rates.q_x!r} q_y={rates.q_y!r} q_z={rates.q_z!r}",
        "quantity,value",
    ]
    lines.extend(f"{name},{value!r}" for name, value in values)
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_threshold(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    variant = ProtocolVariant(args.variant)
    try:
        family = ChannelFamily.from_y_ratio(args.family_ratio)
    except ValueError as exc:
        parser.error(f"invalid channel family: {exc}")
    header = [
        "# schema: asymqkd.threshold.v3",
        f"# config: variant={variant.value} family_ratio={args.family_ratio!r}",
    ]
    try:
        result = threshold_total_noise(family, variant)
    except NonMonotoneFamilyError as exc:
        _emit(["\n".join(header + [f"# error: {exc}"]) + "\n"], args.out)
        return 1
    lines = header + [
        "variant,family_ratio,threshold,bracket_low,bracket_high",
        f"{variant.value},{args.family_ratio!r},{result.threshold!r},"
        f"{result.bracket.low!r},{result.bracket.high!r}",
    ]
    _emit(["\n".join(lines) + "\n"], args.out)
    return 0


def _cmd_sweep_fig1(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _search_params(parser, args)
    lo, step, count = args.grid
    header = (
        "# schema: asymqkd.sweep_fig1.v1\n"
        f"# config: grid={args.grid_text} tol={args.tol!r} target={args.target!r}\n"
        "q_y0_over_q_x0,q_y0,Q_t0_ybasis,Q_t0_chau,note\n"
    )
    rows = (
        f"{row.y_ratio!r},{row.q_y0_at_threshold!r},{row.threshold_ybasis!r},"
        f"{row.threshold_chau!r},{(row.error or '').replace(',', ';')}\n"
        for row in sweep_fig1(lo + i * step for i in range(count))
    )
    _emit(chain([header], rows), args.out)
    return 0


def _parse_cases(parser: argparse.ArgumentParser, text: str) -> list[float]:
    """``--cases``: comma-separated q_y0 values; ``fig2_blocks`` checks their range."""
    cases = []
    for item in text.split(","):
        try:
            cases.append(float(item))
        except ValueError:
            parser.error(f"--cases: {item!r} is not a number")
    return cases


def _fig2_text(grid: tuple[float, float, int], cases: list[float], case_blocks) -> Iterator[str]:
    """Data rows of ``sweep-fig2``, a string per block of ``fig2_blocks``, then the crossings.

    A block is one ``uint8`` matrix with a row per grid point: q_y0, then
    a slot each for the total, the one-way and the two-way rate, each with
    its separator.  A slot holds the ``repr`` bytes of its value among NUL
    bytes, which are dropped.  The totals are formatted once for all cases.
    """
    import numpy as np

    from . import _floatfmt

    width = _floatfmt.WIDTH
    count = grid[2]
    size = min(count, _FIG2_BLOCK_ROWS)
    total_bytes = np.empty((count, width), np.uint8)
    for start in range(0, count, size):
        _floatfmt.write_reprs(_grid_points(grid, start, size), total_bytes[start:start + size])
    q_y0s = [repr(q_y0).encode() for q_y0 in cases]
    lead = max(map(len, q_y0s))
    rows = np.zeros((size, lead + 1 + 3 * (width + 1)), np.uint8)
    rows[:, lead] = ord(",")
    slots = rows[:, lead + 1:].reshape(size, 3, width + 1)
    slots[:, :, width] = np.frombuffer(b",,\n", np.uint8)
    crossings = []
    for q_y0, blocks in zip(q_y0s, case_blocks):
        rows[:, :lead] = 0
        rows[:, :len(q_y0)] = np.frombuffer(q_y0, np.uint8)
        stop = 0
        for block in blocks:  # at least one
            start, stop = stop, stop + block.one_way.size
            cells = slots[:stop - start, :, :width]
            cells[:, 0] = total_bytes[start:stop]
            _floatfmt.write_reprs(block.one_way, cells[:, 1])
            _floatfmt.write_reprs(block.two_way, cells[:, 2])
            yield rows[:stop - start].tobytes().translate(None, b"\0").decode("ascii")
        crossings.append(f"# crossing: q_y0={block.q_y0!r} total_noise="
                         f"{'none-in-grid' if block.crossing is None else repr(block.crossing)}\n")
    yield "".join(crossings)


def _cmd_sweep_fig2(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    cases = _parse_cases(parser, args.cases)
    try:
        blocks = fig2_blocks(cases, args.grid, _FIG2_BLOCK_ROWS)
    except ValueError as exc:  # a q_y0 outside [0, 1], checked before any work
        parser.error(f"--cases: {exc}")
    header = (
        "# schema: asymqkd.sweep_fig2.v1\n"
        f"# config: cases={args.cases} grid={args.grid_text}\n"
        "q_y0,total_noise,rate_one_way,rate_two_way\n"
    )
    _emit(chain([header], _fig2_text(args.grid, cases, blocks)), args.out)
    return 0


def _cmd_simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    rates = _resolve_channel(parser, args)
    try:
        params = ProtocolParams(**{
            name: getattr(args, name) for name in ProtocolParams._fields if hasattr(args, name)})
    except ValueError as exc:
        parser.error(f"invalid protocol parameters: {exc}")
    try:
        report = run_protocol(rates, params, seed=args.seed, eve=args.eve)
    except ValueError as exc:  # only the seed check can fail: args.eve is None or an EveModel
        parser.error(f"--{exc}")
    sys.stdout.write(report.to_text())
    if args.out is not None:
        _emit([report.to_csv()], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asymqkd",
        description="Key rates, distillation thresholds and Monte Carlo runs "
        "for QKD over asymmetric Pauli channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rates = sub.add_parser("rates", help="one-way and two-way key rates of a channel")
    _add_channel_flags(p_rates)
    p_rates.add_argument("--out", help="write CSV here instead of stdout")
    p_rates.set_defaults(func=_cmd_rates)

    p_thr = sub.add_parser("threshold", help="total-noise threshold of a protocol variant")
    p_thr.add_argument("--variant", required=True,
                       choices=[v.value for v in ProtocolVariant])
    p_thr.add_argument("--family-ratio", type=float, required=True, metavar="R",
                       help="channel shape q_y0/q_x0 with q_x0 = q_z0")
    p_thr.add_argument("--out")
    p_thr.set_defaults(func=_cmd_threshold)

    p_f1 = sub.add_parser("sweep-fig1", help="thresholds across q_y0/q_x0 shapes")
    p_f1.add_argument("--grid", type=str, default="0.0:1.0:0.05", metavar="LO:HI:STEP")
    p_f1.add_argument("--tol", type=_parse_tol, default=1e-4,
                      help="no effect (both thresholds are closed-form roots); "
                      "echoed in the header until its v2 schema")
    p_f1.add_argument("--target", type=float, default=SearchParams().target,
                      help="residual-error target of the (m, k) schedule witness; "
                      "echoed in the header, it does not change the thresholds")
    p_f1.add_argument("--out")
    p_f1.set_defaults(func=_cmd_sweep_fig1)

    p_f2 = sub.add_parser("sweep-fig2", help="rate-vs-noise curves and crossings")
    p_f2.add_argument("--cases", type=str, default="0.0,0.005,0.01,0.02",
                      help="comma-separated q_y0 values")
    p_f2.add_argument("--grid", type=str, default="0.0:0.5:0.0025", metavar="LO:HI:STEP")
    p_f2.add_argument("--out")
    p_f2.set_defaults(func=_cmd_sweep_fig2)

    p_sim = sub.add_parser("simulate", help="one seeded Monte Carlo protocol run")
    _add_channel_flags(p_sim)
    p_sim.add_argument("--n", type=int, default=10_000, help="number of key bits")
    p_sim.add_argument("--seed", type=int, default=0)
    settings = p_sim.add_argument_group("protocol settings", "default: that of asymqkd.ProtocolParams",
                                        argument_default=argparse.SUPPRESS)
    settings.add_argument("--delta", type=float)
    settings.add_argument("--b-rounds", type=int)
    settings.add_argument("--p-group", type=int)
    settings.add_argument("--target", type=float)
    settings.add_argument("--abort-sigma", type=float)
    p_sim.add_argument("--eve", type=_parse_eve, default=None,
                       help="'none', or bases e.g. ZX or Z,X,Y")
    p_sim.add_argument("--out", help="also write the CSV form here")
    p_sim.set_defaults(func=_cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses: built on the first call, then shared.

    Parsing leaves it unchanged (defaults are set at build time and ``main``
    writes only to the namespace), so sharing it cannot change any output.
    """
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if hasattr(args, "grid"):
        args.grid_text = args.grid
        try:
            args.grid = _parse_grid(args.grid)
        except argparse.ArgumentTypeError as exc:
            parser.error(str(exc))
    return args.func(parser, args)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
