"""End-to-end acceptance checks for the whole package.

Run ``pytest tests/test_acceptance.py -v -s`` to get one printed
PASS/FAIL line per criterion.  Each criterion is a separate test so a
failure pinpoints the broken guarantee; tolerances are stated inline.
"""

import math
import random
from fractions import Fraction

from asymqkd.channel import Basis, FlipRates, PauliRates, conjugate
from asymqkd.cli import main
from asymqkd.distill import b_step, modified_rate_one_bstep, p_step
from asymqkd.keyrates import (
    rate_bb84_symmetrized,
    rate_single_basis,
    rate_sixstate_mixed,
    rate_sixstate_separate,
)
from asymqkd.sim import EveModel, ProtocolParams, run_protocol
from asymqkd.threshold import ChannelFamily, ProtocolVariant, sweep_fig1, threshold_total_noise

from oracles import (
    enumerate_majority_error,
    enumerate_pair_rejection,
    enumerate_parity_bit_error,
    z_scores,
)

# Frozen outputs of scripts/derive_golden.py (independent 50-digit
# arithmetic): per q_y0 case, the total noise where the one-way rate hits
# zero and where the one-rejection two-way rate first overtakes it.
ONE_WAY_ZERO = {
    0.0: 0.22709219521934819,
    0.005: 0.21666066066451475,
    0.01: 0.21017316609086004,
    0.02: 0.20135844666027952,
}
TWO_WAY_CROSSING = {
    0.0: 0.12672899360905127,
    0.005: 0.12730008460303457,
    0.01: 0.1285123973631178,
    0.02: 0.1316571062255691,
}


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def test_1_threshold_endpoints():
    y = threshold_total_noise(
        ChannelFamily.from_y_ratio(0.0), ProtocolVariant.Y_BASIS_TWO_WAY
    )
    c = threshold_total_noise(
        ChannelFamily.from_y_ratio(1.0), ProtocolVariant.CHAU_BASELINE
    )
    ok = abs(y.threshold - 0.500) <= 0.005 and abs(c.threshold - 0.414) <= 0.005
    check(
        "1 threshold endpoints",
        ok,
        f"Y-frame protocol at q_y0=0: {y.threshold:.6f} (want 0.500 +/- 0.005); "
        f"equal-mixture baseline, symmetric: {c.threshold:.6f} (want 0.414 +/- 0.005)",
    )


def test_2_threshold_sweep_shape():
    ratios = [i / 19 for i in range(20)]
    rows = list(sweep_fig1(ratios))
    assert all(row.error is None for row in rows), [row.error for row in rows]
    dominated = all(
        row.threshold_ybasis > row.threshold_chau for row in rows if row.y_ratio < 1.0
    )
    chau_values = [row.threshold_chau for row in rows]
    spread = max(chau_values) - min(chau_values)
    min_gap = min(
        row.threshold_ybasis - row.threshold_chau for row in rows if row.y_ratio < 1.0
    )
    ok = dominated and spread < 0.02
    check(
        "2 threshold sweep shape",
        ok,
        f"20-point ratio grid: Y-frame threshold above baseline wherever q_y0 < q_x0 "
        f"(min gap {min_gap:.6f}); baseline spread {spread:.6f} (want < 0.02)",
    )


def test_3_rate_dominance():
    rng = random.Random(314159)
    worst_pair = worst_six = 0.0
    for _ in range(1000):
        raw = [rng.random() for _ in range(4)]
        total = sum(raw)
        rates = PauliRates(*(v / total for v in raw))
        worst_pair = max(worst_pair, rate_bb84_symmetrized(rates) - rate_single_basis(rates))
        worst_six = max(worst_six, rate_sixstate_mixed(rates) - rate_sixstate_separate(rates))
    # Equality exactly on the symmetry sets: p_x = p_z for the first pair,
    # a fully symmetric error triple for the second.
    eq_pair = eq_six = 0.0
    for _ in range(200):
        a, b = rng.random() / 4, rng.random() / 4
        balanced = PauliRates.from_error_rates(a, b, a)
        eq_pair = max(
            eq_pair,
            abs(rate_single_basis(balanced) - rate_bb84_symmetrized(balanced)),
        )
        c = rng.random() / 4
        depolarizing = PauliRates.from_error_rates(c, c, c)
        eq_six = max(
            eq_six,
            abs(rate_sixstate_separate(depolarizing) - rate_sixstate_mixed(depolarizing)),
        )
    ok = worst_pair <= 1e-12 and worst_six <= 1e-12 and eq_pair <= 1e-10 and eq_six <= 1e-10
    check(
        "3 rate dominance",
        ok,
        f"1000 random channels: worst violation {max(worst_pair, worst_six):.2e} "
        f"(want <= 1e-12); equality residue on symmetry sets "
        f"{max(eq_pair, eq_six):.2e} (want <= 1e-10)",
    )


def test_4_map_vs_oracle():
    rng = random.Random(271828)
    worst_b = 0.0
    for _ in range(100):
        while True:
            raw = [rng.randrange(0, 1000) for _ in range(4)]
            if sum(raw) > 0 and raw[0] + raw[3] > 0:
                break
        total = sum(raw)
        exact = tuple(Fraction(v, total) for v in raw)
        expected, survival = enumerate_pair_rejection(exact)
        outcome = b_step(PauliRates(*(float(q) for q in exact)))
        worst_b = max(
            worst_b,
            abs(outcome.survival - float(survival)),
            *(
                abs(got - float(want))
                for got, want in zip(outcome.rates_out.as_tuple(), expected)
            ),
        )
    mixed = b_step(PauliRates(0.25, 0.25, 0.25, 0.25))
    survival_ok = abs(mixed.survival - 0.25) <= 1e-15

    worst_p = 0.0
    for k in (1, 3, 5, 7):
        for _ in range(25):
            p_x, p_z = rng.random(), rng.random()
            result = p_step(FlipRates(p_x, p_z), k)
            worst_p = max(
                worst_p,
                abs(result.p_x - enumerate_parity_bit_error(p_x, k)),
                abs(result.p_z - enumerate_majority_error(p_z, k)),
            )
    ok = worst_b <= 1e-12 and worst_p <= 1e-12 and survival_ok
    check(
        "4 map vs oracle",
        ok,
        f"pair rejection vs 16-case enumeration on 100 channels: max dev {worst_b:.2e}; "
        f"fully mixed survival = {mixed.survival} (want 0.25); "
        f"parity/majority vs 2^k enumeration, k in 1..7: max dev {worst_p:.2e} "
        f"(all want <= 1e-12)",
    )


def test_5_monte_carlo_convergence():
    channel = PauliRates(0.85, 0.10, 0.03, 0.02)
    report = run_protocol(channel, ProtocolParams(n=1_000_000), seed=20260814)
    z = z_scores(report)
    max_z = max(abs(v) for v in z.values())
    corrupted = report._replace(
        rows=tuple(r._replace(analytic=r.analytic + 0.02) for r in report.rows)
    )
    control_fails = max(abs(v) for v in z_scores(corrupted).values()) > 3.0
    ok = (not report.aborted) and max_z <= 3.0 and control_fails
    check(
        "5 Monte Carlo convergence",
        ok,
        f"10^6-bit run, {len(z)} compared quantities, max |z| = {max_z:.2f} "
        f"(want <= 3); corrupted-analytics control fails: {control_fails}",
    )


def test_6_two_way_rate_advantage():
    def curves(q_y0, total):
        q_x0 = (total - q_y0) / 2.0
        rates = PauliRates.from_error_rates(q_x0, q_y0, q_x0)
        return rate_sixstate_separate(rates), modified_rate_one_bstep(
            conjugate(rates, Basis.Y)
        )

    details = []
    ok = True
    for q_y0, want_cross in TWO_WAY_CROSSING.items():
        lo, hi = q_y0 + 0.01, 0.3
        step = 0.005
        cross = None
        prev_gap, prev_t = None, lo
        t = lo
        while t <= hi:
            one, two = curves(q_y0, t)
            gap = two - one
            if prev_gap is not None and prev_gap <= 0.0 < gap:
                a, b = prev_t, t
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    one_m, two_m = curves(q_y0, mid)
                    if two_m - one_m > 0.0:
                        b = mid
                    else:
                        a = mid
                cross = 0.5 * (a + b)
                break
            prev_gap, prev_t = gap, t
            t += step
        zero = ONE_WAY_ZERO[q_y0]
        case_ok = (
            cross is not None
            and abs(cross - want_cross) <= 1e-9
            and cross < zero
            and curves(q_y0, 0.5 * (cross + zero))[1]
            > curves(q_y0, 0.5 * (cross + zero))[0]
        )
        ok = ok and case_ok
        if cross is not None:
            details.append(f"q_y0={q_y0}: crossing {cross:.6f} < one-way zero {zero:.6f}")
        else:
            details.append(f"q_y0={q_y0}: no crossing found")
    check(
        "6 two-way rate advantage",
        ok,
        "; ".join(details) + " (crossings match goldens to 1e-9)",
    )


def test_7_eavesdropper_visibility():
    clean = PauliRates(1.0, 0.0, 0.0, 0.0)
    params = ProtocolParams(n=100_000)

    two = run_protocol(clean, params, seed=7, eve=EveModel((Basis.Z, Basis.X)))
    two_rows = {r.stage: r for r in two.rows if r.quantity == "bit_error"}
    dev_two = 0.0
    for basis in ("Z", "X"):
        r = two_rows[f"check:{basis}"]
        sigma = math.sqrt(0.25 * 0.75 / r.count)
        dev_two = max(dev_two, abs(r.empirical - 0.25) / sigma)

    three = run_protocol(
        clean, params, seed=8, eve=EveModel((Basis.Z, Basis.X, Basis.Y))
    )
    three_rows = {r.stage: r for r in three.rows if r.quantity == "bit_error"}
    third = 1.0 / 3.0
    dev_three = 0.0
    for basis in ("Z", "X", "Y"):
        r = three_rows[f"check:{basis}"]
        sigma = math.sqrt(third * (1 - third) / r.count)
        dev_three = max(dev_three, abs(r.empirical - third) / sigma)

    ok = two.aborted and three.aborted and dev_two <= 3.0 and dev_three <= 3.0
    check(
        "7 eavesdropper visibility",
        ok,
        f"Z/X intercept-resend: matched-basis error within {dev_two:.2f} sigma of 0.25, "
        f"aborted={two.aborted}; Z/X/Y: within {dev_three:.2f} sigma of 1/3, "
        f"aborted={three.aborted}",
    )


def test_8_cli_determinism(tmp_path, capsys):
    invocations = [
        ["rates", "--qx", "0.1", "--qy", "0.02", "--qz", "0.05"],
        ["sweep-fig2", "--cases", "0.0", "--grid", "0.0:0.25:0.05"],
        ["simulate", "--qx", "0.05", "--qy", "0.03", "--qz", "0.02",
         "--n", "20000", "--seed", "42"],
    ]
    identical = True
    for argv in invocations:
        outputs = []
        for run in range(2):
            out = tmp_path / f"{argv[0]}_{run}.csv"
            code = main(argv + ["--out", str(out)])
            assert code == 0
            stdout = capsys.readouterr().out
            outputs.append((stdout, out.read_bytes()))
        identical = identical and outputs[0] == outputs[1]
    check(
        "8 CLI determinism",
        identical,
        f"{len(invocations)} invocations repeated with fixed seeds and flags: "
        f"stdout and files byte-identical: {identical}",
    )
