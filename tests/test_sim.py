import bisect
import inspect
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from asymqkd import sim
from asymqkd.channel import Basis, PauliRates
from asymqkd.sim import EveModel, ProtocolParams, run_protocol
from oracles import (
    BIT_FLAG,
    PHASE_FLAG,
    drawn_key_fold,
    exact_key_law,
    fresh_interpreter,
    per_qubit_report,
    permuted_role_counts,
    sample_categorical,
    sim_streams,
    transmit,
    z_scores,
)

NOISELESS = PauliRates(1.0, 0.0, 0.0, 0.0)
DEPOLARIZING = PauliRates(0.85, 0.05, 0.05, 0.05)
# Measures in Z, X and Y 3, 3 and 4 times in ten.  On the 0.85/0.10/0.03/0.02
# channel of the tests below its checks expect 0.389, 0.365 and 0.348, under
# the 0.45 abort ceiling, so attacked runs reach the parity step.
WEIGHTED = EveModel((Basis.Z,) * 3 + (Basis.X,) * 3 + (Basis.Y,) * 4)


def row(report, stage, quantity):
    for r in report.rows:
        if r.stage == stage and r.quantity == quantity:
            return r
    raise AssertionError(f"no row {stage}/{quantity} in {[ (r.stage, r.quantity) for r in report.rows]}")


class TestFrameTables:
    """The package's per-basis flag laws against the reference's hand-worked flag tables."""

    @pytest.mark.parametrize("pauli", range(4))
    def test_flag_laws_put_each_pauli_on_its_flags(self, pauli):
        # A faithful share w_b of the basis-b qubits carries the Pauli's
        # flags; the re-prepared rest has uniform, independent flags.
        one_hot = [0.0] * 4
        one_hot[pauli] = 1.0
        repeated = EveModel((Basis.Z,) * 2 + (Basis.X,) * 3 + (Basis.Z,) * 5)
        for eve, faithful in (
            (None, (1.0, 1.0, 1.0)),
            (repeated, (0.7, 0.3, 0.0)),
        ):
            laws = sim._flag_laws(PauliRates(*one_hot), eve)
            for code, share in enumerate(faithful):
                want = np.full(4, (1.0 - share) / 4.0)
                want[2 * BIT_FLAG[code][pauli] + PHASE_FLAG[code][pauli]] += share
                assert laws[code] == pytest.approx(want, abs=1e-15)


class _FixedUniforms:
    """Stands in for a Generator whose ``random`` returns chosen draws."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, size):
        assert size == self.u.size
        return self.u.copy()


@pytest.mark.parametrize("probs", [
    (0.85, 0.05, 0.07, 0.03),
    (0.0, 0.3, 0.0, 0.7),        # zero-weight categories, first and inner
    (0.5, 0.5, 0.0, 0.0),        # cumulative sum reaches 1 before the last entry
    (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
])
def test_categorical_sampling_matches_searchsorted(probs):
    cdf, u = _edge_uniforms(probs)
    want = np.searchsorted(cdf, u, side="right").astype(np.uint8)
    got = sample_categorical(_FixedUniforms(u), probs, u.size)
    assert got.dtype == np.uint8
    assert np.array_equal(got, want)


def _edge_uniforms(probs):
    """The cdf of ``probs`` (last edge pinned to 1) and uniforms on, next to and between its edges."""
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    cdf[-1] = 1.0
    edges = cdf[:-1]
    u = np.concatenate([
        edges,                                   # exactly on each edge
        np.nextafter(edges, -np.inf).clip(0.0),  # just below each edge
        [0.0, np.nextafter(1.0, 0.0)],
        np.random.default_rng(3).random(1000),
    ])
    return cdf, u[u < 1.0]  # Generator.random draws from [0, 1)


class TestDeterminism:
    def test_same_seed_is_byte_identical(self):
        params = ProtocolParams(n=2000)
        a = run_protocol(DEPOLARIZING, params, seed=5)
        b = run_protocol(DEPOLARIZING, params, seed=5)
        assert a.to_text() == b.to_text()
        assert a.to_csv() == b.to_csv()

    def test_report_does_not_depend_on_earlier_runs(self):
        # The parity rows' analytic phase error goes through
        # majority_phase_error, which must keep no state between runs.
        head = (
            "from asymqkd.channel import PauliRates\n"
            "from asymqkd.sim import ProtocolParams, run_protocol\n"
            "rates = PauliRates.from_error_rates(0.10, 0.03, 0.02)\n"
            "def run(k):\n"
            "    params = ProtocolParams(n=20000, p_group=k, abort_sigma=1000)\n"
            "    return run_protocol(rates, params, seed=4).to_text()\n"
        )
        alone = fresh_interpreter(head + "print(run(9))\n")
        after_k3 = fresh_interpreter(head + "run(3)\nprint(run(9))\n")
        assert after_k3 == alone

    def test_different_seed_differs(self):
        params = ProtocolParams(n=2000)
        a = run_protocol(DEPOLARIZING, params, seed=5)
        b = run_protocol(DEPOLARIZING, params, seed=6)
        assert a.to_csv() != b.to_csv()


class TestNoiselessRun:
    def test_everything_is_exact(self):
        report = run_protocol(NOISELESS, ProtocolParams(n=10_000), seed=1)
        assert not report.aborted
        for r in report.rows:
            if r.quantity in ("bit_error", "phase_error"):
                assert r.empirical == 0.0
                assert r.analytic == 0.0
        z = z_scores(report)
        assert all(abs(v) <= 3.0 for v in z.values()), z
        assert all(v == 0.0 for (_, quantity), v in z.items() if "error" in quantity), z
        assert report.final_bit_error == 0.0
        assert report.final_phase_error == 0.0
        assert report.goal_met
        assert report.final_rate_empirical == 1.0
        assert report.final_rate_analytic == 1.0

    def test_rejection_discards_nothing_but_pair_partners(self):
        report = run_protocol(NOISELESS, ProtocolParams(n=10_000), seed=1)
        for sc in report.stage_counts:
            if sc.stage.startswith("key:reject"):
                assert sc.n_kept == sc.n_in // 2


class TestAgainstAnalytics:
    def test_depolarizing_checks_converge(self):
        report = run_protocol(DEPOLARIZING, ProtocolParams(n=100_000), seed=11)
        assert not report.aborted
        for basis in "ZXY":
            r = row(report, f"check:{basis}", "bit_error")
            assert r.analytic == pytest.approx(0.10)
            assert abs(r.empirical - r.analytic) <= 3.0 * r.std_error

    def test_full_comparison_passes(self):
        report = run_protocol(
            PauliRates(0.85, 0.10, 0.03, 0.02), ProtocolParams(n=200_000), seed=0
        )
        assert not report.aborted
        z = z_scores(report)
        assert all(abs(v) <= 3.0 for v in z.values()), z

    def test_one_rejection_round_statistics(self):
        rates = PauliRates.from_error_rates(0.05, 0.0, 0.05)
        params = ProtocolParams(n=100_000, b_rounds=1, p_group=1)
        report = run_protocol(rates, params, seed=3)
        assert not report.aborted
        surv = row(report, "key:reject_1", "survivors")
        assert abs(surv.empirical - surv.analytic) <= 3.0 * surv.std_error
        for quantity in ("bit_error", "phase_error"):
            r = row(report, "key:reject_1", quantity)
            assert abs(r.empirical - r.analytic) <= 3.0 * r.std_error

    def test_negative_control_fails_the_comparison(self):
        report = run_protocol(DEPOLARIZING, ProtocolParams(n=50_000), seed=2)
        corrupted = report._replace(
            rows=tuple(r._replace(analytic=r.analytic + 0.02) for r in report.rows)
        )
        assert any(abs(v) > 3.0 for v in z_scores(corrupted).values())


class TestConservation:
    def test_every_stage_balances(self):
        report = run_protocol(
            PauliRates(0.85, 0.10, 0.03, 0.02), ProtocolParams(n=20_000), seed=9
        )
        assert not report.aborted
        stages = {sc.stage: sc for sc in report.stage_counts}
        assert stages["sift"].n_in == report.n_transmitted
        assert stages["sift"].n_kept == report.n_sifted
        for sc in report.stage_counts:
            assert sc.n_kept + sc.n_discarded == sc.n_in
        # rejection rounds and the parity step chain their inputs
        assert stages["key:reject_1"].n_in == report.params.n
        assert stages["key:reject_2"].n_in == stages["key:reject_1"].n_kept
        assert stages["key:parity"].n_in == stages["key:reject_2"].n_kept

    def test_sifted_by_basis_sums_to_sifted(self):
        report = run_protocol(DEPOLARIZING, ProtocolParams(n=5000), seed=4)
        assert sum(report.sifted_by_basis) == report.n_sifted


class TestStreamingTransmit:
    """The reference's transmit stage against its flag tables, and roles by arrival order."""

    @pytest.mark.parametrize("pauli", range(4))
    def test_errors_follow_the_flag_tables_without_an_attacker(self, pauli):
        one_hot = [0.0] * 4
        one_hot[pauli] = 1.0
        basis, error, phase = transmit(PauliRates(*one_hot), 1600, sim_streams(8), None)
        assert set(basis.tolist()) == {0, 1, 2}
        assert np.array_equal(error, np.array(BIT_FLAG)[basis, pauli])
        assert np.array_equal(phase, np.array(PHASE_FLAG)[basis, pauli])

    def test_roles_by_arrival_order(self):
        # Key: the first n Y sifted qubits.  Checks: the next Y qubits, and
        # the first Z and X ones.  Rejection pairs (0, 1), (2, 3), ... of the
        # survivors, and the parity step groups adjacent k.
        params = ProtocolParams(n=200, abort_sigma=1e9)
        report = per_qubit_report(DEPOLARIZING, params, seed=8)
        assert not report.aborted
        basis, error, phase = transmit(DEPOLARIZING, report.n_transmitted, sim_streams(8), None)
        n = params.n
        want = sim._split_counts(n, sim._CHECK_SPLIT)
        checks = {
            "Z": error[basis == 0][: want[0]],
            "X": error[basis == 1][: want[1]],
            "Y": error[basis == 2][n : n + want[2]],
        }
        for name, bits in checks.items():
            r = row(report, f"check:{name}", "bit_error")
            assert (r.count, r.empirical) == (bits.size, bits.mean())

        key = list(zip(error[basis == 2][:n].tolist(), phase[basis == 2][:n].tolist()))
        assert len(key) == n
        assert row(report, "key:transmit", "bit_error").empirical == sum(b for b, _ in key) / n
        assert row(report, "key:transmit", "phase_error").empirical == sum(p for _, p in key) / n
        for round_no in (1, 2):
            stage = f"key:reject_{round_no}"
            pairs = zip(key[0::2], key[1::2])  # an odd last bit has no partner
            key = [(b0, p0 ^ p1) for (b0, p0), (b1, p1) in pairs if b0 == b1]
            assert row(report, stage, "survivors").empirical == len(key)
            assert row(report, stage, "bit_error").empirical == sum(b for b, _ in key) / len(key)
            assert row(report, stage, "phase_error").empirical == sum(p for _, p in key) / len(key)

        k = params.p_group
        groups = [key[i : i + k] for i in range(0, len(key) - k + 1, k)]
        parities = [sum(b for b, _ in g) % 2 for g in groups]
        majorities = [sum(p for _, p in g) > k // 2 for g in groups]
        assert report.final_bit_error == sum(parities) / len(groups)
        assert report.final_phase_error == sum(majorities) / len(groups)


class TestAgainstTheInMemoryReport:
    """Every abort reason, and other distillation settings next to ``per_qubit_report``.

    The two paths draw different bits for a seed, so beside it the
    count-level report must only have the same rows and the same sizes
    of the stages whose size is fixed.
    """

    CHANNEL = PauliRates(0.85, 0.10, 0.03, 0.02)

    # A small delta leaves the expected pools only just above what the key
    # and the checks need, so some seeds fall short.
    ABORTS = {  # channel, params, seed, attacker, abort reason
        "sifted": (NOISELESS, dict(n=1000, delta=0.001), 1, None, "insufficient sifted bits"),
        "sifted-attacked": (NOISELESS, dict(n=1000, delta=0.001), 1,
                            EveModel((Basis.Z, Basis.X)), "insufficient sifted bits"),
        "key-pool": (NOISELESS, dict(n=1000, delta=0.01), 6, None,
                     "insufficient Y-basis sifted bits"),
        "check-pool": (NOISELESS, dict(n=1000, delta=0.5), 0, None,
                       "insufficient Y-basis check bits"),
        "check-error": (NOISELESS, dict(n=2000), 22, EveModel((Basis.Z, Basis.X)),
                        "check error in basis Z"),
        "rounds-20": (CHANNEL, dict(n=20_000, b_rounds=20), 4, None,
                      "key exhausted before rejection round 14"),
        "no-survivors": (PauliRates(0.6, 0.2, 0.0, 0.2), dict(n=6, abort_sigma=1000.0), 36, None,
                         "no key bits survived rejection round 2"),
        # Two rounds leave at most n / 4 = 75 bits, fewer than a group of 99.
        "parity": (CHANNEL, dict(n=300, p_group=99), 0, None,
                   "key exhausted before parity step"),
    }

    @pytest.mark.parametrize("case", list(ABORTS))
    def test_every_abort_reason(self, case):
        channel, kwargs, seed, eve, reason = self.ABORTS[case]
        got = run_protocol(channel, ProtocolParams(**kwargs), seed, eve)
        assert got.aborted
        assert got.abort_reason.startswith(reason), got.abort_reason

    @pytest.mark.parametrize("kwargs", [dict(b_rounds=0), dict(b_rounds=5), dict(p_group=5)])
    def test_other_distillation_settings(self, kwargs):
        params = ProtocolParams(n=20_000, **kwargs)
        got = run_protocol(self.CHANNEL, params, 4)
        want = per_qubit_report(self.CHANNEL, params, 4)
        assert not got.aborted and not want.aborted
        assert [(r.stage, r.quantity) for r in got.rows] == [(r.stage, r.quantity) for r in want.rows]
        fixed = ("sift", "check:Z", "check:X", "check:Y", "key:transmit")
        assert [r.count for r in got.rows if r.stage in fixed] == [
            r.count for r in want.rows if r.stage in fixed
        ]
        assert [sc.stage for sc in got.stage_counts] == [sc.stage for sc in want.stage_counts]
        z = z_scores(got)
        assert all(abs(v) <= 3.0 for v in z.values()), z


def test_peak_allocation_does_not_grow_with_n():
    # The key flags of the first two runs would take 2 MB and 20 MB as whole
    # arrays; at k = 99 the parity step's tables hold O(k^2) floats, for one
    # group or for billions.  The module docstring promises well under 1 MB.
    for kwargs in (
        dict(n=1_000_000),
        dict(n=10_000_000),
        dict(n=10**12, p_group=99),
        dict(n=99, b_rounds=0, p_group=99),
    ):
        params = ProtocolParams(abort_sigma=5.0, **kwargs)
        tracemalloc.start()
        try:
            report = run_protocol(PauliRates(0.85, 0.10, 0.03, 0.02), params, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not report.aborted, (kwargs, report.abort_reason)
        assert peak < 1e6, (kwargs, peak)


def _sweep_peak(command, grid, out, *args):
    """tracemalloc peak of one ``command --grid grid`` run written to ``out``."""
    from asymqkd.cli import main

    tracemalloc.start()
    try:
        assert main([command, *args, "--grid", grid, "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_fig2_peak_allocation_grows_by_under_32_bytes_per_point(tmp_path):
    # The grid is a progression and rates and rows are computed and written
    # a block at a time; what grows with the grid is its formatted totals,
    # 24 B a point.  The first call builds the formatter's tables.
    def peak(points):
        return _sweep_peak("sweep-fig2", f"0:0.5:{0.5 / points}", tmp_path / "fig2.csv",
                           "--cases", "0.01")

    peak(100)
    small, large = peak(20_000), peak(160_000)
    assert large - small < 32 * (160_000 - 20_000), (small, large)


def test_sweep_fig1_peak_allocation_grows_by_under_8_bytes_per_point(tmp_path):
    # Each row is computed and written as it comes; nothing grows with the grid.
    def peak(points):
        return _sweep_peak("sweep-fig1", f"0:1:{1 / points}", tmp_path / "fig1.csv")

    peak(100)
    small, large = peak(2_000), peak(16_000)
    assert large - small < 8 * (16_000 - 2_000), (small, large)


def test_pair_laws_are_those_of_adding_left_to_right(monkeypatch):
    # From Python 3.12 on sum() of floats is compensated; math.fsum stands
    # in for it, so the pair laws keep the bytes of Python 3.11.
    rng = random.Random(11)
    laws = []
    for _ in range(2000):
        weights = [rng.random() for _ in range(4)]
        laws.append([w / math.fsum(weights) for w in weights])
    want = [sim._pair_laws(law) for law in laws]
    monkeypatch.setattr(sim, "sum", math.fsum, raising=False)
    assert [sim._pair_laws(law) for law in laws] == want


def test_runs_at_a_trillion_key_bits():
    # 8 * 10^12 transmitted qubits: the key stage draws counts, whatever n is.
    params = ProtocolParams(n=10**12, abort_sigma=5.0)
    report = run_protocol(PauliRates(0.85, 0.10, 0.03, 0.02), params, seed=0)
    assert report.n_transmitted == 8 * 10**12
    assert not report.aborted, report.abort_reason
    z = z_scores(report)
    assert all(abs(v) <= 5.0 for v in z.values()), z


@pytest.mark.parametrize("law", [(0.4, 0.1, 0.3, 0.2), (0.0, 0.3, 0.0, 0.7)])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_composition_law_is_the_enumerated_one(law, k):
    # The counts over the compositions draw n00, then n01 of the rest, then
    # n10 of what is left, each from the binomial pmf of its chained share:
    # the product of the three must be the law of a group's composition.
    want = {}
    for flags in product(range(4), repeat=k):
        composition = tuple(flags.count(flag) for flag in range(4))
        want[composition] = want.get(composition, 0.0) + math.prod(law[flag] for flag in flags)
    s00, s01, s10, _ = sim._shares(list(law))
    got = {}
    for n00, p00 in enumerate(sim._binomial_pmf(k, s00)):
        for n01, p01 in enumerate(sim._binomial_pmf(k - n00, s01)):
            for n10, p10 in enumerate(sim._binomial_pmf(k - n00 - n01, s10)):
                got[(n00, n01, n10, k - n00 - n01 - n10)] = p00 * p01 * p10
    assert len(got) == len(want) == math.comb(k + 3, 3)
    assert got == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("n", [99, 83_357, 83_358, 10**12, 2**60 - 128])
def test_parity_step_forms_every_whole_group_at_the_bound(n):
    # From one group of k = 99 to the largest key, n // 99 groups and no fewer.
    params = ProtocolParams(n=n, b_rounds=0, p_group=99, abort_sigma=1e9)
    report = run_protocol(PauliRates(0.85, 0.10, 0.03, 0.02), params, seed=0)
    assert report.stage_counts[-1] == ("key:parity", n, n // 99, n - n // 99)


def _binomial_cells(n, p):
    """(lo, hi, probability) cells of Binomial(n, p) over the values within 12 SD of the mean.

    One cell per value where those are at most 20,001, with the pmf from the
    logarithm of the exact integer C(n, k) where min(k, n - k) <= 3000 and
    from ``math.lgamma`` otherwise, which only n <= 10^6 reaches here (a
    rounding below 1e-8 of a cell).  Otherwise 48 cells of the
    continuity-corrected normal law, whose error at those n (standard
    deviation >= 10^4, skewness <= 10^-4) is far below what the draws resolve.
    """
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    lo, hi = max(0, math.floor(mean - 12 * sd - 30)), min(n, math.ceil(mean + 12 * sd + 30))
    if hi - lo <= 20_000:
        log_p, log_q = math.log(p), math.log1p(-p)
        cells = []
        for k in range(lo, hi + 1):
            if min(k, n - k) <= 3000:
                log_c = math.log(math.comb(n, k))
            else:
                log_c = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            cells.append((k, k, math.exp(log_c + k * log_p + (n - k) * log_q)))
        return cells
    edges = [lo, *sorted({round(mean + sd * z / 8) for z in range(-24, 25)}), hi + 1]
    cdf = [0.5 * math.erfc(-(edge - 0.5 - mean) / (sd * math.sqrt(2.0))) for edge in edges]
    return [(a, b - 1, cb - ca) for a, b, ca, cb in zip(edges, edges[1:], cdf, cdf[1:]) if b > a]


def _assert_binomial_fit(draws, n, p):
    """Pearson's test of ``draws`` against Binomial(n, p) at the 10^-4 level.

    Adjacent cells are pooled until each expects at least 5 draws.  The
    level keeps the chance that any of the ~60 fits below fails on a
    correct sampler under 1 %.
    """
    assert all(0 <= x <= n for x in draws)
    pooled, open_cell = [], None
    for lo, hi, mass in _binomial_cells(n, p):
        open_cell = [lo, hi, mass] if open_cell is None else [open_cell[0], hi, open_cell[2] + mass]
        if open_cell[2] * len(draws) >= 5.0:
            pooled.append(open_cell)
            open_cell = None
    if open_cell is not None and pooled:
        pooled[-1] = [pooled[-1][0], open_cell[1], pooled[-1][2] + open_cell[2]]
    elif open_cell is not None:
        pooled.append(open_cell)
    pooled[0][0], pooled[-1][1] = 0, n
    df = len(pooled) - 1
    if df == 0:
        return
    total = sum(mass for _, _, mass in pooled)
    ordered = sorted(draws)
    chi2 = 0.0
    for lo, hi, mass in pooled:
        observed = bisect.bisect_right(ordered, hi) - bisect.bisect_left(ordered, lo)
        expected = mass / total * len(draws)
        chi2 += (observed - expected) ** 2 / expected
    # The 1 - 10^-4 quantile of chi-square(df), by the Wilson-Hilferty approximation.
    bound = df * (1.0 - 2.0 / (9 * df) + 3.719 * math.sqrt(2.0 / (9 * df))) ** 3
    assert chi2 <= bound, (n, p, chi2, df, bound)


class _Uniforms:
    """Stands in for a stream whose ``random`` returns chosen draws."""

    def __init__(self, values):
        self.values = iter(values)

    def random(self):
        return next(self.values)


class TestSampler:
    """``_binomial`` and ``_multinomial`` against exact laws, at fixed seeds."""

    DRAWS = 10_000

    @pytest.mark.parametrize("p", [1e-12, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-12])
    @pytest.mark.parametrize("n", [1, 2, 9, 40, 1000, 10**6, 10**12])
    def test_binomial_follows_the_exact_pmf(self, n, p):
        rng = random.Random(f"binomial/{n}/{p!r}")
        _assert_binomial_fit([sim._binomial(rng, n, p) for _ in range(self.DRAWS)], n, p)

    @pytest.mark.parametrize("n", [0, 1, 40, 10**12, 2**62])
    def test_exact_at_p_0_and_1_and_at_n_0(self, n):
        rng = random.Random("edges")
        state = rng.getstate()
        assert sim._binomial(rng, n, 0.0) == 0
        assert sim._binomial(rng, n, 1.0) == n
        assert sim._binomial(rng, 0, 0.3) == 0
        assert rng.getstate() == state  # none of them drew

    def test_the_smallest_p_draws_nothing_without_overflow(self):
        # The gap to the first success is infinite in floats.
        assert sim._binomial(random.Random("tiny"), 2**62, 5e-324) == 0

    def test_a_uniform_of_zero_is_a_valid_draw(self):
        # Logarithms are taken of 1 - random(), never of random() itself.
        # Geometric method at n p = 0.5: two gaps of 0, then one of 109 trials.
        assert sim._binomial(_Uniforms([0.0, 0.0, 0.99999]), 5, 0.1) == 2
        # BTRS at n p = 50: the first uniform lands on the hat's edge, where k
        # runs off to infinity, and is rejected; u = 0 then gives the centre.
        assert sim._binomial(_Uniforms([0.0, 0.5, 0.5]), 100, 0.5) == 50

    @pytest.mark.parametrize("probs", [
        (0.85, 0.05, 0.07, 0.03),
        (0.0, 0.3, 0.0, 0.7),        # zero-mass categories, first and inner
        (0.5, 0.5, 0.0, 0.0),        # the mass ends before the last category
        (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
    ])
    @pytest.mark.parametrize("n", [40, 10**12])
    def test_multinomial_marginals(self, n, probs):
        rng = random.Random(f"multinomial/{n}/{probs!r}")
        shares = sim._shares(probs)
        draws = [sim._multinomial(rng, n, shares) for _ in range(self.DRAWS // 2)]
        assert all(sum(drawn) == n for drawn in draws)
        total = math.fsum(probs)
        for column, mass in enumerate(probs):
            counts = [drawn[column] for drawn in draws]
            if mass == 0.0:
                assert not any(counts)
            else:
                _assert_binomial_fit(counts, n, mass / total)

    def test_stream_definition_is_pinned(self):
        # Seeds are the strings f"{seed}/{name}"; any change to how the streams
        # are opened or drawn from changes these numbers, and every report.
        streams = sim._open_streams(2004)
        assert list(streams) == ["counts", "checks", "key"]
        assert [stream.random() for stream in streams.values()] == [
            0.08898792258891308, 0.47673450086712243, 0.46457811697493767
        ]
        draws = [(1000, 0.3), (40, 0.01), (10**12, 0.5), (10**6, 0.99), (2**62, 0.1)]
        assert [sim._binomial(streams["key"], n, p) for n, p in draws] == [
            327, 0, 499998986135, 990068, 461168603168672301
        ]

    def test_stirling_tails_match_lgamma(self):
        # fc(j) = log j! - (j + 1/2) log(j + 1) + (j + 1) - log(2 pi) / 2.
        for j in (*range(30), 100, 1000):
            stirling = (j + 0.5) * math.log(j + 1) - (j + 1) + 0.5 * math.log(2 * math.pi)
            assert sim._stirling_tail(j) == pytest.approx(math.lgamma(j + 1) - stirling, abs=1e-10)


class TestKeyStageJointLaw:
    """The whole outcome of the count-level key stage against its exact law.

    All 4^n flag sequences of a tiny key, folded in arrival order by
    ``fold_key``, give the exact joint law of every level's flag counts,
    the parity counts and the abort reason.  Draws of ``sim._key_counts``
    at a fixed seed must stay in its support and pass Pearson's test at
    the 0.001 level, outcomes expected fewer than 5 times pooled into one
    cell.  The settings reach every key abort reason, and parity steps of
    zero, one and several groups of 1 and of 3 flags.  On two of them the
    parity groups are also drawn one at a time, one ``sim._parity_counts``
    call per group, which must give the same law as drawing them together.
    """

    LAW = (0.4, 0.1, 0.3, 0.2)
    DRAWS = 8000

    @pytest.mark.parametrize("n,b_rounds,k", [(8, 2, 1), (7, 1, 3), (7, 2, 3), (5, 0, 1)])
    def test_draws_follow_the_enumerated_law(self, n, b_rounds, k):
        self._assert_follows_the_enumerated_law(n, b_rounds, k)

    @pytest.mark.parametrize("one_at_a_time", [True, False], ids=["one-at-a-time", "counts"])
    @pytest.mark.parametrize("n,b_rounds,k", [(7, 0, 3), (7, 1, 1)])
    def test_both_parity_draws_follow_the_enumerated_law(self, monkeypatch, one_at_a_time,
                                                          n, b_rounds, k):
        if one_at_a_time:
            together = sim._parity_counts

            def by_group(rng, law, size, k):
                totals, counts = [0, 0, 0], [0, 0, 0, 0]
                for _ in range(size // k):
                    drawn, flags = together(rng, law, k, k)
                    totals = [t + d for t, d in zip(totals, drawn)]
                    counts = [c + f for c, f in zip(counts, flags)]
                drawn, rest = together(rng, law, size % k, k)
                assert drawn == (0, 0, 0)
                return tuple(totals), [c + r for c, r in zip(counts, rest)]

            monkeypatch.setattr(sim, "_parity_counts", by_group)
        self._assert_follows_the_enumerated_law(n, b_rounds, k)

    def _assert_follows_the_enumerated_law(self, n, b_rounds, k):
        exact = exact_key_law(self.LAW, n, b_rounds, k)
        rng = sim._open_streams(2004)["key"]
        drawn = Counter(
            sim._key_counts(rng, list(self.LAW), n, b_rounds, k) for _ in range(self.DRAWS)
        )
        assert set(drawn) <= set(exact), set(drawn) - set(exact)
        expected = {outcome: p * self.DRAWS for outcome, p in exact.items()}
        cells = [(drawn[o], e) for o, e in expected.items() if e >= 5.0]
        rest = (self.DRAWS - sum(o for o, _ in cells), self.DRAWS - sum(e for _, e in cells))
        if rest[1] >= 5.0:
            cells.append(rest)
        else:  # too rare for a cell of its own
            cells[0] = (cells[0][0] + rest[0], cells[0][1] + rest[1])
        chi2 = sum((o - e) ** 2 / e for o, e in cells)
        df = len(cells) - 1
        # The 0.999 quantile of chi-square(df), by the Wilson-Hilferty approximation.
        bound = df * (1.0 - 2.0 / (9 * df) + 3.09 * math.sqrt(2.0 / (9 * df))) ** 3
        assert chi2 <= bound, (chi2, df, bound)


# Two-sample Kolmogorov-Smirnov test over KS_RUNS runs a side, against
# the fixed bound of its 0.001 level: c = sqrt(ln(2 / 0.001) / 2) = 1.95,
# times sqrt(2 / KS_RUNS).  The two sides use disjoint seeds, so the
# samples are independent as the test assumes; the seed lists are fixed,
# so the tests are deterministic.
KS_RUNS = 250
KS_BOUND = math.sqrt(math.log(2 / 0.001) / 2) * math.sqrt(2 / KS_RUNS)


def _row_counts(report):
    """Flipped bits (or survivors) of every row after the sift row."""
    counts = {}
    for r in report.rows[1:]:
        flipped = r.empirical if r.quantity == "survivors" else r.empirical * r.count
        counts[(r.stage, r.quantity)] = round(flipped)
    return counts


def _assert_same_distribution(new, old):
    """Each key of the dicts in ``new`` and ``old`` passes the two-sample KS test."""
    assert all(set(counts) == set(new[0]) for counts in new + old)
    for key in new[0]:
        a = np.sort([c[key] for c in new])
        b = np.sort([c[key] for c in old])
        values = np.union1d(a, b)
        cdf_a = np.searchsorted(a, values, side="right") / a.size
        cdf_b = np.searchsorted(b, values, side="right") / b.size
        statistic = float(np.max(np.abs(cdf_a - cdf_b)))
        assert statistic <= KS_BOUND, (key, statistic, KS_BOUND)


class TestArrivalOrderInDistribution:
    """Roles by arrival order against the permutation-drawn rule it replaced.

    Per seed the two rules keep different bits, so every count row is
    compared in distribution, 250 runs a side.
    """

    CHANNEL = PauliRates(0.85, 0.10, 0.03, 0.02)
    PARAMS = ProtocolParams(n=1000, abort_sigma=1e9)

    def test_every_count_row_matches_the_permuted_rule(self):
        new, old = [], []
        for seed in range(KS_RUNS):
            report = run_protocol(self.CHANNEL, self.PARAMS, seed)
            assert not report.aborted, report.abort_reason
            new.append(_row_counts(report))
            old.append(permuted_role_counts(self.CHANNEL, self.PARAMS, KS_RUNS + seed))
        assert len(new[0]) == 13  # 3 checks, key, 2 rounds, parity
        _assert_same_distribution(new, old)


def _key_row_counts(fold):
    """``_row_counts`` of the key rows, from a ``fold_key`` outcome."""
    levels, (_, bit_errors, phase_errors), abort_reason = fold
    assert abort_reason is None, abort_reason
    counts = {
        ("key:transmit", "bit_error"): levels[0][2] + levels[0][3],
        ("key:transmit", "phase_error"): levels[0][1] + levels[0][3],
    }
    for round_no, level in enumerate(levels[1:], 1):
        counts[(f"key:reject_{round_no}", "survivors")] = sum(level)
        counts[(f"key:reject_{round_no}", "bit_error")] = level[2] + level[3]
        counts[(f"key:reject_{round_no}", "phase_error")] = level[1] + level[3]
    counts[("key:parity", "bit_error")] = bit_errors
    counts[("key:parity", "phase_error")] = phase_errors
    return counts


class TestKeyRowsInDistribution:
    """Every key count row of the count-level run against the key folded in memory.

    ``drawn_key_fold`` draws the n key flags one by one from the Y-basis
    law and folds them in arrival order; 250 runs a side.  At this n,
    p_group 99 forms at most 20 groups.
    """

    CHANNEL = PauliRates(0.85, 0.10, 0.03, 0.02)

    @pytest.mark.parametrize("b_rounds,k", [*product(range(4), (1, 3, 9)), (0, 99)])
    def test_every_key_row_matches_the_fold(self, b_rounds, k):
        params = ProtocolParams(n=2000, b_rounds=b_rounds, p_group=k, abort_sigma=1e9)
        law = sim._flag_laws(self.CHANNEL, None)[2]
        new, old = [], []
        for seed in range(KS_RUNS):
            report = run_protocol(self.CHANNEL, params, seed)
            assert not report.aborted, report.abort_reason
            new.append({key: c for key, c in _row_counts(report).items() if key[0].startswith("key:")})
            old.append(_key_row_counts(drawn_key_fold(law, params.n, b_rounds, k, KS_RUNS + seed)))
        assert len(new[0]) == 4 + 3 * b_rounds
        _assert_same_distribution(new, old)


class TestCountsInDistribution:
    """The count-level run against ``per_qubit_report``, for every kind of attacker.

    Per seed the two draw different bits, so the sifted counts and every
    count row are compared in distribution, 250 runs a side.  This keeps
    the relabelling and the attack law of the count-level run under the
    check of the reference's transmit stage and its own flag tables.  An
    attacker that re-prepares every qubit of some basis makes its checks
    pass the 0.45 ceiling; at the n of these cases every such run ends
    there, and its sifted counts and check rows are compared.
    """

    CHANNEL = PauliRates(0.85, 0.10, 0.03, 0.02)
    CASES = {  # attacker, n, whether every run ends at the checks
        "none": (None, 1000, False),
        "ZXY-weighted": (WEIGHTED, 4000, False),
        # ZX and Z re-prepare every Y qubit, Y every Z and X qubit.
        "ZX": (EveModel((Basis.Z, Basis.X)), 12_500, True),
        "Z": (EveModel((Basis.Z,)), 4000, True),
        "Y": (EveModel((Basis.Y,)), 4000, True),
    }

    @staticmethod
    def _counts(report):
        sifted = {f"sifted.{b}": c for b, c in zip("ZXY", report.sifted_by_basis)}
        return {"n_sifted": report.n_sifted, **sifted, **_row_counts(report)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_every_count_matches_the_per_qubit_report(self, case):
        eve, n, aborts = self.CASES[case]
        params = ProtocolParams(n=n, abort_sigma=1e9)
        new = [run_protocol(self.CHANNEL, params, seed, eve) for seed in range(KS_RUNS)]
        old = [per_qubit_report(self.CHANNEL, params, KS_RUNS + seed, eve) for seed in range(KS_RUNS)]
        for report in new + old:
            assert report.aborted == aborts, report.abort_reason
        _assert_same_distribution([self._counts(r) for r in new], [self._counts(r) for r in old])


class TestEve:
    def test_two_basis_attack_is_caught(self):
        eve = EveModel((Basis.Z, Basis.X))
        report = run_protocol(NOISELESS, ProtocolParams(n=20_000), seed=22, eve=eve)
        assert report.aborted
        assert "check error" in report.abort_reason
        for basis, expected in (("Z", 0.25), ("X", 0.25), ("Y", 0.5)):
            r = row(report, f"check:{basis}", "bit_error")
            sigma = math.sqrt(expected * (1.0 - expected) / r.count)
            assert abs(r.empirical - expected) <= 4.0 * sigma

    def test_three_basis_attack_is_caught(self):
        eve = EveModel((Basis.Z, Basis.X, Basis.Y))
        report = run_protocol(NOISELESS, ProtocolParams(n=20_000), seed=23, eve=eve)
        assert report.aborted
        third = 1.0 / 3.0
        for basis in "ZXY":
            r = row(report, f"check:{basis}", "bit_error")
            sigma = math.sqrt(third * (1.0 - third) / r.count)
            assert abs(r.empirical - third) <= 4.0 * sigma

    def test_repeated_attack_bases_add_their_weights(self):
        # Checks near 0.37 and a loose sigma rule take both runs through the
        # key and the parity step.
        params = ProtocolParams(n=20_000, abort_sigma=1e9)
        once = run_protocol(
            DEPOLARIZING, params, seed=24, eve=EveModel((Basis.Z, Basis.X, Basis.Y))
        )
        twice = run_protocol(
            DEPOLARIZING, params, seed=24, eve=EveModel((Basis.Z, Basis.Z, Basis.X,
                                                          Basis.X, Basis.Y, Basis.Y))
        )
        assert not once.aborted
        assert twice.eve == "bases=Z,Z,X,X,Y,Y;weights=" + ",".join(["0.16666666666666666"] * 6)
        assert twice._replace(eve=once.eve) == once

    def test_attack_weights_validation(self):
        # No attacker that re-prepares every qubit and describes itself as
        # "bases=;weights=".
        for bases in ((), [], iter(())):
            with pytest.raises(ValueError, match="at least one basis"):
                EveModel(bases)
        with pytest.raises(TypeError):
            EveModel()

    def test_bases_must_be_basis_members(self):
        # A letter would construct and then fail deep inside run_protocol.
        for bases in (("Z",), (Basis.Z, "X")):
            with pytest.raises(ValueError, match="Basis members"):
                EveModel(bases=bases)

    def test_bases_are_stored_as_a_tuple(self):
        # A list would make the model unhashable, unequal to its tuple form,
        # and open to change after validation.
        bases = [Basis.Z, Basis.X]
        listed = EveModel(bases=bases)
        bases.append("not a basis")
        assert isinstance(listed.bases, tuple)
        assert listed.bases == (Basis.Z, Basis.X)
        assert listed == EveModel(bases=(Basis.Z, Basis.X))
        assert hash(listed) == hash(EveModel(bases=(Basis.Z, Basis.X)))

    @pytest.mark.parametrize("eve", [[Basis.Z], (Basis.Z,), "ZX", Basis.Z],
                             ids=["list", "tuple", "letters", "basis"])
    def test_eve_must_be_an_eve_model(self, eve):
        # A list of bases used to fail deep inside the run, with an AttributeError.
        with pytest.raises(ValueError, match="eve must be None or an EveModel"):
            run_protocol(NOISELESS, ProtocolParams(n=100), 0, eve)

    def test_describe(self):
        eve = EveModel((Basis.Z, Basis.X))
        assert eve.describe() == "bases=Z,X;weights=0.5,0.5"


class TestAborts:
    # With delta near 0 the expected pools only just cover what the key and
    # the checks need, so some seeds fall short.
    def test_insufficient_sifted_bits(self):
        params = ProtocolParams(n=1000, delta=0.001)
        report = run_protocol(NOISELESS, params, seed=1)
        assert report.aborted
        assert "insufficient sifted bits" in report.abort_reason
        assert report.final_bit_error is None

    def test_insufficient_key_pool(self):
        # Enough sifted overall (2,000 needed), but too few in Y for the key.
        params = ProtocolParams(n=1000, delta=0.01)
        report = run_protocol(NOISELESS, params, seed=6)
        assert report.aborted
        assert report.n_sifted >= 2000
        assert "Y-basis sifted bits" in report.abort_reason

    def test_insufficient_check_pool(self):
        # The Y pool after the key expects delta * n / 6, about 83 of the 200 Y checks.
        params = ProtocolParams(n=1000, delta=0.5)
        report = run_protocol(NOISELESS, params, seed=0)
        assert report.aborted
        assert "Y-basis check bits" in report.abort_reason

    def test_ceiling_catches_errors_the_sigma_rule_expects(self):
        # Half the channel mass flips the Z-frame bit; the analytic
        # expectation agrees, so only the absolute ceiling can object.
        params = ProtocolParams(n=2000)
        report = run_protocol(PauliRates(0.5, 0.5, 0.0, 0.0), params, seed=34)
        assert report.aborted
        assert "check error" in report.abort_reason


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=0),
            dict(n=100, delta=0.0),
            dict(n=100, p_group=-1),  # odd, but below 1
            dict(n=100, target=0.0),
            dict(n=100, b_rounds=-1),
            dict(n=100, p_group=2),
            dict(n=100, p_group=101),  # odd, but above the bound
            dict(n=100, target=0.5),
            dict(n=100, abort_sigma=0.0),
            dict(n=100, target=math.nan),
            dict(n=100, delta=1e308),  # (6 + delta) * n overflows to inf
            dict(n=100, delta=math.inf),
            dict(n=100, delta=math.nan),
            dict(n=100, abort_sigma=math.inf),
            dict(n=100, abort_sigma=math.nan),
            dict(n=10, delta=1e18),  # (6 + delta) * n past 2^63
            dict(n=2**62),
            dict(n=np.int64(2**62)),
            dict(n=10**400),  # past the float range
            dict(n=2.5),
            dict(n=100.0),
            dict(n=True),
            dict(n=100, b_rounds=1.5),
            dict(n=100, b_rounds=False),
            dict(n=100, p_group=True),
            dict(n=100, p_group=3.0),
            dict(n=100, delta=True),  # a bool is no number, though True == 1
            dict(n=100, target=True),
            dict(n=100, abort_sigma=True),
            dict(n=100, delta="2.0"),
            dict(n=100, delta=10**400),  # past the float range
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ProtocolParams(**kwargs)

    def test_transmitted_qubits_must_fit_int64(self):
        # 8 * (2^60 - 128) is 2^63 - 1024, the largest float below 2^63.
        assert ProtocolParams(n=2**60 - 128).n == 2**60 - 128
        with pytest.raises(ValueError, match=r"below 2\^63"):
            ProtocolParams(n=2**60)

    def test_p_group_is_bounded(self):
        # C(102, 3) = 171,700 composition rows at the bound.
        assert sim._MAX_P_GROUP == 99
        assert ProtocolParams(n=100, p_group=99).p_group == 99
        with pytest.raises(ValueError, match="p_group must be <= 99, got 101"):
            ProtocolParams(n=100, p_group=101)

    @pytest.mark.parametrize("seed", [-3, -1, True, False, 1.0, 2.5, "1", None])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # 1.0 would seed the streams with "1.0/counts", not "1/counts".
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            run_protocol(NOISELESS, ProtocolParams(n=100), seed)

    TYPED = {  # the plain run's settings and seed as values of other types
        "numpy": (dict(n=np.int64(1000), delta=np.float64(2.0), b_rounds=np.int32(2),
                       p_group=np.uint8(3), target=np.float64(0.05), abort_sigma=np.float32(3.0)),
                  np.int64(3)),
        "int-valued": (dict(n=1000, delta=2, target=Fraction(1, 20), abort_sigma=3), 3),
    }

    @pytest.mark.parametrize("case", list(TYPED))
    def test_report_bytes_depend_on_values_not_types(self, case):
        kwargs, seed = self.TYPED[case]
        channel = PauliRates(0.85, 0.10, 0.03, 0.02)
        plain = run_protocol(channel, ProtocolParams(n=1000), 3)
        typed = run_protocol(channel, ProtocolParams(**kwargs), seed)
        assert typed.to_text() == plain.to_text()
        assert typed.to_csv() == plain.to_csv()

    def test_only_the_run_settings_are_fields(self):
        # The basis weights, check split and ceiling are the protocol's constants.
        assert list(inspect.signature(ProtocolParams).parameters) == [
            "n", "delta", "b_rounds", "p_group", "target", "abort_sigma"
        ]


class TestSerialization:
    def test_text_contains_the_essentials(self):
        report = run_protocol(DEPOLARIZING, ProtocolParams(n=2000), seed=41)
        text = report.to_text()
        assert "schema = asymqkd.simreport.v1" in text
        assert "seed = 41" in text
        assert "aborted = false" in text
        assert "row.key:parity.bit_error.empirical" in text

    def test_csv_shape(self):
        report = run_protocol(DEPOLARIZING, ProtocolParams(n=2000), seed=41)
        lines = report.to_csv().strip().split("\n")
        header = [l for l in lines if l.startswith("#")]
        data = [l for l in lines if not l.startswith("#")]
        assert any("schema: asymqkd.simreport.v1" in l for l in header)
        assert data[0] == "stage,quantity,count,empirical,analytic,std_error"
        assert len(data) - 1 == len(report.rows)
        for line in data[1:]:
            parts = line.split(",")
            assert len(parts) == 6
            float(parts[3]); float(parts[4]); float(parts[5])

    def test_abort_reason_serialized(self):
        params = ProtocolParams(n=1000, delta=0.01)
        report = run_protocol(NOISELESS, params, seed=2)
        assert "abort_reason = insufficient" in report.to_text()
