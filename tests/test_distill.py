import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asymqkd.channel import FlipRates, PauliRates, flip_rates
from asymqkd.distill import (
    SearchParams,
    _group_size,
    _rejection_rounds,
    _smallest_majority_k,
    b_step,
    distill_schedule,
    distillable_in_limit,
    majority_phase_error,
    modified_rate_one_bstep,
    p_step,
    parity_bit_error,
)
from asymqkd.keyrates import shannon4
from asymqkd.sim import ProtocolParams

from oracles import (
    enumerate_majority_error,
    enumerate_pair_rejection,
    enumerate_parity_bit_error,
    fresh_interpreter,
    limit_criterion,
)

# Symmetric-channel feasibility boundary of unbounded pair rejection plus
# parity: 3*(5 - sqrt(5))/20, from scripts/derive_golden.py.
SYMMETRIC_LIMIT = 0.41458980337503155


def random_fraction_rates(rng):
    while True:
        raw = [rng.randrange(0, 1000) for _ in range(4)]
        if sum(raw) > 0 and raw[0] + raw[3] > 0:
            break
    total = sum(raw)
    return tuple(Fraction(v, total) for v in raw)


class TestBStep:
    def test_matches_exhaustive_pair_enumeration(self):
        rng = random.Random(42)
        for _ in range(100):
            exact = random_fraction_rates(rng)
            expected, survival = enumerate_pair_rejection(exact)
            outcome = b_step(PauliRates(*(float(q) for q in exact)))
            for got, want in zip(outcome.rates_out.as_tuple(), expected):
                assert got == pytest.approx(float(want), abs=1e-12)
            assert outcome.survival == pytest.approx(float(survival), abs=1e-12)

    # Integer weights, so exact ties s == u (q_x + q_y == q_i + q_z), where
    # the bit error is exactly 1/2 forever, can be excluded exactly.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(*(st.integers(0, 1000) for _ in range(4))).filter(lambda w: sum(w) > 0),
        st.integers(1, 4),
    )
    def test_iterated_rounds_match_exact_enumeration(self, weights, rounds):
        w_i, w_x, w_y, w_z = weights
        assume(w_x + w_y != w_i + w_z)
        total = sum(weights)
        rates = PauliRates(*(w / total for w in weights))
        exact = tuple(Fraction(q) for q in rates.as_tuple())
        for _ in range(rounds):
            exact, survival = enumerate_pair_rejection(exact)
            outcome = b_step(rates)
            for got, want in zip(outcome.rates_out.as_tuple(), exact):
                assert got == pytest.approx(float(want), abs=1e-12)
            assert outcome.survival == pytest.approx(float(survival), abs=1e-12)
            rates = outcome.rates_out

    def test_fully_mixed_channel_survival_is_one_quarter(self):
        outcome = b_step(PauliRates(0.25, 0.25, 0.25, 0.25))
        assert outcome.survival == pytest.approx(0.25, abs=1e-15)
        assert outcome.rates_out.as_tuple() == pytest.approx((0.25,) * 4, abs=1e-15)

    def test_pure_bit_flip_example(self):
        outcome = b_step(PauliRates(0.9, 0.1, 0.0, 0.0))
        assert outcome.rates_out.q_i == pytest.approx(0.81 / 0.82, abs=1e-15)
        assert outcome.rates_out.q_x == pytest.approx(0.01 / 0.82, abs=1e-15)
        assert outcome.rates_out.q_y == 0.0
        assert outcome.rates_out.q_z == 0.0
        assert outcome.survival == pytest.approx(0.41, abs=1e-15)

    def test_noiseless_is_a_fixed_point_with_half_survival(self):
        outcome = b_step(PauliRates(1.0, 0.0, 0.0, 0.0))
        assert outcome.rates_out.as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert outcome.survival == 0.5

    def test_bit_error_strictly_decreases(self):
        rng = random.Random(43)
        for _ in range(50):
            raw = [rng.random() for _ in range(4)]
            total = sum(raw) * 1.3  # leave decent identity weight
            rates = PauliRates(
                1.0 - (raw[1] + raw[2] + raw[3]) / total,
                raw[1] / total,
                raw[2] / total,
                raw[3] / total,
            )
            before = flip_rates(rates).p_x
            after = flip_rates(b_step(rates).rates_out).p_x
            if 0.0 < before < 0.5:
                assert after < before


class TestPStep:
    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_matches_pattern_enumeration(self, k):
        rng = random.Random(k)
        fixed = [0.0, 0.5, 1.0, 1e-12, 1.0 - 1e-12]
        draws = [(p, q) for p in fixed for q in fixed]
        draws += [(rng.random(), rng.random()) for _ in range(25)]
        for p_x, p_z in draws:
            result = p_step(FlipRates(p_x, p_z), k)
            assert result.p_x == pytest.approx(
                enumerate_parity_bit_error(p_x, k), abs=1e-12
            )
            assert result.p_z == pytest.approx(
                enumerate_majority_error(p_z, k), abs=1e-12
            )

    def test_k_one_is_identity(self):
        result = p_step(FlipRates(0.12, 0.34), 1)
        assert (result.p_x, result.p_z) == pytest.approx((0.12, 0.34))

    def test_even_k_rejected(self):
        with pytest.raises(ValueError):
            p_step(FlipRates(0.12, 0.34), 4)

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            p_step(FlipRates(0.12, 0.34), -3)

    @pytest.mark.parametrize("k", [4, 0, -1, True, False, 2.5, 3.0, "3", None])
    def test_group_size_is_an_odd_int_for_both(self, k):
        # A bool is no group size; an even k would count ties as failures.
        for use in (lambda k: p_step(FlipRates(0.12, 0.34), k),
                    lambda k: majority_phase_error(0.3, k)):
            with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
                use(k)

    def test_group_size_is_stored_as_int(self):
        k = _group_size(np.int64(3))
        assert type(k) is int and k == 3

    @pytest.mark.parametrize("use", [
        lambda k: p_step(FlipRates(0.12, 0.34), k),
        lambda k: ProtocolParams(n=100, p_group=k).p_group,
    ], ids=["p_step", "ProtocolParams"])
    def test_p_step_and_the_simulator_take_the_same_group_sizes(self, use):
        for k in (4, 0, -3, True, 3.0):
            with pytest.raises(ValueError, match=re.escape(f"got {k!r}")):
                use(k)
        # An integer of another type counts as the int: same value, same repr.
        got, want = use(np.int64(3)), use(3)
        assert got == want and repr(got) == repr(want)

    @pytest.mark.parametrize("k", [1, 3, 99])
    def test_majority_error_rejects_nan(self, k):
        with pytest.raises(ValueError, match="NaN"):
            majority_phase_error(math.nan, k)

    def test_flip_rates_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            p_step(FlipRates(1.2, 0.1), 3)

    def test_majority_error_decreases_with_k_below_half(self):
        for p_z in (0.05, 0.2, 0.4):
            values = [majority_phase_error(p_z, k) for k in (1, 3, 5, 7, 9)]
            assert all(a > b for a, b in zip(values, values[1:]))

    def test_majority_edge_cases(self):
        assert majority_phase_error(0.0, 5) == 0.0
        assert majority_phase_error(1.0, 5) == 1.0
        assert majority_phase_error(0.5, 7) == pytest.approx(0.5, abs=1e-12)

    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.sampled_from(range(1, 16, 2)))
    def test_majority_error_against_exact_enumeration(self, p_z, k):
        # The exact tail of the float p_z, summed over all 2^k patterns in Fractions.
        exact = float(enumerate_majority_error(Fraction(p_z), k))
        assert majority_phase_error(p_z, k) == pytest.approx(exact, rel=1e-12, abs=1e-300)

    def test_majority_error_keeps_a_tiny_tail_at_the_simulator_bound(self):
        # k = 99 is the largest parity group of the simulator; this tail is about 4.8e-122.
        p = Fraction(1e-3)
        exact = sum(math.comb(99, j) * p**j * (1 - p) ** (99 - j) for j in range(50, 100))
        assert majority_phase_error(1e-3, 99) == pytest.approx(float(exact), rel=1e-12)

    def test_majority_error_does_not_depend_on_earlier_calls(self):
        # A log-factorial table kept between calls and grown piece by piece
        # sums in another order, which shows in the last bits.
        head = "from asymqkd.distill import majority_phase_error as f\n"
        values = "print([repr(f(p, k)) for p in (0.1, 0.3, 0.45)])\n"
        after_smaller_k = fresh_interpreter(
            head + "f(0.3, 3)\nf(0.3, 11)\n" + "".join(
                f"k = {k}\n{values}" for k in (5, 11, 101)))
        alone = "".join(fresh_interpreter(f"{head}k = {k}\n{values}") for k in (5, 11, 101))
        assert after_smaller_k == alone

    def test_parity_error_spot_value(self):
        # 1 - (1 - 2*0.01)^3 all over 2
        assert parity_bit_error(0.01, 3) == pytest.approx(0.029404, abs=1e-9)


class TestModifiedRate:
    def test_noiseless_pays_only_the_rejection_half(self):
        assert modified_rate_one_bstep(PauliRates(1.0, 0.0, 0.0, 0.0)) == pytest.approx(0.5)

    def test_definition_holds_on_random_channels(self):
        rng = random.Random(44)
        for _ in range(50):
            raw = [rng.random() + 0.5, rng.random() / 4, rng.random() / 4, rng.random() / 4]
            total = sum(raw)
            rates = PauliRates(*(v / total for v in raw))
            outcome = b_step(rates)
            expected = outcome.survival * (1.0 - shannon4(outcome.rates_out))
            assert modified_rate_one_bstep(rates) == pytest.approx(expected, abs=1e-13)


@st.composite
def weights_with_ties(draw):
    """Integer (w_i, w_x, w_y, w_z); about half are exact ties w_x + w_y == w_i + w_z."""
    w_i, w_z = draw(st.integers(0, 1000)), draw(st.integers(0, 1000))
    if draw(st.booleans()):
        w_x = draw(st.integers(0, w_i + w_z))
        w_y = w_i + w_z - w_x
    else:
        w_x, w_y = draw(st.integers(0, 1000)), draw(st.integers(0, 1000))
    assume(w_i + w_x + w_y + w_z > 0)
    return w_i, w_x, w_y, w_z


class TestDistillSchedule:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(weights_with_ties(), st.integers(1, 6))
    def test_rounds_match_exact_iteration(self, weights, rounds):
        # The witness's B steps, run in (u, v, s, t), against exact Fraction
        # iteration of the 16-pair enumeration, ties s == u included.
        total = sum(weights)
        rates = PauliRates(*(w / total for w in weights))
        exact = tuple(Fraction(q) for q in rates.as_tuple())
        tied = rates.q_x + rates.q_y == rates.q_i + rates.q_z  # s == u in floats
        path = _rejection_rounds(rates)
        for m in range(rounds + 1):
            bit, phase, step = next(path)
            q_i, q_x, q_y, q_z = exact
            assert bit == pytest.approx(float(q_x + q_y), abs=1e-12)
            assert phase == pytest.approx(float(q_z + q_y), abs=1e-12)
            if m == 0:
                assert step is None
            else:
                for got, want in zip(step.rates_out.as_tuple(), exact):
                    assert got == pytest.approx(float(want), abs=1e-12)
                assert step.survival == pytest.approx(float(survival), abs=1e-12)
                if tied:
                    assert bit == 0.5
            exact, survival = enumerate_pair_rejection(exact)

    def test_noiseless_needs_no_work(self):
        trace = distill_schedule(PauliRates(1.0, 0.0, 0.0, 0.0))
        assert trace.succeeded
        assert trace.rounds == ()
        assert trace.p_step.k == 1
        assert trace.cumulative_survival == 1.0

    def test_moderate_noise_succeeds(self):
        trace = distill_schedule(PauliRates.from_error_rates(0.10, 0.0, 0.10))
        assert trace.succeeded
        assert trace.p_step.p_x < 0.05
        assert trace.p_step.p_z < 0.05

    def test_cumulative_survival_is_the_product_over_rounds(self):
        trace = distill_schedule(PauliRates.from_error_rates(0.12, 0.01, 0.08))
        expected = 1.0
        for outcome in trace.rounds:
            expected *= outcome.survival
        expected /= trace.p_step.k
        assert trace.cumulative_survival == pytest.approx(expected, rel=1e-12)

    def test_hopeless_channel_reports_failure(self):
        trace = distill_schedule(
            PauliRates(0.25, 0.25, 0.25, 0.25), SearchParams(m_max=6, k_max=31)
        )
        assert not trace.succeeded
        assert trace.p_step is None
        assert trace.rounds == ()

    def test_exactly_tied_channel_has_no_witness(self):
        # s = q_x + q_y equals u = q_i + q_z: the bit error is exactly 1/2
        # after every rejection round.  An iteration that lets the tie drift
        # by ~1e-16 squares the drift into a fake gap by m = 56.
        rates = PauliRates(0.5, 0.15, 0.35, 0.0)
        assert not distill_schedule(rates).succeeded
        bits = [bit for _, (bit, _, _) in zip(range(61), _rejection_rounds(rates))]
        assert bits == [0.5] * 61

    def test_target_validation(self):
        with pytest.raises(ValueError):
            SearchParams(target=0.7)
        with pytest.raises(ValueError):
            SearchParams(m_max=-1)
        with pytest.raises(ValueError):
            SearchParams(k_max=0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0), st.floats(1e-6, 0.49), st.integers(1, 41))
    def test_smallest_majority_k_equals_a_linear_scan(self, p_z, target, k_max):
        # Pins the binary search's premise: the majority error does not
        # grow with odd k, so the first passing k is the smallest.
        scan = (k for k in range(1, k_max + 1, 2) if majority_phase_error(p_z, k) < target)
        assert _smallest_majority_k(p_z, target, k_max) == next(scan, None)


class TestLimitCriterion:
    def test_symmetric_boundary(self):
        for total, expected in (
            (SYMMETRIC_LIMIT - 1e-6, True),
            (SYMMETRIC_LIMIT + 1e-6, False),
        ):
            third = total / 3.0
            rates = PauliRates.from_error_rates(third, third, third)
            assert distillable_in_limit(rates) is expected

    def test_pure_phase_noise_is_always_distillable(self):
        assert distillable_in_limit(PauliRates(0.6, 0.0, 0.0, 0.4))

    def test_balanced_identity_and_phase_is_not(self):
        # p_z = 1/2 exactly: majority voting has nothing to bite on.
        assert not distillable_in_limit(PauliRates(0.5, 0.0, 0.0, 0.5))

    def test_fully_mixed_is_not(self):
        assert not distillable_in_limit(PauliRates(0.25, 0.25, 0.25, 0.25))

    def test_agrees_with_finite_search_where_search_succeeds(self):
        rng = random.Random(45)
        for _ in range(25):
            scale = rng.uniform(0.0, 0.3)
            raw = [rng.random() for _ in range(3)]
            total = sum(raw)
            rates = PauliRates.from_error_rates(
                *(scale * v / total for v in raw)
            )
            if distill_schedule(rates).succeeded:
                assert distillable_in_limit(rates)

    # Integer weights (q_i, q_x, q_y, q_z), identity-heavy so that about a
    # quarter of the draws have a witness within the default caps.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.tuples(*(st.integers(0, top) for top in (4000, 1000, 1000, 1000)))
           .filter(lambda w: sum(w) > 0))
    def test_witness_success_implies_limit_criterion(self, weights):
        # Soundness premise of deciding feasibility by the closed form alone:
        # every capped witness is also an unbounded-caps witness, exact ties
        # s == u (q_x + q_y == q_i + q_z) included.
        total = sum(weights)
        rates = PauliRates(*(w / total for w in weights))
        if distill_schedule(rates).succeeded:
            assert distillable_in_limit(rates)


def _stored_as_given(comps):
    """Whether ``PauliRates(*comps)`` is valid and stores ``comps`` unchanged."""
    try:
        return PauliRates(*comps).as_tuple() == comps
    except ValueError:
        return False


def _product_ties():
    """Channels (q_i, s, 0, q_z) with s·u == v² exactly, all four components dyadic.

    s = αm², u = αn², v = αmn for coprime m <= n and α = A / 2^56 near
    1 / (m² + n²), kept where every component is a float that
    ``PauliRates`` stores unchanged.  m = 0 gives (1/2, 0, 0, 1/2).
    """
    ties = []
    for m in range(12):
        for n in range(max(m, 1), 40):
            if math.gcd(m, n) != 1:
                continue
            nearest = round(Fraction(2**56, m * m + n * n))
            for numerator in range(nearest - 4, nearest + 5):
                alpha = Fraction(numerator, 2**56)
                s, u, v = alpha * m * m, alpha * n * n, alpha * m * n
                comps = ((u + v) / 2, s, Fraction(0), (u - v) / 2)
                floats = tuple(float(c) for c in comps)
                if all(Fraction(f) == c for f, c in zip(floats, comps)) and _stored_as_given(floats):
                    ties.append(floats)
    return sorted(set(ties))


_PRODUCT_TIES = _product_ties()
_HALF_ULPS = st.integers(0, 2**52)


def _s_equals_u(k, l):
    """(q_i, q_x, q_y, q_z) with q_x + q_y = q_i + q_z = 1/2, all multiples of 2^-53."""
    q_x, q_i = k / 2.0**53, l / 2.0**53
    return (q_i, q_x, 0.5 - q_x, 0.5 - q_i)


def _bit_error_in_y(comps, in_y):
    """Move q_x into q_y: s = q_x + q_y is unchanged."""
    q_i, q_x, q_y, q_z = comps
    return (q_i, q_y, q_x, q_z) if in_y else comps


_TIES = st.one_of(
    st.builds(_s_equals_u, _HALF_ULPS, _HALF_ULPS),
    st.builds(_bit_error_in_y, st.sampled_from(_PRODUCT_TIES), st.booleans()),
)


def _nudged(comps, index, up):
    """``comps`` with one component moved one float up or down, as PauliRates stores it."""
    moved = list(comps)
    moved[index] = math.nextafter(moved[index], math.inf if up else 0.0)
    return PauliRates(*moved)


class TestExactLimitCriterion:
    """``distillable_in_limit`` decides the exact values of its four floats."""

    def test_product_ties_are_exact(self):
        assert len(_PRODUCT_TIES) >= 5
        for comps in _PRODUCT_TIES:
            q_i, s, _, q_z = (Fraction(c) for c in comps)
            assert s * (q_i + q_z) == (q_i - q_z) ** 2

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        # Random channels.
        st.tuples(*[st.floats(0.0, 1.0)] * 4).filter(lambda w: sum(w) > 0.0).map(
            lambda w: PauliRates(*(c / sum(w) for c in w))),
        # Exact ties: s == u, or s·u == v².
        _TIES.map(lambda comps: PauliRates(*comps)),
        # One float either side of a tie.
        st.builds(_nudged, _TIES, st.integers(0, 3), st.booleans()),
    ))
    def test_equals_the_fraction_criterion(self, rates):
        assert distillable_in_limit(rates) is limit_criterion(rates.as_tuple())

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_TIES)
    def test_ties_are_never_distillable(self, comps):
        rates = PauliRates(*comps)
        assert rates.as_tuple() == comps
        assert not distillable_in_limit(rates)

    def test_channel_next_to_a_ybasis_root(self):
        # The Y-frame channel two floats below r1 on the ray q_y = 0.3 q_x,
        # q_x = q_z, is 2e-17 inside the region: in floats s·u and v² round
        # to the same value, so a float evaluation calls it infeasible.
        rates = PauliRates(
            0.5475326490765804, 0.19672493518409548, 0.19672493518409548, 0.05901748055522864
        )
        q_i, q_x, q_y, q_z = rates.as_tuple()
        assert (q_x + q_y) * (q_i + q_z) == (q_i - q_z) * (q_i - q_z)
        assert limit_criterion(rates.as_tuple())
        assert distillable_in_limit(rates)
