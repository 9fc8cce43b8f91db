import math
import re
import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from asymqkd import distill, threshold
from asymqkd.channel import Basis, PauliRates, _normalized, conjugate
from asymqkd.distill import (
    SearchParams,
    distill_schedule,
    distillable_in_limit,
    modified_rate_one_bstep,
)
from asymqkd.keyrates import rate_sixstate_separate
from asymqkd.threshold import (
    Bracket,
    ChannelFamily,
    NonMonotoneFamilyError,
    ProtocolVariant,
    _bisect,
    _effective,
    _fig2_rates,
    _shannon4,
    fig2_blocks,
    is_distillable,
    sweep_fig1,
    threshold_total_noise,
)

from oracles import AuditError, bisected_threshold, bisected_window, exact_ray, limit_criterion

# Frozen from scripts/derive_golden.py.
TWO_WAY_LIMIT_SYMMETRIC = 0.41458980337503155
# 50-digit one-way thresholds by ratio.
SINGLE_BASIS_ROOT = {
    0.0: "0.22005572887671910252362340866997892035422981018379",
    0.3: "0.19466468323709766761705147690036596800566483208566",
    1.0: "0.16504179665753932689271755650248419026567235763784",
    2.0: "0.14670381925114606834908227244665261356948654012253",
}
SIXSTATE_SEPARATE_ROOT = {
    0.0: "0.22709219521934818721052345430504338837644752984648",
    0.3: "0.19779909984909379928869564365292283562086061679319",
    1.0: "0.18928962491523176260239469336527424216696616184305",
    2.0: "0.19378497877490457237020525715766620585364614161027",
}
ONE_WAY_ROOT = {
    ProtocolVariant.SINGLE_BASIS_ONE_WAY: SINGLE_BASIS_ROOT,
    ProtocolVariant.SIX_STATE_SEPARATE_ONE_WAY: SIXSTATE_SEPARATE_ROOT,
}
# (ratio, r1, r2) of the infeasible window of re-entrant Y-basis rays.
YBASIS_WINDOWS = [
    (2.5, 0.39764506496982454, 0.96084550106791131),
    (3998.0, 0.49227961368125467, 0.5080954488031047),
]
# 50-digit r1 of the two-way variants: ybasis by ratio, chau at every ratio.
YBASIS_R1 = {
    0.0: "0.5",
    0.3: "0.45246735092341961371679899416651226690978104212037",
    1.0: "0.41458980337503154553862394969030856468390724605827",
    2.0: "0.4",
}
CHAU_R1 = "0.41458980337503154553862394969030856468390724605827"
TWO_WAY = (ProtocolVariant.Y_BASIS_TWO_WAY, ProtocolVariant.CHAU_BASELINE)


# A direction component at the edges of the float range, or anywhere up to 1e308.
_EDGE_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.0, 1e308]),
    st.floats(0.0, 1e308),
)


class TestAuditAndBisect:
    """``_bisect``, the search behind one-way thresholds, on synthetic predicates."""

    def test_finds_a_known_cut(self):
        # Near either end of [0, 1/2] and inside it; the cut is the first
        # infeasible float.
        for cut in (1e-300, 0.01, 0.3721, 0.4999):
            low, high = _bisect(lambda x: x < cut, 0.0, 0.5)
            assert math.nextafter(low, 1.0) == high == cut

    def test_bracket_ends_are_probed_feasible_and_infeasible(self):
        verdicts = {}

        def feasible(x):
            verdicts[x] = x < 0.3721
            return verdicts[x]

        low, high = _bisect(feasible, 0.0, 0.5)
        assert math.nextafter(low, 1.0) == high
        assert verdicts[low] is True
        assert verdicts[high] is False


class TestChannelFamily:
    def test_direction_is_normalized(self):
        # Coprime weights; the error components at scale S sum to S.
        family = ChannelFamily((2.0, 2.0, 4.0))
        assert family.weights == (1, 1, 2)
        assert family._errors_at(0.5) == (0.125, 0.125, 0.25)

    def test_rates_at_scales_linearly(self):
        family = ChannelFamily.from_y_ratio(0.5)
        rates = family.rates_at(0.25)
        assert rates.q_x + rates.q_y + rates.q_z == pytest.approx(0.25)
        assert rates.q_y == pytest.approx(rates.q_x * 0.5)
        assert rates.q_x == pytest.approx(rates.q_z)

    # Zeros of both signs, subnormals, huge components and ties, in
    # directions with a positive total.
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.tuples(*[_EDGE_COMPONENT] * 3),
            st.tuples(_EDGE_COMPONENT, _EDGE_COMPONENT).flatmap(
                lambda ab: st.permutations([ab[0], ab[0], ab[1]])).map(tuple),
        ).filter(lambda d: any(d))
    )
    @example((-0.0, 5e-324, 0.0))
    @example((1e308, 5e-324, 1e308 / 3))
    def test_weights_are_the_exact_ray(self, raw):
        family = ChannelFamily(raw)
        assert family.weights == exact_ray(raw)
        assert ChannelFamily(family.weights) == family

    # Rays with subnormal and huge weights, and scales at zero, subnormal and anywhere in [0, 1].
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(
        st.tuples(*[_EDGE_COMPONENT] * 3).filter(any),
        st.one_of(st.sampled_from([0.0, 5e-324, 0.5, 1.0]), st.floats(0.0, 1.0)),
    )
    @example((1e308, 5e-324, 0.0), 5e-324)
    @example((1.0, 1.0, 1.0), 1.0)
    def test_rates_at_rounds_each_component_of_the_exact_ray(self, raw, scale):
        family = ChannelFamily(raw)
        total = sum(family.weights)
        got = family._errors_at(scale)
        for component, weight in zip(got, family.weights):
            exact = Fraction(scale) * weight / total
            # No float lies closer to the exact component; ``float`` breaks a tie to even.
            for neighbour in (math.nextafter(component, -1.0), math.nextafter(component, 2.0)):
                assert abs(Fraction(component) - exact) <= abs(Fraction(neighbour) - exact)
            assert component == float(exact)
        assert family.rates_at(scale) == PauliRates(1.0 - scale, *got)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(st.just(5e-324), st.just(1e308), st.floats(0.0, 1e308)), st.floats(0.0, 1.0))
    def test_y_ratio_family_keeps_q_x_equal_to_q_z(self, ratio, scale):
        rates = ChannelFamily.from_y_ratio(ratio).rates_at(scale)
        assert rates.q_x == rates.q_z

    # Every float, ints up to 10**400, numpy scalars and non-numbers: the
    # ratio family is the generic constructor's ray, or fails as it does.
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1.0, 2.0000000000000004,
                         math.nan, math.inf, -math.inf]),
        st.floats(),
        st.sampled_from([0, 3, -3, 10**400, True]),
        st.integers(),
        st.floats().map(np.float64),
        st.floats(width=32).map(np.float32),
        st.sampled_from(["one", None]),
    ))
    def test_y_ratio_family_is_the_generic_ray(self, ratio):
        def generic(ratio):
            if ratio < 0.0:
                raise ValueError(f"ratio must be nonnegative, got {ratio}")
            return ChannelFamily((1.0, ratio, 1.0))

        def outcome(make):
            try:
                family = make(ratio)
            except Exception as exc:
                return type(exc), str(exc)
            assert type(family) is ChannelFamily
            return family.weights, [type(weight) for weight in family.weights]

        want = outcome(generic)
        assert outcome(ChannelFamily.from_y_ratio) == want
        if want[1] == [int, int, int]:
            d, n, _ = want[0]
            assert want[0] == (d, n, d) and math.gcd(n, d) == 1

    @pytest.mark.parametrize("ratio", [1e-300, 5e-324])
    def test_weights_past_the_float_range_round_trip(self, ratio):
        # Weights up to (2^1074, 1, 2^1074): each int is taken exactly, not through float().
        family = ChannelFamily.from_y_ratio(ratio)
        assert max(family.weights) > 2**1023
        assert ChannelFamily(family.weights) == family
        assert eval(repr(family), {"ChannelFamily": ChannelFamily}) == family

    def test_components_up_to_the_float_maximum_are_one_ray(self):
        # Their float total would overflow; the exact ray does not.
        family = ChannelFamily((1e308, 1e308, 0.0))
        assert family == ChannelFamily((1.0, 1.0, 0.0))
        assert family.weights == (1, 1, 0)
        assert family.rates_at(0.5) == PauliRates(0.5, 0.25, 0.25, 0.0)

    @pytest.mark.parametrize("raw, message", [
        ((1.0, 1.0), "direction must be three finite nonnegative components, got (1.0, 1.0)"),
        ((1.0, 1.0, 1.0, 1.0),
         "direction must be three finite nonnegative components, got (1.0, 1.0, 1.0, 1.0)"),
        ((1.0, math.nan, 1.0),
         "direction must be three finite nonnegative components, got (1.0, nan, 1.0)"),
        ((1.0, math.inf, 1.0),
         "direction must be three finite nonnegative components, got (1.0, inf, 1.0)"),
        ((-math.inf, 1.0, 1.0),
         "direction must be three finite nonnegative components, got (-inf, 1.0, 1.0)"),
        ((1.0, -1.0, 1.0),
         "direction must be three finite nonnegative components, got (1.0, -1.0, 1.0)"),
        ((1.0, -5e-324, 1.0),
         "direction must be three finite nonnegative components, got (1.0, -5e-324, 1.0)"),
        ((0.0, 0.0, 0.0), "direction must have a positive finite total weight, got 0.0"),
        # Negative zeros weigh nothing either: their exact total is 0.
        ((-0.0, -0.0, -0.0), "direction must have a positive finite total weight, got 0.0"),
        (("one", 1.0, 1.0), "could not convert string to float: 'one'"),
    ], ids=["length-2", "length-4", "nan", "inf", "-inf", "negative", "negative-subnormal",
            "zeros", "negative-zeros", "string"])
    def test_invalid_direction_raises_its_message(self, raw, message):
        with pytest.raises(ValueError) as exc:
            ChannelFamily(raw)
        assert type(exc.value) is ValueError
        assert str(exc.value) == message


class TestIsDistillable:
    def test_two_way_spot_checks_on_equal_bit_phase_channels(self):
        # q_x0 = q_z0 = 0.24 clears two rejection rounds plus parity;
        # 0.26 is past the feasibility boundary of the whole family.
        good = PauliRates.from_error_rates(0.24, 0.0, 0.24)
        bad = PauliRates.from_error_rates(0.26, 0.0, 0.26)
        assert is_distillable(good, ProtocolVariant.Y_BASIS_TWO_WAY) is True
        assert distill_schedule(conjugate(good, Basis.Y)).succeeded
        assert is_distillable(bad, ProtocolVariant.Y_BASIS_TWO_WAY) is False

    def test_one_way_variants_accept_a_low_noise_channel(self):
        rates = PauliRates.from_error_rates(0.05, 0.0, 0.05)
        for variant in (
            ProtocolVariant.SINGLE_BASIS_ONE_WAY,
            ProtocolVariant.SIX_STATE_SEPARATE_ONE_WAY,
        ):
            assert is_distillable(rates, variant) is True

    def test_finite_witness_when_schedule_succeeds(self):
        rates = PauliRates.from_error_rates(0.10, 0.0, 0.10)
        effective = conjugate(rates, Basis.Y)
        assert distill_schedule(effective).succeeded
        assert is_distillable(rates, ProtocolVariant.Y_BASIS_TWO_WAY)
        trace = distill_schedule(conjugate(rates, Basis.Y))
        assert trace.succeeded
        assert trace == distill_schedule(effective)

    def test_witness_caps_do_not_decide_feasibility(self):
        # No schedule fits caps this tight, yet the channel is distillable.
        rates = PauliRates.from_error_rates(0.10, 0.0, 0.10)
        tight = SearchParams(m_max=0, k_max=1)
        assert not distill_schedule(conjugate(rates, Basis.Y), tight).succeeded
        assert is_distillable(rates, ProtocolVariant.Y_BASIS_TWO_WAY)

    def test_exactly_tied_channel_is_not_distillable(self):
        # The Y-conjugate (0.5, 0.125, 0.375, 0.0) has s = q_x + q_y equal to
        # u = q_i + q_z, so the bit error stays exactly 1/2 under every
        # rejection round and no schedule can distill it, neither by the
        # closed form nor by the capped witness.
        rates = PauliRates(0.5, 0.375, 0.0, 0.125)
        assert conjugate(rates, Basis.Y) == PauliRates(0.5, 0.125, 0.375, 0.0)
        assert is_distillable(rates, ProtocolVariant.Y_BASIS_TWO_WAY) is False
        assert not distill_schedule(conjugate(rates, Basis.Y)).succeeded
        # 0.15 and 0.35 are not dyadic: the floats add up to less than 0.5,
        # so (0.5, 0.35, 0.0, 0.15) is not tied, and its exact value decides.
        # The witness iterates in floats, where s rounds to u, and fails.
        near = PauliRates(0.5, 0.35, 0.0, 0.15)
        assert Fraction(near.q_x) + Fraction(near.q_z) < Fraction(near.q_i)
        assert is_distillable(near, ProtocolVariant.Y_BASIS_TWO_WAY) is True
        assert not distill_schedule(conjugate(near, Basis.Y)).succeeded


class TestWitnessOnDemand:
    """Thresholds and sweeps never run the capped schedule search."""

    @pytest.fixture
    def no_schedule_search(self, monkeypatch):
        original = distill.distill_schedule

        def forbidden(*args, **kwargs):
            raise AssertionError("distill_schedule ran during a threshold search")

        for name, module in list(sys.modules.items()):
            if name == "asymqkd" or name.startswith("asymqkd."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, forbidden)

    def test_patch_reaches_the_witness(self, no_schedule_search):
        rates = PauliRates.from_error_rates(0.10, 0.0, 0.10)
        with pytest.raises(AssertionError, match="distill_schedule ran"):
            distill.distill_schedule(conjugate(rates, Basis.Y))

    @pytest.mark.parametrize(
        "variant", [ProtocolVariant.Y_BASIS_TWO_WAY, ProtocolVariant.CHAU_BASELINE]
    )
    def test_two_way_thresholds(self, no_schedule_search, variant):
        result = threshold_total_noise(ChannelFamily.from_y_ratio(0.5), variant)
        assert 0.4 < result.threshold <= 0.5

    def test_sweep(self, no_schedule_search):
        rows = list(sweep_fig1([0.0, 0.5]))
        assert [row.error for row in rows] == [None, None]


class TestThresholds:
    def test_y_basis_no_sigma_y_noise(self):
        result = threshold_total_noise(
            ChannelFamily.from_y_ratio(0.0), ProtocolVariant.Y_BASIS_TWO_WAY
        )
        assert result.threshold == pytest.approx(0.5, abs=2e-4)
        assert result.bracket.high - result.bracket.low <= 1e-4

    def test_baseline_symmetric(self):
        result = threshold_total_noise(
            ChannelFamily.from_y_ratio(1.0), ProtocolVariant.CHAU_BASELINE
        )
        assert result.threshold == pytest.approx(TWO_WAY_LIMIT_SYMMETRIC, abs=2e-4)

    def test_baseline_does_not_care_about_the_y_fraction(self):
        # Equal-weight basis averaging wipes out the shape of the noise:
        # the averaged channel depends only on the total.
        thresholds = [
            threshold_total_noise(
                ChannelFamily.from_y_ratio(r), ProtocolVariant.CHAU_BASELINE
            ).threshold
            for r in (0.0, 0.5, 1.0)
        ]
        assert max(thresholds) - min(thresholds) <= 2e-4

    def test_single_basis_zero(self):
        result = threshold_total_noise(
            ChannelFamily.from_y_ratio(0.0), ProtocolVariant.SINGLE_BASIS_ONE_WAY
        )
        assert _within_ulps(result.threshold, SINGLE_BASIS_ROOT[0.0], 4)

    def test_sixstate_separate_zero(self):
        result = threshold_total_noise(
            ChannelFamily.from_y_ratio(1.0), ProtocolVariant.SIX_STATE_SEPARATE_ONE_WAY
        )
        assert _within_ulps(result.threshold, SIXSTATE_SEPARATE_ROOT[1.0], 4)

    @pytest.mark.parametrize("ratio", sorted(SINGLE_BASIS_ROOT))
    @pytest.mark.parametrize("variant", list(ONE_WAY_ROOT), ids=lambda v: v.value)
    def test_one_way_root_within_four_ulps_between_adjacent_floats(self, ratio, variant):
        family = ChannelFamily.from_y_ratio(ratio)
        result = threshold_total_noise(family, variant)
        assert _within_ulps(result.threshold, ONE_WAY_ROOT[variant][ratio], 4)
        low, high = result.bracket.low, result.bracket.high
        assert math.nextafter(low, 1.0) == high
        assert is_distillable(family.rates_at(low), variant)
        assert not is_distillable(family.rates_at(high), variant)

    def test_threshold_is_bracket_midpoint(self):
        result = threshold_total_noise(
            ChannelFamily.from_y_ratio(0.0), ProtocolVariant.SINGLE_BASIS_ONE_WAY
        )
        assert result.threshold == 0.5 * (result.bracket.low + result.bracket.high)

    def test_family_feasible_at_both_ends_raises(self):
        # The message names both ends of the infeasible window, the roots of
        # (a^2 + b^2)S^2 - (2b + a)S + 1 (derive_golden.py), in closed form.
        for ratio, r1, r2 in YBASIS_WINDOWS:
            with pytest.raises(NonMonotoneFamilyError) as exc:
                threshold_total_noise(
                    ChannelFamily.from_y_ratio(ratio), ProtocolVariant.Y_BASIS_TWO_WAY
                )
            named = re.search(r"r1=(\S+) and above r2=(\S+) ", str(exc.value))
            assert abs(float(named[1]) - r1) <= 1e-12
            assert abs(float(named[2]) - r2) <= 1e-12

    @pytest.mark.parametrize(
        "direction, variant",
        [
            ((1.0, 2.5, 1.0), ProtocolVariant.Y_BASIS_TWO_WAY),
            ((1.0, 3998.0, 1.0), ProtocolVariant.Y_BASIS_TWO_WAY),
            ((0.0, 1.0, 0.0), ProtocolVariant.Y_BASIS_TWO_WAY),
            ((0.0, 1.0, 0.0), ProtocolVariant.SINGLE_BASIS_ONE_WAY),
            ((1.0, 0.0, 0.0), ProtocolVariant.SINGLE_BASIS_ONE_WAY),
            ((0.05, 0.9, 0.05), ProtocolVariant.SIX_STATE_SEPARATE_ONE_WAY),
        ],
        ids=[
            "ybasis-ratio-2.5",
            "ybasis-ratio-3998",
            "ybasis-pure-y",
            "single-basis-pure-y",
            "single-basis-pure-x",
            "sixstate-0.05-0.9-0.05",
        ],
    )
    def test_reentrant_family_raises_non_monotone(self, direction, variant):
        # Feasible, then infeasible, then feasible again up to S = 1: the
        # ray has no single threshold, which is not the same as having none.
        # Pure sigma_y noise turned into the Y frame is pure phase noise of
        # rate S, distillable at every total noise S except exactly 1/2,
        # where the phase error is 1/2.  That window and the ratio-3998 one,
        # about 0.016 wide, would slip between the points of a coarse grid;
        # probing S = 1 finds them.
        with pytest.raises(NonMonotoneFamilyError):
            threshold_total_noise(ChannelFamily(direction), variant)

    def test_bisection_below_float_spacing_ends_at_adjacent_floats(self):
        result = threshold_total_noise(
            ChannelFamily.from_y_ratio(0.0), ProtocolVariant.SINGLE_BASIS_ONE_WAY
        )
        assert math.nextafter(result.bracket.low, 1.0) == result.bracket.high


def _exact(text):
    return Fraction(Decimal(text))


def _within_ulps(got, text, ulps):
    return abs(Fraction(got) - _exact(text)) <= ulps * Fraction(math.ulp(got))


# A direction component: zero, tiny or anywhere in [0, 1].
_COMPONENT = st.one_of(st.just(0.0), st.floats(1e-12, 1e-6), st.floats(0.0, 1.0))


def _exact_effective(direction, scale, variant):
    """Effective rates of a two-way ``variant`` at ``scale`` on the ray of the exact ``direction``."""
    d_x, d_y, d_z = (Fraction(c) for c in direction)
    step = Fraction(scale) / (d_x + d_y + d_z)
    q_i, q_x, q_y, q_z = 1 - Fraction(scale), step * d_x, step * d_y, step * d_z
    if variant is ProtocolVariant.Y_BASIS_TWO_WAY:  # conjugate(., Y)
        return q_i, q_z, q_x, q_y
    # average_over_mixture: the mean of the Z, X and Y conjugates.
    return q_i, (q_x + 2 * q_z) / 3, (q_x + 2 * q_y) / 3, (q_x + q_y + q_z) / 3


def _on_exact_ray(direction, scale, variant):
    """``limit_criterion`` at ``scale`` on the ray of the exact values of ``direction``."""
    return limit_criterion(_exact_effective(direction, scale, variant))


def _assert_neighbours_straddle_the_exact_root(direction, variant, got):
    assert got.bracket == Bracket(
        math.nextafter(got.threshold, 0.0), math.nextafter(got.threshold, 1.0))
    assert _on_exact_ray(direction, got.bracket.low, variant)
    assert not _on_exact_ray(direction, got.bracket.high, variant)


class TestClosedForm:
    """Two-way thresholds are the root r1 on the exact ray, correctly rounded.

    Each bracket is the two floats next to r1, on its two sides of the exact
    ray in ``Fraction`` arithmetic.
    """

    @pytest.mark.parametrize("ratio", sorted(YBASIS_R1))
    @pytest.mark.parametrize("variant", TWO_WAY, ids=lambda v: v.value)
    def test_root_is_within_two_ulps_and_inside_its_bracket(self, ratio, variant):
        # Within zero ulps: the 50-digit value, correctly rounded.
        want = YBASIS_R1[ratio] if variant is ProtocolVariant.Y_BASIS_TWO_WAY else CHAU_R1
        got = threshold_total_noise(ChannelFamily.from_y_ratio(ratio), variant)
        assert got.threshold == float(Decimal(want))
        assert Fraction(got.bracket.low) < _exact(want) < Fraction(got.bracket.high)

    @pytest.mark.parametrize("ratio", [0.0, 0.3, 1.0, 2.0, 1e-9, 0.999])
    @pytest.mark.parametrize("variant", TWO_WAY, ids=lambda v: v.value)
    def test_bracket_ends_are_certified_next_to_the_root(self, ratio, variant):
        got = threshold_total_noise(ChannelFamily.from_y_ratio(ratio), variant)
        _assert_neighbours_straddle_the_exact_root((1.0, ratio, 1.0), variant, got)

    # Directions with zero, subnormal, tiny and huge components, and ratio
    # families up to 1e308; re-entrant rays must be feasible at S = 1.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.one_of(
            st.tuples(*[st.one_of(_COMPONENT, st.just(5e-324), st.floats(1.0, 1e307))] * 3)
            .filter(lambda d: sum(d) > 0.0),
            st.one_of(st.just(5e-324), st.just(1e308), st.floats(0.0, 1e308))
            .map(lambda ratio: (1.0, ratio, 1.0)),
        ),
        st.sampled_from(TWO_WAY),
    )
    def test_bracket_straddles_the_root_on_the_exact_ray(self, direction, variant):
        try:
            got = threshold_total_noise(ChannelFamily(direction), variant)
        except NonMonotoneFamilyError:
            assert _on_exact_ray(direction, 1.0, variant)
            return
        assert not _on_exact_ray(direction, 1.0, variant)
        _assert_neighbours_straddle_the_exact_root(direction, variant, got)

    # Zero, subnormal and huge components, and re-entrant Y-basis rays.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.tuples(*[st.sampled_from([0.0, 5e-324, 1.0, 1e308])] * 3)
        .filter(lambda d: 0.0 < sum(d) < math.inf),
        st.one_of(st.just(5e-324), st.just(1e308), st.floats(0.0, 1e308))
        .map(lambda ratio: (1.0, ratio, 1.0)),
        st.tuples(st.floats(1e-3, 0.49), st.floats(1e-3, 0.49)).map(lambda xz: (xz[0], 1.0, xz[1])),
    ))
    def test_chau_threshold_is_the_same_on_every_ray(self, direction):
        r1 = float(Decimal(CHAU_R1))
        got = threshold_total_noise(ChannelFamily(direction), ProtocolVariant.CHAU_BASELINE)
        assert got == (r1, Bracket(math.nextafter(r1, 0.0), math.nextafter(r1, 1.0)))

    def test_sweep_takes_one_root_per_ybasis_threshold(self, monkeypatch):
        # The chau root is the same on every ray, so no row computes it.
        roots = []
        smaller_root = threshold._smaller_root

        def counted(p, q):
            roots.append((p, q))
            return smaller_root(p, q)

        monkeypatch.setattr(threshold, "_smaller_root", counted)
        ratios = [0.0 + i * 0.05 for i in range(21)] + [5e-324, 1.9999999999999998]
        rows = list(sweep_fig1(ratios))
        assert [row.error for row in rows] == [None] * len(ratios)
        assert len(roots) == len(ratios)

    def test_sweep_builds_no_family_through_the_generic_constructor(self, monkeypatch):
        # from_y_ratio sets (d, n, d) itself; only a ratio it rejects reaches __init__.
        calls = []
        generic = ChannelFamily.__init__

        def counted(self, weights):
            calls.append(weights)
            generic(self, weights)

        monkeypatch.setattr(ChannelFamily, "__init__", counted)
        ratios = [0.0 + i * 0.05 for i in range(21)] + [5e-324, 1e308, 2.5, 3, 10**400]
        rows = list(sweep_fig1(ratios))
        assert [row.y_ratio for row in rows] == ratios
        assert calls == []

    def test_float_channel_at_the_low_end_may_be_infeasible(self):
        # The exact ray decides: round-off in ``rates_at`` puts the float
        # channel of this ray at ``bracket.low`` past the boundary.
        direction = (1.0, 0.1365, 1.0)
        family, variant = ChannelFamily(direction), ProtocolVariant.Y_BASIS_TWO_WAY
        got = threshold_total_noise(family, variant)
        _assert_neighbours_straddle_the_exact_root(direction, variant, got)
        assert not is_distillable(family.rates_at(got.bracket.low), variant)

    @pytest.mark.parametrize("direction, variant", [
        ((1.0, 0.03, 1.0), ProtocolVariant.Y_BASIS_TWO_WAY),
        ((1.0, 0.015, 1.0), ProtocolVariant.CHAU_BASELINE),
    ], ids=["ybasis", "chau"])
    def test_float_channel_at_the_high_end_may_be_feasible(self, direction, variant):
        # Round-off in ``rates_at`` has no bias: here it puts the float
        # channel at ``bracket.high`` back on the feasible side.
        family = ChannelFamily(direction)
        got = threshold_total_noise(family, variant)
        _assert_neighbours_straddle_the_exact_root(direction, variant, got)
        assert is_distillable(family.rates_at(got.bracket.high), variant)

    # Channels a few floats from r1, where s·u and v² agree to round-off.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 2.0), st.sampled_from(TWO_WAY), st.integers(-4, 4))
    def test_criterion_near_the_root_equals_the_fraction_criterion(self, ratio, variant, steps):
        family = ChannelFamily.from_y_ratio(ratio)
        scale = threshold_total_noise(family, variant).threshold
        for _ in range(abs(steps)):
            scale = math.nextafter(scale, math.copysign(math.inf, steps))
        effective = _effective(family.rates_at(scale), variant)
        assert distillable_in_limit(effective) is limit_criterion(effective.as_tuple())

    # Re-entrant Y-basis rays: the ratio family above 2 and (d_x, 1, d_z)
    # with d_x + d_z < 1, so a lies in [0.002, 1/2).
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.one_of(
        st.floats(2.0001, 1e3).map(ChannelFamily.from_y_ratio),
        st.tuples(st.floats(1e-3, 0.49), st.floats(1e-3, 0.49)).map(
            lambda xz: ChannelFamily((xz[0], 1.0, xz[1]))),
    ))
    def test_reentrant_ends_lie_in_the_bisected_brackets(self, family):
        (low1, high1), (low2, high2) = bisected_window(family, ProtocolVariant.Y_BASIS_TWO_WAY)
        with pytest.raises(NonMonotoneFamilyError) as exc:
            threshold_total_noise(family, ProtocolVariant.Y_BASIS_TWO_WAY)
        r1, r2 = map(float, re.search(r"r1=(\S+) and above r2=(\S+) ", str(exc.value)).groups())
        assert low1 <= r1 <= high1
        assert low2 <= r2 <= high2

    def test_two_way_threshold_builds_no_channel(self, monkeypatch):
        single, reentrant = ChannelFamily.from_y_ratio(0.5), ChannelFamily.from_y_ratio(2.5)

        def forbidden(*args, **kwargs):
            raise AssertionError("a two-way threshold built or judged a channel")

        monkeypatch.setattr(ChannelFamily, "rates_at", forbidden)
        monkeypatch.setattr(PauliRates, "__init__", forbidden)
        monkeypatch.setattr(threshold, "is_distillable", forbidden)
        monkeypatch.setattr(threshold, "distillable_in_limit", forbidden)
        for variant in TWO_WAY:
            assert 0.4 < threshold_total_noise(single, variant).threshold < 0.5
        with pytest.raises(NonMonotoneFamilyError):  # decided at S = 1 without a probe
            threshold_total_noise(reentrant, ProtocolVariant.Y_BASIS_TWO_WAY)


class TestRayShape:
    """Every variant is feasible on [0, r1) and maybe (r2, 1], r1 <= 1/2 <= r2."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(lambda d: sum(d) > 0.0))
    # Y-basis rays tied at S = 1/2 (no sigma_y noise) and within round-off of a tie.
    @example((4.905309791765942e-07, 0.0, 1.5065970216852542e-07))
    @example((1e-12, 1.1125369292536007e-308, 4.3866017153030014e-07))
    def test_feasible_then_infeasible_then_maybe_feasible(self, direction):
        family = ChannelFamily(direction)
        for variant in ProtocolVariant:
            flags = [is_distillable(family.rates_at(i / 200), variant) for i in range(201)]
            flips = sum(a != b for a, b in zip(flags, flags[1:]))
            assert flags[0]
            if variant in TWO_WAY:
                # g(1/2) = a(a - 1)/2 <= 0 on the exact ray; where it is within
                # round-off of 0 the float channel can fall on either side.
                assert not _on_exact_ray(direction, 0.5, variant)
                effective = _effective(family.rates_at(0.5), variant)
                assert flags[100] is limit_criterion(effective.as_tuple())
            else:
                assert not flags[100]
            assert flips == 1 if not flags[-1] else flips <= 2

    def test_agrees_with_the_audit_grid_where_it_sees_one_flip(self):
        rng = np.random.default_rng(20040406)
        directions = [tuple(d) for d in rng.dirichlet((0.5, 0.5, 0.5), 88)]
        directions += [
            (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (1.0, 1.0, 0.0),
            (0.0, 1.0, 1.0), (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), (1.0, 1e-9, 1.0),
            (1e-9, 1.0, 1e-9), (1.0, 0.3, 1.0), (1.0, 2.0, 1.0), (1.0, 3998.0, 1.0),
        ]
        outcomes = []
        for direction in directions:
            family = ChannelFamily(direction)
            for variant in ProtocolVariant:
                two_way = variant in TWO_WAY
                try:
                    want = bisected_threshold(family, variant, tol=1e-12 if two_way else 1e-13)
                except AuditError:
                    outcomes.append("other")
                    with pytest.raises(NonMonotoneFamilyError):
                        threshold_total_noise(family, variant)
                    continue
                outcomes.append("one flip")
                got = threshold_total_noise(family, variant)
                _, low, high = want
                assert low <= got.threshold <= high
                if two_way:
                    _assert_neighbours_straddle_the_exact_root(direction, variant, got)
                else:
                    assert math.nextafter(got.bracket.low, 1.0) == got.bracket.high
        assert {"one flip", "other"} <= set(outcomes)


class TestSweep:
    def test_rows_carry_both_thresholds(self):
        rows = list(sweep_fig1([0.0, 0.5]))
        assert len(rows) == 2
        for row in rows:
            assert row.error is None
            assert row.threshold_ybasis > row.threshold_chau
            assert 0.0 < row.threshold_chau < row.threshold_ybasis <= 0.5

    def test_q_y0_column_reports_the_y_noise_at_threshold(self):
        # Correctly rounded on the exact ray, q_y0 = threshold · R / (2 + R),
        # on the default sweep-fig1 grid and at subnormal and huge weights:
        # the q_y of ``rates_at`` at the Y-basis threshold.
        ratios = [0.0 + i * 0.05 for i in range(21)] + [5e-324, 1e-300, 1.9999999999999998]
        for row in sweep_fig1(ratios):
            ratio = Fraction(row.y_ratio)
            exact = Fraction(row.threshold_ybasis) * ratio / (2 + ratio)
            assert row.q_y0_at_threshold == float(exact)
            family = ChannelFamily.from_y_ratio(row.y_ratio)
            assert row.q_y0_at_threshold == family._errors_at(row.threshold_ybasis)[1]

    def test_failed_rows_carry_the_message_and_nans(self):
        rows = list(sweep_fig1([0.0, float("nan")]))
        assert rows[0].error is None
        assert rows[1].error is not None
        assert math.isnan(rows[1].threshold_ybasis)

    def test_search_params_validation(self):
        with pytest.raises(ValueError):
            SearchParams(target=0.9)


def _bits(values):
    return [float(v).hex() for v in values]


def _curves(cases, grid):
    """One ``Fig2Curve`` per case: its ``fig2_blocks`` joined, arrays over the whole grid."""
    curves = []
    for blocks in fig2_blocks(cases, grid):
        parts = list(blocks)
        curves.append(parts[-1]._replace(one_way=np.concatenate([p.one_way for p in parts]),
                                         two_way=np.concatenate([p.two_way for p in parts])))
    return curves


class TestSweepFig2:
    # A q_y0 case and up to 20 totals in [q_y0, 1], the range the sweep
    # evaluates; hypothesis favours the ends, subnormals and exact ties.
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.floats(0.0, 1.0).flatmap(lambda q_y0: st.tuples(
        st.just(q_y0), st.lists(st.floats(q_y0, 1.0), min_size=1, max_size=20))))
    @example((-0.0, [-0.0, 0.0, 0.02, 0.5, 1.0]))  # a q_y0 of -0.0, stored as +0.0 by both
    @example((1.0, [1.0]))  # q_i = q_x = q_z = 0
    @example((5e-324, [5e-324, 1.0]))  # a subnormal q_y0; q_x = 0, then q_i = 0
    def test_kernel_equals_scalar_path_bit_for_bit(self, case):
        q_y0, totals = case
        want_one, want_two = [], []
        for total in totals:
            q_x0 = (total - q_y0) / 2.0
            rates = PauliRates.from_error_rates(q_x0, q_y0, q_x0)
            want_one.append(rate_sixstate_separate(rates))
            want_two.append(modified_rate_one_bstep(conjugate(rates, Basis.Y)))
        one_way, two_way = _fig2_rates(q_y0, np.array(totals))
        assert _bits(one_way) == _bits(want_one)
        assert _bits(two_way) == _bits(want_two)

    @pytest.mark.parametrize("q_y0", [1.5, -0.1, math.nan, math.inf])
    def test_cases_outside_the_unit_interval_are_rejected_first(self, monkeypatch, q_y0):
        def no_work(*args):
            raise AssertionError("evaluated a curve before checking every case")

        monkeypatch.setattr(threshold, "_fig2_rates", no_work)
        with pytest.raises(ValueError, match=re.escape(f"q_y0={q_y0!r} outside [0, 1]")):
            fig2_blocks([0.0, q_y0], (0.05, 0.05, 2))

    @pytest.mark.parametrize("grid", [
        (math.nan, 0.05, 3), (math.inf, 0.05, 3), (-math.inf, 0.05, 3),
        (0.05, math.nan, 3), (0.05, math.inf, 3), (0.05, -math.inf, 3),
    ], ids=["lo-nan", "lo-inf", "lo--inf", "step-nan", "step-inf", "step--inf"])
    def test_grid_lo_and_step_that_are_not_finite_are_rejected_first(self, monkeypatch, grid):
        # Once iterated, such a grid would hand the kernel NaN totals: 0 * inf, or NaN itself.
        def no_work(*args):
            raise AssertionError("evaluated a curve before checking the grid")

        monkeypatch.setattr(threshold, "_fig2_rates", no_work)
        with pytest.raises(ValueError, match=re.escape(f"grid lo={grid[0]!r} and step={grid[1]!r}")):
            fig2_blocks([0.0], grid)

    @pytest.mark.parametrize("grid, message", [
        ((0.05, 0.05, -2), "grid count -2 is not an int >= 0"),
        ((0.05, 0.05, 3.5), "grid count 3.5 is not an int >= 0"),
    ], ids=["count-negative", "count-float"])
    def test_bad_grid_count_or_block_rows_are_rejected_first(self, monkeypatch, grid, message):
        def no_work(*args):
            raise AssertionError("evaluated a curve before checking the grid")

        monkeypatch.setattr(threshold, "_fig2_rates", no_work)
        with pytest.raises(ValueError, match=re.escape(message)):
            fig2_blocks([0.0, 0.01], grid)

    def test_curves_are_nan_outside_the_simplex(self):
        # Totals 0, 0.01, ..., 1.01: points 2 and 100 are exactly 0.02 and 1.0.
        zero, high = _curves([0.0, 0.02], (0.0, 0.01, 102))
        assert zero.q_y0 == 0.0 and high.q_y0 == 0.02
        assert np.isnan(zero.one_way).tolist() == [False] * 101 + [True]
        assert np.isnan(high.two_way).tolist() == [True, True] + [False] * 99 + [True]
        assert zero.one_way[0] == 1.0 and zero.two_way[0] == 0.5

    def test_crossing_is_bisected_from_the_first_sign_change(self):
        # Frozen from scripts/derive_golden.py.
        (curve,) = _curves([0.0], (0.05, 0.05, 4))
        assert curve.crossing == pytest.approx(0.12672899360905127, abs=1e-9)
        (curve,) = _curves([0.0], (0.05, 0.05, 2))
        assert curve.crossing is None
        # An empty grid: one empty block a case, without a crossing.
        for blocks in fig2_blocks([0.0, 0.02], (0.05, 0.05, 0)):
            (block,) = blocks
            assert block.totals.size == block.one_way.size == block.two_way.size == 0
            assert block.crossing is None

    def test_bisection_stops_once_its_ends_are_adjacent_floats(self, monkeypatch):
        kernel = threshold._fig2_rates

        def gap(total):
            one_way, two_way = kernel(0.0, np.array([total]))
            return two_way[0] - one_way[0]

        lo, hi = 0.1, 0.15
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if gap(mid) > 0.0 else (mid, hi)
        assert math.nextafter(lo, 1.0) == hi

        kernel_cases, probe_cases = [], []

        def recorded_kernel(q_y0, totals):
            kernel_cases.append(q_y0)
            return kernel(q_y0, totals)

        def recorded_probe(rates):
            # A probe belongs to the case of the kernel call before it.
            probe_cases.append(kernel_cases[-1])
            return rate_sixstate_separate(rates)

        monkeypatch.setattr(threshold, "_fig2_rates", recorded_kernel)
        monkeypatch.setattr(threshold, "rate_sixstate_separate", recorded_probe)
        curve, other = _curves([0.0, 0.01], (0.05, 0.05, 4))
        assert curve.crossing == 0.5 * (lo + hi)
        assert other.crossing is not None
        # One kernel call per case for the grid, then one scalar probe per round.
        assert kernel_cases == [0.0, 0.01]
        for case in kernel_cases:
            assert 0 < probe_cases.count(case) < 60


def _plain_shannon4(comps):
    """The four-row formula, each term q·log2(q) taken for itself."""
    terms = [[q * math.log2(q) if q > 0.0 else 0.0 for q in row] for row in comps.tolist()]
    return [0.0 - a - b - c - d for a, b, c, d in zip(*terms)]


# Subnormals, signed zeros and round-off below zero, besides the usual range.
_ENTRIES = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, -0.0, 5e-324, 4.05e-322, 4.1e-322, 2.2250738585072014e-308, 1.0]),
    st.floats(-1e-12, 0.0),
)


@st.composite
def _adjacent_floats(draw):
    """Up to four adjacent floats, from the subnormals, the normal edge or anywhere in (0, 1]."""
    low = draw(st.one_of(st.sampled_from([5e-324, 1e-320, 2.2250738585072004e-308]),
                         st.floats(5e-324, 1.0)))
    values = [low]
    for _ in range(draw(st.integers(0, 3))):
        values.append(math.nextafter(values[-1], 2.0))
    return values


@st.composite
def _four_rows(draw):
    """(4, n) rows, each fresh, a copy of an earlier row (its zeros maybe
    negated), without a positive entry, or a few adjacent floats mixed with zeros."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(4):
        kind = draw(st.sampled_from(["fresh", "copy", "copy, zeros negated", "nonpositive",
                                     "adjacent"]))
        if kind == "nonpositive":
            rows.append(draw(st.lists(st.sampled_from([0.0, -0.0, -1e-13]), min_size=n, max_size=n)))
        elif kind == "adjacent":
            values = draw(_adjacent_floats()) + draw(st.sampled_from([[], [0.0], [0.0, -0.0]]))
            rows.append(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
        elif kind == "fresh" or not rows:
            rows.append(draw(st.lists(_ENTRIES, min_size=n, max_size=n)))
        else:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "copy" else [-q if q == 0.0 else q for q in row])
    return np.array(rows)


class TestShannon4Rows:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_four_rows())
    # x² + y² = 4.05e-322 and 2xy = 4.1e-322 at x = y = 1.430206016712772e-161:
    # rows that the B-step at q_x = q_y leaves apart in the subnormal range.
    @example(np.array([[0.5, 1.0], [4.05e-322, 0.25], [4.1e-322, 0.25], [0.0, -0.0]]))
    def test_equals_the_plain_formula_bit_for_bit(self, comps):
        assert _bits(_shannon4(comps)) == _bits(_plain_shannon4(comps))

    def test_repeated_and_empty_rows_take_no_logarithm(self, monkeypatch):
        calls, real = [], math.log2

        def log2(q):
            calls.append(q)
            return real(q)

        comps = np.array([[0.5, 0.25], [0.25, 0.5], [0.0, -0.0], [0.25, 0.5]])
        want = _plain_shannon4(comps)
        monkeypatch.setattr(math, "log2", log2)
        assert _bits(_shannon4(comps)) == _bits(want)
        assert calls == [0.5, 0.25, 0.25, 0.5]

    def test_a_row_of_three_adjacent_floats_takes_three_logarithms(self, monkeypatch):
        calls, real = [], math.log2

        def log2(q):
            calls.append(q)
            return real(q)

        values = [0.1, math.nextafter(0.1, 1.0), math.nextafter(math.nextafter(0.1, 1.0), 1.0)]
        row = np.array(values * 1365 + values[:1])
        comps = np.array([row, np.zeros(4096), -np.zeros(4096), np.zeros(4096)])
        want = _plain_shannon4(comps)
        monkeypatch.setattr(math, "log2", log2)
        assert _bits(_shannon4(comps)) == _bits(want)
        assert sorted(calls) == values


class TestRenormalized:
    # The kernel's renormalization: the clip, then ``_normalized`` on the rows.
    def test_round_off_and_an_empty_block_pass(self):
        # Round-off down to -1e-12 is clipped to +0.0, as in ``PauliRates``.
        comps = np.array([[1.0, 0.5], [0.0, 0.25], [0.0, 0.25], [0.0, -1e-12]])
        got = np.array(_normalized(*np.maximum(comps, 0.0)))
        assert got.tolist() == [[1.0, 0.5], [0.0, 0.25], [0.0, 0.25], [0.0, 0.0]]
        assert math.copysign(1.0, got[3, 1]) == 1.0
        assert np.array(_normalized(*np.maximum(np.zeros((4, 0)), 0.0))).shape == (4, 0)
