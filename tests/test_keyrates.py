import math
import random

import pytest

from asymqkd.channel import PauliRates
from asymqkd.keyrates import (
    binary_entropy,
    rate_bb84_symmetrized,
    rate_single_basis,
    rate_sixstate_mixed,
    rate_sixstate_separate,
    shannon4,
)

# Frozen from scripts/derive_golden.py (50-digit arithmetic, printed to
# full float precision).
H_005 = 0.28639695711595613
H_006 = 0.32744491915447620
H_010 = 0.46899559358928122
SHANNON4_SPOT = 1.3567796494470395
RATE_BB84_EXAMPLE = 0.34511016169104761
RATE_SINGLE_EXAMPLE = 0.38956386386889813
RATE_SEPARATE_EXAMPLE = 0.25241532017542615
RATE_MIXED_EXAMPLE = 0.16058573676997720


class TestBinaryEntropy:
    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum_at_half(self):
        assert binary_entropy(0.5) == 1.0

    def test_symmetry(self):
        for t in (0.01, 0.1, 0.25, 0.4):
            assert binary_entropy(t) == pytest.approx(binary_entropy(1.0 - t), abs=1e-15)

    @pytest.mark.parametrize(
        "t,expected", [(0.05, H_005), (0.06, H_006), (0.10, H_010)]
    )
    def test_spot_values(self, t, expected):
        assert binary_entropy(t) == pytest.approx(expected, abs=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    @pytest.mark.parametrize("t", [math.nan, -math.nan])
    def test_nan_rejected(self, t):
        with pytest.raises(ValueError, match="nan"):
            binary_entropy(t)

    def test_boundary_slack_is_clamped(self):
        assert binary_entropy(-1e-13) == 0.0
        assert binary_entropy(1.0 + 1e-13) == 0.0


class TestShannon4:
    def test_point_mass_is_zero(self):
        assert shannon4(PauliRates(1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_uniform_is_two_bits(self):
        assert shannon4(PauliRates(0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0)

    def test_spot_value(self):
        assert shannon4(PauliRates(0.7, 0.1, 0.1, 0.1)) == pytest.approx(
            SHANNON4_SPOT, abs=1e-14
        )


class TestOneWayRates:
    def test_noiseless_channel_gives_unit_rates(self):
        clean = PauliRates(1.0, 0.0, 0.0, 0.0)
        for rate_fn in (
            rate_bb84_symmetrized,
            rate_single_basis,
            rate_sixstate_mixed,
            rate_sixstate_separate,
        ):
            assert rate_fn(clean) == pytest.approx(1.0)

    def test_asymmetric_example_values(self):
        rates = PauliRates.from_error_rates(0.10, 0.0, 0.02)
        assert rate_bb84_symmetrized(rates) == pytest.approx(RATE_BB84_EXAMPLE, abs=1e-13)
        assert rate_single_basis(rates) == pytest.approx(RATE_SINGLE_EXAMPLE, abs=1e-13)

    def test_six_state_example_values(self):
        rates = PauliRates(0.85, 0.10, 0.0, 0.05)
        assert rate_sixstate_separate(rates) == pytest.approx(
            RATE_SEPARATE_EXAMPLE, abs=1e-13
        )
        assert rate_sixstate_mixed(rates) == pytest.approx(RATE_MIXED_EXAMPLE, abs=1e-13)

    def test_symmetric_flip_rates_collapse_the_bb84_pair(self):
        # p_x = p_z makes the symmetrized and single-basis accounting agree.
        rates = PauliRates(0.8, 0.08, 0.04, 0.08)
        assert rate_single_basis(rates) == pytest.approx(
            rate_bb84_symmetrized(rates), abs=1e-12
        )

    def test_depolarizing_collapses_the_six_state_pair(self):
        rates = PauliRates(0.85, 0.05, 0.05, 0.05)
        assert rate_sixstate_separate(rates) == pytest.approx(
            rate_sixstate_mixed(rates), abs=1e-12
        )

    def test_rates_can_go_negative(self):
        noisy = PauliRates(0.25, 0.25, 0.25, 0.25)
        assert rate_single_basis(noisy) < 0.0
        assert rate_sixstate_separate(noisy) < 0.0

    def test_single_basis_never_below_symmetrized(self):
        rng = random.Random(123)
        for _ in range(300):
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            rates = PauliRates(*(v / total for v in raw))
            assert rate_single_basis(rates) >= rate_bb84_symmetrized(rates) - 1e-12

    def test_separate_accounting_never_below_mixed(self):
        rng = random.Random(124)
        for _ in range(300):
            raw = [rng.random() for _ in range(4)]
            total = sum(raw)
            rates = PauliRates(*(v / total for v in raw))
            assert rate_sixstate_separate(rates) >= rate_sixstate_mixed(rates) - 1e-12
