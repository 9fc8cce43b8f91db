import copy
import math
import pickle
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from asymqkd.channel import (
    Basis,
    PauliRates,
    average_over_mixture,
    conjugate,
    flip_rates,
)
from asymqkd.sim import EveModel, ProtocolParams
from asymqkd.threshold import ChannelFamily


def random_rates(rng):
    raw = [rng.random() for _ in range(4)]
    total = sum(raw)
    return PauliRates(*(v / total for v in raw))


# An error component: anywhere in [0, 1/3], a signed zero or a subnormal, or round-off below 0.
_COMPONENT = st.one_of(
    st.floats(0.0, 1.0 / 3.0),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-12]),
    st.floats(-1e-12, 0.0),
)


class TestPauliRates:
    def test_valid_construction(self):
        rates = PauliRates(0.85, 0.10, 0.03, 0.02)
        assert rates.as_tuple() == (0.85, 0.10, 0.03, 0.02)
        assert rates.q_x + rates.q_y + rates.q_z == pytest.approx(0.15)

    def test_from_error_rates_infers_identity(self):
        rates = PauliRates.from_error_rates(0.10, 0.0, 0.02)
        assert rates.q_i == pytest.approx(0.88)

    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            PauliRates(0.9, -0.1, 0.1, 0.1)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            PauliRates(0.5, 0.1, 0.1, 0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            PauliRates(math.nan, 0.0, 0.0, 0.0)

    def test_tiny_negative_is_clipped(self):
        rates = PauliRates(1.0 + 1e-14, -1e-14, -0.0, 0.0)
        assert rates.q_x == 0.0
        assert rates.q_i == pytest.approx(1.0)
        # -1e-14 and -0.0 are stored as +0.0, as the fig2 array kernel's np.maximum stores them.
        assert math.copysign(1.0, rates.q_x) == math.copysign(1.0, rates.q_y) == 1.0

    def test_clipped_component_leaves_the_rest_summing_to_one(self):
        rates = PauliRates.from_error_rates(0.5, 0.5000000000001, 0.0)
        assert rates.q_i == 0.0
        assert rates.q_x + rates.q_y <= 1.0

    def test_drift_within_tolerance_is_renormalized(self):
        third = 1.0 / 3.0
        rates = PauliRates(third, third, third, 1.0 - 3 * third)
        assert math.isclose(sum(rates.as_tuple()), 1.0, rel_tol=0, abs_tol=1e-15)

    # Three components, and a fourth that makes their sum 1 up to ``drift``, at ``position``.
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(st.lists(_COMPONENT, min_size=3, max_size=3), st.floats(-1e-9, 1e-9),
           st.integers(0, 3))
    @example([-1e-12, -0.0, 0.25], 1e-9 - 1e-12, 0)
    @example([0.5, 0.5, 0.0], -1e-12, 0)  # q_i is the round-off below 0
    def test_stores_each_clipped_component_over_their_sum(self, errors, drift, position):
        comps = errors[:position] + [1.0 - (errors[0] + errors[1] + errors[2]) + drift]
        comps += errors[position:]
        assume(abs(comps[0] + comps[1] + comps[2] + comps[3] - 1.0) <= 1e-9)
        assume(all(-1e-12 <= c <= 1.0 + 1e-9 for c in comps))
        # The rule, restated: each component clipped to +0.0, over the clipped sum
        # added left to right, bit for bit.
        clipped = [c if c > 0.0 else 0.0 for c in comps]
        kept = ((clipped[0] + clipped[1]) + clipped[2]) + clipped[3]
        got = PauliRates(*comps).as_tuple()
        assert [q.hex() for q in got] == [(c / kept).hex() for c in clipped]


def test_flip_rates_pairs_the_right_components():
    rates = PauliRates(0.85, 0.10, 0.03, 0.02)
    flips = flip_rates(rates)
    assert flips.p_x == pytest.approx(0.13)
    assert flips.p_z == pytest.approx(0.05)
    # sigma_x and sigma_z errors are what flips the bit of a Y-basis qubit.
    assert flip_rates(conjugate(rates, Basis.Y)).p_x == pytest.approx(rates.q_x + rates.q_z)


class TestConjugate:
    def test_z_basis_is_identity(self):
        rates = PauliRates(0.7, 0.1, 0.1, 0.1)
        assert conjugate(rates, Basis.Z) is rates

    def test_x_basis_swaps_x_and_z(self):
        out = conjugate(PauliRates(0.85, 0.10, 0.03, 0.02), Basis.X)
        assert out.as_tuple() == (0.85, 0.02, 0.03, 0.10)

    def test_y_basis_cycles_errors(self):
        out = conjugate(PauliRates(0.85, 0.10, 0.03, 0.02), Basis.Y)
        assert out.as_tuple() == (0.85, 0.02, 0.10, 0.03)

    def test_x_twice_is_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            rates = random_rates(rng)
            twice = conjugate(conjugate(rates, Basis.X), Basis.X)
            assert twice.as_tuple() == pytest.approx(rates.as_tuple(), abs=1e-15)

    def test_y_three_times_is_identity(self):
        rng = random.Random(8)
        for _ in range(50):
            rates = random_rates(rng)
            out = rates
            for _ in range(3):
                out = conjugate(out, Basis.Y)
            assert out.as_tuple() == pytest.approx(rates.as_tuple(), abs=1e-15)

    def test_total_noise_is_preserved(self):
        rng = random.Random(9)
        for basis in Basis:
            for _ in range(20):
                rates = random_rates(rng)
                out = conjugate(rates, basis)
                assert out.q_x + out.q_y + out.q_z == pytest.approx(
                    rates.q_x + rates.q_y + rates.q_z, abs=1e-15
                )

    def test_flip_rates_permute_with_the_frame(self):
        # In the X frame bit and phase errors trade places; in the Y frame
        # the bit error is q_x + q_z of the Z frame.
        rates = PauliRates(0.6, 0.2, 0.15, 0.05)
        base = flip_rates(rates)
        in_x = flip_rates(conjugate(rates, Basis.X))
        assert (in_x.p_x, in_x.p_z) == pytest.approx((base.p_z, base.p_x))
        in_y = flip_rates(conjugate(rates, Basis.Y))
        assert in_y.p_x == pytest.approx(rates.q_x + rates.q_z)
        assert in_y.p_z == pytest.approx(base.p_x)


class TestAveraging:
    def test_equal_mixture_formula(self):
        rng = random.Random(10)
        for _ in range(50):
            rates = random_rates(rng)
            avg = average_over_mixture(rates)
            assert avg.q_i == pytest.approx(rates.q_i, abs=1e-15)
            assert avg.q_x == pytest.approx((rates.q_x + 2 * rates.q_z) / 3, abs=1e-15)
            assert avg.q_y == pytest.approx((rates.q_x + 2 * rates.q_y) / 3, abs=1e-15)
            assert avg.q_z == pytest.approx(
                (rates.q_x + rates.q_y + rates.q_z) / 3, abs=1e-15
            )


@pytest.mark.parametrize("make, field, text", [
    (lambda: PauliRates(0.85, 0.10, 0.03, 0.02), "q_x",
     "PauliRates(q_i=0.85, q_x=0.1, q_y=0.03, q_z=0.02)"),
    (lambda: ChannelFamily((1.0, 0.5, 1.0)), "weights", "ChannelFamily(weights=(2, 1, 2))"),
    (lambda: ProtocolParams(n=100), "n",
     "ProtocolParams(n=100, delta=2.0, b_rounds=2, p_group=3, target=0.05, abort_sigma=3.0)"),
    # Each basis by its attribute name: an enum member's own repr is not an expression.
    (lambda: EveModel(bases=(Basis.Z,)), "bases", "EveModel(bases=(Basis.Z,))"),
    (lambda: EveModel(bases=(Basis.Z, Basis.X)), "bases", "EveModel(bases=(Basis.Z, Basis.X))"),
], ids=["PauliRates", "ChannelFamily-weights", "ProtocolParams", "EveModel", "EveModel-two-bases"])
def test_validated_values_are_immutable(make, field, text):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before
    assert value == make() and hash(value) == hash(make())
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    assert repr(value) == text
    assert eval(text, {type(value).__name__: type(value), "Basis": Basis}) == value


def test_channel_family_takes_no_weights():
    # Besides the ray: that is the one argument, by position or as weights=.
    with pytest.raises(TypeError):
        ChannelFamily((1.0, 0.5, 1.0), weights=(2, 1, 2))


def test_channel_family_is_rebuilt_from_its_weights():
    family = ChannelFamily((1.0, 0.5, 1.0))
    assert ChannelFamily(family.weights) == family
