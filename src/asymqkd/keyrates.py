"""Asymptotic one-way key rates for the protocol variants.

All rates are in bits of final key per sifted key bit and may be negative;
a negative rate means no key.
"""

from __future__ import annotations

import math

from .channel import PauliRates, average_over_mixture, flip_rates


def binary_entropy(t: float) -> float:
    """Binary Shannon entropy H(t) in bits, with H(0) = H(1) = 0; NaN or t outside [0, 1] raise."""
    if not -1e-12 <= t <= 1.0 + 1e-12:  # also rejects nan
        raise ValueError(f"entropy argument {t!r} outside [0, 1]")
    t = min(max(t, 0.0), 1.0)
    if t == 0.0 or t == 1.0:
        return 0.0
    return -t * math.log2(t) - (1.0 - t) * math.log2(1.0 - t)


def _entropy(t_i, t_x, t_y, t_z):
    """Entropy from its terms q·log2(q), taken from 0.0 left to right by ``-``: floats or arrays."""
    return 0.0 - t_i - t_x - t_y - t_z


def shannon4(rates: PauliRates) -> float:
    """Shannon entropy of the four-outcome error distribution, in bits."""
    return _entropy(*[q * math.log2(q) if q > 0.0 else 0.0 for q in rates.as_tuple()])


def rate_bb84_symmetrized(rates: PauliRates) -> float:
    """One-way rate when both error estimates are pooled symmetrically.

    Pooling replaces the individual bit- and phase-flip rates by their
    mean, so the rate is 1 - 2 H((p_x0 + p_z0) / 2).
    """
    flips = flip_rates(rates)
    return 1.0 - 2.0 * binary_entropy(0.5 * (flips.p_x + flips.p_z))


def rate_single_basis(rates: PauliRates) -> float:
    """One-way rate using the two flip rates separately: 1 - H(p_x0) - H(p_z0).

    By concavity of H it never falls below the symmetrized rate, with
    equality exactly when p_x0 = p_z0.  That holds in exact arithmetic; the
    float values keep it only within round-off, which the tests bound by 1e-12.
    """
    flips = flip_rates(rates)
    return 1.0 - binary_entropy(flips.p_x) - binary_entropy(flips.p_z)


def rate_sixstate_mixed(rates: PauliRates) -> float:
    """Six-state rate when key bits are an equal mixture of all three bases.

    The mixture averages the conjugated distributions before the entropy
    is taken, which can only lose information relative to keeping the
    per-basis statistics apart.
    """
    averaged = average_over_mixture(rates)
    return 1.0 - shannon4(averaged)


def rate_sixstate_separate(rates: PauliRates) -> float:
    """Six-state rate with per-basis accounting: 1 - shannon4(channel).

    Dominates the mixed variant (entropy is concave), with equality exactly
    on channels with q_x = q_y = q_z.  That holds in exact arithmetic; the
    float values keep it only within round-off, which the tests bound by 1e-12.
    """
    return 1.0 - shannon4(rates)
