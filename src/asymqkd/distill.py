"""Two-way post-processing maps: pair rejection and parity grouping.

The bit-error rejection step (B-step) pairs up key bits, compares pair
parities over the public channel and keeps one bit of each agreeing pair.
On a Bell-diagonal error distribution this acts coordinate-wise:

    q_i' = (q_i^2 + q_z^2) / D      q_x' = (q_x^2 + q_y^2) / D
    q_z' = 2 q_i q_z / D            q_y' = 2 q_x q_y / D

with D = (q_i + q_z)^2 + (q_x + q_y)^2 the pair-agreement probability; the
expected surviving fraction of key bits is D / 2 (one bit kept out of each
agreeing pair).  In the sum/difference coordinates u = q_i + q_z,
v = q_i - q_z, s = q_x + q_y, t = q_x - q_y the map is simply squaring
followed by renormalization, which is what makes the asymptotic analysis
in ``distillable_in_limit`` exact.

The parity step (P-step) replaces groups of k bits (k odd) by their
parity.  Bit errors XOR, so the new bit-flip rate is (1 - (1-2 p_x)^k)/2;
phase errors act like a repetition code decoded by majority vote, so the
new phase-flip rate is the upper binomial tail P[Bin(k, p_z) >= (k+1)/2].
Only the two marginals are tracked through a P-step.

``distill_schedule`` searches for a concrete (m, k) schedule within caps
(``SearchParams``).  It iterates the B-step in the same (u, v, s, t)
coordinates, so a channel with s == u keeps its bit error at exactly 1/2
instead of drifting by round-off into a fake witness.  A failed search
returns an empty trace.
"""

from __future__ import annotations

import math
import numbers
from typing import Iterator, NamedTuple, Optional

from .channel import FlipRates, PauliRates, _dyadic_numerators, _Frozen
from .keyrates import shannon4

def parity_bit_error(p_x: float, k: int) -> float:
    """Bit-flip rate of the parity of k independent bits: (1-(1-2p)^k)/2."""
    return 0.5 * (1.0 - (1.0 - 2.0 * p_x) ** k)


def _group_size(k: int) -> int:
    """k as an ``int`` if it is an odd integer >= 1, else ``ValueError``; a bool is no integer.

    Odd, so a majority vote over a parity group has no ties.
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1 or k % 2 == 0:
        raise ValueError(f"parity group size must be odd and >= 1, got {k!r}")
    return int(k)


def majority_phase_error(p_z: float, k: int) -> float:
    """Phase-flip rate after majority decoding k bits: P[Bin(k, p) >= (k+1)/2].

    Each term is exp of a sum of ``math.lgamma`` values and logarithms, so
    large k neither overflows nor loses the tiny tails; the terms are added
    by ``math.fsum``.  The result depends on (p_z, k) alone.  Raises
    ``ValueError`` for a NaN p_z and for a k that ``_group_size`` rejects.
    """
    k = _group_size(k)
    if p_z != p_z:
        raise ValueError("p_z is NaN")
    if p_z <= 0.0:
        return 0.0
    if p_z >= 1.0:
        return 1.0
    log_p, log_q, log_k = math.log(p_z), math.log1p(-p_z), math.lgamma(k + 1)
    return min(math.fsum(
        math.exp(log_k - math.lgamma(j + 1) - math.lgamma(k - j + 1) + j * log_p + (k - j) * log_q)
        for j in range((k + 1) // 2, k + 1)
    ), 1.0)


class BStepOutcome(NamedTuple):
    """Post-rejection error distribution and expected surviving fraction."""

    rates_out: PauliRates
    survival: float


class PStepResult(NamedTuple):
    k: int
    p_x: float
    p_z: float


def b_step(rates: PauliRates) -> BStepOutcome:
    """One round of pair-parity rejection on a Bell-diagonal distribution."""
    q_i, q_x, q_y, q_z = rates.as_tuple()
    u, s = q_i + q_z, q_x + q_y
    d = u * u + s * s
    out = PauliRates(
        (q_i * q_i + q_z * q_z) / d,
        (q_x * q_x + q_y * q_y) / d,
        2.0 * q_x * q_y / d,
        2.0 * q_i * q_z / d,
    )
    return BStepOutcome(rates_out=out, survival=0.5 * d)


def p_step(flips: FlipRates, k: int) -> FlipRates:
    """Marginal flip rates of parities of groups of k, an odd integer >= 1; k = 1 is the identity."""
    k = _group_size(k)
    for name, p in (("p_x", flips.p_x), ("p_z", flips.p_z)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name}={p!r} outside [0, 1]")
    return FlipRates(p_x=parity_bit_error(flips.p_x, k), p_z=majority_phase_error(flips.p_z, k))


def modified_rate_one_bstep(rates: PauliRates) -> float:
    """Key rate after a single rejection round: survival * (1 - shannon4).

    ``rates`` must already be the error distribution experienced by the
    key bits (conjugate the channel first if the key lives in another
    basis).  Noiseless input gives exactly 1/2: half the bits are spent on
    the parity comparison.
    """
    outcome = b_step(rates)
    return outcome.survival * (1.0 - shannon4(outcome.rates_out))


class SearchParams(_Frozen):
    """Residual-error target and (m, k) caps of ``distill_schedule``."""

    __slots__ = _fields = ("target", "m_max", "k_max")
    target: float
    m_max: int
    k_max: int

    def __init__(self, target: float = 0.05, m_max: int = 60, k_max: int = 2001) -> None:
        if not 0.0 < target < 0.5:
            raise ValueError(f"target={target!r} outside (0, 0.5)")
        if m_max < 0 or k_max < 1:
            raise ValueError("caps must satisfy m_max >= 0, k_max >= 1")
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "m_max", m_max)
        object.__setattr__(self, "k_max", k_max)


class DistillationTrace(NamedTuple):
    """Record of a rejection/parity schedule applied to a distribution.

    ``rounds`` holds one entry per B-step in order, ``p_step`` the terminal
    parity stage, ``cumulative_survival`` the expected fraction of raw key
    bits that survive the whole schedule.  When the search finds no
    schedule, ``succeeded`` is False and the trace is empty: no rounds,
    ``p_step`` None and survival 0.
    """

    rounds: tuple[BStepOutcome, ...]
    p_step: Optional[PStepResult]
    cumulative_survival: float
    succeeded: bool


def _smallest_majority_k(p_z: float, target: float, k_max: int) -> Optional[int]:
    """Smallest odd k with majority_phase_error(p_z, k) < target, if any.

    The majority error is monotone nonincreasing in odd k for p_z < 1/2,
    so a binary search over odd values is exact.
    """
    if p_z < target:
        return 1
    if p_z >= 0.5 or majority_phase_error(p_z, k_max if k_max % 2 else k_max - 1) >= target:
        return None
    lo, hi = 0, (k_max - 1) // 2  # k = 2 * index + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if majority_phase_error(p_z, 2 * mid + 1) < target:
            hi = mid
        else:
            lo = mid + 1
    return 2 * lo + 1


def _rejection_rounds(
    rates: PauliRates,
) -> Iterator[tuple[float, float, Optional[BStepOutcome]]]:
    """(bit error, phase error, last B step) after m = 0, 1, 2, ... B steps.

    Runs in the coordinates (u, v, s, t) of ``distillable_in_limit``: the
    bit error is s, the phase error ((u - v) + (s - t)) / 2, and a B step
    squares all four, renormalizes them by D = u^2 + s^2 and keeps D / 2
    of the bits.  Rounding preserves order, so s == u stays tied and the
    bit error is exactly 1/2 from m = 1 on.  The m = 0 entry has no step.
    """
    q_i, q_x, q_y, q_z = rates.as_tuple()
    u, v, s, t = q_i + q_z, q_i - q_z, q_x + q_y, q_x - q_y
    step = None
    while True:
        yield s, 0.5 * ((u - v) + (s - t)), step
        d = u * u + s * s
        u, v, s, t = u * u / d, v * v / d, s * s / d, t * t / d
        after = PauliRates(0.5 * (u + v), 0.5 * (s + t), 0.5 * (s - t), 0.5 * (u - v))
        step = BStepOutcome(after, 0.5 * d)


def distill_schedule(rates: PauliRates, params: SearchParams = SearchParams()) -> DistillationTrace:
    """Search m rejection rounds plus one parity step meeting ``params.target``.

    Scans m = 0..m_max B-steps followed by a single P-step with odd
    k <= k_max and returns the lexicographically smallest (m, k) whose two
    residual error rates are both strictly below the target.  The B steps
    run in the sum/difference coordinates of ``distillable_in_limit`` (see
    ``_rejection_rounds``), so an exact tie s == u never passes.  For fixed
    m the parity bit error grows with k while the majority phase error
    shrinks, so the smallest k passing the phase condition is the only
    candidate worth checking.  If no (m, k) within the caps succeeds, the
    trace is empty with ``succeeded=False``; failure is encoded in the
    trace, not raised.
    """
    rounds: list[BStepOutcome] = []
    survival = 1.0
    for _, (bit, phase, step) in zip(range(params.m_max + 1), _rejection_rounds(rates)):
        if step is not None:
            rounds.append(step)
            survival *= step.survival
        k = _smallest_majority_k(phase, params.target, params.k_max)
        if k is not None and parity_bit_error(bit, k) < params.target:
            result = PStepResult(k, parity_bit_error(bit, k), majority_phase_error(phase, k))
            return DistillationTrace(tuple(rounds), result, survival / k, succeeded=True)
    return DistillationTrace((), None, 0.0, succeeded=False)


def distillable_in_limit(rates: PauliRates) -> bool:
    """Whether the rejection/parity schedule succeeds for unbounded m and k.

    In the coordinates u = q_i + q_z, v = q_i - q_z, s = q_x + q_y the
    rejection map squares each coordinate and renormalizes by u^2 + s^2.
    After m rounds the bit error is s^(2^m) / (u^(2^m) + s^(2^m)) and the
    phase error sits below 1/2 by (v^(2^m) + t^(2^m)) / 2(u^(2^m)+s^(2^m)).
    A terminal parity step with group size k suppresses the phase error
    when k ~ 1/delta^2 while multiplying the bit error by about k, so some
    (m, k) works exactly when the bit error eventually falls below the
    squared phase margin:

        s < u   and   s * u < v^2.

    This is the m, k -> infinity limit of ``distill_schedule``; it does not
    depend on the residual-error target.  The decision is exact on the four
    floats: each is a dyadic rational, so scaled to their common
    power-of-two denominator they are integers, and both comparisons run
    on Python integers, where no tie is broken by round-off.

    Components written in decimal are judged by the binary values they
    round to.  ``PauliRates(0.5, 0.35, 0.0, 0.15)`` is tied in decimal
    after Y-conjugation, but 0.35 + 0.15 is just below 0.5 in binary, so
    it is distillable here.  ``distill_schedule`` iterates in floats, where
    s rounds to u, so its witness for that channel still fails.
    """
    q_i, q_x, q_y, q_z = _dyadic_numerators(rates.as_tuple())
    s = q_x + q_y
    u = q_i + q_z
    v = q_i - q_z
    return s < u and s * u < v * v
