"""Seeded Monte Carlo run of the prepare-and-measure protocol.

The protocol sources qubits from the three bases with weights (1/4, 1/4,
1/2) favouring Y, sifts on Bob's uniformly chosen bases, keeps n Y-basis
bits as key and n mixed-basis bits as checks, split (0.4, 0.4, 0.2) over
Z, X and Y, aborts if a check's error rate passes 0.45, then applies
pair-rejection rounds and one parity step to the key.  These are the
protocol's constants, not settings, and the run size follows from them:
a qubit is sifted with probability 1/3, and in Y with probability 1/6, so
(6 + delta) * n transmitted qubits leave, besides the n key bits,
expected check pools of delta * n / 6 in Y and (1/2 + delta/12) * n in
each of Z and X: n/3, 2n/3 and 2n/3 at the default delta = 2.

The simulation is stochastic-exact for Pauli channels and intercept-resend
attacks on mutually unbiased states, so no state vectors are involved:

* a Pauli error on a basis eigenstate either flips the measured bit or
  not, according to the basis-conjugated error type;
* any eigenstate measured in a different basis yields a uniform bit.

Phase-flip flags of the key bits are book-kept in the Y frame alongside
the bit flags: rejection XORs the pair's phase flags onto the survivor,
the parity step majority-decodes them.  A bit re-prepared by an
eavesdropper in a foreign basis carries no Y-frame phase correlation, so
its phase flag is uniform.

Roles are taken in arrival order.  The key is the first n Y-basis sifted
qubits; the Y checks are the next ones after the key, and the Z and X
checks the first ones of their basis, in the ``_CHECK_SPLIT`` counts.
Rejection round r pairs adjacent survivors (0, 1), (2, 3), ... and drops
an odd last bit; the parity step groups adjacent k.

The run draws counts, not qubits.  Each transmitted qubit draws its
source basis, Bob's basis, its channel Pauli and the attacker's basis on
its own, so its (sifted basis, bit flag, phase flag) is i.i.d. across
qubits, with or without the attacker.  Hence:

* the numbers of qubits sifted in Z, X and Y, and of unsifted ones, are
  Multinomial(n_total, (s_b * beta_b)_b, rest), with s_b the source
  weights and beta_b Bob's;
* given the basis sequence, the flags of the qubits of one basis are
  i.i.d. with that basis's law, and every role is picked by the basis
  sequence alone, so each check's error count is Binomial(want_b, p_b),
  with p_b the bit-flag probability of basis b, independent of the other
  checks and of the key;
* the key is n i.i.d. (bit, phase) draws from the Y law, and pairing or
  grouping i.i.d. draws in arrival order is distributed like doing it
  after a random permutation.

The (bit, phase) law of basis b is the channel's, relabelled into the
basis by ``channel._SEEN_AS`` (the table ``conjugate`` reads), mixed
with the attacker's.  With probability w_b, the total attack weight
on b, she measures in Alice's basis and resends faithfully, which is the
same as no attack; otherwise she re-prepares the qubit in a foreign
basis, and Bob's bit and the phase flag are uniform and independent.  No
attacker means w_b = 1.  The per-qubit simulator that draws every
transmitted qubit is kept as ``tests/oracles.py::per_qubit_report``; the
two are compared in distribution over seeds.

Randomness: three ``random.Random`` streams, one per name in
``_STREAMS``, each seeded with the string ``f"{seed}/{name}"`` (which
``random`` hashes with SHA-512, whatever PYTHONHASHSEED is): the sifted
counts (one multinomial draw), the check errors (one binomial draw per
basis, made only after the pool-size aborts pass) and the key stage,
drawn as counts too (``_key_counts``), its parity step as counts over a
group's compositions (``_parity_counts``).  Every draw is a binomial from
``_binomial``, or a chain of them for a multinomial, so the draws are the
package's own and no report depends on an array library's generator
streams, which need not stay the same across its versions (NEP 19).
Identical (channel, params, seed, eve) inputs reproduce the report
exactly; what remains platform-dependent is libm's ``log`` and ``log1p``
in the sampler, and ``pow`` in the pmf tables of the parity step.

``p_group`` is at most ``_MAX_P_GROUP`` = 99, which bounds the parity
step at about half a second and well under 1 MB, whatever n (see
``_key_counts``).

Aborts (too few sifted bits, short check pools, failed error test, key
exhaustion) are outcomes, not errors: the report carries the abort reason
and whatever comparison rows were computed before the abort.
"""

from __future__ import annotations

import math
import numbers
from itertools import accumulate, product
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .channel import _SEEN_AS, Basis, PauliRates, _Frozen, conjugate, flip_rates
from .distill import _group_size, b_step, p_step
from .keyrates import binary_entropy

if TYPE_CHECKING:
    import random

_BASIS_ORDER = (Basis.Z, Basis.X, Basis.Y)
_BASIS_CODE = {basis: code for code, basis in enumerate(_BASIS_ORDER)}
_STREAMS = ("counts", "checks", "key")
# The largest parity group, with C(102, 3) = 171,700 compositions.
_MAX_P_GROUP = 99

# The protocol's constants, Z/X/Y.  Alice's source weights favour the key basis.
_SOURCE_PROBS = (0.25, 0.25, 0.5)
_BOB_PROBS = (1 / 3, 1 / 3, 1 / 3)
# Composition of the n check bits: the expected pools at delta = 2 (2n/3, 2n/3,
# n/3) give every basis the same margin; exact thirds would consume the whole
# expected Y remainder and abort on half of all seeds.
_CHECK_SPLIT = (0.4, 0.4, 0.2)
# A check above this error rate aborts the run, whatever the channel predicts.
_ABORT_CEILING = 0.45


class ProtocolParams(_Frozen):
    """Run size and post-processing knobs; defaults follow the protocol as stated.

    ``n`` key bits come out of ceil((6 + delta) * n) qubits, a count that must
    stay below 2^63; the factor 6 is sized for the protocol's constants.  The
    samplers set up each draw in floats, and below 2^63 trials the rounding
    of n * p stays under 2^-21 of the binomial's standard deviation.
    ``p_group`` is at most ``_MAX_P_GROUP``, which bounds the parity step's
    cost (see ``_key_counts``).  ``n``, ``b_rounds`` and ``p_group`` are
    stored as ``int`` and the other three as ``float``, so a report prints
    the same bytes for equal values of any numeric type; a bool is no number.
    """

    __slots__ = _fields = ("n", "delta", "b_rounds", "p_group", "target", "abort_sigma")
    n: int
    delta: float
    b_rounds: int
    p_group: int
    target: float
    abort_sigma: float

    def __init__(
        self,
        n: int,
        delta: float = 2.0,
        b_rounds: int = 2,
        p_group: int = 3,
        target: float = 0.05,
        abort_sigma: float = 3.0,
    ) -> None:
        for name, value in zip(self._fields, (n, delta, b_rounds, p_group, target, abort_sigma)):
            integral = name in ("n", "b_rounds", "p_group")
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral if integral else numbers.Real
            ):
                kind = "an integer" if integral else "a real number"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
            try:
                object.__setattr__(self, name, int(value) if integral else float(value))
            except OverflowError:
                raise ValueError(f"{name} must be finite, got {value!r}") from None
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.delta < math.inf:  # also rejects nan
            raise ValueError(f"delta must be positive and finite, got {self.delta}")
        # Below 2^63 as a float exactly when its ceiling is; the n test keeps it finite.
        if self.n >= 2**63 or (6.0 + self.delta) * self.n >= 2.0**63:
            raise ValueError(f"(6 + delta) * n transmitted qubits must be below 2^63 (delta={self.delta!r})")
        if self.b_rounds < 0:
            raise ValueError(f"b_rounds must be >= 0, got {self.b_rounds}")
        _group_size(self.p_group)
        if self.p_group > _MAX_P_GROUP:
            raise ValueError(f"p_group must be <= {_MAX_P_GROUP}, got {self.p_group}")
        if not 0.0 < self.target < 0.5:  # also rejects nan
            raise ValueError(f"target={self.target!r} outside (0, 0.5)")
        if not 0.0 < self.abort_sigma < math.inf:
            raise ValueError(f"abort_sigma must be positive and finite, got {self.abort_sigma}")


class EveModel(_Frozen):
    """Intercept-resend attacker: measure in a random basis, resend the outcome.

    Each entry of ``bases`` is equally likely, so a repeated basis adds up
    its weight: ``(Z, Z, X)`` measures in Z two times in three.  Any
    iterable of ``Basis`` members is stored as a tuple.  The repr,
    ``EveModel(bases=(Basis.Z, Basis.X))``, evaluates where ``EveModel`` and
    ``Basis`` are in scope.
    """

    __slots__ = _fields = ("bases",)
    bases: tuple[Basis, ...]

    def __init__(self, bases: Iterable[Basis]) -> None:
        object.__setattr__(self, "bases", tuple(bases))
        if not self.bases:
            raise ValueError("eavesdropper needs at least one basis")
        if not all(isinstance(b, Basis) for b in self.bases):
            raise ValueError(f"bases must be Basis members, got {self.bases}")

    def __repr__(self) -> str:
        # A member's own repr, <Basis.Z: 'Z'>, is no expression; its attribute is.
        names = ", ".join(f"Basis.{b.name}" for b in self.bases)
        return f"EveModel(bases=({names}{',' * (len(self.bases) == 1)}))"

    @property
    def weights(self) -> tuple[float, ...]:
        """Probability of each entry of ``bases``, uniform."""
        return tuple(1.0 / len(self.bases) for _ in self.bases)

    def describe(self) -> str:
        names = ",".join(b.value for b in self.bases)
        weights = ",".join(repr(w) for w in self.weights)
        return f"bases={names};weights={weights}"


class ComparisonRow(NamedTuple):
    """One empirical quantity next to its analytic prediction."""

    stage: str
    quantity: str
    count: int
    empirical: float
    analytic: float
    std_error: float


class StageCount(NamedTuple):
    """Bit bookkeeping for one stage: kept + discarded = entering."""

    stage: str
    n_in: int
    n_kept: int
    n_discarded: int


class SimReport(NamedTuple):
    """Everything a run produced; serializes to flat text and to CSV."""

    seed: int
    channel: PauliRates
    params: ProtocolParams
    eve: str
    n_transmitted: int
    n_sifted: int
    sifted_by_basis: tuple[int, int, int]
    aborted: bool
    abort_reason: Optional[str]
    rows: tuple[ComparisonRow, ...]
    stage_counts: tuple[StageCount, ...]
    final_bit_error: Optional[float] = None
    final_phase_error: Optional[float] = None
    final_rate_empirical: Optional[float] = None
    final_rate_analytic: Optional[float] = None
    goal_met: Optional[bool] = None

    def _scalars(self) -> list[tuple[str, str]]:
        p = self.params
        items = [
            ("schema", "asymqkd.simreport.v1"),
            ("seed", repr(self.seed)),
            ("channel.q_i", repr(self.channel.q_i)),
            ("channel.q_x", repr(self.channel.q_x)),
            ("channel.q_y", repr(self.channel.q_y)),
            ("channel.q_z", repr(self.channel.q_z)),
            ("params.n", repr(p.n)),
            ("params.delta", repr(p.delta)),
            ("params.source_probs", ",".join(repr(x) for x in _SOURCE_PROBS)),
            ("params.bob_probs", ",".join(repr(x) for x in _BOB_PROBS)),
            ("params.b_rounds", repr(p.b_rounds)),
            ("params.p_group", repr(p.p_group)),
            ("params.target", repr(p.target)),
            ("params.abort_sigma", repr(p.abort_sigma)),
            ("params.abort_ceiling", repr(_ABORT_CEILING)),
            ("params.check_split", ",".join(repr(x) for x in _CHECK_SPLIT)),
            ("eve", self.eve),
            ("n_transmitted", repr(self.n_transmitted)),
            ("n_sifted", repr(self.n_sifted)),
            ("sifted.Z", repr(self.sifted_by_basis[0])),
            ("sifted.X", repr(self.sifted_by_basis[1])),
            ("sifted.Y", repr(self.sifted_by_basis[2])),
            ("aborted", "true" if self.aborted else "false"),
            ("abort_reason", self.abort_reason or ""),
        ]
        for name, value in (
            ("final_bit_error", self.final_bit_error),
            ("final_phase_error", self.final_phase_error),
            ("final_rate_empirical", self.final_rate_empirical),
            ("final_rate_analytic", self.final_rate_analytic),
        ):
            if value is not None:
                items.append((name, repr(value)))
        if self.goal_met is not None:
            items.append(("goal_met", "true" if self.goal_met else "false"))
        for sc in self.stage_counts:
            items.append((f"stage.{sc.stage}", f"in={sc.n_in};kept={sc.n_kept};discarded={sc.n_discarded}"))
        return items

    def to_text(self) -> str:
        """Flat ``key = value`` rendering, one line per scalar and row field."""
        lines = [f"{key} = {value}" for key, value in self._scalars()]
        for row in self.rows:
            prefix = f"row.{row.stage}.{row.quantity}"
            lines.append(f"{prefix}.count = {row.count}")
            lines.append(f"{prefix}.empirical = {row.empirical!r}")
            lines.append(f"{prefix}.analytic = {row.analytic!r}")
            lines.append(f"{prefix}.std_error = {row.std_error!r}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """CSV with ``#`` header lines (schema, config, seed) then one row per stage."""
        lines = [f"# {key}: {value}" for key, value in self._scalars()]
        lines.append("stage,quantity,count,empirical,analytic,std_error")
        for row in self.rows:
            lines.append(
                f"{row.stage},{row.quantity},{row.count},"
                f"{row.empirical!r},{row.analytic!r},{row.std_error!r}"
            )
        return "\n".join(lines) + "\n"


def _rate_row(stage: str, quantity: str, count: int, empirical: float, analytic: float) -> ComparisonRow:
    std = math.sqrt(analytic * (1.0 - analytic) / count) if count > 0 else 0.0
    return ComparisonRow(stage, quantity, count, empirical, analytic, std)


def _split_counts(n: int, fractions) -> tuple[int, int, int]:
    counts = [int(math.floor(n * f)) for f in fractions]
    remainder = n - sum(counts)
    for i in range(remainder):
        counts[i % 3] += 1
    return tuple(counts)


def _open_streams(seed: int) -> dict[str, random.Random]:
    import random

    return {name: random.Random(f"{seed}/{name}") for name in _STREAMS}


# Hörmann's fc(j) = log j! - (j + 1/2) log(j + 1) + (j + 1) - log(2 pi) / 2, the
# correction to Stirling's formula, tabulated for j < 10.
_STIRLING_TAIL = (
    0.08106146679532726, 0.04134069595540929, 0.02767792568499834, 0.02079067210376509,
    0.01664469118982119, 0.01387612882307075, 0.01189670994589177, 0.01041126526197209,
    0.009255462182712733, 0.008330563433362871,
)


def _stirling_tail(j: int) -> float:
    if j < 10:
        return _STIRLING_TAIL[j]
    x = 1.0 / (j + 1)
    x2 = x * x
    return (1.0 / 12.0 - (1.0 / 360.0 - x2 / 1260.0) * x2) * x


def _binomial(rng: random.Random, n: int, p: float) -> int:
    """One Binomial(n, p) draw; exact at n = 0, p = 0 and p = 1, which draw nothing.

    Above p = 1/2 it counts the failures.  Below n * p = 10, Devroye's
    geometric method skips from one success to the next; otherwise BTRS,
    the transformed rejection with squeeze of Hörmann (J. Stat. Comput.
    Simul. 46, 1993), whose acceptance test compares log f(k) / f(m) with
    f the pmf and m = floor((n + 1) p).  That ratio is taken in Hörmann's
    Stirling-correction form, rearranged so that every term is of the size
    of k - m: a difference of lgamma values near n = 10^12 would keep only
    about three digits.  Uniforms enter logarithms as 1 - random(), in (0, 1].
    """
    if n == 0 or p <= 0.0:
        return 0
    if p > 0.5:
        return n - _binomial(rng, n, 1.0 - p)
    uniform = rng.random
    if n * p < 10.0:
        log_q, drawn, left = math.log1p(-p), 0, n
        while True:
            gap = math.log(1.0 - uniform()) / log_q  # failures before the next success
            if gap >= left:
                return drawn
            left -= math.floor(gap) + 1
            drawn += 1
    q = 1.0 - p
    spq = math.sqrt(n * p * q)
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    alpha = (2.83 + 5.1 / b) * spq
    v_r = 0.92 - 4.2 / b
    m = math.floor((n + 1) * p)
    centre = n * p + 0.5 - m  # the hat's centre n p + 1/2, less m, so k - m stays exact
    log_ratio = math.log(p * (n - m + 1) / (q * (m + 1)))
    tail_m = _stirling_tail(m) + _stirling_tail(n - m)
    while True:
        u = uniform() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:  # the hat's edge, where k runs off to infinity: rejected
            continue
        d = math.floor((2.0 * a / us + b) * u + centre)
        k = m + d
        if k < 0 or k > n:
            continue
        v = 1.0 - uniform()
        if us >= 0.07 and v <= v_r:
            return k
        log_f = (
            d * log_ratio
            - (k + 0.5) * math.log1p(d / (m + 1))
            - (n - k + 0.5) * math.log1p(-d / (n - m + 1))
            + tail_m - _stirling_tail(k) - _stirling_tail(n - k)
        )
        if math.log(v * alpha / (a / (us * us) + b)) <= log_f:
            return k


def _shares(probs: Sequence[float]) -> list[float]:
    """probs[i] / sum(probs[i:]), the share of each category in the mass from it on; 0 where that is 0.

    The sums are taken from the end, so the last category with mass gets
    exactly 1 and the chain of ``_multinomial`` ends with nothing left.
    """
    tails = list(accumulate(reversed(probs)))[::-1]
    return [p / tail if tail > 0.0 else 0.0 for p, tail in zip(probs, tails)]


def _multinomial(rng: random.Random, n: int, shares: Sequence[float]) -> list[int]:
    """One Multinomial(n, probs) draw, given ``_shares(probs)``: chained binomials."""
    drawn = []
    for share in shares:
        count = _binomial(rng, n, share)
        drawn.append(count)
        n -= count
    return drawn


def _binomial_pmf(n: int, p: float) -> list[float]:
    """P(Binomial(n, p) = j) for j = 0..n, with 0 ** 0 = 1; for n <= ``_MAX_P_GROUP``."""
    return [math.comb(n, j) * p**j * (1.0 - p) ** (n - j) for j in range(n + 1)]


def _flag_laws(channel: PauliRates, eve: Optional[EveModel]) -> list[list[float]]:
    """(bit flag, phase flag) law of a sifted qubit, one row per basis, column 2 * bit + phase.

    The channel's law, relabelled into each basis by ``_SEEN_AS``, with
    probability w_b, the total attack weight on basis b (repeated attack
    bases add up); otherwise the attacker re-prepared the qubit in a
    foreign basis and both flags are uniform.  ``w_b = 1`` with no attacker.
    """
    faithful = [1.0] * 3
    if eve is not None:
        faithful = [0.0] * 3
        for basis, weight in zip(eve.bases, eve.weights):
            faithful[_BASIS_CODE[basis]] += weight
    q = channel.as_tuple()
    laws = []
    for basis, share in zip(_BASIS_ORDER, faithful):
        law = [0.0] * 4
        # An I, X, Y or Z error in the qubit's own basis flags nothing, the bit, both or the phase.
        for component, column in zip(_SEEN_AS[basis], (0, 2, 3, 1)):
            law[column] = share * q[component] + (1.0 - share) * 0.25
        laws.append(law)
    return laws


def _pair_laws(law: list[float]) -> tuple[float, list[float], list[float], list[float]]:
    """Laws of a rejection pair of i.i.d. flags, enumerated over its 16 flag combinations.

    P(the bits agree); the survivor's law (the bit, the XOR of the phases);
    per bit b, P(both phases 0 | survivor (b, 0)); and the law of the phases
    of a disagreeing pair's (bit-0 flag, bit-1 flag), column 2 * first + second.
    """
    survivor, same, split = [0.0] * 4, [0.0, 0.0], [0.0] * 4
    for first, second in product(range(4), repeat=2):
        mass = law[first] * law[second]
        if first >> 1 == second >> 1:
            survivor[first ^ (second & 1)] += mass
            if first == second and not first & 1:
                same[first >> 1] += mass
        elif first < second:  # the bit-0 flag first; the other order has the same mass
            split[2 * (first & 1) + (second & 1)] += mass
    agree, apart = (a + b + c + d for a, b, c, d in (survivor, split))  # not sum(): see PauliRates
    return (
        min(agree, 1.0),
        [mass / agree for mass in survivor],
        [same[bit] / survivor[2 * bit] if survivor[2 * bit] else 0.0 for bit in (0, 1)],
        [mass / apart for mass in split] if apart else [1.0, 0.0, 0.0, 0.0],
    )


def _parity_counts(rng: random.Random, law: list[float], size: int, k: int):
    """The parity step on ``size`` i.i.d. flags: (groups, bit errors, phase errors), flag counts.

    A group's bit error is the parity of its bit flags, its phase error the
    majority of its phase flags.  The G groups' compositions (n00, n01, n10,
    n11) are i.i.d., so they are drawn as counts: one multinomial over the
    C(k + 3, 3) compositions, as a tree of chained binomials, the groups'
    n00 first, then the n01 of the groups of each n00, then the n10 of those
    of each (n00, n01).  A branch that no group takes is never drawn, so the
    draws number at most the compositions and far fewer when the law is
    concentrated.  The tables are the O(k^2) binomial pmfs of the three
    chained shares, built only when G > 0.  The remainder is one
    multinomial over the four flags.
    """
    groups, shares = size // k, _shares(law)
    counts, bit_errors, phase_errors = [0, 0, 0, 0], 0, 0
    if groups:
        s00, s01, s10, _ = shares
        by_n01 = [_shares(_binomial_pmf(r, s01)) for r in range(k + 1)]
        by_n10 = [_shares(_binomial_pmf(r, s10)) for r in range(k + 1)]
        for n00, g00 in enumerate(_multinomial(rng, groups, _shares(_binomial_pmf(k, s00)))):
            if not g00:
                continue
            for n01, g01 in enumerate(_multinomial(rng, g00, by_n01[k - n00])):
                if not g01:
                    continue
                left = k - n00 - n01
                for n10, g in enumerate(_multinomial(rng, g01, by_n10[left])):
                    if g:
                        n11 = left - n10
                        bit_errors += g * ((n10 + n11) & 1)
                        phase_errors += g * (n01 + n11 > k // 2)
                        counts = [c + g * r for c, r in zip(counts, (n00, n01, n10, n11))]
    rest = _multinomial(rng, size - groups * k, shares)
    return (groups, bit_errors, phase_errors), [c + r for c, r in zip(counts, rest)]


def _key_counts(rng: random.Random, law: list[float], n: int, b_rounds: int, k: int):
    """The key stage on n i.i.d. flags from ``law``, as counts.

    Beyond a few draws per round, its cost is the parity step's
    (``_parity_counts``), counts over the compositions, whose set-up grows
    as k^2 and whose draws number at most the C(k + 3, 3) compositions,
    whatever G; it keeps O(k^2) floats.  At k = ``_MAX_P_GROUP`` = 99, with
    no rejection round, a near-uniform Y-basis law (channel
    (0.34, 0.22, 0.22, 0.22)) at n = 2^60 - 128 is the worst case found:
    0.43-0.56 s, with a traced peak of 0.37 MB.  The set-up alone, for a
    single group, takes about 5 ms (2-vCPU Xeon VM, Python 3.11).

    Returns (levels, groups, abort reason): the flag counts, column 2 * bit +
    phase, of the key and of each round's survivors; and (groups, bit
    errors, phase errors) of the parity step, (0, 0, 0) if it formed none.

    Sizes top down: a round keeps Binomial(pairs, P(agree)) flags, i.i.d.
    with the survivor law.  Counts bottom up: a level holds its survivors'
    pairs (a (b, 1) survivor came from one (b, 0) and one (b, 1) flag, and
    one binomial tells which (b, 0) ones came from two phase-0 flags), its
    disagreeing pairs (one multinomial) and its odd last flag.
    """
    sizes, laws, splits = [n], [law], []
    abort = None
    for round_no in range(1, b_rounds + 1):
        if sizes[-1] < 2:
            abort = f"key exhausted before rejection round {round_no}"
            break
        agree, survivor, same, split = _pair_laws(laws[-1])
        splits.append((same, split))
        sizes.append(_binomial(rng, sizes[-1] // 2, agree))
        laws.append(survivor)
        if sizes[-1] == 0:
            abort = f"no key bits survived rejection round {round_no}"
            break
    groups = (0, 0, 0)
    if abort is None:
        groups, counts = _parity_counts(rng, laws[-1], sizes[-1], k)
        if groups[0] == 0:
            abort = "key exhausted before parity step"
    else:
        counts = _multinomial(rng, sizes[-1], _shares(laws[-1]))
    levels = [tuple(counts)]
    for level in range(len(sizes) - 1, 0, -1):
        same, split = splits[level - 1]
        c00, c01, c10, c11 = levels[0]
        both0, both1 = _binomial(rng, c00, same[0]), _binomial(rng, c10, same[1])
        d = _multinomial(rng, sizes[level - 1] // 2 - sizes[level], _shares(split))
        odd = _multinomial(rng, sizes[level - 1] % 2, _shares(laws[level - 1]))
        levels.insert(0, (
            2 * both0 + c01 + d[0] + d[1] + odd[0],
            2 * (c00 - both0) + c01 + d[2] + d[3] + odd[1],
            2 * both1 + c11 + d[0] + d[2] + odd[2],
            2 * (c10 - both1) + c11 + d[1] + d[3] + odd[3],
        ))
    return tuple(levels), groups, abort


def run_protocol(
    channel: PauliRates,
    params: ProtocolParams,
    seed: int,
    eve: Optional[EveModel] = None,
) -> SimReport:
    """Simulate one full protocol run and compare it with the analytics.

    Args:
        channel: Pauli error distribution of the quantum channel.
        params: run size and post-processing knobs.
        seed: root seed of the three random streams: counts, checks and key,
            a non-negative integer.
        eve: optional intercept-resend attacker applied before the channel.

    Returns:
        A ``SimReport``; aborts are reported, never raised.

    Raises:
        ValueError: for a bool, a non-integral or a negative seed, or an
            ``eve`` that is neither None nor an ``EveModel``.
    """
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if eve is not None and not isinstance(eve, EveModel):
        raise ValueError(f"eve must be None or an EveModel, got {eve!r}")
    seed = int(seed)
    n = params.n
    n_total = int(math.ceil((6.0 + params.delta) * n))
    want = _split_counts(n, _CHECK_SPLIT)
    check_lo = (0, 0, n)  # the key is Y positions [0, n) and the Y checks follow it
    rng = _open_streams(seed)
    laws = _flag_laws(channel, eve)
    sift_probs = [s * b for s, b in zip(_SOURCE_PROBS, _BOB_PROBS)]
    p_sift = sift_probs[0] + sift_probs[1] + sift_probs[2]
    counts = _multinomial(rng["counts"], n_total, _shares([*sift_probs, 1.0 - p_sift]))
    sifted = tuple(counts[:3])
    n_sifted = sum(sifted)

    rows = [_rate_row("sift", "sifted_fraction", n_total, n_sifted / n_total, p_sift)]
    stage_counts = [StageCount("sift", n_total, n_sifted, n_total - n_sifted)]

    def finish(abort_reason: Optional[str], extra: dict) -> SimReport:
        return SimReport(
            seed=seed,
            channel=channel,
            params=params,
            eve=eve.describe() if eve is not None else "none",
            n_transmitted=n_total,
            n_sifted=n_sifted,
            sifted_by_basis=sifted,
            aborted=abort_reason is not None,
            abort_reason=abort_reason,
            rows=tuple(rows),
            stage_counts=tuple(stage_counts),
            **extra,
        )

    if n_sifted < 2 * n:
        return finish(f"insufficient sifted bits ({n_sifted} < {2 * n})", {})
    if sifted[2] < n:
        return finish(f"insufficient Y-basis sifted bits ({sifted[2]} < {n})", {})
    for code in range(3):
        pool = sifted[code] - check_lo[code]
        if pool < want[code]:
            basis_name = _BASIS_ORDER[code].value
            return finish(f"insufficient {basis_name}-basis check bits ({pool} < {want[code]})", {})
    stage_counts.append(StageCount("roles", n_sifted, 2 * n, n_sifted - 2 * n))

    check_errors = [_binomial(rng["checks"], w, law[2] + law[3]) for w, law in zip(want, laws)]
    abort_reason = None
    for code in range(3):
        if want[code] == 0:
            continue
        basis = _BASIS_ORDER[code]
        expected = flip_rates(conjugate(channel, basis)).p_x
        observed = check_errors[code] / want[code]
        row = _rate_row(f"check:{basis.value}", "bit_error", want[code], observed, expected)
        rows.append(row)
        excess = observed - expected
        if abort_reason is None and (
            excess > params.abort_sigma * row.std_error or observed > _ABORT_CEILING
        ):
            abort_reason = (
                f"check error in basis {basis.value}: {observed:.6g} vs expected {expected:.6g}"
            )
    if abort_reason is not None:
        return finish(abort_reason, {})

    levels, (groups, bit_errors, phase_errors), key_abort = _key_counts(
        rng["key"], laws[2], n, params.b_rounds, params.p_group
    )
    rates_now = conjugate(channel, Basis.Y)
    for round_no, counts in enumerate(levels):
        stage, size = f"key:reject_{round_no}" if round_no else "key:transmit", sum(counts)
        if round_no:
            length = sum(levels[round_no - 1])
            pairs = length // 2
            outcome = b_step(rates_now)
            expected_surv = pairs * 2.0 * outcome.survival  # pair agreement probability
            std_surv = math.sqrt(pairs * 2.0 * outcome.survival * (1.0 - 2.0 * outcome.survival))
            rows.append(ComparisonRow(stage, "survivors", pairs, float(size), expected_surv, std_surv))
            stage_counts.append(StageCount(stage, length, size, length - size))
            if size == 0:
                break
            rates_now = outcome.rates_out
        f_now = flip_rates(rates_now)
        rows.append(_rate_row(stage, "bit_error", size, (counts[2] + counts[3]) / size, f_now.p_x))
        rows.append(_rate_row(stage, "phase_error", size, (counts[1] + counts[3]) / size, f_now.p_z))
    if key_abort is not None:
        return finish(key_abort, {})

    length = sum(levels[-1])
    bit_err = bit_errors / groups
    phase_err = phase_errors / groups
    predicted = p_step(f_now, params.p_group)
    rows.append(_rate_row("key:parity", "bit_error", groups, bit_err, predicted.p_x))
    rows.append(_rate_row("key:parity", "phase_error", groups, phase_err, predicted.p_z))
    stage_counts.append(StageCount("key:parity", length, groups, length - groups))

    extra = {
        "final_bit_error": bit_err,
        "final_phase_error": phase_err,
        "final_rate_empirical": 1.0 - binary_entropy(bit_err) - binary_entropy(phase_err),
        "final_rate_analytic": 1.0 - binary_entropy(predicted.p_x) - binary_entropy(predicted.p_z),
        "goal_met": bit_err < params.target and phase_err < params.target,
    }
    return finish(None, extra)
