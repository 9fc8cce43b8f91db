"""Brute-force reference implementations used by several test modules.

These deliberately share no code with the package: the pair-rejection
map is enumerated over all 16 two-qubit error combinations in exact
rational arithmetic, and the parity/majority step over all 2^k error
patterns.  Agreement to 1e-12 is then meaningful evidence.

The exception is ``fig2_csv``, the scalar reference for the array kernel
behind ``fig2_blocks``: the per-point loop over the package's per-channel
functions that the ``sweep-fig2`` command ran before the kernel existed.
Output of the two must agree byte for byte.

``bisected_threshold`` is the reference for ``threshold_total_noise``:
the search as it ran before the shape of a ray was known, a 50-point
audit grid read for monotonicity and its flip cell bisected.  Where the
audit sees one flip, a threshold must lie in its bracket.
``bisected_window`` bisects both ends r1 and r2 of a re-entrant ray, for
the closed-form ends that ``NonMonotoneFamilyError`` names.

``limit_criterion`` is the reference for ``distillable_in_limit``: the
Gottesman-Lo criterion s < u and s·u < v² evaluated in ``Fraction``
arithmetic on the exact values of the four float components.

``exact_ray`` is the reference for ``ChannelFamily.weights``: the exact
values of the three direction components as the smallest integers in
the same proportion, from ``Fraction`` arithmetic with no power-of-two
shortcut.

``per_qubit_report`` is the reference for the simulator as a whole:
``run_protocol`` as it ran before it drew counts.  Its one transmit stage,
``transmit``, is the literal model: it draws every stream of every
transmitted qubit at full length from eight streams of its own (source bits
and bases, attacker bases and bits, channel Paulis, Bob's bases and two
scrambles), lets the attacker re-prepare and Bob measure, and sifts.  The
flag tables ``BIT_FLAG`` and ``PHASE_FLAG`` it reads are its own, worked by
hand, and ``TestFrameTables`` asserts that ``sim._flag_laws``, which reads
the relabelling table ``channel._SEEN_AS``, puts each Pauli of each basis
on the flags these tables give.  The stages after transmission slice
every role out of the sifted qubits in arrival order; ``fold_key`` folds the key.  The package draws counts
instead, so the two give different bits for a seed and are compared in
distribution; the per-qubit path, which flags each qubit by its own Pauli
and applies each attack on its own, is what checks the package's
per-basis law.

``z_scores`` scores a report against its own analytic predictions: a
z-value per comparison row, for the acceptance checks on ``|z|``.

``fold_key`` is the reference for the key stage: rejection rounds and
parity groups folded over the key's flags in arrival order.
``drawn_key_fold`` folds n flags drawn one by one from a law, and
``exact_key_law`` folds every sequence of n flags for the exact law of
the outcome, both next to the count-level ``sim._key_counts``.

``permuted_role_counts`` is the reference for the roles after sifting:
the rule the simulator followed before it took roles in arrival order,
with the key, the checks, the rejection pairs and the parity groups all
drawn by random permutations from three more streams of their own.  It
too is compared in distribution.

``fresh_interpreter`` is the reference for results that must not depend
on what the process computed before: the stdout of a snippet run in a new
Python interpreter that imports the package from the same tree.
"""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from itertools import product

import numpy as np

import asymqkd
from asymqkd.channel import Basis, PauliRates, conjugate, flip_rates
from asymqkd.distill import b_step, modified_rate_one_bstep, p_step
from asymqkd.keyrates import binary_entropy, rate_sixstate_separate
from asymqkd.sim import (
    _ABORT_CEILING,
    _BASIS_ORDER,
    _BOB_PROBS,
    _CHECK_SPLIT,
    _SOURCE_PROBS,
    ComparisonRow,
    SimReport,
    StageCount,
    _rate_row,
    _split_counts,
)
from asymqkd.threshold import is_distillable

# Per-pauli flags in the computational frame: I, X, Y, Z.
_BIT = (0, 1, 1, 0)
_PHASE = (0, 0, 1, 1)
_INDEX = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}


def enumerate_pair_rejection(rates):
    """Exact pair-rejection update over all 16 error pairs.

    Args:
        rates: (q_i, q_x, q_y, q_z) as Fractions (or ints).

    Returns:
        (rates_out, survival) with rates_out a 4-tuple of Fractions:
        the post-selection distribution of (kept bit flag, XORed phase
        flag), and survival the kept fraction of bits (agreeing pairs
        yield one survivor from two bits).
    """
    rates = tuple(Fraction(q) for q in rates)
    out = [Fraction(0)] * 4
    agree_mass = Fraction(0)
    for i, j in product(range(4), repeat=2):
        weight = rates[i] * rates[j]
        if _BIT[i] != _BIT[j]:
            continue
        agree_mass += weight
        out[_INDEX[(_BIT[i], _PHASE[i] ^ _PHASE[j])]] += weight
    return tuple(q / agree_mass for q in out), agree_mass / 2


def enumerate_parity_bit_error(p, k):
    """P(odd number of flips) over all 2^k patterns, float-exact sum."""
    total = 0.0
    for pattern in product((0, 1), repeat=k):
        weight = 1.0
        for flip in pattern:
            weight *= p if flip else (1.0 - p)
        if sum(pattern) % 2 == 1:
            total += weight
    return total


def enumerate_majority_error(p, k):
    """P(more than half flipped) over all 2^k patterns; exact for a ``Fraction`` p.

    Patterns grow one flip at a time, so each prefix's weight is shared by
    its extensions: every pattern's factors are still multiplied left to
    right, and the patterns summed in ``product`` order.
    """
    patterns = [(0, 1)]  # (flips, weight)
    for _ in range(k):
        patterns = [(flips + flip, weight * (p if flip else 1 - p))
                    for flips, weight in patterns for flip in (0, 1)]
    total = 0
    for flips, weight in patterns:
        if flips > k // 2:
            total += weight
    return total


def _fig2_point(q_y0, total):
    q_x0 = (total - q_y0) / 2.0
    rates = PauliRates.from_error_rates(q_x0, q_y0, q_x0)
    return rate_sixstate_separate(rates), modified_rate_one_bstep(conjugate(rates, Basis.Y))


def fig2_csv(cases_text, grid_text):
    """``sweep-fig2 --cases CASES --grid LO:HI:STEP`` output, one point at a time."""
    lo, hi, step = (float(part) for part in grid_text.split(":"))
    grid = [lo + i * step for i in range(math.floor((hi - lo) / step * (1.0 + 1e-9)) + 1)]
    lines = [
        "# schema: asymqkd.sweep_fig2.v1",
        f"# config: cases={cases_text} grid={grid_text}",
        "q_y0,total_noise,rate_one_way,rate_two_way",
    ]
    crossings = []
    for q_y0 in (float(c) for c in cases_text.split(",")):
        gap_prev = None
        total_prev = 0.0
        crossing = None
        for total in grid:
            if total < q_y0 or total > 1.0:
                lines.append(f"{q_y0!r},{total!r},nan,nan")
                continue
            one_way, two_way = _fig2_point(q_y0, total)
            lines.append(f"{q_y0!r},{total!r},{one_way!r},{two_way!r}")
            gap = two_way - one_way
            if crossing is None and gap > 0.0 and gap_prev is not None and gap_prev <= 0.0:
                lo, hi = total_prev, total
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    one_mid, two_mid = _fig2_point(q_y0, mid)
                    if two_mid - one_mid > 0.0:
                        hi = mid
                    else:
                        lo = mid
                crossing = 0.5 * (lo + hi)
            gap_prev, total_prev = gap, total
        crossings.append((q_y0, crossing))
    for q_y0, crossing in crossings:
        where = repr(crossing) if crossing is not None else "none-in-grid"
        lines.append(f"# crossing: q_y0={q_y0!r} total_noise={where}")
    return "\n".join(lines) + "\n"


class AuditError(Exception):
    """The audit grid did not show exactly one flip from feasible to infeasible."""


def _audit_and_bisect(feasible, lo, hi, tol, audit_points):
    n = max(audit_points, 3)
    grid = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    flags = [feasible(scale) for scale in grid]
    if not flags[0]:
        raise AuditError(f"not feasible at scale {grid[0]!r}; no threshold to bracket")
    if all(flags):
        raise AuditError(f"still feasible at maximum scale {grid[-1]!r}")
    flip = flags.index(False)
    if any(flags[flip:]):
        raise AuditError(
            f"feasibility flips more than once along the ray (audit flags {flags})"
        )
    return _bisect_flip(feasible, grid[flip - 1], grid[flip], tol)


def _bisect_flip(feasible, low, high, tol):
    """Halve [low, high], feasible at ``low`` and not at ``high``, to width ``tol``."""
    while high - low > tol:
        mid = 0.5 * (low + high)
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low, high


def bisected_threshold(family, variant, tol=1e-4, audit_points=50):
    """(threshold, low, high) of ``family`` under ``variant``, or ``AuditError``."""

    def feasible(scale):
        return is_distillable(family.rates_at(scale), variant)

    low, high = _audit_and_bisect(feasible, 0.0, 1.0, tol, audit_points)
    return 0.5 * (low + high), low, high


def bisected_window(family, variant, tol=1e-12):
    """Brackets of r1 and r2 of a ray feasible at 0 and 1 but not at 1/2.

    r1 is bisected on [0, 1/2] and r2 on [1/2, 1], each to width ``tol``.
    """

    def feasible(scale):
        return is_distillable(family.rates_at(scale), variant)

    if not feasible(0.0) or feasible(0.5) or not feasible(1.0):
        raise AuditError("not feasible at 0 and 1 and infeasible at 1/2")
    r1 = _bisect_flip(feasible, 0.0, 0.5, tol)
    r2 = _bisect_flip(lambda scale: not feasible(scale), 0.5, 1.0, tol)
    return r1, r2


def limit_criterion(rates):
    """``distillable_in_limit`` of (q_i, q_x, q_y, q_z), each taken as an exact Fraction."""
    q_i, q_x, q_y, q_z = (Fraction(q) for q in rates)
    s, u, v = q_x + q_y, q_i + q_z, q_i - q_z
    return s < u and s * u < v * v


def exact_ray(direction):
    """The components of ``direction`` as exact Fractions, scaled to coprime integers."""
    values = [Fraction(c) for c in direction]
    scale = math.lcm(*(v.denominator for v in values))
    integers = [int(v * scale) for v in values]
    divisor = math.gcd(*integers)
    return tuple(n // divisor for n in integers)


_SIM_STREAMS = (
    "alice_bits", "alice_bases", "eve_bases", "eve_bits", "channel_paulis", "bob_bases",
    "bob_scramble", "phase_scramble", "selection", "pairing", "grouping",
)
_SIM_BASIS_CODE = {Basis.Z: 0, Basis.X: 1, Basis.Y: 2}
# Bit and phase flags of each Pauli I, X, Y, Z (columns) as seen from each
# basis Z, X, Y (rows), worked by hand.  Each basis sees the three errors as
# a bit flip, a phase flip and both: in Z these are X, Z and Y; in X they
# are Z, X and Y; in Y they are Z, Y and X.
BIT_FLAG = (
    (0, 1, 1, 0),
    (0, 0, 1, 1),
    (0, 1, 0, 1),
)
PHASE_FLAG = (
    (0, 0, 1, 1),
    (0, 1, 1, 0),
    (0, 1, 1, 0),
)
_BIT_FLAG_ARRAY = np.array(BIT_FLAG, dtype=np.uint8)
_PHASE_FLAG_ARRAY = np.array(PHASE_FLAG, dtype=np.uint8)


def sim_streams(seed):
    """The named streams of ``_SIM_STREAMS``, children of ``SeedSequence(seed)``."""
    children = np.random.SeedSequence(seed).spawn(len(_SIM_STREAMS))
    return {name: np.random.default_rng(child) for name, child in zip(_SIM_STREAMS, children)}


def sample_categorical(rng, probs, size):
    """Category of each uniform draw u: the number of inner cdf edges <= u.

    The same index as ``np.searchsorted(cdf, u, side="right")`` (the last
    edge is pinned to 1 > u), counted by one comparison per category.
    """
    cdf = np.cumsum(np.asarray(probs, dtype=float))
    u = rng.random(size)
    picks = np.zeros(size, dtype=np.uint8)
    for edge in cdf[:-1]:
        picks += u >= edge
    return picks


def transmit(channel, n_total, rng, eve):
    """Send ``n_total`` qubits and return (basis, error, phase) of the sifted ones.

    Every stream of ``rng`` before ``selection`` is drawn at full length.
    Alice sends a random bit in a random basis.  The attacker, if any,
    measures in a random basis of her own: in Alice's she resends the qubit
    as it was, in another she re-prepares it in hers with a uniform bit.
    The channel applies a Pauli, and Bob measures in a random basis: he
    reads the state's bit, flipped by the flag tables, where his basis is
    the state's, and a uniform bit elsewhere.  A qubit is sifted where
    Bob's basis is Alice's, and Bob's reading is formed for those only.

    Per sifted qubit, in transmission order: its basis code, its bit-error
    flag (Bob's bit XOR Alice's) and its phase flag, which is the Pauli's
    unless the state's basis is not Alice's, when it is uniform.
    """
    alice_bits = rng["alice_bits"].integers(0, 2, n_total, dtype=np.uint8)
    alice_basis = sample_categorical(rng["alice_bases"], _SOURCE_PROBS, n_total)
    state_basis, state_bit = alice_basis, alice_bits
    if eve is not None:
        codes = np.array([_SIM_BASIS_CODE[b] for b in eve.bases], dtype=np.uint8)
        eve_basis = codes[sample_categorical(rng["eve_bases"], eve.weights, n_total)]
        eve_bits = rng["eve_bits"].integers(0, 2, n_total, dtype=np.uint8)
        rebased = eve_basis != alice_basis
        state_basis = np.where(rebased, eve_basis, alice_basis)
        state_bit = np.where(rebased, eve_bits, alice_bits)
    paulis = sample_categorical(rng["channel_paulis"], channel.as_tuple(), n_total)
    bob_basis = sample_categorical(rng["bob_bases"], _BOB_PROBS, n_total)
    scramble = rng["bob_scramble"].integers(0, 2, n_total, dtype=np.uint8)
    phase_noise = rng["phase_scramble"].integers(0, 2, n_total, dtype=np.uint8)

    sifted = np.flatnonzero(bob_basis == alice_basis)
    basis, state, pauli = alice_basis[sifted], state_basis[sifted], paulis[sifted]
    faithful = state == basis  # so Bob, in Alice's basis, measures in the state's
    meas_bit = np.where(
        faithful, state_bit[sifted] ^ _BIT_FLAG_ARRAY[state, pauli], scramble[sifted]
    )
    phase = np.where(faithful, _PHASE_FLAG_ARRAY[state, pauli], phase_noise[sifted])
    return basis, meas_bit ^ alice_bits[sifted], phase


def permuted_role_counts(channel, params, seed):
    """Error counts of every stage after sifting, with every role drawn at random.

    Sifts with ``transmit``, without an attacker, then picks the key and
    the checks with the ``selection`` stream, pairs each rejection round
    with the ``pairing`` stream and groups the parity step with the
    ``grouping`` stream.  Abort rules are not applied; the pools and the
    key must not run out.

    Returns:
        {(stage, quantity): count} for the same rows as ``SimReport.rows``
        after sifting: the number of flipped bits (or phases) of each
        check, of the key and of every rejection round and the parity
        step, and the number of survivors of every rejection round.
    """
    n = params.n
    rng = sim_streams(seed)
    basis, errors, phase = transmit(channel, math.ceil((6.0 + params.delta) * n), rng, None)

    positions = np.arange(basis.size)
    y_pool = positions[basis == 2]
    assert y_pool.size >= n
    key = np.sort(rng["selection"].permutation(y_pool)[:n])
    free = np.ones(basis.size, dtype=bool)
    free[key] = False
    counts = {}
    for (name, code), want in zip(_SIM_BASIS_CODE.items(), _split_counts(n, _CHECK_SPLIT)):
        pool = positions[(basis == code) & free]
        assert pool.size >= want
        picked = rng["selection"].permutation(pool)[:want]
        if want > 0:
            counts[(f"check:{name.value}", "bit_error")] = int(errors[picked].sum())

    bits, phases = errors[key], phase[key]
    counts[("key:transmit", "bit_error")] = int(bits.sum())
    counts[("key:transmit", "phase_error")] = int(phases.sum())
    for round_no in range(1, params.b_rounds + 1):
        stage = f"key:reject_{round_no}"
        pairs = bits.size // 2
        assert pairs > 0
        left, right = rng["pairing"].permutation(bits.size)[: 2 * pairs].reshape(pairs, 2).T
        agree = bits[left] == bits[right]
        bits, phases = bits[left][agree], (phases[left] ^ phases[right])[agree]
        counts[(stage, "survivors")] = int(agree.sum())
        counts[(stage, "bit_error")] = int(bits.sum())
        counts[(stage, "phase_error")] = int(phases.sum())

    k = params.p_group
    groups = bits.size // k
    assert groups > 0
    order = rng["grouping"].permutation(bits.size)[: groups * k].reshape(groups, k)
    counts[("key:parity", "bit_error")] = int((bits[order].sum(axis=1) % 2).sum())
    counts[("key:parity", "phase_error")] = int((phases[order].sum(axis=1) > k // 2).sum())
    return counts


def per_qubit_report(channel, params, seed, eve=None):
    """``run_protocol`` drawing every transmitted qubit, with every sifted qubit in memory.

    ``transmit``, then the sifted qubits masked per basis, with the key and
    the checks sliced out of them in arrival order and the key's flags
    folded by ``fold_key``.
    """
    n = params.n
    n_total = int(math.ceil((6.0 + params.delta) * n))
    basis, errors, phase_flag = transmit(channel, n_total, sim_streams(seed), eve)
    n_sifted = basis.size
    sifted_by_basis = tuple(int(np.count_nonzero(basis == c)) for c in range(3))

    p_sift = sum(s * b for s, b in zip(_SOURCE_PROBS, _BOB_PROBS))
    rows = [_rate_row("sift", "sifted_fraction", n_total, n_sifted / n_total, p_sift)]
    stage_counts = [StageCount("sift", n_total, n_sifted, n_total - n_sifted)]

    def finish(abort_reason, extra):
        return SimReport(
            seed=seed,
            channel=channel,
            params=params,
            eve=eve.describe() if eve is not None else "none",
            n_transmitted=n_total,
            n_sifted=n_sifted,
            sifted_by_basis=sifted_by_basis,
            aborted=abort_reason is not None,
            abort_reason=abort_reason,
            rows=tuple(rows),
            stage_counts=tuple(stage_counts),
            **extra,
        )

    if n_sifted < 2 * n:
        return finish(f"insufficient sifted bits ({n_sifted} < {2 * n})", {})

    is_y = basis == 2
    y_errors = errors[is_y]
    if y_errors.size < n:
        return finish(f"insufficient Y-basis sifted bits ({y_errors.size} < {n})", {})
    checks = {}
    for code, want in enumerate(_split_counts(n, _CHECK_SPLIT)):
        pool = y_errors[n:] if code == 2 else errors[basis == code]
        if pool.size < want:
            basis_name = _BASIS_ORDER[code].value
            return finish(f"insufficient {basis_name}-basis check bits ({pool.size} < {want})", {})
        checks[code] = pool[:want]
    stage_counts.append(StageCount("roles", n_sifted, 2 * n, n_sifted - 2 * n))

    abort_reason = None
    for code, check_bits in checks.items():
        if check_bits.size == 0:
            continue
        basis = _BASIS_ORDER[code]
        expected = flip_rates(conjugate(channel, basis)).p_x
        observed = float(check_bits.mean())
        row = _rate_row(f"check:{basis.value}", "bit_error", check_bits.size, observed, expected)
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

    key_bits = y_errors[:n]
    key_phase = phase_flag[is_y][:n]
    levels, (groups, bit_errors, phase_errors), abort_reason = fold_key(
        (2 * key_bits + key_phase).tolist(), params.b_rounds, params.p_group
    )
    rates_now = conjugate(channel, Basis.Y)
    f_now = flip_rates(rates_now)
    rows.append(_rate_row("key:transmit", "bit_error", n, float(key_bits.mean()), f_now.p_x))
    rows.append(_rate_row("key:transmit", "phase_error", n, float(key_phase.mean()), f_now.p_z))

    for round_no, counts in enumerate(levels[1:], 1):
        stage = f"key:reject_{round_no}"
        length = sum(levels[round_no - 1])
        pairs = length // 2
        survivors = sum(counts)
        outcome = b_step(rates_now)
        expected_surv = pairs * 2.0 * outcome.survival  # pair agreement probability
        std_surv = math.sqrt(pairs * 2.0 * outcome.survival * (1.0 - 2.0 * outcome.survival))
        rows.append(
            ComparisonRow(stage, "survivors", pairs, float(survivors), expected_surv, std_surv)
        )
        stage_counts.append(StageCount(stage, length, survivors, length - survivors))
        if survivors == 0:
            break
        rates_now = outcome.rates_out
        f_now = flip_rates(rates_now)
        bit_rate = (counts[2] + counts[3]) / survivors
        phase_rate = (counts[1] + counts[3]) / survivors
        rows.append(_rate_row(stage, "bit_error", survivors, bit_rate, f_now.p_x))
        rows.append(_rate_row(stage, "phase_error", survivors, phase_rate, f_now.p_z))
    if abort_reason is not None:
        return finish(abort_reason, {})

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


def z_scores(report):
    """(stage, quantity) -> (empirical - analytic) / std_error of each row of ``report``.

    A zero standard error demands exact agreement: z is 0 where the two are
    equal and an infinity of the difference's sign where they are not.
    """
    scores = {}
    for row in report.rows:
        diff = row.empirical - row.analytic
        if row.std_error > 0.0:
            z = diff / row.std_error
        else:
            z = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        scores[row.stage, row.quantity] = z
    return scores


def _tally(flags):
    return tuple(flags.count(flag) for flag in range(4))


def fold_key(flags, b_rounds, k):
    """The key stage on the flags 2 * bit + phase of the key bits, in arrival order.

    Rejection round r pairs adjacent flags (0, 1), (2, 3), ..., drops an odd
    last one, and keeps the left flag of a pair whose bits agree, with the
    XOR of the pair's phases.  The parity step groups adjacent k flags: the
    parity of a group's bits is its bit error, the majority of its phases
    its phase error.

    Returns:
        (levels, groups, abort_reason), the tuple ``sim._key_counts`` returns:
        the counts of the four flags in the key and in the survivors of
        each round reached, (groups, bit errors, phase errors) of the
        parity step, (0, 0, 0) if it formed none, and the abort reason or
        None.
    """
    flags = list(flags)
    levels = [_tally(flags)]
    for round_no in range(1, b_rounds + 1):
        if len(flags) < 2:
            return tuple(levels), (0, 0, 0), f"key exhausted before rejection round {round_no}"
        flags = [a ^ (b & 1) for a, b in zip(flags[0::2], flags[1::2]) if a >> 1 == b >> 1]
        levels.append(_tally(flags))
        if not flags:
            return tuple(levels), (0, 0, 0), f"no key bits survived rejection round {round_no}"
    groups = [flags[start : start + k] for start in range(0, len(flags) - k + 1, k)]
    bit_errors = sum(sum(flag >> 1 for flag in group) % 2 for group in groups)
    phase_errors = sum(sum(flag & 1 for flag in group) > k // 2 for group in groups)
    abort_reason = None if groups else "key exhausted before parity step"
    return tuple(levels), (len(groups), bit_errors, phase_errors), abort_reason


def drawn_key_fold(law, n, b_rounds, k, seed):
    """``fold_key`` of n i.i.d. flags drawn from ``law`` (column 2 * bit + phase)."""
    flags = sample_categorical(np.random.default_rng(seed), law, n)
    return fold_key(flags.tolist(), b_rounds, k)


def exact_key_law(law, n, b_rounds, k):
    """{``fold_key`` outcome: probability} over all 4^n sequences of n i.i.d. flags from ``law``."""
    outcomes = {}
    for flags in product(range(4), repeat=n):
        outcome = fold_key(flags, b_rounds, k)
        outcomes[outcome] = outcomes.get(outcome, 0.0) + math.prod(law[flag] for flag in flags)
    return outcomes


def fresh_interpreter(code):
    """Stdout of ``code`` run by a new interpreter on this ``asymqkd`` tree."""
    src = str(pathlib.Path(asymqkd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=False
    )
    assert run.returncode == 0, run.stderr
    return run.stdout
