"""Total-noise thresholds for the protocol variants along channel rays.

A channel family is a ray through the simplex of error distributions:
its exact integer weights (w_x, w_y, w_z), scaled so that the error
components add up to the total noise S.  For each protocol variant,
``is_distillable`` decides whether a secret key is obtainable at one
point of the ray.  Every ray is feasible on [0, r1) and maybe again on
(r2, 1], with r1 <= 1/2 <= r2, so ``threshold_total_noise`` decides
S = 1 to tell a ray with one threshold from a re-entrant one, which it
reports as ``NonMonotoneFamilyError``.

One-way variants are feasible where their key rate is positive; their
threshold is bisected on [0, 1/2] to adjacent floats.  Two-way variants
are decided by one authority, the exact unbounded-caps criterion
``distillable_in_limit`` (Gottesman-Lo pair rejection plus parity in the
limit m, k -> infinity), so a threshold does not depend on a
residual-error target or on search caps.  Along a ray that criterion is a quadratic in S, so a two-way
threshold is its smaller root r1, computed in integers on the exact ray
of the family's inputs, correctly rounded and bracketed by the floats
next to it.

``sweep_fig1`` yields both two-way thresholds across channel shapes a
row at a time; ``fig2_blocks`` the one-way six-state and one-rejection
two-way rates against total noise, block by block from the progression
(lo, step, count) of totals, with the noise at which two-way overtakes
one-way.  Neither holds a list of points or rows.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .channel import (
    _SEEN_AS,
    Basis,
    PauliRates,
    _dyadic_numerators,
    _Frozen,
    _normalized,
    average_over_mixture,
    conjugate,
)
from .distill import _b_step_map, distillable_in_limit, modified_rate_one_bstep
from .keyrates import _entropy, rate_single_basis, rate_sixstate_separate

if TYPE_CHECKING:
    import numpy as np


class ProtocolVariant(enum.Enum):
    """Which preprocessing and reconciliation strategy to score."""

    Y_BASIS_TWO_WAY = "ybasis"
    CHAU_BASELINE = "chau"
    SINGLE_BASIS_ONE_WAY = "single-basis"
    SIX_STATE_SEPARATE_ONE_WAY = "sixstate-separate"


class NonMonotoneFamilyError(Exception):
    """Feasible below r1 and above r2 but not between, both named: no single threshold."""


class ChannelFamily(_Frozen):
    """Ray of channels: error components = scale * weights / sum(weights).

    ``weights`` is the exact ray, the inputs as coprime integers, so
    ``scale`` is the total noise q_x + q_y + q_z, and the identity component
    1 - scale stays nonnegative for scale <= 1, the full usable range.
    Two-way thresholds read ``weights``.  ``rates_at`` rounds each error
    component of the exact ray correctly, so its float channels lean
    neither to more nor to less noise; ``PauliRates`` then divides them by
    their float sum.  Round-off can still put the channel at either end of
    a two-way bracket on the other side of the root: of 12,075 brackets on
    7,022 rays, ``rates_at(bracket.low)`` was judged infeasible in 31 and
    ``rates_at(bracket.high)`` feasible in 194.

    Equality and the hash cover ``weights``, and repr shows them:
    ``eval(repr(f)) == f`` and ``ChannelFamily(f.weights) == f``, as an
    ``int`` component is taken exactly and any other through ``float``.
    """

    __slots__ = _fields = ("weights",)
    weights: tuple[int, int, int]

    def __init__(self, weights: tuple[float, float, float]) -> None:
        d = tuple(c if isinstance(c, int) else float(c) for c in weights)
        # One chained comparison rejects NaN, infinities and negatives, not -0.0.
        if len(d) != 3 or not all([0.0 <= c < math.inf for c in d]):
            raise ValueError(f"direction must be three finite nonnegative components, got {d}")
        w_x, w_y, w_z = _dyadic_numerators(d)
        divisor = math.gcd(w_x, w_y, w_z)
        if not divisor:
            raise ValueError("direction must have a positive finite total weight, got 0.0")
        object.__setattr__(self, "weights", (w_x // divisor, w_y // divisor, w_z // divisor))

    @classmethod
    def from_y_ratio(cls, ratio: float) -> "ChannelFamily":
        """Family with q_x = q_z and q_y / q_x = ratio: weights (d, n, d) for ratio = n/d.

        n/d is the ratio in lowest terms, taken exactly from an ``int`` and
        through ``float`` otherwise, so the weights are coprime and equal
        those of ``ChannelFamily((1.0, ratio, 1.0))``.  NaN and inf go to
        that constructor, which rejects them with its message.
        """
        if ratio < 0.0:
            raise ValueError(f"ratio must be nonnegative, got {ratio}")
        exact = ratio if isinstance(ratio, int) else float(ratio)
        if not exact < math.inf:  # NaN and inf
            return cls((1.0, exact, 1.0))
        n, d = exact.as_integer_ratio()
        family = object.__new__(cls)
        object.__setattr__(family, "weights", (d, n, d))
        return family

    def _errors_at(self, scale: float) -> tuple[float, float, float]:
        """(q_x, q_y, q_z) = scale * weights / sum(weights), each correctly rounded."""
        w_x, w_y, w_z = self.weights
        n, d = scale.as_integer_ratio()
        d *= w_x + w_y + w_z
        return n * w_x / d, n * w_y / d, n * w_z / d  # int / int division is correctly rounded

    def rates_at(self, scale: float) -> PauliRates:
        if not 0.0 <= scale <= 1.0:
            raise ValueError(f"scale={scale!r} outside [0, 1.0]")
        return PauliRates(1.0 - scale, *self._errors_at(scale))


def _effective(rates: PauliRates, variant: ProtocolVariant) -> PauliRates:
    """Error distribution the key bits of a two-way variant experience.

    Y-conjugation for the Y-basis protocol, the equal three-basis average
    for the baseline.
    """
    if variant is ProtocolVariant.Y_BASIS_TWO_WAY:
        return conjugate(rates, Basis.Y)
    if variant is ProtocolVariant.CHAU_BASELINE:
        return average_over_mixture(rates)
    raise ValueError(f"unknown variant {variant!r}")


def is_distillable(rates: PauliRates, variant: ProtocolVariant) -> bool:
    """Decide key feasibility for one channel under one variant.

    One-way variants reduce to the sign of the corresponding key rate.
    Two-way variants map the channel to the error distribution their key
    bits experience and apply the exact limit criterion
    ``distillable_in_limit``.
    """
    if variant is ProtocolVariant.SINGLE_BASIS_ONE_WAY:
        return rate_single_basis(rates) > 0.0
    if variant is ProtocolVariant.SIX_STATE_SEPARATE_ONE_WAY:
        return rate_sixstate_separate(rates) > 0.0
    return distillable_in_limit(_effective(rates, variant))


class Bracket(NamedTuple):
    low: float
    high: float


class ThresholdResult(NamedTuple):
    """Threshold of a ray: feasible at ``bracket.low``, infeasible at ``bracket.high``.

    For a two-way variant ``threshold`` is the root r1 on the family's
    exact ray, correctly rounded, and the bracket its two neighbouring
    floats; for a one-way variant the bracket is two adjacent floats and
    ``threshold`` their midpoint, which rounds to one of them.

    Two-way ends are decided on the exact ray.  ``family.rates_at`` rounds
    each component of that ray correctly, and round-off can still put the
    float channel at either end on the other side of the root (31 low and
    194 high ends of 12,075 brackets; see ``ChannelFamily``): step
    ``bracket.low`` down, or ``bracket.high`` up, with ``math.nextafter``
    for a channel that ``is_distillable`` judges as the bracket says.
    """

    threshold: float
    bracket: Bracket


def _reentrant(r1: float, r2: float) -> NonMonotoneFamilyError:
    return NonMonotoneFamilyError(
        f"feasible below r1={r1!r} and above r2={r2!r} "
        "but not between: the ray has no single threshold"
    )


def _bisect(feasible: Callable[[float], bool], low: float, high: float) -> tuple[float, float]:
    """Halve [low, high], feasible at ``low`` and not at ``high``, to adjacent floats.

    The ends themselves are not probed.
    """
    while low < (mid := 0.5 * (low + high)) < high:
        if feasible(mid):
            low = mid
        else:
            high = mid
    return low, high


def _smaller_root(p: int, q: int) -> float:
    """r1 = 2q / ((4q - p) + √(p(8q - 7p))), correctly rounded, for 0 <= p <= q.

    ``isqrt`` with ``guard`` fraction bits puts r1 between two int / int
    quotients, each correctly rounded; doubling ``guard`` until they agree
    ends, as an irrational r1 is no float midpoint.
    """
    radicand = p * (8 * q - 7 * p)
    guard = 64
    while True:
        scaled = radicand << 2 * guard
        root = math.isqrt(scaled)
        numerator, base = 2 * q << guard, ((4 * q - p) << guard) + root
        low = numerator / (base + (root * root != scaled))
        high = numerator / base
        if low == high:
            return high
        guard *= 2


def _two_way_threshold(p: int, q: int) -> ThresholdResult:
    """Closed-form threshold of a two-way variant with a = p / q; see ``threshold_total_noise``."""
    r1 = _smaller_root(p, q)
    if 2 * p < q:  # g(1) = (2a - 1)(a - 1) > 0: feasible at S = 1
        a = p / q
        b = 2.0 - a
        raise _reentrant(r1, 1.0 / (r1 * (a * a + b * b)))
    return ThresholdResult(r1, Bracket(math.nextafter(r1, 0.0), math.nextafter(r1, 1.0)))


# Depends on no input: the three-basis average has a = e_x + e_y = 2/3 on every ray.
_CHAU_THRESHOLD = _two_way_threshold(2, 3)


def threshold_total_noise(family: ChannelFamily, variant: ProtocolVariant) -> ThresholdResult:
    """Locate the total-noise threshold of ``variant`` along ``family``.

    On the ray q = S·d the variant is feasible where g(S) > 0, with g
    convex, g(0) = 1 and g(1/2) <= 0:

    * two-way: a = e_x + e_y of the effective direction e, b = 2 - a, so
      s = aS, u = 1 - aS, v = 1 - bS.  As u >= |v|, s·u < v² implies s < u,
      so g = v² - s·u = (a² + b²)S² - (2b + a)S + 1 and g(1/2) = a(a - 1)/2;
    * ``single-basis``: g = 1 - h(αS) - h(βS) with α + β >= 1; g(1/2) <= 0
      as h is increasing on [0, 1/2] and subadditive;
    * ``sixstate-separate``: g = 1 - h(S) - S·H(d), so g(1/2) = -H(d)/2.

    So the feasible set on [0, 1] is [0, r1) ∪ (r2, 1], r1 <= 1/2 <= r2 and
    (r2, 1] maybe empty: one threshold exactly when S = 1 is infeasible.
    A ray feasible at S = 1 raises ``NonMonotoneFamilyError`` naming r1
    and r2.

    Two-way variants take a = p/q exactly from the family's integer
    ``weights``: p/q = (w_x + w_z)/(w_x + w_y + w_z) for ``ybasis`` and 2/3
    for ``chau``, whose threshold is thus the same on every ray:
    (15 - 3√5)/20, correctly rounded to 0.41458980337503154 and computed
    once at import.  With b = 2 - a the roots of g are
    r1 = 2q / ((4q - p) + √(p(8q - 7p))) and r2 = 1 / (r1(a² + b²)), and
    g(1) = (2a - 1)(a - 1) is positive exactly when 2p < q.  The threshold
    is r1 correctly rounded and the bracket its two neighbouring floats; no
    channel is built.  One-way variants probe S = 1, then bisect r1 on
    [0, 1/2], and r2 on [1/2, 1] for a re-entrant ray, until the ends are
    adjacent floats; the threshold is the bracket midpoint.
    """
    if variant is ProtocolVariant.Y_BASIS_TWO_WAY:
        # ``_SEEN_AS[Basis.Y]`` maps (d_x, d_y, d_z) to (d_z, d_x, d_y), so a = p/q.
        w_x, w_y, w_z = family.weights
        return _two_way_threshold(w_x + w_z, w_x + w_y + w_z)
    if variant is ProtocolVariant.CHAU_BASELINE:
        return _CHAU_THRESHOLD

    def feasible(scale: float) -> bool:
        return is_distillable(family.rates_at(scale), variant)

    if feasible(1.0):
        r1 = _bisect(feasible, 0.0, 0.5)
        r2 = _bisect(lambda scale: not feasible(scale), 0.5, 1.0)
        raise _reentrant(0.5 * (r1[0] + r1[1]), 0.5 * (r2[0] + r2[1]))
    low, high = _bisect(feasible, 0.0, 0.5)
    return ThresholdResult(threshold=0.5 * (low + high), bracket=Bracket(low, high))


class Fig1Row(NamedTuple):
    """One ratio point of the threshold-versus-asymmetry sweep."""

    y_ratio: float
    q_y0_at_threshold: float
    threshold_ybasis: float
    threshold_chau: float
    error: Optional[str] = None


def sweep_fig1(ratios: Iterable[float]) -> Iterator[Fig1Row]:
    """Two-way thresholds along q_x = q_z rays for each q_y/q_x ratio, a row at a time.

    ``q_y0_at_threshold`` reports the absolute q_y component of the channel
    at the Y-basis protocol's threshold, which is the natural abscissa when
    plotting threshold against channel asymmetry.  Per-point failures are
    recorded in the row (NaN values plus the error message) and do not stop
    the sweep.  Both thresholds are the closed-form roots r1 of
    ``threshold_total_noise``, so the sweep takes no tolerance.  The chau
    root is the same on every ray and is read once, before the first row;
    ``q_y0`` is the Y-basis threshold times d_y of the exact ray, one
    correctly rounded int / int quotient.
    """
    chau = _CHAU_THRESHOLD.threshold
    for ratio in ratios:
        try:
            family = ChannelFamily.from_y_ratio(ratio)
            thr_y = threshold_total_noise(family, ProtocolVariant.Y_BASIS_TWO_WAY).threshold
        except (NonMonotoneFamilyError, ValueError) as exc:
            yield Fig1Row(ratio, math.nan, math.nan, math.nan, error=str(exc))
            continue
        w_x, w_y, w_z = family.weights
        n, d = thr_y.as_integer_ratio()
        yield Fig1Row(ratio, n * w_y / (d * (w_x + w_y + w_z)), thr_y, chau)


class Fig2Curve(NamedTuple):
    """Rate curves of one q_y0 case along q_x0 = q_z0 = (total - q_y0) / 2.

    ``totals`` holds the grid points, ``one_way`` and ``two_way`` a rate per
    point (NaN where total < q_y0 or total > 1): the six-state rate with
    per-basis accounting, and the rate after one rejection round in the Y
    frame.  ``crossing`` is the total noise where two-way first overtakes
    one-way, or None when the gap never turns from <= 0 to > 0 in the grid.
    """

    q_y0: float
    totals: np.ndarray
    one_way: np.ndarray
    two_way: np.ndarray
    crossing: Optional[float]


def _log2s(values: np.ndarray, low: int, high: int) -> np.ndarray:
    """``math.log2`` of each of ``values``, positive floats with bit patterns in [low, high].

    Positive floats order as their bit patterns, so ``values`` spans
    high - low + 1 floats; when that is fewer than its entries, they repeat,
    and their offsets from ``low`` index a table of one logarithm per value
    present.
    """
    import numpy as np

    span = high - low + 1
    if span >= values.size:
        return np.fromiter(map(math.log2, memoryview(values)), float, values.size)
    offsets = values.view(np.int64) - low
    present = np.zeros(span, bool)
    present[offsets] = True
    at = np.flatnonzero(present)
    table = np.empty(span)
    table[at] = np.fromiter(map(math.log2, memoryview((at + low).view(float))), float, at.size)
    return table[offsets]


def _entropy_terms(row: np.ndarray) -> np.ndarray:
    """q·log2(q) for each positive entry q of ``row``, which holds no NaN, and 0.0 for the others."""
    import numpy as np

    bits = row.view(np.int64)  # the positive floats are the positive patterns
    high = int(bits.max(initial=0))
    if high <= 0:
        return np.zeros(row.shape)
    low = int(bits.min())
    if low > 0:  # every entry positive: no mask
        return row * _log2s(row, low, high)
    positive = row > 0.0
    kept = row[positive]
    terms = np.zeros(row.shape)
    terms[positive] = kept * _log2s(kept, int(kept.view(np.int64).min()), high)
    return terms


def _shannon4(comps: Sequence[np.ndarray]) -> np.ndarray:
    """Array form of ``keyrates.shannon4``: its terms, summed by the same ``_entropy``.

    Each row's terms q·log2(q) are taken once: a row equal to an earlier
    one (``np.array_equal``) reuses that row's terms, and a row with no
    positive entry is all zeros.  Within a row each distinct value takes
    one logarithm (``_log2s``): the fig2 kernel's q_y row, q_y0 divided by
    sums next to 1, takes 1 to 4 values a block.  A row with every entry
    positive is used as it is, without a mask.  All of this is checked on
    the values, not assumed from how the rows were built.  Rows hold no
    NaN (see ``_fig2_rates``).  The logarithm is ``math.log2``: np.log2
    rounds differently in the last bit.
    """
    import numpy as np

    terms: list[np.ndarray] = []
    for row in comps:
        for earlier, done in zip(comps, terms):
            if np.array_equal(row, earlier):
                terms.append(done)
                break
        else:
            terms.append(_entropy_terms(row))
    return _entropy(*terms)


def _fig2_rates(q_y0: float, totals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(one-way, two-way) rates at q_x0 = q_z0 = (total - q_y0) / 2 for each total.

    Bit for bit ``rate_sixstate_separate(rates)`` and
    ``modified_rate_one_bstep(conjugate(rates, Basis.Y))`` with
    ``rates = PauliRates.from_error_rates(q_x0, q_y0, q_x0)``: the same
    operations in the same order, on whole arrays, and ``_normalized`` for
    each ``PauliRates`` built on the way.  With q_y0 in [0, 1] and totals in
    [q_y0, 1] (``fig2_blocks`` checks), no row holds NaN, q_i >= -3 ulps and
    the sums are within a few ulps of 1, so the kernel checks nothing; rows
    after the first are quotients of nonnegative floats, which need no clip.
    These channels have q_x = q_z, and after the B-step the rows x² + y²
    and 2xy are equal unless their products are subnormal, and q_y takes a
    few values; ``_shannon4`` finds repeated rows and values and takes their
    logarithms once.
    """
    import numpy as np

    q_x = (totals - q_y0) / 2.0
    q_y = np.full_like(q_x, q_y0)
    rates = _normalized(*np.maximum([1.0 - (q_x + q_y + q_x), q_x, q_y, q_x], 0.0))
    one_way = 1.0 - _shannon4(rates)
    # conjugate's relabelling, b_step's own map, then modified_rate_one_bstep.
    d, out = _b_step_map(*_normalized(*[rates[i] for i in _SEEN_AS[Basis.Y]]))
    two_way = 0.5 * d * (1.0 - _shannon4(_normalized(*out)))
    return one_way, two_way


def _grid_points(grid: tuple[float, float, int], start: int, rows: int) -> np.ndarray:
    """Points i = ``start`` .. ``start + rows - 1``, below count, of the grid (lo, step, count).

    Each is lo + i * step as Python floats give it: i is exact below 2^53, and each operation
    rounds once.
    """
    import numpy as np

    lo, step, count = grid
    return lo + np.arange(start, min(start + rows, count)) * step


def fig2_blocks(cases: Sequence[float],
                grid: tuple[float, float, int]) -> Iterator[Iterator[Fig2Curve]]:
    """Per q_y0 case, an iterator of ``Fig2Curve`` blocks of ``_FIG2_BLOCK_ROWS`` grid points.

    ``grid`` is the progression (lo, step, count) of totals.  Each block is
    one ``_fig2_rates`` call on its totals inside [q_y0, 1] and has the
    case's crossing if its cell ends at or before the block's last point:
    the first pair of consecutive such points, across block edges too,
    where two-way - one-way turns from <= 0 to > 0, bisected to adjacent
    floats by scalar probes.  Every case has the same blocks of totals, the
    first the largest.  An empty grid gives one empty block a case.  Raises
    ``ValueError`` when called for a case outside [0, 1], a grid ``lo`` or
    ``step`` that is not finite, or a grid count that is not an int >= 0:
    then no total is NaN, and the kernel needs no check of its own.
    """
    for q_y0 in cases:
        if not 0.0 <= q_y0 <= 1.0:  # also rejects nan
            raise ValueError(f"q_y0={q_y0!r} outside [0, 1]")
    lo, step, count = grid
    if not (math.isfinite(lo) and math.isfinite(step)):
        raise ValueError(f"grid lo={lo!r} and step={step!r} must be finite")
    if not isinstance(count, int) or count < 0:
        raise ValueError(f"grid count {count!r} is not an int >= 0")
    import numpy as np

    rows = _FIG2_BLOCK_ROWS

    def blocks(q_y0: float) -> Iterator[Fig2Curve]:
        def not_over(total: float) -> bool:
            q_x0 = (total - q_y0) / 2.0
            rates = PauliRates.from_error_rates(q_x0, q_y0, q_x0)
            two = modified_rate_one_bstep(conjugate(rates, Basis.Y))
            return not two - rate_sixstate_separate(rates) > 0.0

        crossing, last_total, last_gap = None, math.nan, math.nan
        for start in range(0, max(count, 1), rows):
            block = _grid_points(grid, start, rows)
            one_way, two_way = np.full((2, block.size), np.nan)
            inside = (q_y0 <= block) & (block <= 1.0)
            evaluated = block[inside]
            one_way[inside], two_way[inside] = _fig2_rates(q_y0, evaluated)
            if crossing is None and evaluated.size:
                # The last evaluated point before the block leads it; a NaN gap never turns.
                edges = np.concatenate(([last_total], evaluated))
                gap = np.concatenate(([last_gap], (two_way - one_way)[inside]))
                turns = np.flatnonzero((gap[1:] > 0.0) & (gap[:-1] <= 0.0))
                if turns.size:
                    low, high = _bisect(not_over, *edges[turns[0]:turns[0] + 2].tolist())
                    crossing = 0.5 * (low + high)
                last_total, last_gap = edges[-1], gap[-1]
            yield Fig2Curve(q_y0, block, one_way, two_way, crossing)

    return map(blocks, cases)


# Grid points per ``fig2_blocks`` block: one ``_fig2_rates`` call, about 0.7 MB of temporaries.
_FIG2_BLOCK_ROWS = 4096
