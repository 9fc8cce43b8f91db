"""``repr`` of float64 arrays, byte for byte, with the digits taken in numpy.

``write_reprs(x, out)`` writes the ``repr`` of each element of ``x`` into a
row of ``out``, padded with NUL bytes.  On the band 1e-4 <= |x| < 1, where
key rates mostly fall, ``repr`` prints a sign, ``0.`` and the shortest
round-trip digits f of x = f · 10^-m, zero-filled to m places, without
trailing zeros.  Those digits are computed for the whole array at once, in
exact ``uint64`` arithmetic.  On the band x = c · 2^q with c < 2^53 and
16 <= m <= 20, so x · 10^m = c · 5^m / 2^t with 36 <= t <= 46: each end of
the rounding interval, times 4 · 10^m, is an integer (4c ± 2) · 5^m of at
most 102 bits over 2^t.  Its floor, and whether it is exact, come from one
product split into 32-bit limbs.  The digits chosen between those ends are
Schubfach's (R. Giulietti, "The Schubfach way to render doubles", 2020).
Every element outside the band (NaN, ±inf, zeros, |x| >= 1, |x| < 1e-4) is
written with ``repr`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

# Longest repr of a float64: '-2.2250738585072014e-308'.
WIDTH = 24

# 5^m for m = 16 .. 20, the m of the band.
_POW5 = np.array([5**m for m in range(16, 21)], np.uint64)
# Where each kind of quad starts in the table of ``_quads``.
_STRIPPED, _LEAD, _SIGN = 10**4, 2 * 10**4, 2 * 10**4 + 50
_M32 = np.uint64(2**32 - 1)


@functools.cache
def _quads() -> np.ndarray:
    """The quads of digits: four ASCII bytes viewed as one ``uint32``.

    * ``n``: the four digits of n < 10^4;
    * ``_STRIPPED + n``: the same with trailing zeros as NUL (all NUL for 0);
    * ``_LEAD + 10 p + d``: '000' and digit d with the first p bytes NUL;
    * ``_SIGN``, ``_SIGN + 1``: '0.' and '-0.', then NUL.
    """
    # Built in uint8 and uint16: wider temporaries would raise the peak RSS.
    n = np.arange(10**4, dtype=np.uint16)[:, None]
    digits = (n // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8) + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    lead = np.full((5, 10, 4), ord("0"), np.uint8)
    lead[:, :, 3] += np.arange(10, dtype=np.uint8)
    lead *= np.arange(4) >= np.arange(5)[:, None, None]
    signs = np.array([[0, ord("0"), ord("."), 0], [ord("-"), ord("0"), ord("."), 0]], np.uint8)
    quads = np.concatenate([digits, digits * ~trailing, lead.reshape(50, 4), signs])
    return quads.view(np.uint32).ravel()


def _shortest(x):
    """Shortest digits (f, m), x ≈ f · 10^-m, for each x with 1e-4 <= x < 1.

    f < 10^17 may end in zeros, and 16 <= m <= 20.  Every operand is
    ``uint64``: numpy takes ``uint64`` mixed with ``int64`` as ``float64``.
    """
    bits = x.view(np.uint64)
    frac = bits & np.uint64(2**52 - 1)
    e = bits >> 52  # x = c · 2^q with c = 2^52 + frac and q = e - 1075
    # m = -floor(log10(2^q)), a ceiling in fixed point: log10(2) is about
    # 661_971_961_083 / 2^41.  At c = 2^52 the lower neighbour is half as far:
    # the interval is irregular and m = -floor(log10(3/4 · 2^q)), more by
    # log10(4/3), about 274_743_187_321 / 2^41.  ``row`` is m - 16.
    irregular = (frac - np.uint64(1)) >> 63  # 1 at frac = 0, else 0
    log10_2, log10_4_3 = 661_971_961_083, 274_743_187_321
    row = (np.uint64(1075 * log10_2 + 2**41 - 1 - 16 * 2**41) - e * np.uint64(log10_2)
           + irregular * np.uint64(log10_4_3)) >> 41
    p = _POW5[row.view(np.int64)]
    t = np.uint64(1059) - e - row  # -q - m
    # The lower end, x and the upper end of the rounding interval, times
    # 4 · 10^m, are (a + j) · p / 2^t with a = 4c - 2 and j = 0 (1 at an
    # irregular c), 2 and 4.  a · p / 2^t = whole + part / 2^t.
    a = (frac << 2) + np.uint64(2**54 - 2)
    a1, a0, p1, p0 = a >> 32, a & _M32, p >> 32, p & _M32
    low = a0 * p0
    cross = a1 * p0 + a0 * p1 + (low >> 32)
    whole = ((a1 * p1) << (np.uint64(64) - t)) + (cross >> (t - np.uint64(32)))
    mask = (np.uint64(1) << t) - np.uint64(1)
    part = a * p & mask  # the product wraps modulo 2^64

    def round_to_odd(d):
        """floor((a · p + d) / 2^t), with its last bit set if the division is inexact."""
        y = part + d
        return (whole + (y >> t)) | (((y & mask) + mask) >> t)

    # The ends are never candidates, which Schubfach excludes at an odd c:
    # 2^t does not divide their numerators 2 (2c ± 1) · 5^m or (4c - 1) · 5^m.
    vb = round_to_odd(p << 1)
    lower = round_to_odd(irregular * p)
    upper = round_to_odd(p << 2)
    s = vb >> 2
    # At most one multiple of 10^(1-m) lies in the interval; if one does,
    # it has fewer digits than any multiple of 10^-m.
    sp10 = s // np.uint64(10) * np.uint64(10)
    up_in = lower <= sp10 << 2
    wp_in = (sp10 + np.uint64(10)) << 2 <= upper
    u_in = lower <= s << 2
    w_in = (s + np.uint64(1)) << 2 <= upper
    mid = (s << 2) + np.uint64(2)
    closer_up = (vb > mid) | ((vb == mid) & (s & np.uint64(1)).astype(bool))
    f = np.where(up_in != wp_in, sp10 + np.uint64(10) * wp_in,
                 s + np.where(u_in != w_in, w_in, closer_up))
    return f, row.view(np.int64) + 16


def write_reprs(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr`` of each float of ``x`` into the same row of ``out``.

    ``x`` is a float64 array and ``out`` a ``(len(x), WIDTH)`` ``uint8``
    array or view whose rows are contiguous.  Each row gets the ASCII bytes
    of the repr, in order, with NUL bytes among them: dropping the NULs
    leaves the repr.
    """
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1.0)  # NaN is outside
    f, m = _shortest(np.where(fast, mag, 0.5))
    # The m places after '0.' are the last m of the 20 digits of f (the
    # first three are zeros, as f < 10^17), in quads: the lead quad has NUL
    # in its places before them, and each quad with only zeros after it is
    # stripped of its trailing zeros.
    quads = np.empty((6, len(x)), np.intp)
    f = f.view(np.int64)
    high = f // 10**8
    low = f - high * 10**8
    first = high // 10**8
    rest = high - first * 10**8
    quads[0] = _SIGN + np.signbit(x)
    quads[1] = _LEAD + 10 * (20 - m) + first
    for row, value in (2, rest), (4, low):
        np.floor_divide(value, 10**4, out=quads[row])
        np.subtract(value, quads[row] * 10**4, out=quads[row + 1])
    zeros_after = quads[5] == 0
    quads[5] += _STRIPPED
    for row in 4, 3, 2:
        quads[row] += _STRIPPED * zeros_after
        zeros_after &= quads[row] == _STRIPPED
    out.view(np.uint32).T[...] = _quads()[quads]
    slow = np.flatnonzero(~fast)
    out[slow] = np.array([repr(v) for v in x[slow].tolist()], f"S{WIDTH}").view(
        np.uint8).reshape(-1, WIDTH)
