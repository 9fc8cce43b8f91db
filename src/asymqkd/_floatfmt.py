"""``repr`` of float64 arrays, byte for byte, with the digits taken in numpy.

``write_reprs(x, out)`` writes the ``repr`` of each element of ``x`` into a
row of ``out``, padded with NUL bytes.  On the band 1e-4 <= |x| < 1, where
key rates mostly fall, ``repr`` prints a sign, ``0.`` and the shortest
round-trip digits f of x = f · 10^e, zero-filled to -e places, without
trailing zeros.  Those digits are computed for the whole array at once by
Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020),
which needs only 64-bit integer arithmetic: here on ``uint64`` arrays, with
64 × 64 → 128-bit products taken in 32-bit limbs.  Every element outside
the band (NaN, ±inf, zeros, |x| >= 1, |x| < 1e-4) is written with ``repr``
itself.
"""

from __future__ import annotations

import functools

import numpy as np

# Longest repr of a float64: '-2.2250738585072014e-308'.
WIDTH = 24

# On the band x = c · 2^q with 2^52 <= c < 2^53 and -66 <= q <= -53, so
# Schubfach's k runs from -20 to -16; -k indexes the tables from _K_LO.
_K_LO, _K_HI = 16, 20
# Where each kind of quad starts in the table of ``_tables``.
_STRIPPED, _LEAD, _SIGN = 10**4, 2 * 10**4, 2 * 10**4 + 50
_M32 = np.uint64(2**32 - 1)
_M63 = np.uint64(2**63 - 1)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Schubfach's g of 10^-k for -k in the band, and the quads of digits.

    With 10^-k = β · 2^r and 2^125 <= β < 2^126, g = floor(β) + 1 is split
    as g = g1 · 2^63 + g0, and g1 and g0 each into two 32-bit limbs, one
    column per k; ``flog2`` is floor(log2(10^-k)).  A quad is four ASCII
    bytes viewed as one ``uint32``:

    * ``n``: the four digits of n < 10^4;
    * ``_STRIPPED + n``: the same with trailing zeros as NUL (all NUL for 0);
    * ``_LEAD + 10 p + d``: '000' and digit d with the first p bytes NUL;
    * ``_SIGN``, ``_SIGN + 1``: '0.' and '-0.', then NUL.
    """
    limbs, flog2 = [], []
    for minus_k in range(_K_LO, _K_HI + 1):
        power = 10**minus_k
        flog2.append(power.bit_length() - 1)
        g = (power << (125 - flog2[-1])) + 1
        limbs.append([g >> 95, g >> 63 & 0xFFFFFFFF, g >> 32 & 0x7FFFFFFF, g & 0xFFFFFFFF])
    # Built in uint8 and uint16: wider temporaries would raise the peak RSS.
    n = np.arange(10**4, dtype=np.uint16)[:, None]
    digits = (n // np.array([1000, 100, 10, 1], np.uint16) % 10).astype(np.uint8) + ord("0")
    trailing = np.logical_and.accumulate(digits[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    lead = np.full((5, 10, 4), ord("0"), np.uint8)
    lead[:, :, 3] += np.arange(10, dtype=np.uint8)
    lead *= np.arange(4) >= np.arange(5)[:, None, None]
    signs = np.array([[0, ord("0"), ord("."), 0], [ord("-"), ord("0"), ord("."), 0]], np.uint8)
    quads = np.concatenate([digits, digits * ~trailing, lead.reshape(50, 4), signs])
    return (np.array(limbs, np.uint64).T.copy(), np.array(flog2, np.int64),
            quads.view(np.uint32).ravel())


def _mul(a1, a0, b1, b0):
    """(high, low) 64-bit words of a · b, from the 32-bit limbs of a and b."""
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
    high = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)
    return high, (mid << 32) | (p00 & _M32)


def _rop(g, cp):
    """floor(g · cp / 2^127), rounded to odd: Giulietti's ``rop``."""
    g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> 32, cp & _M32
    x1, _ = _mul(g0_hi, g0_lo, cp_hi, cp_lo)
    y1, y0 = _mul(g1_hi, g1_lo, cp_hi, cp_lo)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(x):
    """Schubfach's (f, k), x ≈ f · 10^k, for each x with 1e-4 <= x < 1.

    f < 10^17 may end in zeros, and -20 <= k <= -16.
    """
    limbs, flog2, _ = _tables()
    bits = x.view(np.uint64)
    frac = bits & np.uint64(2**52 - 1)
    c = frac | np.uint64(2**52)
    q = (bits >> 52).astype(np.int64) - 1075
    # At c = 2^52 the lower neighbour is half as far: the interval is
    # irregular and k = floor(log10(3/4 · 2^q)), not floor(log10(2^q)).
    irregular = frac == 0
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    row = -k - _K_LO
    g = limbs[:, row]
    h = (q + flog2[row] + 2).astype(np.uint64)
    cb = c << np.uint64(2)
    vb = _rop(g, cb << h)
    odd = c & np.uint64(1)  # an odd c excludes the interval's ends
    lower = _rop(g, (cb - np.uint64(2) + irregular) << h) + odd
    upper = _rop(g, (cb + np.uint64(2)) << h) - odd
    s = vb >> 2
    # At most one multiple of 10^(k+1) lies in the interval; if one does,
    # it has fewer digits than any multiple of 10^k.
    sp10 = s // np.uint64(10) * np.uint64(10)
    up_in = lower <= sp10 << 2
    wp_in = (sp10 + np.uint64(10)) << 2 <= upper
    u_in = lower <= s << 2
    w_in = (s + np.uint64(1)) << 2 <= upper
    mid = (s << 2) + np.uint64(2)
    closer_up = (vb > mid) | ((vb == mid) & (s & np.uint64(1)).astype(bool))
    f = np.where(up_in != wp_in, sp10 + np.uint64(10) * wp_in,
                 s + np.where(u_in != w_in, w_in, closer_up))
    return f, k


def write_reprs(x: np.ndarray, out: np.ndarray) -> None:
    """Write ``repr`` of each float of ``x`` into the same row of ``out``.

    ``x`` is a float64 array and ``out`` a ``(len(x), WIDTH)`` ``uint8``
    array or view.  Each row gets the ASCII bytes of the repr, in order,
    with NUL bytes among them: dropping the NULs leaves the repr.
    """
    mag = np.abs(x)
    fast = (mag >= 1e-4) & (mag < 1.0)  # NaN is outside
    f, k = _shortest(np.where(fast, mag, 0.5))
    # The -k places after '0.' are the last -k of the 20 digits of f (the
    # first three are zeros, as f < 10^17), in quads: the lead quad has NUL
    # in its places before them, and each quad with only zeros after it is
    # stripped of its trailing zeros.
    quads = np.empty((len(x), 6), np.intp)
    quads[:, 0] = _SIGN + np.signbit(x)
    high, low = np.divmod(f.view(np.int64), 10**8)
    first, rest = np.divmod(high, 10**8)
    quads[:, 1] = _LEAD + 10 * (20 + k) + first
    quads[:, 2], quads[:, 3] = np.divmod(rest, 10**4)
    quads[:, 4], quads[:, 5] = np.divmod(low, 10**4)
    zeros_after = quads[:, 3:] == 0
    zeros_after[:, 1] &= zeros_after[:, 2]
    zeros_after[:, 0] &= zeros_after[:, 1]
    quads[:, 2:5] += _STRIPPED * zeros_after
    quads[:, 5] += _STRIPPED
    out[...] = _tables()[2][quads].view(np.uint8)
    slow = np.flatnonzero(~fast)
    out[slow] = np.array([repr(v) for v in x[slow].tolist()], f"S{WIDTH}").view(
        np.uint8).reshape(-1, WIDTH)
