"""``_floatfmt.write_reprs`` against ``repr``, byte for byte."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asymqkd._floatfmt import WIDTH, _shortest, write_reprs

ONE_E_MINUS_4 = 1e-4


def reprs(values):
    """``write_reprs`` of ``values``, read back as strings.

    The rows are a strided slot of a wider matrix filled with '#', as in
    the CLI's row buffer, so a byte that is not written shows.
    """
    x = np.array(values, dtype=float)
    wide = np.full((len(x), WIDTH + 9), ord("#"), np.uint8)
    write_reprs(x, wide[:, 5:5 + WIDTH])
    assert (wide[:, :5] == ord("#")).all() and (wide[:, 5 + WIDTH:] == ord("#")).all()
    text = wide[:, 5:5 + WIDTH].tobytes().decode("ascii")
    return [text[i:i + WIDTH].replace("\0", "") for i in range(0, len(text), WIDTH)]


def neighbours(x):
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


band = st.floats(ONE_E_MINUS_4, 1.0, exclude_max=True)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.one_of(st.floats(), band, band.map(lambda v: -v)), min_size=1, max_size=40))
def test_any_floats(values):
    assert reprs(values) == list(map(repr, values))


@pytest.mark.parametrize("region", ["band", "everywhere"])
def test_random_bit_patterns(region):
    rng = np.random.default_rng(20040406)
    if region == "band":
        lo, hi = np.array([ONE_E_MINUS_4, 1.0]).view(np.int64)
        bits = rng.integers(lo, hi, 100_000) | (rng.integers(0, 2, 100_000) << 63)
    else:
        bits = rng.integers(-(2**63), 2**63, 100_000)
    x = bits.view(np.float64)
    assert reprs(x) == list(map(repr, x.tolist()))


def test_edge_values():
    # Powers of two are where the lower neighbour is half as far (c = 2^52);
    # 1e-4 and 1.0 bound the band computed without repr.  Odd multiples of
    # 2^-17 to 2^-21 are exact ties at their 17th significant digit, which
    # repr rounds to an even digit.
    edges = [v for e in range(-14, 1) for v in neighbours(2.0**e)]
    edges += neighbours(ONE_E_MINUS_4) + neighbours(1.0)
    edges += [m / 2.0**b for b, m0 in ((17, 2**16), (18, 2**15), (19, 2**12), (20, 2**10), (21, 2**8))
              for m in range(m0 + 1, m0 + 64, 2)]
    edges += [0.5, 0.25, 0.1, 0.001, 0.3, 0.7, 0.9999999999999999, 0.0, -0.0]
    values = edges + [-v for v in edges]
    got = reprs(values)
    assert got == list(map(repr, values))
    assert "0.0001" in got and "9.999999999999999e-05" in got and "-0.9999999999999999" in got
    assert "0.12500381469726562" in got


def test_band_by_binade():
    # Every binade 2^e <= x < 2^(e+1) of the band, the lowest clipped at
    # 1e-4: its first two significands c (x = c · 2^(e-52)), the last, and
    # random odd and even ones.  Together they reach every shift t and
    # every m of x · 10^m = c · 5^m / 2^t.
    rng = np.random.default_rng(20040406)
    values, shifts, places = [], set(), set()
    for e in range(-14, 0):
        lo = max(2**52, math.ceil(ONE_E_MINUS_4 * 2.0 ** (52 - e)))
        c = np.concatenate([[lo, lo + 1, 2**53 - 1], rng.integers(lo, 2**53, 200) | 1,
                            rng.integers(lo + 1, 2**53, 200) & ~1])
        x = np.ldexp(c.astype(float), e - 52)
        assert ((x >= ONE_E_MINUS_4) & (x < 1.0)).all()
        _, m = _shortest(x)
        places.update(m.tolist())
        shifts.update((52 - e - m).tolist())
        values += x.tolist()
    assert places == set(range(16, 21)) and shifts == set(range(36, 47))
    values += [-v for v in values]
    assert reprs(values) == list(map(repr, values))


def test_empty_array_writes_no_byte():
    wide = np.full((2, WIDTH + 9), ord("#"), np.uint8)
    write_reprs(np.empty(0), wide[:0, 5:5 + WIDTH])
    assert (wide == ord("#")).all()
    assert reprs([]) == []
