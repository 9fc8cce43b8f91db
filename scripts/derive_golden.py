#!/usr/bin/env python3
"""Regenerate the frozen numeric literals used by the test suite.

Everything here is computed from scratch in 50-digit mpmath arithmetic,
restating the formulas rather than importing the package, so the printed
values are an independent cross-check of the float implementation:

* binary entropy and four-outcome entropy spot values;
* one-way key rates at the channels the tests probe;
* exact algebraic thresholds (symmetric two-way limit, single-basis and
  separate-accounting zero-rate points);
* crossing points where the one-rejection two-way rate first overtakes
  the one-way rate on the q_x0 = q_z0 family, for each small-q_y0 case;
* the ends r1 and r2 of the infeasible window of re-entrant Y-basis rays;
* the two-way thresholds r1 of ``ybasis`` at ratios 0, 0.3, 1 and 2 and of
  ``chau``, to 50 digits;
* the one-way thresholds of ``single-basis`` and ``sixstate-separate`` at
  ratios 0, 0.3, 1 and 2, to 50 digits.

Run ``python scripts/derive_golden.py`` and paste the printed literals
into the tests when a constant legitimately needs to change.  Values are
printed to 17 significant digits (full float precision), the r1 and one-way
roots to 50.
"""

import mpmath as mp

mp.mp.dps = 50


def h2(t):
    t = mp.mpf(t)
    if t == 0 or t == 1:
        return mp.mpf(0)
    return -t * mp.log(t, 2) - (1 - t) * mp.log(1 - t, 2)


def shannon4(qs):
    total = mp.mpf(0)
    for q in qs:
        q = mp.mpf(q)
        if q > 0:
            total -= q * mp.log(q, 2)
    return total


def channel(q_x, q_y, q_z):
    q_x, q_y, q_z = mp.mpf(q_x), mp.mpf(q_y), mp.mpf(q_z)
    return (1 - q_x - q_y - q_z, q_x, q_y, q_z)


def rate_bb84_symmetrized(qs):
    _, q_x, q_y, q_z = qs
    p_x, p_z = q_x + q_y, q_z + q_y
    return 1 - 2 * h2((p_x + p_z) / 2)


def rate_single_basis(qs):
    _, q_x, q_y, q_z = qs
    return 1 - h2(q_x + q_y) - h2(q_z + q_y)


def averaged(qs):
    q_i, q_x, q_y, q_z = qs
    return (
        q_i,
        (q_x + 2 * q_z) / 3,
        (q_x + 2 * q_y) / 3,
        (q_x + q_y + q_z) / 3,
    )


def rate_sixstate_mixed(qs):
    return 1 - shannon4(averaged(qs))


def rate_sixstate_separate(qs):
    return 1 - shannon4(qs)


def conj_y(qs):
    q_i, q_x, q_y, q_z = qs
    return (q_i, q_z, q_x, q_y)


def b_step(qs):
    q_i, q_x, q_y, q_z = qs
    d = (q_i + q_z) ** 2 + (q_x + q_y) ** 2
    out = (
        (q_i**2 + q_z**2) / d,
        (q_x**2 + q_y**2) / d,
        2 * q_x * q_y / d,
        2 * q_i * q_z / d,
    )
    return out, d / 2


def rate_two_way_one_reject(qs):
    out, survival = b_step(conj_y(qs))
    return survival * (1 - shannon4(out))


def show(name, value):
    print(f"{name} = {mp.nstr(value, 17)}")


print("# entropy spot values")
show("H(0.05)", h2("0.05"))
show("H(0.06)", h2("0.06"))
show("H(0.10)", h2("0.10"))
show("H(0.12)", h2("0.12"))
show("shannon4(0.7,0.1,0.1,0.1)", shannon4(("0.7", "0.1", "0.1", "0.1")))

print()
print("# one-way rates at test channels")
show("rate_bb84_symmetrized(qx=0.10,qy=0,qz=0.02)",
     rate_bb84_symmetrized(channel("0.10", "0", "0.02")))
show("rate_single_basis(qx=0.10,qy=0,qz=0.02)",
     rate_single_basis(channel("0.10", "0", "0.02")))
show("rate_sixstate_separate(qx=0.10,qy=0,qz=0.05)",
     rate_sixstate_separate(channel("0.10", "0", "0.05")))
show("rate_sixstate_mixed(qx=0.10,qy=0,qz=0.05)",
     rate_sixstate_mixed(channel("0.10", "0", "0.05")))
show("rate_two_way_one_reject(noiseless)", rate_two_way_one_reject(channel(0, 0, 0)))

print()
print("# exact algebraic thresholds")
# Symmetric channel, unbounded two-way distillation: the limit criterion
# s < u and s*u < v^2 in the coordinates u = q_i + q_z, v = q_i - q_z,
# s = q_x + q_y reduces on q_x = q_y = q_z = Q/3 to 20Q^2 - 30Q + 9 > 0,
# whose smaller root is 3(5 - sqrt(5))/20.
Q = mp.findroot(
    lambda q: (2 * q / 3) * (1 - 2 * q / 3) - (1 - 4 * q / 3) ** 2,
    mp.mpf("0.41"),
)
show("two_way_limit_threshold_symmetric", Q)
show("  corresponding bit error (5-sqrt(5))/10", (5 - mp.sqrt(5)) / 10)
show("  closed form 3*(5-sqrt(5))/20", 3 * (5 - mp.sqrt(5)) / 20)

t_star = mp.findroot(lambda t: h2(t) - mp.mpf("0.5"), mp.mpf("0.11"))
show("single_basis_zero_symmetric (=2t*, H(t*)=1/2)", 2 * t_star)

Q_sep = mp.findroot(
    lambda q: shannon4(channel(q / 3, q / 3, q / 3)) - 1,
    mp.mpf("0.19"),
)
show("sixstate_separate_zero_symmetric", Q_sep)

print()
print("# fig-2 family: one-way zero and two-way crossing per q_y0 case")
for q_y0_s in ("0", "0.005", "0.01", "0.02"):
    q_y0 = mp.mpf(q_y0_s)

    def one_way(total):
        q_x0 = (total - q_y0) / 2
        return rate_sixstate_separate(channel(q_x0, q_y0, q_x0))

    def gap(total):
        q_x0 = (total - q_y0) / 2
        qs = channel(q_x0, q_y0, q_x0)
        return rate_two_way_one_reject(qs) - rate_sixstate_separate(qs)

    zero = mp.findroot(one_way, mp.mpf("0.22"))
    # The gap is negative at small noise and first turns positive well
    # below the one-way zero; bracket by scanning then bisect.
    lo, hi = None, None
    t = q_y0 + mp.mpf("0.01")
    prev = gap(t)
    while t < mp.mpf("0.45"):
        t += mp.mpf("0.005")
        cur = gap(t)
        if prev <= 0 < cur:
            lo, hi = t - mp.mpf("0.005"), t
            break
        prev = cur
    assert lo is not None, f"no crossing found for q_y0={q_y0_s}"
    for _ in range(200):
        mid = (lo + hi) / 2
        if gap(mid) > 0:
            hi = mid
        else:
            lo = mid
    show(f"one_way_zero[q_y0={q_y0_s}]", zero)
    show(f"crossing[q_y0={q_y0_s}]", (lo + hi) / 2)

print()
print("# ybasis re-entrant windows (r1, r2) on q_x = q_z rays of ratio R = q_y/q_x")
# In the Y frame the bit-error share of the direction is a = 2/(2 + R)
# and b = 2 - a; the ray is infeasible exactly where
# (a^2 + b^2)S^2 - (2b + a)S + 1 <= 0, between the roots below.
for ratio_s in ("2.5", "3998"):
    a = 2 / (2 + mp.mpf(ratio_s))
    b = 2 - a
    root = mp.sqrt(a * (8 - 7 * a))
    show(f"ybasis_window_r1[ratio={ratio_s}]", ((2 * b + a) - root) / (2 * (a**2 + b**2)))
    show(f"ybasis_window_r2[ratio={ratio_s}]", ((2 * b + a) + root) / (2 * (a**2 + b**2)))

print()
print("# two-way thresholds r1 to 50 digits, the smaller root of the same quadratic")
# ybasis has a = 2/(2 + R) on the ray of ratio R; chau averages every ray
# to a = 2/3, so its r1 is 3(5 - sqrt(5))/20 at every ratio.
cases = [(f"ybasis_r1[ratio={r}]", 2 / (2 + mp.mpf(r))) for r in ("0", "0.3", "1", "2")]
cases.append(("chau_r1", mp.mpf(2) / 3))
for name, a in cases:
    b = 2 - a
    print(f"{name} = {mp.nstr(((2 * b + a) - mp.sqrt(a * (8 - 7 * a))) / (2 * (a**2 + b**2)), 50)}")

print()
print("# one-way thresholds to 50 digits on q_x = q_z rays of ratio R = q_y/q_x")
# The key rate g(S) at q = S·(1, R, 1)/(2 + R) is positive at S = 0 and not
# at S = 1/2, and convex in S, so [0, 1/2] brackets its one root there.
for name, rate in (("single_basis", rate_single_basis), ("sixstate_separate", rate_sixstate_separate)):
    for ratio_s in ("0", "0.3", "1", "2"):
        ratio = mp.mpf(ratio_s)

        def g(scale):
            return rate(channel(scale / (2 + ratio), scale * ratio / (2 + ratio), scale / (2 + ratio)))

        lo, hi = mp.mpf(0), mp.mpf("0.5")
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
        print(f"{name}_root[ratio={ratio_s}] = {mp.nstr((lo + hi) / 2, 50)}")
