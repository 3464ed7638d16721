"""Three ways to an L_p norm, and when each applies.

dense: exact for any p but needs the full dyadic grid (depth <= 24).
even spectral: exact for even p at any depth, via a head/tail moment
split: an independent Rademacher tail, whose moments come from its
cumulants, plus a head whose moments come from its 2^r cells, r the
rank of its frequencies over GF(2), however wide its bits.
monte carlo: any p, any depth, seeded, with an honest 95% interval;
it draws only the bits the spectrum's frequencies use.
"""

import functools
import operator

import numpy as np

from walshlab import (
    WalshSpectrum,
    load_plan,
    lp_dense,
    lp_even_spectral,
    lp_monte_carlo,
    rademacher_fourth_moment,
    rademacher_index,
)

print("== a hand-checkable case: W_0 + W_1 is 2 on [0,1/2), 0 after ==")
f = WalshSpectrum({0: 1.0, 1: 1.0})
print("dense   p=4:", lp_dense(f, 4).value)
print("spectral p=4:", lp_even_spectral(f, 4).value)
print("exact       :", 8 ** 0.25)

print("\n== engines agree on random spectra ==")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(50):
    freqs = rng.choice(1 << 10, size=12, replace=False)
    g = WalshSpectrum({int(n): float(rng.normal()) for n in freqs})
    for p in (2, 4):
        worst = max(worst, abs(lp_dense(g, p).value - lp_even_spectral(g, p).value))
print("worst dense/spectral gap over 50 spectra:", worst)

print("\n== the spectral engine does not care about depth ==")
deep = WalshSpectrum(
    {rademacher_index(j): float(rng.normal()) for j in rng.choice(500, 40, replace=False)}
)
print("depth:", deep.depth(), " p=4 norm:", lp_even_spectral(deep, 4).value)
print("p=6 norm:", lp_even_spectral(deep, 6).value,
      " p=8 norm:", lp_even_spectral(deep, 8).value)
print("fourth-moment identity:",
      rademacher_fourth_moment(np.array([c for _, c in deep.items()])) ** 0.25)

print("\n== Monte Carlo with a confidence interval ==")
est = lp_monte_carlo(f, 3.0, 50_000, seed=42)
print(f"p=3 estimate {est.value:.5f}, CI [{est.ci_low:.5f}, {est.ci_high:.5f}]")
print("exact value:", 4 ** (1 / 3))
again = lp_monte_carlo(f, 3.0, 50_000, seed=42)
print("same seed, same bits:", est.value == again.value)
desk_sum = load_plan("desk").sum_spectrum([2, 7, 40, 150, 276])
used = functools.reduce(operator.or_, desk_sum, 0)
est = lp_monte_carlo(desk_sum, 3.0, 20_000, seed=42)
print(f"desk sum: depth {desk_sum.depth()}, packed width {used.bit_count()},",
      f"p=3 estimate {est.value:.4f}, CI [{est.ci_low:.4f}, {est.ci_high:.4f}]")

print("\n== norms grow with p on a probability space ==")
h = WalshSpectrum({int(n): float(rng.normal()) for n in rng.choice(256, 8, replace=False)})
print("  p:      1.5      2        3        4")
print("  value:", "  ".join(f"{lp_dense(h, p).value:.5f}" for p in (1.5, 2, 3, 4)))
