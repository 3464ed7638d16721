"""Walsh functions on [0,1) and sparse spectrum arithmetic.

Frequencies are plain Python ints read as Paley indices: bit j-1 set
means the Rademacher function r_j is a factor.  XOR of indices is
pointwise multiplication of the functions, and that single fact drives
everything else in this demo.
"""

import numpy as np

from walshlab import (
    DyadicPoint,
    WalshSpectrum,
    analyze_dense,
    inner_product,
    phi_index,
    rademacher_index,
    spectrum_product,
    synthesize,
    walsh_eval,
)

print("== Rademacher functions as single-bit frequencies ==")
for j in (1, 2, 3):
    n = rademacher_index(j)
    cells = [walsh_eval(n, DyadicPoint(3, c)) for c in range(8)]
    print(f"r_{j} = W_{n}: values on the depth-3 grid {cells}")

print("\nwidths are unbounded; r_273 is the frequency 2**272:")
print("  bit length of rademacher_index(273):", rademacher_index(273).bit_length())

print("\n== the leftover indices phi_k (popcount != 1, in natural order) ==")
print("  first six:", [phi_index(k) for k in range(1, 7)])

print("\n== products are XOR convolutions ==")
w3 = WalshSpectrum({3: 1.0})
w5 = WalshSpectrum({5: 1.0})
print("  W_3 * W_5 =", dict((w3 * w5).items()), "(3 XOR 5 = 6)")

f = WalshSpectrum({0: 1.0, 1: 1.0})  # 1 + r_1, the indicator of [0,1/2) doubled
print("  (W_0 + W_1)^2 =", dict((f * f).items()), " = 2 + 2 r_1 pointwise")

print("\n== synthesis on the dyadic grid, analysis back ==")
half = WalshSpectrum({0: 0.5, 1: 0.5})
print("  0.5 W_0 + 0.5 W_1 at depth 1:", synthesize(half, 1), "(indicator of [0,1/2))")

rng = np.random.default_rng(0)
values = rng.normal(size=1 << 8)
back = synthesize(analyze_dense(values), 8)
print("  depth-8 roundtrip max error:", np.abs(back - values).max())

print("\n== Parseval ==")
g = WalshSpectrum({0: 2.0, 5: 3.0})
print("  <2 W_0 + 3 W_5, itself> =", inner_product(g, g), "(= 4 + 9)")

big = spectrum_product(f, WalshSpectrum({rademacher_index(100): 1.0}))
print("\nproducts reach past machine width too:", dict(big.items()))
