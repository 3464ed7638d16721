"""Building the mixed orthonormal system block by block.

A plan g = (g_1 < g_2 < ...) gives blocks of size N_k = 2^g(k): one
leftover Walsh function phi_k plus N_k - 1 fresh Rademachers, rotated
together by the 2^g(k) x 2^g(k) orthogonal matrix.  The result stays
orthonormal, uniformly bounded, and each element keeps only g(k)+1
Walsh coefficients.
"""

import numpy as np

from walshlab import (
    BlockPlan,
    BudgetError,
    inner_product,
    load_plan,
    row_abs_sum,
    synthesize,
)

print("== the desk plan ==")
desk = load_plan("desk")
print("g:", desk.g, " block sizes N:", desk.N, " Rademacher offsets F:", desk.F)
print("flags: democracy_condition =", desk.democracy_condition,
      ", lambda_separation =", desk.lambda_separation)

print("\n== index maps ==")
print("global 20 ->", desk.to_block(20), "and back ->",
      desk.to_global(*desk.to_block(20)))

print("\n== elements are sparse ==")
psi = desk.psi_spectrum(3, 100)
print(f"psi(3, 100) has {len(psi)} terms although the block holds 256 elements:")
for n, c in sorted(psi.items()):
    print(f"  frequency {n:#x}: {c:+.6f}")

print("\n== orthonormality across the first two blocks ==")
els = [desk.psi_spectrum(*desk.to_block(m)) for m in range(1, 21)]
gram = np.array([[inner_product(a, b) for b in els] for a in els])
print("max |Gram - I| over 20 elements:", np.abs(gram - np.eye(20)).max())

print("\n== uniform boundedness ==")
for k in (1, 2):
    sups = [
        np.abs(synthesize(desk.psi_spectrum(k, i), desk.F[1])).max()
        for i in range(1, desk.N[k - 1] + 1)
    ]
    print(f"block {k}: max sup-norm {max(sups):.6f}"
          f" (row-sum bound {row_abs_sum(desk.g[k - 1]):.6f})")

print("\n== sums collapse block-wise ==")
block2 = [desk.to_global(2, i) for i in range(1, 17)]
full = desk.sum_spectrum(block2)
print("sum over all of block 2:", dict(full.items()),
      "\n  (band columns cancel, leaving sqrt(16) phi_2)")

print("\n== the steep preset exists but refuses to materialize block 2 ==")
paper = load_plan("paper")
print("g:", paper.g, " N_2 = 2^100 =", paper.N[1])
print("psi(1, 1) is fine:", len(paper.psi_spectrum(1, 1)), "terms")
try:
    paper.psi_spectrum(2, 1)
except BudgetError as exc:
    print("psi(2, 1) ->", exc)

print("\n== weak schedules validate but carry their flags ==")
weak = BlockPlan([2, 3, 4])
print("g =", weak.g, "democracy_condition:", weak.democracy_condition)
