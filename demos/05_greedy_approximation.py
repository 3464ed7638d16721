"""Expansions, greedy reordering, and the two approximation algorithms.

The linear algorithm takes partial sums in the basis order; the greedy
algorithm takes the largest coefficients first (ties broken by index).
On an orthonormal system the greedy choice is L2-optimal among
equal-size selections, and its L2 residuals are exact Parseval tails.
"""

import numpy as np

from walshlab import (
    BlockPlan,
    analyze,
    greedy_approximant,
    greedy_order,
    lambda_classify,
    lp_even_spectral,
    partial_sum,
    synthesize_coefficients,
)

plan = BlockPlan([2, 4])
print("plan:", plan.label(), " horizon:", plan.horizon_size)

print("\n== analysis recovers expansion coefficients ==")
coeffs = {1: 0.9, 2: 0.5, 7: -0.5, 12: 0.25}
f = synthesize_coefficients(coeffs, plan)
print("spectrum has", len(f), "Walsh terms; analysis gives back:")
for m, c in analyze(f, plan).items():
    print(f"  position {m:2d}: {c:+.6f}")

print("\n== greedy ordering: magnitudes first, ties by index ==")
tied = {1: 0.5, 2: -0.5, 3: 0.9}
print("coefficients (0.5, -0.5, 0.9) -> order", greedy_order(tied))

print("\n== greedy approximants and their exact residual curve ==")
g2, trace = greedy_approximant(f, plan, 4)
for step in trace:
    print(f"  m={step.m}: picked {step.selected:2d}"
          f" (coefficient {step.coefficient:+.3f}),"
          f" L2 residual {step.residual_l2:.6f}")

print("\n== linear partial sums project onto leading elements ==")
for n in (0, 2, 4, 12, 20):
    sn = partial_sum(f, plan, n)
    print(f"  S_{n:2d}: {len(sn)} terms,"
          f" L2 norm {lp_even_spectral(sn, 2).value:.6f}")

print("\n== magnitude bands per block ==")
data = {1: 0.5, 5: 0.5, 6: 0.03, 7: 0.9}
part = lambda_classify(data, plan)
print("middle bands:", part.middle)
print("small bands: ", part.small)
print("large bands: ", part.large)
print("plan separated:", part.plan_separated, " data separated:", part.data_separated)

print("\n== greedy L2 optimality, checked brute force ==")
rng = np.random.default_rng(3)
support = sorted(int(x) + 1 for x in rng.choice(20, size=6, replace=False))
cl = {m: float(rng.normal()) for m in support}
ff = synthesize_coefficients(cl, plan)
_, tr = greedy_approximant(ff, plan, 3)
from itertools import combinations
total = sum(c * c for c in cl.values())
best = min(total - sum(cl[m] ** 2 for m in s) for s in combinations(support, 3))
print(f"greedy residual at m=3: {tr[2].residual_l2:.6f},"
      f" best possible: {max(best, 0.0) ** 0.5:.6f}")
