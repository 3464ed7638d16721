"""The explicit orthogonal matrices that mix one spare function into a
Rademacher block.

The 2^k x 2^k matrix has a constant first column, one +/- band per
scale s < k, and three properties the basis construction leans on:
orthogonality, row sparsity (k+1 nonzeros), and row absolute sums that
stay below 1 + sqrt(2) for every k.
"""

import numpy as np

from walshlab import check_orthogonality, entry, row_abs_sum
from walshlab.olevskii import dense_matrix, rmatvec, row_entries

np.set_printoptions(precision=4, suppress=True)

print("== the 2x2 and 4x4 matrices ==")
print(dense_matrix(1), "\n")
print(dense_matrix(2))

print("\n== entries come from the (s, nu) band decomposition ==")
e = entry(2, 3, 4)
print("entry(k=2, i=3, j=4):", e, "-> value", e.value(2))

print("\n== row sparsity: one nonzero per band plus the constant column ==")
print("row_entries(5, 17):")
for j, ent in row_entries(5, 17):
    print(f"  column {j:2d}: sign {ent.sign:+d}, magnitude 2^(({ent.scale}-5)/2)")

print("\n== orthogonality, exactly ==")
for k in (1, 4, 8):
    print(f"  k={k}: exact-mode deviation {check_orthogonality(k, exact=True)},"
          f" float-mode {check_orthogonality(k):.2e}")

print("\n== row absolute sums increase to 1 + sqrt(2) ==")
for k in (1, 2, 5, 10, 20, 30):
    print(f"  k={k:2d}: {row_abs_sum(k):.6f}")
print("  limit:", 1 + np.sqrt(2))

print("\n== column sums over selected rows (A^T w for a 0/1 row mask w) ==")
print("rows {1} of A^1:", rmatvec(1, np.array([1.0, 0.0])))
print("rows {1,2} of A^1:", rmatvec(1, np.ones(2)), "(band columns cancel)")
sums = rmatvec(3, np.ones(8))
print("all rows of A^3: l2 norm", np.sqrt((sums ** 2).sum()),
      "= sqrt(8), as an orthogonal matrix must")
