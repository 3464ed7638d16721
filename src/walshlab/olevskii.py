"""The 2^k x 2^k Olevskii orthogonal matrices, exactly.

Column 1 is the constant column 2**(-k/2).  Every other column index is
written j = 2^s + nu with 0 <= s <= k-1 and 1 <= nu <= 2^s; that column
carries +2**((s-k)/2) on rows (nu-1)*2^(k-s) < i <= (2nu-1)*2^(k-s-1),
the opposite sign on the next run of equal length, and 0 elsewhere.
(The s = 0 band is required to cover column 2; without it the matrix
would be underdefined and not orthogonal.)

Consequences used downstream:

* each row holds exactly one nonzero per s-band plus the constant
  column, so rows have k+1 nonzeros and the absolute row sum is the
  i-independent value 2**(-k/2) + sum_s 2**((s-k)/2) < 1 + sqrt(2);
* products of two entries from one column are exact dyadic rationals
  (+/- 2^(s-k)), so Gram matrices can be accumulated in integers.

Matrices are never materialized for large k; entries come from the
(s, nu) decomposition on demand, and the matrix/vector products walk
the band structure in O(k 2^k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

ROW_ABS_SUM_LIMIT = 1.0 + math.sqrt(2.0)

# check_orthogonality refuses k above this by default (2^k x 2^k work)
DEFAULT_ORTHOGONALITY_CAP = 10


@dataclass(frozen=True)
class OlevskiiEntry:
    """One matrix entry as sign * 2**((scale - k) / 2).

    sign 0 marks a structural zero; the constant column j = 1 has
    scale 0, matching the s = 0 band's magnitude.
    """

    sign: int
    scale: int

    def value(self, k: int) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * 2.0 ** ((self.scale - k) / 2.0)


def _band_of(j: int) -> tuple[int, int]:
    # j >= 2 decomposed as 2^s + nu with 1 <= nu <= 2^s
    s = (j - 1).bit_length() - 1
    return s, j - (1 << s)


def entry(k: int, i: int, j: int) -> OlevskiiEntry:
    """Entry (i, j) of the 2^k x 2^k matrix, 1-based indices."""
    size = 1 << k
    if not (1 <= i <= size and 1 <= j <= size):
        raise IndexError(f"(i={i}, j={j}) out of range for k={k}")
    if j == 1:
        return OlevskiiEntry(1, 0)
    s, nu = _band_of(j)
    lo = (nu - 1) << (k - s)
    mid = lo + (1 << (k - s - 1))
    hi = nu << (k - s)
    if lo < i <= mid:
        return OlevskiiEntry(1, s)
    if mid < i <= hi:
        return OlevskiiEntry(-1, s)
    return OlevskiiEntry(0, s)


def row_entries(k: int, i: int) -> list[tuple[int, OlevskiiEntry]]:
    """The k+1 nonzero entries of row i as (column, entry) pairs."""
    size = 1 << k
    if not 1 <= i <= size:
        raise IndexError(f"row {i} out of range for k={k}")
    out = [(1, OlevskiiEntry(1, 0))]
    for s in range(k):
        nu = ((i - 1) >> (k - s)) + 1
        mid = ((nu - 1) << (k - s)) + (1 << (k - s - 1))
        sign = 1 if i <= mid else -1
        out.append(((1 << s) + nu, OlevskiiEntry(sign, s)))
    return out


def row_abs_sum(k: int, i: int = 1) -> float:
    """Sum of |entries| along row i; the same for every row.

    Equals 2**(-k/2) + sum over s in [0, k) of 2**((s-k)/2), which
    increases to 1 + sqrt(2) as k grows.
    """
    if not 1 <= i <= (1 << k):
        raise IndexError(f"row {i} out of range for k={k}")
    return math.fsum(
        [2.0 ** (-k / 2.0)] + [2.0 ** ((s - k) / 2.0) for s in range(k)]
    )


def dense_matrix(k: int) -> np.ndarray:
    """Materialized float matrix; only sensible for small k."""
    size = 1 << k
    out = np.zeros((size, size))
    out[:, 0] = 2.0 ** (-k / 2.0)
    for i in range(1, size + 1):
        for j, e in row_entries(k, i)[1:]:
            out[i - 1, j - 1] = e.value(k)
    return out


def check_orthogonality(
    k: int, exact: bool = False, cap: int = DEFAULT_ORTHOGONALITY_CAP
) -> float:
    """Max |A A^T - I| entry.

    Float mode multiplies the materialized matrix.  Exact mode
    accumulates 2^k * (A A^T) in integers band by band (each column
    product is +/- 2^s over the common denominator 2^k) and returns a
    literal 0.0 when the matrix is orthogonal.
    """
    if k > cap:
        raise BudgetError(f"k={k} above orthogonality cap {cap}")
    size = 1 << k
    if not exact:
        a = dense_matrix(k)
        return float(np.abs(a @ a.T - np.eye(size)).max())

    # column-1 products contribute numerator 1 everywhere
    gram = np.ones((size, size), dtype=np.int64)
    for s in range(k):
        signs = np.zeros((size, 1 << s), dtype=np.int64)
        for nu in range(1, (1 << s) + 1):
            lo = (nu - 1) << (k - s)
            mid = lo + (1 << (k - s - 1))
            hi = nu << (k - s)
            signs[lo:mid, nu - 1] = 1
            signs[mid:hi, nu - 1] = -1
        gram += (1 << s) * (signs @ signs.T)
    gram -= size * np.eye(size, dtype=np.int64)
    dev = int(np.abs(gram).max())
    return dev / size


def rmatvec(k: int, row_weights: np.ndarray) -> np.ndarray:
    """A^T w: weighted column sums, walking the band structure.

    Used to synthesize weighted sums of rows; O(k 2^k) per row.  Acts on
    the last axis: a stack of weight rows gives their stacked transforms.
    """
    size = 1 << k
    w = np.asarray(row_weights, dtype=float)
    if w.shape[-1:] != (size,):
        raise ValueError(f"expected weight vectors of length {size}")
    lead = w.shape[:-1]
    out = np.zeros(w.shape)
    out[..., 0] = w.sum(axis=-1) * 2.0 ** (-k / 2.0)
    for s in range(k):
        halves = w.reshape(*lead, 1 << s, 2, 1 << (k - s - 1)).sum(axis=-1)
        out[..., (1 << s) : (1 << (s + 1))] = (
            (halves[..., 0] - halves[..., 1]) * 2.0 ** ((s - k) / 2.0)
        )
    return out


def matvec(k: int, symbol_coeffs: np.ndarray) -> np.ndarray:
    """A c: row values from per-column coefficients; O(k 2^k)."""
    size = 1 << k
    c = np.asarray(symbol_coeffs, dtype=float)
    if c.shape != (size,):
        raise ValueError(f"expected coefficient vector of length {size}")
    out = np.full(size, c[0] * 2.0 ** (-k / 2.0))
    sign_pair = np.array([1.0, -1.0])
    for s in range(k):
        # band entry nu adds +x on the first half of its row run and -x
        # on the second: the same (nu, half, row) walk rmatvec sums over
        band = c[(1 << s) : (1 << (s + 1))]
        runs = out.reshape(1 << s, 2, 1 << (k - s - 1))
        runs += (band[:, None] * sign_pair)[:, :, None] * 2.0 ** ((s - k) / 2.0)
    return out
