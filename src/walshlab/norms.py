"""L_p norms of Walsh spectra: dense, even-exponent spectral, Monte Carlo.

Engine choice:

* ``lp_dense`` synthesizes the function on its full dyadic grid and is
  exact for any p >= 1, but needs depth <= 24.
* ``lp_even_spectral`` is exact for even integer p at any depth.  It
  never leaves coefficient space: ||f||_{2m}^{2m} = sum over n of the
  squared coefficients of f^m, with products done by XOR convolution.
  For p = 4 a split shortcut applies whenever the frequencies of
  popcount != 1 span few bits b_1..b_v: writing f = q + T with q the
  part supported on those bits (plus any single-bit terms inside them)
  and T the remaining independent Rademacher tail,

      integral f^4 = E q^4 + 6 E q^2 S_2 + 3 S_2^2 - 2 S_4,

  where S_r = sum of tail coefficients^r.  E q^2 and E q^4 come from
  the 2^v cell values of q.  The identity holds because odd moments of
  T vanish and q, T are independent.
* ``lp_monte_carlo`` samples uniform cells at the spectrum's own depth
  (the integrand is constant per cell, so sampling adds no
  discretization error) and reports a 95% CI propagated from the
  normal-approximation CI of the p-th power mean.  Randomness is
  counter-based (Philox keyed by the seed), so sample i depends only on
  (seed, i) and results do not depend on any execution schedule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DepthError
from .spectra import (
    PRODUCT_PAIR_BUDGET,
    WalshSpectrum,
    _aggregate_rows,
    _freq_arrays,
    _widen,
    synthesize,
)

MAX_DENSE_DEPTH = 24

# 2^v cells above which the p=4 split falls back to XOR convolution
_SPLIT_CELL_CAP = 1 << 12

_Z95 = 1.959963984540054


@dataclass(frozen=True)
class NormEstimate:
    """One norm value with provenance; CI fields only when sampled."""

    p: float
    value: float
    kind: str  # "exact" | "sampled"
    ci_low: float | None = None
    ci_high: float | None = None
    samples: int | None = None
    seed: int | None = None

    def as_dict(self) -> dict:
        out = {"p": self.p, "value": self.value, "kind": self.kind}
        if self.kind == "sampled":
            out.update(
                ci_low=self.ci_low,
                ci_high=self.ci_high,
                samples=self.samples,
                seed=self.seed,
            )
        return out


def lp_dense(f: WalshSpectrum, p: float) -> NormEstimate:
    """Exact ||f||_p from the values on the 2^depth cells."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    depth = f.depth()
    if depth > MAX_DENSE_DEPTH:
        raise DepthError(f"spectrum depth {depth} above dense cap {MAX_DENSE_DEPTH}")
    values = synthesize(f, depth)
    moment = float(np.mean(np.abs(values) ** p))
    return NormEstimate(p=p, value=moment ** (1.0 / p), kind="exact")


def lp_even_spectral(
    f: WalshSpectrum, p: int, max_pairs: int = PRODUCT_PAIR_BUDGET
) -> NormEstimate:
    """Exact ||f||_p for even integer p, independent of depth."""
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if len(f) == 0:
        return NormEstimate(p=float(p), value=0.0, kind="exact")
    if p == 2:
        moment = float(np.sum(np.fromiter((c * c for _, c in f.items()), float)))
        return NormEstimate(p=2.0, value=moment ** 0.5, kind="exact")
    if p == 4:
        split = _head_tail_split(f)
        if split is not None:
            return NormEstimate(p=4.0, value=split ** 0.25, kind="exact")
    moment = _packed_even_moment(f, p // 2, max_pairs)
    return NormEstimate(p=float(p), value=moment ** (1.0 / p), kind="exact")


def lp_monte_carlo(
    f: WalshSpectrum, p: float, samples: int, seed: int
) -> NormEstimate:
    """Seeded estimate of ||f||_p with a 95% CI; p > 1, samples >= 2."""
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    depth = f.depth()
    limbs = max(1, (depth + 63) // 64)
    rng = np.random.Generator(np.random.Philox(key=seed))
    masks = rng.integers(0, 2 ** 64, size=(samples, limbs), dtype=np.uint64)
    spare = limbs * 64 - depth
    if spare >= 64:  # depth 0: the only cell is t = 0
        masks[:, -1] = 0
    elif spare:
        masks[:, -1] >>= np.uint64(spare)
    values = _eval_masks(f, masks)
    powers = np.abs(values) ** p
    if np.all(powers == powers[0]):
        # constant integrand: exact value, zero-width interval
        mean = float(powers[0])
        se = 0.0
    else:
        mean = float(powers.mean())
        se = float(powers.std(ddof=1) / np.sqrt(samples))
    lo = max(mean - _Z95 * se, 0.0)
    hi = mean + _Z95 * se
    return NormEstimate(
        p=p,
        value=mean ** (1.0 / p),
        kind="sampled",
        ci_low=lo ** (1.0 / p),
        ci_high=hi ** (1.0 / p),
        samples=samples,
        seed=seed,
    )


def rademacher_fourth_moment(a: np.ndarray) -> float:
    """Exact integral of (sum a_j r_j)^4: 3 (sum a^2)^2 - 2 sum a^4."""
    a = np.asarray(a, dtype=float)
    s2 = float(np.sum(a * a))
    s4 = float(np.sum(a ** 4))
    return 3.0 * s2 * s2 - 2.0 * s4


# -- internals ---------------------------------------------------------------

def _eval_masks(f: WalshSpectrum, masks: np.ndarray) -> np.ndarray:
    """f at the dyadic points whose digit masks are the given limb rows."""
    n_samples, limbs = masks.shape
    values = np.zeros(n_samples)
    packed, coeffs = _freq_arrays(f)
    packed = _widen(packed, limbs)
    for row, c in zip(packed, coeffs):
        parity = np.zeros(n_samples, dtype=np.uint64)
        for limb in range(limbs):
            parity ^= np.bitwise_count(masks[:, limb] & row[limb])
        signs = 1.0 - 2.0 * (parity & np.uint64(1)).astype(float)
        values += c * signs
    return values


def _head_tail_split(f: WalshSpectrum) -> float | None:
    """integral f^4 by the independent-tail identity, or None if the
    head would need too many cells."""
    head_bits = 0
    for n in f:
        if n.bit_count() != 1:
            head_bits |= n
    head: dict[int, float] = {}
    tail: list[float] = []
    for n, c in f.items():
        if n.bit_count() == 1 and not (n & head_bits):
            tail.append(c)
        else:
            head[n] = c
    v = head_bits.bit_count()
    if (1 << v) > _SPLIT_CELL_CAP:
        return None
    # remap the head onto bits 0..v-1 and read q off its 2^v cells
    positions = {}
    b = head_bits
    while b:
        low = b & -b
        positions[low.bit_length() - 1] = len(positions)
        b ^= low
    compact: dict[int, float] = {}
    for n, c in head.items():
        m = 0
        bb = n
        while bb:
            low = bb & -bb
            m |= 1 << positions[low.bit_length() - 1]
            bb ^= low
        compact[m] = compact.get(m, 0.0) + c
    q = synthesize(WalshSpectrum(compact), v)
    eq2 = float(np.mean(q * q))
    eq4 = float(np.mean(q ** 4))
    b_arr = np.array(tail) if tail else np.zeros(0)
    s2 = float(np.sum(b_arr * b_arr))
    s4 = float(np.sum(b_arr ** 4))
    return eq4 + 6.0 * eq2 * s2 + 3.0 * s2 * s2 - 2.0 * s4


def _packed_even_moment(f: WalshSpectrum, half: int, max_pairs: int) -> float:
    """sum over n of (f^half)[n]^2 with all keys kept packed."""
    packed, coeffs = _freq_arrays(f)
    limbs = packed.shape[1]
    keys, weights = packed, coeffs
    for _ in range(half - 1):
        pairs = len(keys) * len(packed)
        if pairs > max_pairs:
            raise BudgetError(
                f"even-p power needs {pairs} pair products, budget {max_pairs}"
            )
        prod = (keys[:, None, :] ^ packed[None, :, :]).reshape(-1, limbs)
        w = np.multiply.outer(weights, coeffs).ravel()
        keys, weights = _aggregate_rows(prod, w)
    return float(np.sum(weights * weights))
