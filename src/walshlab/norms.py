"""L_p norms of Walsh spectra: dense, even-exponent spectral, Monte Carlo.

Routes, as ``lp_norm`` (shared by the experiments and the CLI) picks them:

    even p <= 10           lp_even_spectral: Parseval at 2, else the split
    other p, depth <= 24   lp_dense
    other p, deeper        lp_monte_carlo
    rows of coefficients   even_moments: the split, one function per row

* ``lp_dense`` synthesizes the function on its full dyadic grid and is
  exact for any p >= 1, but needs depth <= 24.  ``synthesize`` places
  the terms at bit-reversed indices before the butterfly, or builds a
  constant plus Rademacher terms (a Khintchine sum) by doubling, so no
  permutation of the 2^depth cell values is built.
* ``lp_even_spectral`` is exact for even integer p <= 10 at any depth.
  For p = 2 it is Parseval.  For p = 2m >= 4 it splits f = q + T, where
  the head q holds every frequency of popcount != 1 together with the
  single-bit terms inside the v bits those frequencies span, and the
  tail T = sum b_i r_i holds the remaining Rademacher terms.  The
  tail is independent of q and symmetric, so

      integral f^(2m) = sum over j of C(2m, 2j) E q^(2m-2j) E T^(2j).

  E q^(2j) comes from the head's cell values: the head frequencies span
  an r-dimensional space over GF(2), and in a reduced echelon basis of
  it each frequency's bits at the basis pivots are its coordinates, so
  q takes its values on 2^r equally likely cells (2^v when the head
  spans all its v bits, the plain remap of those bits).  E T^(2j)
  comes from the power sums S_2i = sum b^(2i): T's cumulants are
  kappa_2i = c_i S_2i, where c_i = 1, -2, 16, -272, ... are the even
  cumulants of one Rademacher sign (those of log cosh), and the
  moment-cumulant recursion

      E T^(2j) = sum over i = 1..j of C(2j-1, 2i-1) kappa_2i E T^(2j-2i)

  turns them into moments.  At m = 2 this is
  integral f^4 = E q^4 + 6 E q^2 S_2 + 3 S_2^2 - 2 S_4.  The recursion
  cancels more as m grows (most when one tail term dominates), so p
  above 10 is refused.  Nothing enters a convolution; the 2^r cells,
  their squares and one power (24 bytes a cell and row) are refused
  before they are allocated when they would pass ``spectra.BYTE_BUDGET``.
  ``even_split`` classifies a frequency list (tail mask, head cells)
  once; ``even_moments`` applies that one classification to every row
  on the list, and callers keep it (per plan and block tuple in the
  experiments, per call in khintchine).
* ``lp_even_spectral`` is scale-free: it takes the moment of f / 2^e,
  whose largest |coefficient| lies in [1/2, 1), and scales the norm
  back by 2^e, so no moment under- or overflows.  ``lp_dense`` and
  ``lp_monte_carlo`` refuse a p-th power mean (or its sampled spread)
  past the float range with ConfigError, as ``even_moments`` refuses
  such an even moment of its unscaled rows.
* ``lp_monte_carlo`` samples uniform cells of the packed spectrum and
  reports a 95% CI propagated from the normal-approximation CI of the
  p-th power mean.  f depends on a point only through its digits at
  the w positions of U, the OR of f's frequencies, and those digits
  are i.i.d. fair bits; so ``_packed`` rewrites each frequency as its
  bits at U's positions in ascending order, and the draw samples the
  2^w cells of that depth-w spectrum (the integrand is constant per
  cell, so sampling adds no discretization error).  A desk democracy
  set of 4-6 elements reads 15-37 of its 171-273 bits: one limb.  When
  U fills bits 0..w-1 the spectrum is f itself.  The digit masks are
  the raw uint64 stream of Philox keyed by the seed, ceil(w / 64)
  words a sample, so sample i depends only on (seed, i) and U, not on
  any execution schedule.
  Samples are evaluated with byte tables: every term whose frequency
  has its nonzero bits inside one byte of the little-endian
  limbs (every Rademacher term, and any other frequency inside one
  aligned byte) joins that byte's 256-entry coefficient row, one
  8-bit Walsh-Hadamard butterfly turns the rows into value tables,
  and a sample's value is one lookup per used byte of its digit mask.
  Terms spanning several bytes are added one at a time from the parity
  of mask & frequency.
  The draw is refused before anything is allocated when its peak
  (``_mc_peak_bytes``: the masks, their byte columns and a few float
  arrays per sample) exceeds ``spectra.BYTE_BUDGET``, which products
  read at call time too.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import Callable, NamedTuple

import numpy as np

from . import spectra
from .errors import BudgetError, ConfigError, DepthError
from .spectra import WalshSpectrum, _freq_arrays, _fwht_inplace, synthesize

MAX_DENSE_DEPTH = 24

# Largest even p whose split norms stay within 1e-12 of lp_dense: worst
# relative errors on random 1-9-term tails, some led by one term, are
# 2.0e-14 at p = 8, 5.6e-13 at p = 10 and 1.3e-11 at p = 12
EVEN_SPLIT_MAX_P = 10

_Z95 = 1.959963984540054


class NormEstimate(NamedTuple):
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


@np.errstate(over="ignore", invalid="ignore")
def lp_dense(f: WalshSpectrum, p: float) -> NormEstimate:
    """Exact ||f||_p from the values on the 2^depth cells; a p-th power
    mean past the float range is a ConfigError."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    depth = f.depth()
    if depth > MAX_DENSE_DEPTH:
        raise DepthError(f"spectrum depth {depth} above dense cap {MAX_DENSE_DEPTH}")
    values = synthesize(f, depth)
    np.abs(values, out=values)
    values **= p
    moment = float(np.mean(values))
    _check_power_mean(moment, p)
    return NormEstimate(p=p, value=moment ** (1.0 / p), kind="exact")


def lp_even_spectral(f: WalshSpectrum, p: int) -> NormEstimate:
    """Exact ||f||_p for even integer p <= EVEN_SPLIT_MAX_P, at any depth
    and scale: the moment is that of f / 2^e, whose largest |coefficient|
    lies in [1/2, 1), and the norm is scaled back by 2^e, both exactly.
    A norm past the float range is a ConfigError.

    The byte budget bounds the head's 2^r cells, r the GF(2) rank of
    its frequencies, at 24 bytes a cell.
    """
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if p > EVEN_SPLIT_MAX_P:
        raise BudgetError(f"even p = {p} above the split's accuracy cap 10")
    row = np.fromiter((c for _, c in f.items()), float, len(f))
    e = int(np.frexp(np.max(np.abs(row), initial=0.0))[1])
    row = np.ldexp(row, -e)  # 2.0 ** -e itself would overflow for e < -1023
    if p == 2:
        moment = float(np.sum(row * row))
    else:
        moment = float(even_moments(even_split(list(f)), row[None, :], [p // 2])[0, 0])
    try:
        value = math.ldexp(moment ** (1.0 / p), e)
    except OverflowError:
        raise ConfigError(f"the L{p} norm of f overflows") from None
    return NormEstimate(p=float(p), value=value, kind="exact")


@np.errstate(over="ignore", invalid="ignore")
def lp_monte_carlo(
    f: WalshSpectrum, p: float, samples: int, seed: int
) -> NormEstimate:
    """Seeded estimate of ||f||_p with a 95% CI; p > 1, samples >= 2.
    A p-th power mean or its spread past the float range is a ConfigError.

    Sample i is the cell of f's packed bits (see ``_packed``) whose
    digits are the i-th word(s) of the Philox stream keyed by ``seed``.
    """
    if p <= 1:
        raise ValueError(f"p must be > 1, got {p}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    f = _packed(f)
    depth = f.depth()
    limbs = max(1, (depth + 63) // 64)
    need = _mc_peak_bytes(samples, limbs)
    if need > spectra.BYTE_BUDGET:
        raise BudgetError(
            f"{samples} samples x {limbs} limbs need about {need} bytes, "
            f"budget {spectra.BYTE_BUDGET}"
        )
    masks = np.random.Philox(key=seed).random_raw(samples * limbs).reshape(samples, limbs)
    # the top limb's spare high bits shift out (all 64 at depth 0: t = 0)
    masks[:, -1] >>= np.uint64(limbs * 64 - depth)
    powers = _eval_masks(f, masks)
    np.abs(powers, out=powers)
    powers **= p
    if np.all(powers == powers[0]):
        # constant integrand: exact value, zero-width interval
        mean = float(powers[0])
        se = 0.0
    else:
        mean = float(powers.mean())
        se = float(powers.std(ddof=1) / np.sqrt(samples))
    lo = max(mean - _Z95 * se, 0.0)
    hi = mean + _Z95 * se
    _check_power_mean(hi, p)  # not finite when the mean or its spread is not
    return NormEstimate(
        p=p,
        value=mean ** (1.0 / p),
        kind="sampled",
        ci_low=lo ** (1.0 / p),
        ci_high=hi ** (1.0 / p),
        samples=samples,
        seed=seed,
    )


def lp_norm(
    f: WalshSpectrum, p: float, samples: int, seed: Callable[[], int]
) -> NormEstimate:
    """||f||_p by the first route that applies: even spectral where
    ``takes_split``, dense up to depth MAX_DENSE_DEPTH, else Monte Carlo.

    ``seed`` is called only on the sampled route, so exact values never
    derive one.
    """
    if takes_split(p):
        return lp_even_spectral(f, int(p))
    if f.depth() <= MAX_DENSE_DEPTH:
        return lp_dense(f, p)
    return lp_monte_carlo(f, p, samples, seed())


def takes_split(p: float) -> bool:
    """Whether ``lp_norm`` sends p to the even spectral engine."""
    return float(p).is_integer() and int(p) % 2 == 0 and 2 <= p <= EVEN_SPLIT_MAX_P


def rademacher_fourth_moment(a: np.ndarray) -> float:
    """Exact integral of (sum a_j r_j)^4: 3 (sum a^2)^2 - 2 sum a^4."""
    a = np.asarray(a, dtype=float)
    s2 = float(np.sum(a * a))
    s4 = float(np.sum(a ** 4))
    return 3.0 * s2 * s2 - 2.0 * s4


# -- internals ---------------------------------------------------------------

def _check_power_mean(x: float, p: float) -> None:
    if not math.isfinite(x):
        raise ConfigError(f"the mean of |f|^{p} overflows")


def _check_head_cells(rows: int, r: int) -> None:
    """Refuse ``rows`` x 2^r head cells, their squares and one power."""
    need = 24 * rows << r
    if need > spectra.BYTE_BUDGET:
        raise BudgetError(
            f"{rows} rows of 2^{r} head cells need about {need} bytes, "
            f"budget {spectra.BYTE_BUDGET}"
        )


def _mc_peak_bytes(samples: int, limbs: int) -> int:
    """Upper bound on what one ``lp_monte_carlo`` draw allocates: the
    uint64 masks, the byte columns copied out of them, and at most six
    float64 or intp arrays of one entry per sample alive at once."""
    return samples * (16 * limbs + 6 * 8)


def _packed(f: WalshSpectrum) -> WalshSpectrum:
    """f with each frequency rewritten as its bits at the positions of U,
    the OR of f's frequencies, in ascending order: a spectrum of depth
    popcount(U) whose values at i.i.d. fair digits are distributed as
    f's.  f itself when U fills bits 0..depth-1."""
    used = 0
    for n in f:
        used |= n
    if not used & (used + 1):
        return f
    slot = {}  # each bit of U -> its packed bit
    while used:
        low = used & -used
        slot[low] = 1 << len(slot)
        used ^= low
    terms = {}  # distinct frequencies stay distinct: their bits lie in U
    for n, c in f.items():
        m = 0
        while n:
            low = n & -n
            m |= slot[low]
            n ^= low
        terms[m] = c
    return WalshSpectrum._from_clean_dict(terms)


def _eval_masks(f: WalshSpectrum, masks: np.ndarray) -> np.ndarray:
    """f at the dyadic points whose digit masks are the given limb rows."""
    n_samples, limbs = masks.shape
    values = np.zeros(n_samples)
    packed, coeffs = _freq_arrays(f, limbs)
    freq_bytes = packed.astype("<u8", copy=False).view(np.uint8)
    nonzero = freq_bytes != 0
    single = np.count_nonzero(nonzero, axis=1) <= 1
    terms = np.flatnonzero(single)
    if len(terms):
        byte = np.argmax(nonzero[terms], axis=1)
        u = freq_bytes[terms, byte]
        # the constant term adds to every entry of any table: put it in
        # one that is read anyway
        byte[u == 0] = byte.max()
        used, table_of = np.unique(byte, return_inverse=True)
        weights = np.zeros((len(used), 256))
        weights[table_of, u] = coeffs[terms]
        # table[x] = sum over u of weights[u] (-1)^popcount(u & x)
        _fwht_inplace(weights)
        digits = masks.astype("<u8", copy=False).view(np.uint8).T[used]
        for table, column in zip(weights, digits):
            values += np.take(table, column)
    for n in np.flatnonzero(~single):
        row = packed[n]
        parity = np.zeros(n_samples, dtype=np.uint64)
        for limb in np.flatnonzero(row):
            parity ^= np.bitwise_count(masks[:, limb] & row[limb])
        signs = 1.0 - 2.0 * (parity & np.uint64(1)).astype(float)
        values += coeffs[n] * signs
    return values


# one frequency list classified: which are tail terms, and the cells of
# the others, in list order, among the head's 2^r, r its rank over GF(2)
EvenSplit = namedtuple("EvenSplit", "in_tail slots r")


def even_split(freqs) -> EvenSplit:
    """Classify ``freqs`` for ``even_moments``, once per frequency list;
    a head whose 2^r cells pass the byte budget is a BudgetError."""
    head_bits = 0
    for n in freqs:
        if n.bit_count() != 1:
            head_bits |= n
    # single bits outside the head bits are the independent tail
    outside = ~head_bits
    in_tail = np.array([n & outside != 0 for n in freqs], dtype=bool)
    head = tuple(n for n in freqs if not n & outside)
    # reduced echelon basis of the head, keyed by pivot: no vector holds
    # another's pivot bit, so a frequency's bits at the pivots are its
    # coordinates; full once it spans every head bit
    basis, v = {}, head_bits.bit_count()
    for n in head:
        if len(basis) == v:
            break
        for pivot, b in basis.items():
            if n >> pivot & 1:
                n ^= b
        if n:
            pivot = n.bit_length() - 1
            for k, b in basis.items():
                if b >> pivot & 1:
                    basis[k] = b ^ n
            basis[pivot] = n
            _check_head_cells(1, len(basis))
    # coordinates as cell indices (moments ignore cell order); ascending
    # pivots make them the plain remap of the head bits when r = v
    pivots = sorted(basis)
    slots = [sum((n >> s & 1) << i for i, s in enumerate(pivots)) for n in head]
    slots = np.array(slots, dtype=np.intp)
    slots.flags.writeable = False
    in_tail.flags.writeable = False  # callers may cache and share the split
    return EvenSplit(in_tail, slots, len(pivots))


@np.errstate(over="ignore", invalid="ignore")
def even_moments(split: EvenSplit, coeffs: np.ndarray, ms):
    """(R, len(ms)) array of integral f_r^(2m) for m in ``ms``, where row
    r of ``coeffs`` holds f_r's coefficients at the frequencies that
    ``split = even_split(freqs)`` classified.  Every row shares that
    one head/tail split; overflow is a ConfigError, and head cells past
    the byte budget a BudgetError."""
    in_tail, slots, r = split
    _check_head_cells(len(coeffs), r)
    m_max = max(ms, default=0)
    eq = np.ones((len(coeffs), m_max + 1))  # eq[:, j] = E q^(2j)
    cells = np.zeros((len(coeffs), 1 << r))
    cells[:, slots] = coeffs[:, ~in_tail]
    _fwht_inplace(cells)
    q2 = cells * cells
    power = np.ones_like(q2)
    for j in range(1, m_max + 1):
        power *= q2
        eq[:, j] = power.mean(axis=1)
    b2 = np.square(coeffs[:, in_tail], order="C")  # rows summed as on their own
    power = np.ones_like(b2)
    _, recursion, cumulants = _split_table(m_max)
    kappa = []  # kappa[i - 1] = c_i S_2i
    for c in cumulants:
        power *= b2
        kappa.append(c * power.sum(axis=1))
    mu = [np.ones(len(coeffs))]  # mu[j] = E T^(2j)
    for j, weights in enumerate(recursion, start=1):
        mu.append(sum(w * kappa[i] * mu[j - 1 - i] for i, w in enumerate(weights)))
    out = np.empty((len(coeffs), len(ms)))
    for col, m in enumerate(ms):
        outer = _split_table(m)[0]
        out[:, col] = sum(w * eq[:, m - j] * mu[j] for j, w in enumerate(outer))
    if not np.isfinite(out).all():
        raise ConfigError(f"an even moment of order {[2 * m for m in ms]} overflows")
    return out


@functools.cache
def _split_table(m: int) -> tuple[tuple, tuple, tuple]:
    """Binomials and Rademacher cumulants of the 2m-th moment split.

    Returns C(2m, 2j) for j = 0..m; the moment-cumulant recursion
    weights C(2j-1, 2i-1), i = 1..j, for j = 1..m; and the even
    cumulants kappa_2i of one Rademacher sign, i = 1..m.
    """
    # the sign's moments are 1 at even and 0 at odd order; invert
    # mu_n = sum_k C(n-1, k-1) kappa_k mu_(n-k) in exact integers
    mom = [1 - n % 2 for n in range(2 * m + 1)]
    kappa = [0] * (2 * m + 1)
    for n in range(1, 2 * m + 1):
        kappa[n] = mom[n] - sum(
            math.comb(n - 1, k - 1) * kappa[k] * mom[n - k] for k in range(1, n)
        )
    outer = tuple(math.comb(2 * m, 2 * j) for j in range(m + 1))
    recursion = tuple(
        tuple(math.comb(2 * j - 1, 2 * i - 1) for i in range(1, j + 1))
        for j in range(1, m + 1)
    )
    cumulants = tuple(kappa[2 * i] for i in range(1, m + 1))
    return outer, recursion, cumulants
