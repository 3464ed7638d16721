"""L_p norms of Walsh spectra: dense, even-exponent spectral, Monte Carlo.

Routes, as ``lp_norm`` (shared by the experiments and the CLI) picks them:

    even p <= 10           lp_even_spectral: Parseval at 2, else the split
    other p, depth <= 24   lp_dense
    other p, deeper        lp_monte_carlo
    rows of coefficients   even_norms: the split, one function per row

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
  their squares and one power (24 bytes a cell and row) go through
  ``spectra.check_bytes`` before they are allocated.
  ``even_split`` classifies a frequency list (tail mask, head cells)
  once; ``even_moments`` applies it to every row on the list, and the
  experiments keep it per call, and per plan and block tuple across calls.
* ``even_norms``, the one even-p route, is scale-free: it takes each
  row's moment of f / 2^e, whose largest |coefficient| lies in [1/2, 1),
  and scales the norm back by 2^e, so no moment under- or overflows; its
  one-row case is ``lp_even_spectral``.  ``lp_dense`` and
  ``lp_monte_carlo`` refuse a p-th power mean (or its sampled spread)
  past the float range with ConfigError, and a mean below the normal
  range too, unless f is 0 at every cell they evaluate.
* ``lp_monte_carlo`` samples uniform cells of the packed spectrum and
  reports a 95% CI propagated from the normal-approximation CI of the
  p-th power mean.  ``_packed`` lays f out on its even split: the
  head's r coordinate bits and the t tail signs are i.i.d. fair bits,
  so the draw samples the 2^w cells, w = r + t, of the spectrum with
  the head's cells on bits 0..r-1 and the tail above (the integrand is
  constant per cell, so sampling adds no discretization error).  w is
  at most the popcount of U, the OR of f's frequencies: a desk
  democracy set of 4-6 elements draws 14-36 bits for the 15-37 it uses
  of its 171-273, one limb.  The digit masks are the raw uint64 stream
  of Philox keyed by the seed, ceil(w / 64) words a sample, so sample
  i depends only on (seed, i) and f, not on any execution schedule.
  Samples are evaluated with byte tables: every term whose bits lie in
  its top byte (every Rademacher term, and any other frequency inside
  one aligned byte) joins that byte's 256-entry coefficient row, one
  8-bit Walsh-Hadamard butterfly turns the rows into value tables,
  and a sample's value is one lookup per used byte of its digit mask.
  Terms spanning several bytes are added one at a time from the parity
  of mask & frequency.  The draw's peak, estimated from f's split
  (``_mc_peak_bytes``), goes through ``spectra.check_bytes`` before the
  packed spectrum is built.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from collections import defaultdict, namedtuple
from typing import Callable, NamedTuple

import numpy as np

from .errors import BudgetError, ConfigError, DepthError
from .spectra import WalshSpectrum, _fwht_inplace, check_bytes, synthesize

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
        return {k: v for k, v in self._asdict().items() if v is not None}


@np.errstate(over="ignore", invalid="ignore")
def lp_dense(f: WalshSpectrum, p: float) -> NormEstimate:
    """Exact ||f||_p from the values on the 2^depth cells; a p-th power
    mean past the float range, or a nonzero one below it, is a ConfigError."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    depth = f.depth()
    if depth > MAX_DENSE_DEPTH:
        raise DepthError(f"spectrum depth {depth} above dense cap {MAX_DENSE_DEPTH}")
    values = synthesize(f, depth)
    np.abs(values, out=values)
    values **= p
    moment = float(np.mean(values))
    _check_power_mean(moment, moment, p, len(f) > 0)
    return NormEstimate(p=p, value=moment ** (1.0 / p), kind="exact")


def lp_even_spectral(f: WalshSpectrum, p: int) -> NormEstimate:
    """Exact ||f||_p for even integer p <= EVEN_SPLIT_MAX_P, at any depth
    and scale: ``even_norms`` of f's one row.  The byte budget bounds the
    head's 2^r cells, r the GF(2) rank of its frequencies, at 24 bytes a cell."""
    if p < 2 or p % 2:
        raise ValueError(f"p must be an even integer >= 2, got {p}")
    if p > EVEN_SPLIT_MAX_P:
        raise BudgetError(f"even p = {p} above the split's accuracy cap 10")
    row = np.fromiter((c for _, c in f.items()), float, len(f))
    split = even_split(list(f)) if p > 2 else None
    return NormEstimate(float(p), even_norms(split, row[None, :], [p])[0][p], "exact")


def even_norms(split: EvenSplit | None, coeffs: np.ndarray, ps) -> list[dict]:
    """{p: ||f_r||_p} for each row r of ``coeffs``, as in ``even_moments``,
    at the even integers p of ``ps``: the moment of f_r / 2^e, whose
    largest |coefficient| lies in [1/2, 1), scaled back by 2^e, both
    exactly; ``coeffs`` is scaled in place.  p = 2 alone is Parseval's
    sum and reads no split.  A norm past the float range is a ConfigError."""
    if not ps:  # no row is read
        return [{} for _ in coeffs]
    e = np.frexp(np.max(np.abs(coeffs), axis=1, initial=0.0))[1]
    np.ldexp(coeffs, -e[:, None], out=coeffs)  # 2.0 ** -e would overflow for e < -1023
    ms = [int(p) // 2 for p in ps]
    moments = ((coeffs * coeffs).sum(axis=1, keepdims=True) if ms == [1]
               else even_moments(split, coeffs, ms))
    try:
        return [{p: math.ldexp(m ** (1.0 / p), k) for p, m in zip(ps, row)}
                for row, k in zip(moments.tolist(), e.tolist())]
    except OverflowError:
        raise ConfigError(f"the L{max(ps)} norm of f overflows") from None


@np.errstate(over="ignore", invalid="ignore")
def lp_monte_carlo(
    f: WalshSpectrum, p: float, samples: int, seed: int
) -> NormEstimate:
    """Seeded estimate of ||f||_p with a 95% CI; p >= 1, samples >= 2.
    A p-th power mean or its spread past the float range, or a mean below
    it where some sampled |f| is nonzero, is a ConfigError.

    Sample i is the cell of f's packed bits (see ``_packed``) whose
    digits are the i-th word(s) of the Philox stream keyed by ``seed``.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    split = even_split(list(f))
    check_bytes(_mc_peak_bytes(samples, split), f"{samples} samples of {len(f)} terms")
    f = _packed(f, split)
    depth = f.depth()
    limbs = max(1, (depth + 63) // 64)
    masks = np.random.Philox(key=seed).random_raw(samples * limbs).reshape(samples, limbs)
    # the top limb's spare high bits shift out (all 64 at depth 0: t = 0)
    masks[:, -1] >>= np.uint64(limbs * 64 - depth)
    powers = _eval_masks(f, masks)
    np.abs(powers, out=powers)
    nonzero = bool(powers.any())
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
    _check_power_mean(mean, hi, p, nonzero)  # hi: not finite if the mean or spread is not
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

def _check_power_mean(mean: float, hi: float, p: float, nonzero: bool) -> None:
    # the mean of a nonzero |f|^p below the normal range has lost its digits
    if not math.isfinite(hi):
        raise ConfigError(f"the mean of |f|^{p} overflows")
    if nonzero and mean < sys.float_info.min:
        raise ConfigError(f"the mean of |f|^{p} underflows")


def _mc_peak_bytes(samples: int, split: EvenSplit) -> int:
    """Bound on one ``lp_monte_carlo`` draw's peak from f's split (rank r,
    t tail terms, L = ceil((r + t) / 64) limbs): per sample the masks and
    six float or intp arrays, per limb eight byte tables and their
    butterfly's scratch, 200 bytes a term, and the packed ints at
    28 + 4 (b // 30) bytes for b bits: two cells below 2^r per head term,
    and 2^(r+j) for tail term j.  It leaves out the split's elimination,
    which holds at most a copy of f's head frequencies."""
    in_tail, slots, r = split
    t = int(np.count_nonzero(in_tail))
    limbs = max(1, (r + t + 63) // 64)
    ints = 2 * len(slots) * (28 + 4 * (r // 30)) + 28 * t + 4 * (t * r + t * (t - 1) // 2) // 30
    return samples * (8 * limbs + 48) + 32_768 * limbs + 200 * len(in_tail) + ints


def _packed(f: WalshSpectrum, split: EvenSplit) -> WalshSpectrum:
    """f laid out on its split (``even_split(list(f))``): head term h at
    its cell ``slots[h]`` (bits 0..r-1), the j-th tail term at bit r + j.
    At i.i.d. fair digits it is distributed as f, on r + t <= popcount(U)
    bits, U the OR of f's frequencies."""
    in_tail, slots, r = split
    cells, bits = iter(slots), (1 << j for j in range(r, len(f)))  # each distinct
    terms = {next(bits) if tail else next(cells): c
             for tail, (_, c) in zip(in_tail.tolist(), f.items())}
    return WalshSpectrum._from_clean_dict(terms)


def _eval_masks(f: WalshSpectrum, masks: np.ndarray) -> np.ndarray:
    """f at the dyadic points whose digit masks are the given limb rows."""
    n_samples, limbs = masks.shape
    values = np.zeros(n_samples)
    # a term whose bits all lie in its top byte b joins byte b's table
    tables, multi = defaultdict(functools.partial(np.zeros, 256)), []
    for n, c in f.items():
        b = max(n.bit_length() - 1, 0) >> 3  # byte 0 for the constant
        top = n >> 8 * b
        if top << 8 * b == n:
            tables[b][top] = c
        else:
            multi.append((n, c))
    if tables:
        used = sorted(tables)
        weights = np.array([tables.pop(b) for b in used])  # none kept twice
        # table[x] = sum over u of weights[u] (-1)^popcount(u & x)
        _fwht_inplace(weights)
        digits = masks.astype("<u8", copy=False).view(np.uint8)
        for table, b in zip(weights, used):
            values += np.take(table, digits[:, b])
    for n, c in multi:
        row = np.frombuffer(n.to_bytes(8 * limbs, "little"), "<u8")
        parity = np.zeros(n_samples, dtype=np.uint64)
        for limb in np.flatnonzero(row):
            parity ^= np.bitwise_count(masks[:, limb] & row[limb])
        signs = 1.0 - 2.0 * (parity & np.uint64(1)).astype(float)
        values += c * signs
    return values


# one frequency list classified: which are tail terms, and the cells of
# the others, in list order, among the head's 2^r, r its rank over GF(2)
EvenSplit = namedtuple("EvenSplit", "in_tail slots r")


def even_split(freqs) -> EvenSplit:
    """Classify ``freqs`` for ``even_moments``, once per frequency list;
    cells are Python ints at any rank (``even_moments`` checks 2^r's bytes)."""
    head_bits = 0
    for n in freqs:
        if n.bit_count() != 1:
            head_bits |= n
    # single bits outside the head bits are the independent tail
    outside = ~head_bits
    in_tail = np.array([n & outside != 0 for n in freqs], dtype=bool)
    head = tuple(n for n in freqs if not n & outside)
    # an echelon basis of the head, ascending: each vector's top bit, its
    # pivot, is set in none before it.  The pivots depend on the span
    # alone, and a frequency's bits at them are its coordinates in the
    # reduced basis on them.  Single bits go first, so a head that spans
    # its v bits fills the basis at once
    basis, v = [], head_bits.bit_count()
    for n in [n for n in head if n.bit_count() == 1] + [n for n in head if n.bit_count() > 1]:
        if len(basis) == v:
            break
        for b in reversed(basis):
            n = min(n, n ^ b)
        if n:
            bisect.insort(basis, n)
    # coordinates as cell indices (moments ignore cell order); ascending
    # pivots make them the plain remap of the head bits when r = v.  A run
    # of consecutive pivots shares its bit position less its rank, so it
    # moves to its ranks as one shift and mask
    runs = {}
    for rank, b in enumerate(basis):
        shift = b.bit_length() - 1 - rank
        runs[shift] = runs.get(shift, 0) | 1 << rank
    slots = [0] * len(head)
    for shift, mask in runs.items():
        slots = [slot | (n >> shift) & mask for slot, n in zip(slots, head)]
    in_tail.flags.writeable = False  # callers may cache and share the split
    return EvenSplit(in_tail, tuple(slots), len(basis))


def even_moments(split: EvenSplit, coeffs: np.ndarray, ms):
    """(R, len(ms)) array of integral f_r^(2m) for m in ``ms``, where row
    r of ``coeffs`` holds f_r's coefficients at the frequencies that
    ``split = even_split(freqs)`` classified.  Every row shares that
    one head/tail split (``even_norms`` scales each row so that no moment
    overflows); head cells past the byte budget are a BudgetError."""
    in_tail, slots, r = split
    check_bytes(24 * len(coeffs) << r, f"{len(coeffs)} rows of 2^{r} head cells")
    m_max = max(ms, default=0)
    eq = np.ones((len(coeffs), m_max + 1))  # eq[:, j] = E q^(2j)
    cells = np.zeros((len(coeffs), 1 << r))
    cells[:, np.array(slots, dtype=np.intp)] = coeffs[:, ~in_tail]
    _fwht_inplace(cells)
    q2 = np.square(cells, out=cells)
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
