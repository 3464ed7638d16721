"""Maps that keep every L_p norm, checked at depths no dense oracle reaches.

Dyadic translation x -> x xor a multiplies coefficient n by
(-1)^popcount(n & a), and a permutation of the binary digits permutes
every frequency's bits; both preserve the measure on the dyadic group
(Fine 1949), so they keep ||f||_p at every p and depth.  Scaling by 2^k
scales it by 2^k.  The spectra are ``spectra_at_depth``'s at depths 12,
18, 64 and 300, cut to 14 terms so that a head has at most 2^14 cells.
The maps move terms across bytes, limbs, head and tail, and pivot runs,
so a norm may move in its last bits; each bound in ulps is about twice
the worst case measured over 6,000 random cases.  Per sample,
translation is exact: ``_eval_masks`` of the translated coefficients
equals ``_eval_masks`` of f's at the masks XOR a's layout bits.
"""

import math
import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_eval_masks import random_masks, spectra_at_depth

from walshlab.norms import _eval_masks, even_split, lp_dense, lp_even_spectral
from walshlab.spectra import WalshSpectrum

EVEN_P = (4, 6, 8, 10)
DENSE_P = (1.0, 3.0, 5.5)


@st.composite
def spectra(draw, depths=st.sampled_from([12, 18, 64, 300])):
    """(f, depth, a random translation a below 2^depth, a permutation of
    the depth's digits)."""
    f, depth = draw(spectra_at_depth(depths))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    digits = list(range(depth))
    rng.shuffle(digits)
    return WalshSpectrum(dict(list(f.items())[:14])), depth, rng.getrandbits(depth), digits


def translated(f, a):
    return WalshSpectrum({n: -c if (n & a).bit_count() & 1 else c for n, c in f.items()})


def permuted(f, digits):
    return WalshSpectrum({sum(1 << digits[b] for b in range(n.bit_length()) if n >> b & 1): c
                          for n, c in f.items()})


def ulps(x, y):
    return 0.0 if x == y else abs(x - y) / math.ulp(max(abs(x), abs(y)))


@settings(max_examples=40, deadline=None)
@given(spectra(), st.sampled_from(EVEN_P))
def test_even_norms_keep_under_translation_and_digit_permutation(case, p):
    f, _, a, digits = case
    norm = lp_even_spectral(f, p).value
    # measured worst 1 ulp translated, 2 permuted
    assert ulps(lp_even_spectral(translated(f, a), p).value, norm) <= 2
    assert ulps(lp_even_spectral(permuted(f, digits), p).value, norm) <= 4


@settings(max_examples=30, deadline=None)
@given(spectra(st.sampled_from([12, 18])), st.sampled_from(DENSE_P))
def test_dense_norms_keep_under_translation_and_digit_permutation(case, p):
    f, _, a, digits = case
    norm = lp_dense(f, p).value
    # the cells' values are summed in another order: measured worst 3 ulps
    # translated, 4 permuted, both at p = 1
    assert ulps(lp_dense(translated(f, a), p).value, norm) <= 6
    assert ulps(lp_dense(permuted(f, digits), p).value, norm) <= 8


@settings(max_examples=30, deadline=None)
@given(spectra(), st.sampled_from(EVEN_P + DENSE_P), st.integers(-40, 40))
def test_norms_scale_by_powers_of_two(case, p, k):
    f, depth, _, _ = case
    scaled = WalshSpectrum({n: math.ldexp(c, k) for n, c in f.items()})
    if p in EVEN_P:  # scale-free: exactly
        assert lp_even_spectral(scaled, p).value == math.ldexp(lp_even_spectral(f, p).value, k)
    elif depth <= 18:
        want = math.ldexp(lp_dense(f, p).value, k)
        # the root is taken as a power 1/p rounded, so 2^(kp) comes out
        # of it as 2^k 2^(kp (fl(1/p) - 1/p)): that many ulps more
        drift = abs(k * p * (Fraction(1.0 / p) - 1 / Fraction(p))) * math.log(2) * 2**53
        # measured worst 1.44 ulps beyond the drift
        assert ulps(lp_dense(scaled, p).value, want) <= 3 + drift


def layout_bits(freqs, split, a):
    """a in f's split layout, as ``_eval_masks`` reads it: bit i is a's
    parity on the reduced basis vector of the i-th lowest pivot (head
    cell i), bit r + j a's bit at the j-th tail frequency."""
    basis = {}
    for n, tail in zip(freqs, split.in_tail.tolist()):
        while not tail and n and n.bit_length() - 1 in basis:
            n ^= basis[n.bit_length() - 1]
        if not tail and n:
            basis[n.bit_length() - 1] = n
    pivots = sorted(basis)
    for i, b in enumerate(pivots):  # clear the lower pivots' bits, lowest first
        for q in pivots[:i]:
            if basis[b] >> q & 1:
                basis[b] ^= basis[q]
    bits = [(basis[b] & a).bit_count() & 1 for b in pivots]
    bits += [1 if n & a else 0 for n, tail in zip(freqs, split.in_tail.tolist()) if tail]
    return sum(bit << i for i, bit in enumerate(bits))


@settings(max_examples=60, deadline=None)
@given(spectra(), st.integers(0, 2**32))
def test_translation_moves_each_sample_to_its_translated_mask(case, seed):
    f, _, a, _ = case
    freqs, split = list(f), even_split(list(f))
    row = np.array([c for _, c in f.items()], dtype=float)
    row_a = np.array([c for _, c in translated(f, a).items()], dtype=float)
    width = split.r + int(split.in_tail.sum())
    masks = random_masks(width, 200, seed)
    shift = layout_bits(freqs, split, a).to_bytes(8 * masks.shape[1], "little")
    moved = masks ^ np.frombuffer(shift, "<u8")
    assert np.array_equal(_eval_masks(split, row_a, masks), _eval_masks(split, row, moved))
