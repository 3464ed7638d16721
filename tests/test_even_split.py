"""The head/tail moment split against the routes it replaced.

For p = 2m >= 4, ``lp_even_spectral`` splits f into a head and an
independent Rademacher tail.  Heads on at most 12 bits give their
moments from their cells, wider heads from their XOR powers.
``reference_even_moment`` is the route that wide heads took before the
split covered them: the powers f^m of the whole spectrum, formed by XOR
convolution of packed keys under a pair budget.  The properties compare
the split with it at any depth, with ``lp_dense`` where the depth is
<= 16, and with the sharp even-moment Khintchine constants
B_2m = ((2m - 1)!!)^(1/2m).
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshlab.spectra
from walshlab.errors import BudgetError
from walshlab.norms import (
    _split_table,
    even_moments,
    even_split,
    lp_dense,
    lp_even_spectral,
    lp_norm,
)
from walshlab.spectra import (
    WalshSpectrum,
    _freq_arrays,
    _product_peak_bytes,
    rademacher_index,
)


def head_tail_moment(f, m):
    """integral f^(2m) by the independent-tail identity, unscaled: one row."""
    row = np.array([[c for _, c in f.items()]], dtype=float)
    return float(even_moments(even_split(list(f)), row, [m])[0, 0])


def reference_even_moment(f, half, max_pairs=1 << 24):
    """sum over n of (f^half)[n]^2 with all keys kept packed."""
    limbs = max(1, (f.depth() + 63) // 64)
    packed, coeffs = _freq_arrays(f, limbs)
    keys, weights = packed, coeffs
    for _ in range(half - 1):
        pairs = len(keys) * len(packed)
        if pairs > max_pairs:
            raise BudgetError(
                f"even-p power needs {pairs} pair products, budget {max_pairs}"
            )
        prod = (keys[:, None, :] ^ packed[None, :, :]).reshape(-1, limbs)
        w = np.multiply.outer(weights, coeffs).ravel()
        keys, inverse = np.unique(prod, axis=0, return_inverse=True)
        weights = np.bincount(inverse.ravel(), weights=w)
    return float(np.sum(weights * weights))

coefficient = st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@st.composite
def head_tail_spectra(draw):
    """A head on <= 12 bits plus a Rademacher tail on other bits.

    The bits come from 0..15 or 0..299, so some spectra are shallow
    enough for ``lp_dense``; a third of the tails carry one dominant
    term, the cancellation extreme of the cumulant recursion.
    """
    width = draw(st.sampled_from([16, 300]))
    head_pos = sorted(draw(st.sets(st.integers(0, width - 1), max_size=12)))
    masks = draw(st.sets(st.integers(0, (1 << len(head_pos)) - 1), max_size=8))
    terms = {}
    for mask in masks:
        n = sum(1 << pos for i, pos in enumerate(head_pos) if mask >> i & 1)
        terms[n] = draw(coefficient)
    free = [b for b in range(width) if b not in head_pos]
    tail_bits = draw(st.lists(st.sampled_from(free), max_size=8, unique=True))
    for b in tail_bits:
        terms[1 << b] = draw(coefficient)
    if tail_bits and draw(st.integers(0, 2)) == 0:
        terms[1 << tail_bits[0]] = draw(st.sampled_from([1e3, -1e3]))
    return WalshSpectrum(terms)


@settings(max_examples=60, deadline=None)
@given(head_tail_spectra(), st.sampled_from([4, 6, 8]))
def test_split_equals_convolution_and_dense(f, p):
    split = head_tail_moment(f, p // 2)
    assert split is not None
    if len(f) == 0:
        assert split == 0.0
        return
    packed = reference_even_moment(f, p // 2)
    assert split == pytest.approx(packed, rel=1e-12)
    assert lp_even_spectral(f, p).value ** p == pytest.approx(split, rel=1e-12)
    if f.depth() <= 16:
        assert split == pytest.approx(lp_dense(f, p).value ** p, rel=1e-12)


@st.composite
def wide_head_spectra(draw):
    """A head on 13 to 18 bits plus a Rademacher tail on other bits.

    One head term covers every head bit, so the head is as wide as
    drawn; the others may be single bits inside it.  Bits come from
    0..15 or 0..299, and a third of the tails carry one dominant term.
    """
    width = draw(st.sampled_from([16, 300]))
    head_pos = sorted(
        draw(st.sets(st.integers(0, width - 1), min_size=13, max_size=min(18, width)))
    )
    v = len(head_pos)
    masks = draw(st.sets(st.integers(1, (1 << v) - 1), max_size=8)) | {(1 << v) - 1}
    terms = {}
    for mask in masks:
        n = sum(1 << pos for i, pos in enumerate(head_pos) if mask >> i & 1)
        terms[n] = draw(coefficient)
    free = [b for b in range(width) if b not in head_pos]
    tail_bits = []
    if free:
        tail_bits = draw(st.lists(st.sampled_from(free), max_size=8, unique=True))
    for b in tail_bits:
        terms[1 << b] = draw(coefficient)
    if tail_bits and draw(st.integers(0, 2)) == 0:
        terms[1 << tail_bits[0]] = draw(st.sampled_from([1e3, -1e3]))
    return WalshSpectrum(terms)


@settings(max_examples=60, deadline=None)
@given(wide_head_spectra(), st.sampled_from([4, 6, 8]))
def test_wide_head_powers_equal_convolution_and_dense(f, p):
    split = head_tail_moment(f, p // 2)
    assert split == pytest.approx(reference_even_moment(f, p // 2), rel=1e-12)
    assert lp_even_spectral(f, p).value ** p == pytest.approx(split, rel=1e-12)
    if f.depth() <= 16:
        assert split == pytest.approx(lp_dense(f, p).value ** p, rel=1e-12)


def test_wide_head_fits_where_the_full_convolution_did_not(monkeypatch):
    # 24 terms on 13 head bits plus 7 tail bits: at p = 8 the powers of
    # f need 114,390 pairs in their last product, those of the head 34,128
    head, k = {(1 << 13) - 1: 1.0}, 1
    while len(head) < 24:
        n = k * 1597 % (1 << 13)
        if n.bit_count() > 1:
            head[n] = (-1) ** k / (k + 1)
        k += 1
    f = WalshSpectrum({**head, **{1 << b: 0.5 + 0.1 * b for b in range(13, 20)}})
    budget = 60_000
    with pytest.raises(BudgetError):
        reference_even_moment(f, 4, max_pairs=budget)
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", _product_peak_bytes(budget, 1))
    est = lp_even_spectral(f, 8)
    assert est.value == pytest.approx(lp_dense(f, 8).value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.builds(math.ldexp, st.floats(-10.0, 10.0, allow_nan=False), st.integers(-300, 300)),
    min_size=1, max_size=16,
))
@example([3.79e-189])
@example([5e-324, 5e-324])
def test_sharp_even_khintchine_bounds(a):
    f = WalshSpectrum({rademacher_index(j + 1): x for j, x in enumerate(a)})
    l2 = math.hypot(*a)  # a sum of squares underflows: 0 for [3.79e-189]
    # a subnormal holds too few digits for relative slack: for
    # [5e-324, 5e-324] the correctly rounded L4 norm is 1e-323, l2 5e-324
    tiny = math.ulp(0.0)
    for m in (2, 3, 4):
        bound = math.prod(range(1, 2 * m, 2)) ** (1.0 / (2 * m))
        value = lp_even_spectral(f, 2 * m).value
        assert l2 * (1 - 1e-12) - tiny <= value <= bound * l2 * (1 + 1e-12) + tiny


def test_even_norms_of_tiny_and_huge_rademacher_sums():
    # unscaled, these moments under- or overflow: the norms read 0.0,
    # 4.59e-41, 1.773e-81 (above 3^(1/4) ||f||_2) or exit 2
    for a, ps in [([1e-100], (4, 6, 8)), ([5.8e-41], (8,)),
                  ([9.1e-82] * 2, (4, 6, 8)), ([1e100] * 2, (4, 6, 8))]:
        f = WalshSpectrum({rademacher_index(j + 1): x for j, x in enumerate(a)})
        for p in ps:
            # E c^p r^p = c^p, and E c^p (r_1 + r_2)^p = c^p 2^(p-1)
            want = a[0] * (2.0 ** ((p - 1) / p) if len(a) == 2 else 1.0)
            assert lp_even_spectral(f, p).value == pytest.approx(want, rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.one_of(head_tail_spectra(), wide_head_spectra()), st.sampled_from([2, 4, 6, 8]),
       st.integers(-300, 300))
def test_even_norms_scale_exactly_by_powers_of_two(f, p, k):
    scaled = WalshSpectrum({n: math.ldexp(c, k) for n, c in f.items()})
    assert lp_even_spectral(scaled, p).value == math.ldexp(lp_even_spectral(f, p).value, k)


def test_rademacher_cumulants_and_binomials():
    outer, recursion, cumulants = _split_table(5)
    assert cumulants == (1, -2, 16, -272, 7936)
    assert outer == (1, 45, 210, 210, 45, 1)
    assert recursion[:3] == ((1,), (3, 1), (5, 10, 1))
    # the tail moments of one sign are all 1
    assert head_tail_moment(WalshSpectrum({1 << 200: 1.0}), 5) == 1.0


def test_split_at_p10_and_p12_matches_dense():
    rng = np.random.default_rng(3)
    freqs = rng.choice(1 << 10, 9, replace=False)
    f = WalshSpectrum({int(n): float(rng.normal()) for n in freqs})
    assert lp_even_spectral(f, 10).value == pytest.approx(
        lp_dense(f, 10).value, rel=1e-12
    )
    # above EVEN_SPLIT_MAX_P the split refuses and lp_norm goes dense
    with pytest.raises(BudgetError):
        lp_even_spectral(f, 12)
    assert lp_norm(f, 12, 2, lambda: 0) == lp_dense(f, 12)


def test_wide_head_is_left_to_the_convolution():
    f = WalshSpectrum({0b11 << 12: 1.0, 0b111111111111: 0.5})  # 14 head bits
    dense = lp_dense(f, 6).value
    assert lp_even_spectral(f, 6).value == pytest.approx(dense, rel=1e-12)


@st.composite
def dominated_tails(draw):
    """A Rademacher tail on bits 0..15 with one to three terms of size
    about 1 (up to 1e3) over smaller ones spread across six decades,
    plus an optional small head: the cancellation extreme of the
    cumulant recursion."""
    bits = draw(st.lists(st.integers(0, 15), min_size=2, max_size=10, unique=True))
    dominant = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 1e3]))
    terms = {}
    for i, b in enumerate(bits):
        if i < dominant:
            size = scale * draw(st.floats(1.0, 1.001))
        else:
            size = scale * 10.0 ** draw(st.floats(-6.0, -0.5))
        terms[1 << b] = draw(st.sampled_from([1.0, -1.0])) * size
    free = [b for b in range(16) if b not in bits]
    if len(free) >= 2 and draw(st.booleans()):
        terms[(1 << free[0]) | (1 << free[1])] = draw(coefficient) * 1e-2
    return WalshSpectrum(terms)


@settings(max_examples=80, deadline=None)
@given(dominated_tails(), st.sampled_from([4, 6, 8, 10]))
def test_split_on_dominated_tails_equals_dense(f, p):
    assert lp_even_spectral(f, p).value == pytest.approx(
        lp_dense(f, p).value, rel=1e-12
    )


def test_high_even_p_leaves_the_split():
    rng = np.random.default_rng(14)
    a = rng.normal(size=14).tolist()
    f = WalshSpectrum({rademacher_index(j + 1): x for j, x in enumerate(a)})
    for p in (12, 40, 200):
        with pytest.raises(BudgetError):
            lp_even_spectral(f, p)
    assert lp_norm(f, 40, 2, lambda: 0) == lp_dense(f, 40)
