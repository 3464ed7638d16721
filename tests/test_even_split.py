"""The head/tail moment split against the routes it replaced.

For p = 2m >= 4, ``lp_even_spectral`` splits f into a head and an
independent Rademacher tail.  The head takes its moments from its 2^r
cells, r the rank of its frequencies over GF(2): a frequency's cell is
its bits at the pivots of a reduced echelon basis, which is the plain
remap of the head bits when the head spans all of them.
``reference_even_moment`` is the route that wide heads took before the
split covered them: the powers f^m of the whole spectrum, formed by XOR
convolution of packed keys under a pair budget.  The properties compare
the split with it at any depth, with ``lp_dense`` where the depth is
<= 16, and with the sharp even-moment Khintchine constants
B_2m = ((2m - 1)!!)^(1/2m).
"""

import bisect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_spectra import freq_arrays

import walshlab.spectra
from walshlab.blocks import BlockPlan, load_plan
from walshlab.errors import BudgetError
from walshlab.experiments import _block_split
from walshlab.norms import (
    _cumulants,
    even_moments,
    even_split,
    lp_dense,
    lp_even_spectral,
    lp_norm,
)
from walshlab.spectra import (
    WalshSpectrum,
    phi_index,
    rademacher_index,
)


def head_tail_moment(f, m):
    """integral f^(2m) by the independent-tail identity, unscaled: one row."""
    row = np.array([[c for _, c in f.items()]], dtype=float)
    return float(even_moments(even_split(list(f)), row, [m])[0, 0])


def reference_even_moment(f, half, max_pairs=1 << 24):
    """sum over n of (f^half)[n]^2 with all keys kept packed."""
    limbs = max(1, (f.depth() + 63) // 64)
    packed, coeffs = freq_arrays(f, limbs)
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
    # the byte estimate of 60,000 one-limb pairs when products packed their keys
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", 16_800_000)
    est = lp_even_spectral(f, 8)
    assert est.value == pytest.approx(lp_dense(f, 8).value, rel=1e-12)


@st.composite
def low_rank_heads(draw):
    """A head of rank <= 9 on up to 300 bits plus a Rademacher tail.

    Head frequencies are XORs of at most six random vectors of 16 or
    300 bits, joined by up to three single bits inside the head bits;
    the tail sits on other bits, and a third of the tails carry one
    dominant term.
    """
    width = draw(st.sampled_from([16, 300]))
    gens = draw(st.lists(st.integers(1, (1 << width) - 1), min_size=1, max_size=6))
    masks = draw(st.sets(st.integers(1, (1 << len(gens)) - 1), min_size=1, max_size=8))
    terms = {}
    for mask in masks:
        n = 0
        for i, g in enumerate(gens):
            if mask >> i & 1:
                n ^= g
        terms[n] = draw(coefficient)
    head_bits = 0
    for n in terms:
        if n.bit_count() != 1:
            head_bits |= n
    inside = [b for b in range(width) if head_bits >> b & 1]
    if inside:
        for b in draw(st.lists(st.sampled_from(inside), max_size=3, unique=True)):
            terms[1 << b] = draw(coefficient)
    free = [b for b in range(width) if not head_bits >> b & 1]
    tail_bits = []
    if free:
        tail_bits = draw(st.lists(st.sampled_from(free), max_size=6, unique=True))
    for b in tail_bits:
        terms[1 << b] = draw(coefficient)
    if tail_bits and draw(st.integers(0, 2)) == 0:
        terms[1 << tail_bits[0]] = draw(st.sampled_from([1e3, -1e3]))
    return WalshSpectrum(terms)


@settings(max_examples=60, deadline=None)
@given(low_rank_heads(), st.sampled_from([4, 6, 8, 10]))
def test_low_rank_wide_heads_equal_convolution_and_dense(f, p):
    # at p = 10 a dominant tail term costs the cumulant recursion about
    # 1e-12 of the moment (1000 r_1 + r_2 + r_3: 1.2e-12), so there the
    # norms are compared, at the 1e-12 that EVEN_SPLIT_MAX_P stands for
    root = 1 / p if p == 10 else 1
    split = head_tail_moment(f, p // 2) ** root
    assert split == pytest.approx(reference_even_moment(f, p // 2) ** root, rel=1e-12)
    if f.depth() <= 16:
        assert split == pytest.approx(lp_dense(f, p).value ** (p * root), rel=1e-12)


def bit_remap(freqs):
    """The head's cells as the split took them when 2^v <= 4096: each head
    frequency's bits at the v head bits, and v."""
    head_bits = 0
    for n in freqs:
        if n.bit_count() != 1:
            head_bits |= n
    shifts = [s for s in range(head_bits.bit_length()) if head_bits >> s & 1]
    head = [n for n in freqs if not n & ~head_bits]
    return [sum((n >> s & 1) << i for i, s in enumerate(shifts)) for n in head], len(shifts)


def test_heads_that_span_their_bits_keep_the_bit_remap():
    # plan-span rows keep their bytes: the same cells in the same order
    plan = load_plan("desk")
    spanning = 0
    for size in range(1, 4):
        for blocks in itertools.combinations(range(1, 4), size):
            freqs = [n for k in blocks for n in plan.symbol_frequencies(k, range(plan.N[k - 1]))]
            split = _block_split(plan, blocks)
            remap, v = bit_remap(freqs)
            if split.r == v:
                spanning += 1
                assert list(split.slots) == remap
    assert spanning >= 4
    for freqs in ([], [0], [rademacher_index(j) for j in (1, 5, 300)],
                  [0] + [rademacher_index(j + 1) for j in range(16)]):
        split = even_split(freqs)
        assert (list(split.slots), split.r) == bit_remap(freqs)


@pytest.mark.parametrize("g", [(2, 4, 14), (1, 3, 6, 9), tuple(range(1, 8))])
def test_block_split_equals_the_split_of_every_column(monkeypatch, g):
    # Rademachers at or above the widest phi's bits stand in as one tail
    # frequency, and none of them is built; in (1, ..., 7), blocks after
    # the first hold head Rademachers too
    plan = BlockPlan(g)
    built, symbol_frequencies = [], BlockPlan.symbol_frequencies

    def recording(self, k, cols):
        freqs = symbol_frequencies(self, k, cols)
        built.extend(freqs)
        return freqs

    for size in range(1, len(g) + 1):
        for blocks in itertools.combinations(range(1, len(g) + 1), size):
            full = even_split([n for k in blocks
                               for n in plan.symbol_frequencies(k, range(plan.N[k - 1]))])
            with monkeypatch.context() as mp:
                mp.setattr(BlockPlan, "symbol_frequencies", recording)
                split = _block_split.__wrapped__(plan, blocks)
            assert np.array_equal(split.in_tail, full.in_tail)
            assert np.array_equal(split.slots, full.slots) and split.r == full.r
            assert max(built) < 1 << phi_index(max(blocks)).bit_length()
            built.clear()


def per_bit_split(freqs):
    """(in_tail, slots, r) read a pivot bit at a time: the pivots of an
    echelon basis of the head (a span's set of leading bits is unique),
    then each head frequency's bits at them, lowest pivot to cell bit 0."""
    head_bits = 0
    for n in freqs:
        if n.bit_count() != 1:
            head_bits |= n
    head = [n for n in freqs if not n & ~head_bits]
    basis = {}
    for n in head:
        while n and n.bit_length() - 1 in basis:
            n ^= basis[n.bit_length() - 1]
        if n:
            basis[n.bit_length() - 1] = n
    pivots = sorted(basis)
    slots = [sum((n >> b & 1) << i for i, b in enumerate(pivots)) for n in head]
    return [bool(n & ~head_bits) for n in freqs], slots, len(pivots)


@st.composite
def frequency_lists(draw):
    """Distinct frequencies: the spectra strategies above, random ones up
    to 300 bits, a shuffled 0..2^d - 1, or the symbols of desk blocks."""
    kind = draw(st.sampled_from(["spectra", "wide", "shuffled", "desk"]))
    if kind == "spectra":
        f = draw(st.one_of(head_tail_spectra(), wide_head_spectra(), low_rank_heads()))
        return list(f)
    if kind == "wide":
        bits = draw(st.sampled_from([8, 64, 300]))
        return draw(st.lists(st.integers(0, (1 << bits) - 1), unique=True, max_size=40))
    if kind == "shuffled":
        return draw(st.permutations(range(1 << draw(st.integers(0, 9)))))
    plan = load_plan("desk")
    blocks = draw(st.lists(st.integers(1, len(plan.g)), min_size=1, unique=True))
    return [n for k in blocks for n in plan.symbol_frequencies(k, range(plan.N[k - 1]))]


@settings(max_examples=100, deadline=None)
@given(frequency_lists())
def test_slots_by_pivot_runs_equal_the_per_bit_reading(freqs):
    split = even_split(freqs)
    assert (split.in_tail.tolist(), list(split.slots), split.r) == per_bit_split(freqs)


def classified(freqs):
    """Each frequency's (in_tail, cell or None) under ``even_split``, and r."""
    split = even_split(freqs)
    cells = iter(split.slots)
    return {n: (tail, None if tail else next(cells))
            for n, tail in zip(freqs, split.in_tail.tolist())}, split.r


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_split_does_not_depend_on_the_list_order(data):
    # the pivots are the span's, whichever frequencies fill the basis
    freqs = data.draw(frequency_lists())
    assert classified(data.draw(st.permutations(freqs))) == classified(freqs)


def sorted_basis_split(freqs):
    """``even_split`` by its earlier elimination, kept as the reference:
    an ascending echelon basis, each head frequency XORed with every
    vector whose top bit it holds, the rest inserted in order."""
    head_bits = 0
    for n in freqs:
        if n.bit_count() != 1:
            head_bits |= n
    head = [n for n in freqs if not n & ~head_bits]
    basis, v = [], head_bits.bit_count()
    for n in [n for n in head if n.bit_count() == 1] + [n for n in head if n.bit_count() > 1]:
        if len(basis) == v:
            break
        for b in reversed(basis):
            n = min(n, n ^ b)
        if n:
            bisect.insort(basis, n)
    runs = {}
    for rank, b in enumerate(basis):
        shift = b.bit_length() - 1 - rank
        runs[shift] = runs.get(shift, 0) | 1 << rank
    slots = [0] * len(head)
    for shift, mask in runs.items():
        slots = [slot | (n >> shift) & mask for slot, n in zip(slots, head)]
    return [bool(n & ~head_bits) for n in freqs], slots, len(basis)


@st.composite
def wide_heads_and_tails(draw):
    """Up to 400 generators of 16 to 1,000 bits, dense or of a few bits
    each, with XORs of pairs of them, single bits inside and outside
    their bits and the constant, shuffled: heads of rank up to about 460."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.sampled_from([16, 64, 300, 1000]))
    sparse = draw(st.booleans())
    gens = [sum(1 << b for b in rng.sample(range(width), 4)[:rng.randint(2, 4)]) if sparse
            else rng.getrandbits(width) for _ in range(draw(st.integers(1, 400)))]
    singles = [1 << b for b in rng.sample(range(width), min(width, rng.randint(0, 60)))]
    pairs = [rng.choice(gens) ^ rng.choice(gens) for _ in range(rng.randint(0, 100))]
    freqs = list(dict.fromkeys(gens + pairs + singles + [0] * rng.randint(0, 1)))
    rng.shuffle(freqs)
    return freqs


# rank 440: 400 random generators on bits 0..899 and 40 single bits among
# them, with a tail of 34 single bits above
_RNG = random.Random(0)
_RANK_440 = ([_RNG.getrandbits(900) for _ in range(400)] + [1 << b for b in range(0, 900, 23)]
             + [1 << b for b in range(900, 1000, 3)])


@settings(max_examples=30, deadline=None)
@given(wide_heads_and_tails())
@example(_RANK_440)
def test_pivot_keyed_split_equals_the_sorted_basis_split(freqs):
    split = even_split(freqs)
    assert (split.in_tail.tolist(), list(split.slots), split.r) == sorted_basis_split(freqs)


def test_the_full_depth_16_list_splits_alike_with_its_single_bits_first():
    # the basis fills at 2^15 in list order and after 16 terms with the
    # powers of two first; either way each frequency is its own cell
    freqs = list(range(1 << 16))
    first = [1 << j for j in range(16)] + [n for n in freqs if n.bit_count() != 1]
    want = ({n: (False, n) for n in freqs}, 16)
    assert classified(freqs) == want and classified(first) == want


def test_dense_13_bit_head_takes_its_cells():
    # 8,192 head cells (196 KB) under the default budget; the head's
    # powers would need 2^26 pairs
    rng = np.random.default_rng(13)
    f = WalshSpectrum(dict(enumerate(rng.normal(size=1 << 13).tolist())))
    assert lp_even_spectral(f, 4).value == pytest.approx(lp_dense(f, 4).value, rel=1e-12)


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
    assert _cumulants(5) == (1, -2, 16, -272, 7936)
    # the tail moments of one sign are all 1; (r_1 + r_2)^10 and
    # (1 + r_1)^10 are 2^10 on half the cells, so both moments are 512:
    # the recursion's and the outer sum's binomials, exactly
    assert head_tail_moment(WalshSpectrum({1 << 200: 1.0}), 5) == 1.0
    assert head_tail_moment(WalshSpectrum({1: 1.0, 2: 1.0}), 5) == 512.0
    assert head_tail_moment(WalshSpectrum({0: 1.0, 1: 1.0}), 5) == 512.0


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
