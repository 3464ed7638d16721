"""The byte-table sample evaluator, its memory estimate and mask stream,
and synthesis without a permutation of the cells.

``reference_eval_masks`` is the per-term parity loop that evaluated
every sample before the byte tables: one pass over all samples per limb
of every term; ``reference_synthesize`` is synthesis as it was before
the terms were placed at bit-reversed indices, and
``reference_butterfly`` the butterfly that Rademacher sums skip now.
The properties run over frequencies with 0 to 4 nonzero bytes out to
bit 300, with and without a constant term, at depths that include 0
and multiples of 8 and 64.  Monte Carlo evaluates f laid out on its
even split, head cells on bits 0..r-1 and tail terms above them, from
the split and f's coefficient row; ``_packed`` builds that layout as a
spectrum, the reference the evaluator is checked against.  So a deep
spectrum is drawn on r + t bits, never more than it uses, and a head of
any rank samples.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_spectra import freq_arrays

import walshlab.norms
from walshlab.blocks import load_plan
from walshlab.errors import BudgetError
from walshlab.norms import (
    _eval_masks,
    _mc_peak_bytes,
    even_split,
    lp_dense,
    lp_even_spectral,
    lp_monte_carlo,
)
from walshlab.spectra import (
    DyadicPoint,
    WalshSpectrum,
    _bit_reverse,
    _fwht_inplace,
    rademacher_index,
    synthesize,
)

MAX_BIT = 300


def reference_eval_masks(f, masks):
    n_samples, limbs = masks.shape
    values = np.zeros(n_samples)
    packed, coeffs = freq_arrays(f, limbs)
    for row, c in zip(packed, coeffs):
        parity = np.zeros(n_samples, dtype=np.uint64)
        for limb in range(limbs):
            parity ^= np.bitwise_count(masks[:, limb] & row[limb])
        signs = 1.0 - 2.0 * (parity & np.uint64(1)).astype(float)
        values += c * signs
    return values


def _packed(f, split):
    """The reference layout: f on its split's bits, head term h at its
    cell ``slots[h]`` (bits 0..r-1), the j-th tail term at bit r + j."""
    in_tail, slots, r = split
    cells, bits = iter(slots), (1 << j for j in range(r, len(f)))  # each distinct
    return WalshSpectrum({next(bits) if tail else next(cells): c
                          for tail, (_, c) in zip(in_tail.tolist(), f.items())})


def _laid_out(f):
    """(split, coefficient row, reference layout, width r + t) of f."""
    split = even_split(list(f))
    row = np.array([c for _, c in f.items()], dtype=float)
    return split, row, _packed(f, split), split.r + int(split.in_tail.sum())


def reference_synthesize(f, depth):
    """Synthesis as it was before the terms were placed bit-reversed:
    the butterfly on the coefficient vector, then the cells permuted."""
    values = np.zeros(1 << depth)
    for n, c in f.items():
        values[n] = c
    _fwht_inplace(values)
    return values[_bit_reverse(np.arange(1 << depth, dtype=np.int64), depth)]


def reference_butterfly(f, depth):
    """Synthesis through the butterfly: terms at bit-reversed indices."""
    values = np.zeros(1 << depth)
    freqs = np.array(list(f), dtype=np.int64)
    values[_bit_reverse(freqs, depth)] = [c for _, c in f.items()]
    _fwht_inplace(values)
    return values


depths = st.one_of(
    st.just(0),
    st.integers(1, MAX_BIT // 8).map(lambda k: 8 * k),
    st.integers(1, MAX_BIT // 64).map(lambda k: 64 * k),
    st.integers(1, MAX_BIT),
)
magnitudes = st.floats(1e-6, 1e3)
coefficients = st.one_of(magnitudes, magnitudes.map(lambda c: -c))


@st.composite
def frequency(draw, depth):
    """A frequency below 2**depth with 0 to 4 nonzero bytes."""
    if depth == 0:
        return 0
    n = 0
    positions = draw(st.lists(st.integers(0, (depth - 1) // 8), max_size=4, unique=True))
    for pos in positions:
        n |= draw(st.integers(1, 255)) << (8 * pos)
    return n & ((1 << depth) - 1)


@st.composite
def spectra_at_depth(draw, depth_strategy=depths):
    depth = draw(depth_strategy)
    terms = draw(st.dictionaries(frequency(depth), coefficients, max_size=24))
    if draw(st.booleans()):
        terms[0] = draw(coefficients)
    return WalshSpectrum(terms), depth


def random_masks(depth, n_samples, seed):
    limbs = max(1, (depth + 63) // 64)
    rng = np.random.default_rng(seed)
    masks = rng.integers(0, 2 ** 64, size=(n_samples, limbs), dtype=np.uint64)
    spare = limbs * 64 - depth
    if spare >= 64:
        masks[:, -1] = 0
    elif spare:
        masks[:, -1] >>= np.uint64(spare)
    return masks


def _l1(f):
    return sum(abs(c) for _, c in f.items())


@settings(max_examples=150, deadline=None)
@given(spectra_at_depth(), st.integers(0, 2 ** 32))
def test_byte_tables_match_parity_loop(case, seed):
    f, _ = case
    split, row, packed, width = _laid_out(f)
    masks = random_masks(width, 300, seed)
    got = _eval_masks(split, row, masks)
    want = reference_eval_masks(packed, masks)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(_l1(f), 1.0)


@settings(max_examples=80, deadline=None)
@given(spectra_at_depth(st.integers(0, 12)))
def test_byte_tables_match_synthesis_on_every_cell(case):
    f, _ = case
    split, row, packed, width = _laid_out(f)
    bits = [DyadicPoint(width, cell).bits() for cell in range(1 << width)]
    masks = np.array(bits, dtype=np.uint64).reshape(-1, 1)
    got = _eval_masks(split, row, masks)
    want = synthesize(packed, width)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(_l1(f), 1.0)


@settings(max_examples=80, deadline=None)
@given(spectra_at_depth(st.integers(0, 12)), st.floats(1.0, 8.0))
def test_dense_norm_is_mean_over_synthesized_cells(case, p):
    f, _ = case
    moment = float(np.mean(np.abs(synthesize(f, f.depth())) ** p))
    got = lp_dense(f, p).value
    assert abs(got - moment ** (1.0 / p)) <= 1e-14 * max(moment ** (1.0 / p), 1e-300)


@settings(max_examples=80, deadline=None)
@given(spectra_at_depth(st.integers(0, 16)))
def test_synthesis_matches_the_permuted_butterfly(case):
    f, depth = case
    got = synthesize(f, depth)
    assert np.max(np.abs(got - reference_synthesize(f, depth))) <= 1e-12 * max(_l1(f), 1.0)


@st.composite
def rademacher_sums(draw):
    """A constant plus 0 to 16 Rademacher terms r_j, j in 1..16 (fewer
    than 16 leave gaps), at a depth 0 to 2 above the spectrum's own."""
    js = draw(st.lists(st.integers(1, 16), max_size=16, unique=True))
    terms = {1 << (j - 1): draw(coefficients) for j in js}
    if draw(st.booleans()):
        terms[0] = draw(coefficients)
    f = WalshSpectrum(terms)
    return f, draw(st.integers(f.depth(), f.depth() + 2))


@settings(max_examples=120, deadline=None)
@given(rademacher_sums())
@example((WalshSpectrum(), 0))
@example((WalshSpectrum({0: -2.5}), 0))
@example((WalshSpectrum({0: 1.0, 1: 0.5, 1 << 15: -0.25}), 18))
def test_rademacher_sums_double_to_the_butterfly_values(case):
    f, depth = case
    assert np.array_equal(synthesize(f, depth), reference_butterfly(f, depth))


def _drawn_masks(monkeypatch, f, samples, seed):
    """The masks ``lp_monte_carlo`` hands to ``_eval_masks``."""
    seen = []

    def recording_eval(split, coeffs, masks):
        seen.append(masks.copy())
        return _eval_masks(split, coeffs, masks)

    monkeypatch.setattr(walshlab.norms, "_eval_masks", recording_eval)
    lp_monte_carlo(f, 3.0, samples, seed)
    return seen[0]


def _philox_stream(seed, samples, width):
    """The Philox integer stream as masks of ``width`` bits."""
    limbs = max(1, (width + 63) // 64)
    want = np.random.Generator(np.random.Philox(key=seed)).integers(
        0, 2 ** 64, size=(samples, limbs), dtype=np.uint64
    )
    spare = limbs * 64 - width  # at width 0 the only cell is t = 0
    want[:, -1] = 0 if spare == 64 else want[:, -1] >> np.uint64(spare)
    return want


@pytest.mark.parametrize("depth", [0, 1, 63, 64, 65, 273])
def test_monte_carlo_masks_are_the_philox_integer_stream(monkeypatch, depth):
    # one bit at any depth packs to a spectrum of width 1
    f = WalshSpectrum({0: 1.0, **({1 << (depth - 1): 0.5} if depth else {})})
    seed = 2 ** 63 + 11
    got = _drawn_masks(monkeypatch, f, 257, seed)
    assert np.array_equal(got, _philox_stream(seed, 257, min(depth, 1)))


@pytest.mark.parametrize("depth", [1, 63, 64, 65, 273])
def test_monte_carlo_masks_of_bits_filling_the_depth_are_unpacked(monkeypatch, depth):
    # bits filling 0..depth-1 are drawn at the split's width r + t, not
    # at the spectrum's depth: from depth 2 on, the three terms are a
    # head of rank 2 and no tail; at depth 1 one tail bit
    f = WalshSpectrum({0: 1.0, (1 << depth) - 1: 0.5, 1 << (depth // 2): 0.25})
    split = even_split(list(f))
    width = split.r + int(split.in_tail.sum())
    assert width == (1 if depth == 1 else 2)
    seed = 2 ** 63 + 11
    got = _drawn_masks(monkeypatch, f, 257, seed)
    assert np.array_equal(got, _philox_stream(seed, 257, width))


def test_monte_carlo_on_a_deep_spectrum_repeats_recorded_values():
    # recorded when the draw moved to the split's bits: the desk sum's
    # head (rank 3) and 24 tail bits lay out as the ascending remap of
    # its 27 used bits did, so the estimate 2.6517 [2.5950, 2.7061] kept
    # all but the last digit of its upper end.  A 200,000-sample
    # estimate at the same seed reads 2.5946 [2.5868, 2.6023]: the
    # interval misses it by 4e-4, as a 95% interval does about one time
    # in twenty.  g reads 3 bits (head rank 2, one tail bit) for 6 used
    f = load_plan("desk").sum_spectrum([2, 7, 40, 150, 276])
    assert (f.depth(), len(f)) == (273, 29)
    est = lp_monte_carlo(f, 3.0, 4000, 20261018)
    assert (est.value, est.ci_low, est.ci_high) == (
        2.651705553009554, 2.5950352658638733, 2.7060519213129033
    )
    g = WalshSpectrum({0: 0.5, 1 << 70: -1.25, (1 << 130) | 5: 0.75, 3 << 200: 2.0})
    split = even_split(list(g))
    assert split.r + int(split.in_tail.sum()) == 3
    est = lp_monte_carlo(g, 2.5, 1000, 7)
    assert (est.value, est.ci_low, est.ci_high) == (
        2.6519773556164625, 2.5715220443385145, 2.728928612122414
    )


def test_monte_carlo_on_wide_cells_and_two_limbs_repeats_recorded_values():
    # recorded when Monte Carlo still drew a packed spectrum: h's head
    # has rank 10, and two of its cells (513 and 324) span bytes 0 and 1,
    # so they take the parity loop; g's 70 tail bits above a rank-2 head
    # draw 72 bits, two limbs a sample
    h = WalshSpectrum({
        0: 0.5,
        **{3 << 2 * i: (-1) ** i / (i + 1) for i in range(10)},
        3 | 3 << 18: 0.75,
        3 << 4 | 3 << 12 | 3 << 16: -0.625,
        1 << 40: 1.5,
        1 << 41: -0.25,
    })
    split = even_split(list(h))
    assert (split.r, int(split.in_tail.sum())) == (10, 2)
    assert split.slots[-2:] == (513, 324)
    est = lp_monte_carlo(h, 3.0, 3000, 20261021)
    assert (est.value, est.ci_low, est.ci_high) == (
        2.535318751080086, 2.483235008934801, 2.5853462043176596
    )
    g = WalshSpectrum({6: 0.8, 10: -0.6, **{1 << 5 * j: 1.0 / (j + 2) for j in range(70)}})
    split = even_split(list(g))
    assert (split.r, int(split.in_tail.sum())) == (2, 70)
    est = lp_monte_carlo(g, 1.5, 3000, 2 ** 40 + 3)
    assert (est.value, est.ci_low, est.ci_high) == (
        1.1724049688757865, 1.144612947365937, 1.1998713862597286
    )


@settings(max_examples=80, deadline=None)
@given(spectra_at_depth(st.integers(0, 16)), st.floats(1.0, 8.0))
@example((WalshSpectrum({0: 1.0, 5: 0.5, 2: -0.25}), 3), 3.0)
@example((WalshSpectrum({1 << 15: 2.0, (1 << 9) | 3: -1.0}), 16), 1.5)
def test_packing_keeps_the_norm_on_the_used_bits(case, p):
    f, _ = case
    used = 0
    for n in f:
        used |= n
    split, row, packed, width = _laid_out(f)
    assert packed.depth() == width <= used.bit_count()
    every_mask = np.arange(1 << width, dtype=np.uint64).reshape(-1, 1)
    got = float(np.mean(np.abs(_eval_masks(split, row, every_mask)) ** p)) ** (1.0 / p)
    want = lp_dense(f, p).value
    assert abs(got - want) <= 1e-12 * want


def test_monte_carlo_covers_a_deep_closed_form_sum():
    # r_70 + r_130 + r_260 is +-3 with probability 1/4 and +-1 otherwise,
    # so E|f| = 3/4 + 3/4 = 1.5 and E|f|^3 = 27/4 + 3/4 = 7.5; it packs
    # to three bits
    f = WalshSpectrum({rademacher_index(j): 1.0 for j in (70, 130, 260)})
    for p, moment in [(1.0, 1.5), (3.0, 7.5)]:
        truth = moment ** (1.0 / p)
        hits = 0
        for seed in range(100):
            est = lp_monte_carlo(f, p, 4000, seed)
            hits += est.ci_low <= truth <= est.ci_high
        assert hits >= 90, p


def test_monte_carlo_samples_a_head_of_rank_70():
    # W_(3 << 2i) = r_(2i+1) r_(2i+2): 70 independent signs, so the L4
    # norm is (3 S_2^2 - 2 S_4)^(1/4); the head's 2^70 cells are refused
    # by even_moments before anything of their size is allocated
    c = np.random.default_rng(70).normal(size=70)
    f = WalshSpectrum({3 << 2 * i: float(x) for i, x in enumerate(c)})
    assert even_split(list(f)).r == 70
    s2, s4 = float(np.sum(c ** 2)), float(np.sum(c ** 4))
    truth = (3 * s2 * s2 - 2 * s4) ** 0.25
    est = lp_monte_carlo(f, 4.0, 20_000, 0)
    assert est.ci_low <= truth <= est.ci_high
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError, match="2\\^70 head cells"):
            lp_even_spectral(f, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@settings(max_examples=30, deadline=None)
@given(spectra_at_depth(), st.integers(0, 2 ** 63), st.floats(1.5, 6.0))
def test_monte_carlo_is_bit_identical_across_calls(case, seed, p):
    f, _ = case
    first = lp_monte_carlo(f, p, 500, seed)
    second = lp_monte_carlo(f, p, 500, seed)
    assert first.as_dict() == second.as_dict()


@pytest.mark.parametrize("depth", [1, 64, 300])
@pytest.mark.parametrize("route", ["single", "multi", "both", "sparse"])
def test_monte_carlo_peak_stays_within_its_budget_estimate(depth, route):
    terms = {}
    if route in ("single", "both"):
        terms.update({1 << j: 1.0 / (j + 1) for j in range(depth)})
    if route in ("multi", "both") and depth > 8:
        terms.update({(1 << (depth - 1)) | 1: 0.5, (1 << 9) | 3: 0.25})
    if route == "sparse":
        terms.update({1: 1.0, 1 << (depth // 2): 0.5, 1 << (depth - 1): 0.25})
    f = WalshSpectrum(terms or {1: 1.0})
    samples = 20_000
    tracemalloc.start()
    try:
        lp_monte_carlo(f, 3.0, samples, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _mc_peak_bytes(samples, even_split(list(f)))


@pytest.mark.parametrize("t", [4096, 16384])
def test_monte_carlo_estimate_covers_a_wide_tail(t):
    # t tail bits fill t / 8 byte tables of 2 KiB, and their butterfly as
    # much again, beyond the 0.1-0.4 MB the 200 samples take: measured
    # peak over estimate 0.84 at 4,096 terms and 0.87 at 16,384
    f = WalshSpectrum({1 << 3 * j: 1.0 / (j + 1) for j in range(t)})
    lp_monte_carlo(WalshSpectrum({1: 1.0, 1 << 70: 0.5}), 3.0, 10, 0)  # first-call imports
    tracemalloc.start()
    try:
        lp_monte_carlo(f, 3.0, 200, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = _mc_peak_bytes(200, even_split(list(f)))
    assert 0.8 * estimate <= peak <= estimate
