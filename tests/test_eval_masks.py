"""The byte-table sample evaluator, its memory estimate and mask stream,
and synthesis without a permutation of the cells.

``reference_eval_masks`` is the per-term parity loop that evaluated
every sample before the byte tables: one pass over all samples per limb
of every term; ``reference_synthesize`` is synthesis as it was before
the terms were placed at bit-reversed indices, and
``reference_butterfly`` the butterfly that Rademacher sums skip now.
The properties run over frequencies with 0 to 4 nonzero bytes out to
bit 300, with and without a constant term, at depths that include 0
and multiples of 8 and 64.  Monte Carlo draws the packed spectrum
(``_packed``: each frequency's bits at the positions its spectrum
uses), so a spectrum whose bits fill 0..depth-1 is drawn as it is and
a sparse deep one on fewer limbs.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshlab.norms
from walshlab.blocks import load_plan
from walshlab.norms import (
    _eval_masks,
    _mc_peak_bytes,
    _packed,
    lp_dense,
    lp_monte_carlo,
)
from walshlab.spectra import (
    DyadicPoint,
    WalshSpectrum,
    _bit_reverse,
    _freq_arrays,
    _fwht_inplace,
    rademacher_index,
    synthesize,
)

MAX_BIT = 300


def reference_eval_masks(f, masks):
    n_samples, limbs = masks.shape
    values = np.zeros(n_samples)
    packed, coeffs = _freq_arrays(f, limbs)
    for row, c in zip(packed, coeffs):
        parity = np.zeros(n_samples, dtype=np.uint64)
        for limb in range(limbs):
            parity ^= np.bitwise_count(masks[:, limb] & row[limb])
        signs = 1.0 - 2.0 * (parity & np.uint64(1)).astype(float)
        values += c * signs
    return values


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
    f, depth = case
    masks = random_masks(depth, 300, seed)
    got = _eval_masks(f, masks)
    want = reference_eval_masks(f, masks)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(_l1(f), 1.0)


@settings(max_examples=80, deadline=None)
@given(spectra_at_depth(st.integers(0, 12)))
def test_byte_tables_match_synthesis_on_every_cell(case):
    f, depth = case
    bits = [DyadicPoint(depth, cell).bits() for cell in range(1 << depth)]
    masks = np.array(bits, dtype=np.uint64).reshape(-1, 1)
    got = _eval_masks(f, masks)
    want = synthesize(f, depth)
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

    def recording_eval(g, masks):
        seen.append(masks.copy())
        return _eval_masks(g, masks)

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
    # bits filling 0..depth-1 are drawn unpacked, at the spectrum's own
    # depth
    f = WalshSpectrum({0: 1.0, (1 << depth) - 1: 0.5, 1 << (depth // 2): 0.25})
    seed = 2 ** 63 + 11
    got = _drawn_masks(monkeypatch, f, 257, seed)
    assert np.array_equal(got, _philox_stream(seed, 257, depth))


def test_monte_carlo_on_a_deep_spectrum_repeats_recorded_values():
    # recorded when the draw moved to the packed bits: the desk sum reads
    # 27 of its 273 bits, and its estimate moved from 2.5879 [2.5317,
    # 2.6416] on the full-depth draw to 2.6517 [2.5950, 2.7061].  A
    # 200,000-sample estimate at the same seed reads 2.5946 [2.5868,
    # 2.6023]: the old interval holds it and the new one misses it by
    # 4e-4, as a 95% interval does about one time in twenty
    f = load_plan("desk").sum_spectrum([2, 7, 40, 150, 276])
    assert (f.depth(), len(f)) == (273, 29)
    est = lp_monte_carlo(f, 3.0, 4000, 20261018)
    assert (est.value, est.ci_low, est.ci_high) == (
        2.651705553009554, 2.5950352658638733, 2.706051921312903
    )
    g = WalshSpectrum({0: 0.5, 1 << 70: -1.25, (1 << 130) | 5: 0.75, 3 << 200: 2.0})
    est = lp_monte_carlo(g, 2.5, 1000, 7)
    assert (est.value, est.ci_low, est.ci_high) == (
        2.6225487820249724, 2.5411504996417724, 2.700323682326811
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
    packed = _packed(f)
    assert packed.depth() == used.bit_count()
    assert _packed(packed) is packed  # the packed bits fill 0..w-1
    if not used & (used + 1):
        assert packed is f
    want = lp_dense(f, p).value
    assert abs(lp_dense(packed, p).value - want) <= 1e-12 * want


def test_monte_carlo_covers_a_deep_closed_form_sum():
    # r_70 + r_130 + r_260 is +-3 with probability 1/4 and +-1 otherwise,
    # so E|f|^3 = 27/4 + 3/4 = 7.5; it packs to three bits
    f = WalshSpectrum({rademacher_index(j): 1.0 for j in (70, 130, 260)})
    truth = 7.5 ** (1.0 / 3.0)
    hits = 0
    for seed in range(100):
        est = lp_monte_carlo(f, 3.0, 4000, seed)
        hits += est.ci_low <= truth <= est.ci_high
    assert hits >= 90


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
    limbs = max(1, (f.depth() + 63) // 64)
    if route == "sparse":
        limbs = 1  # at most three bits, drawn packed
    tracemalloc.start()
    try:
        lp_monte_carlo(f, 3.0, samples, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= _mc_peak_bytes(samples, limbs)
