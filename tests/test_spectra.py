import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshlab.spectra
from walshlab.errors import BudgetError, DepthError
from walshlab.spectra import (
    DyadicPoint,
    WalshSpectrum,
    _product_peak_bytes,
    analyze_dense,
    inner_product,
    load_spectrum,
    phi_index,
    rademacher_index,
    save_spectrum,
    spectrum_add,
    spectrum_from_json,
    spectrum_product,
    spectrum_scale,
    spectrum_to_json,
    synthesize,
    walsh_eval,
)


def test_walsh_eval_basics():
    # empty product
    assert walsh_eval(0, DyadicPoint(0, 0)) == 1
    assert walsh_eval(0, DyadicPoint(5, 17)) == 1
    # r_1 = r_2 = +1 on [0, 1/4)
    assert walsh_eval(3, DyadicPoint(2, 0)) == 1
    # W_1 = r_1 = sign(sin(2 pi t)) is negative at t = 0.875
    assert walsh_eval(1, DyadicPoint(2, 3)) == -1


def test_walsh_eval_against_sine_signs():
    # r_j(t) = sign(sin(2^j pi t)) on cells that avoid the zeros
    depth = 6
    for j in (1, 2, 3):
        n = rademacher_index(j)
        for cell in range(1 << depth):
            t = (cell + 0.5) / (1 << depth)
            expected = 1 if np.sin((2**j) * np.pi * t) > 0 else -1
            assert walsh_eval(n, DyadicPoint(depth, cell)) == expected


def test_walsh_eval_needs_depth():
    with pytest.raises(DepthError):
        walsh_eval(4, DyadicPoint(2, 1))


def test_rademacher_index():
    assert rademacher_index(1) == 1
    assert rademacher_index(4) == 8
    wide = rademacher_index(273)
    assert wide.bit_length() == 273
    assert wide.bit_count() == 1


def test_phi_index_enumeration():
    assert [phi_index(k) for k in range(1, 5)] == [0, 3, 5, 6]
    for k in range(1, 40):
        assert phi_index(k).bit_count() != 1


def counted_phi_indices():
    """Every integer of popcount != 1 in increasing order: the counting
    loop that ``phi_index`` replaced."""
    n = 0
    while True:
        if n.bit_count() != 1:
            yield n
        n += 1


def test_phi_index_closed_form_equals_counting():
    for k, n in zip(range(1, 10_001), counted_phi_indices()):
        assert phi_index(k) == n
    # past what counting reaches: n qualifies, and 0..n holds k qualifying
    # integers (all but its bit_length powers of two), so n is the k-th
    for k in (2**40 + 41, 2**100 + 7, 2**4096 - 1):
        n = phi_index(k)
        assert n.bit_count() != 1 and n + 1 - n.bit_length() == k


def test_index_images_partition_frequencies():
    phis = {phi_index(k) for k in range(1, 60)}
    rads = {rademacher_index(j) for j in range(1, 10)}
    seen = phis | rads
    # every n below 50 appears in exactly one image
    assert all(n in seen for n in range(50))
    assert not (phis & rads)


@given(
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
    st.integers(min_value=0, max_value=2**16 - 1),
)
@settings(max_examples=200, deadline=None)
def test_character_identity(a, b, cell):
    t = DyadicPoint(16, cell)
    assert walsh_eval(a, t) * walsh_eval(b, t) == walsh_eval(a ^ b, t)


def test_add_scale():
    w1 = WalshSpectrum({1: 1.0})
    assert len(spectrum_add(w1, spectrum_scale(w1, -1.0))) == 0
    f = WalshSpectrum({0: 1.0, 3: 1.0})
    doubled = spectrum_scale(f, 2.0)
    assert doubled[0] == 2.0 and doubled[3] == 2.0
    g = WalshSpectrum({0: 1.0, 5: 2.0})
    assert len(f + g) <= len(f) + len(g)


def test_product_small_cases():
    w1 = WalshSpectrum({1: 1.0})
    assert (w1 * w1) == WalshSpectrum({0: 1.0})
    f = WalshSpectrum({0: 1.0, 1: 1.0})
    sq = f * f
    assert sq.allclose(WalshSpectrum({0: 2.0, 1: 2.0}))


def test_product_matches_dense_pointwise():
    rng = np.random.default_rng(42)
    for _ in range(10):
        fa = _random_spectrum(rng, depth=8, terms=10)
        fb = _random_spectrum(rng, depth=8, terms=10)
        prod = spectrum_product(fa, fb)
        dense = synthesize(fa, 8) * synthesize(fb, 8)
        assert np.max(np.abs(synthesize(prod, 8) - dense)) < 1e-12


def test_product_commutative_associative():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = _random_spectrum(rng, depth=10, terms=8)
        b = _random_spectrum(rng, depth=10, terms=8)
        c = _random_spectrum(rng, depth=10, terms=8)
        assert (a * b).allclose(b * a)
        assert ((a * b) * c).allclose(a * (b * c), tol=1e-12)


def test_product_budget(monkeypatch):
    f = WalshSpectrum({n: 1.0 for n in range(64)})
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", _product_peak_bytes(1000, f.depth()))
    with pytest.raises(BudgetError):
        spectrum_product(f, f)


def freq_arrays(f, limbs):
    """Frequencies packed into ``limbs`` little-endian uint64 limbs (wide
    enough for f's depth), plus coefficients: the packed layout of the
    reference product here and of the split's reference routes."""
    raw = b"".join(n.to_bytes(limbs * 8, "little") for n in f)
    packed = np.frombuffer(raw, dtype="<u8").reshape(len(f), limbs)
    return packed, np.fromiter((c for _, c in f.items()), float, count=len(f))


def packed_product(f, g):
    """The XOR convolution of two nonempty spectra on packed keys: every
    pair key XORed limb by limb, lexsorted, and each run of equal keys
    summed by ``np.add.reduceat``; the wide-key reference."""
    limbs = max(1, (max(f.depth(), g.depth()) + 63) // 64)
    fa, ca = freq_arrays(f, limbs)
    ga, cb = freq_arrays(g, limbs)
    keys = (fa[:, None, :] ^ ga[None, :, :]).reshape(-1, limbs)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(keys[1:] != keys[:-1], axis=1)))
    )
    sums = np.add.reduceat(np.multiply.outer(ca, cb).ravel()[order], starts)
    buf, width = keys[starts].tobytes(), 8 * limbs
    freqs = (int.from_bytes(buf[i:i + width], "little") for i in range(0, len(buf), width))
    return WalshSpectrum(zip(freqs, sums.tolist()))


def assert_product_matches_packed_reference(f, g):
    # within 1e-12 of the largest coefficient, over the union of supports
    out, ref = spectrum_product(f, g), packed_product(f, g)
    scale = max(abs(c) for _, c in ref.items())
    assert all(abs(out[n] - ref[n]) <= 1e-12 * scale for n in set(out) | set(ref))


def test_product_packed_path_matches_dict_path():
    rng = np.random.default_rng(11)

    def wide_freq():
        hi = int(rng.integers(0, 2**35))
        lo = int(rng.integers(0, 2**35))
        return (hi << 35) | lo

    # 160 x 130 pairs on 70 bits, and 200 x 150 on 300 bits
    fa = WalshSpectrum({wide_freq(): float(rng.normal()) for _ in range(160)})
    fb = WalshSpectrum({wide_freq(): float(rng.normal()) for _ in range(130)})
    assert_product_matches_packed_reference(fa, fb)
    fa, fb = ({int.from_bytes(rng.bytes(38), "little") >> 4: float(rng.normal())
               for _ in range(terms)} for terms in (200, 150))
    assert_product_matches_packed_reference(WalshSpectrum(fa), WalshSpectrum(fb))


@pytest.mark.parametrize("depth, terms", [(8, 200), (10, 1024), (70, 40)])
def test_product_matches_the_packed_reference_where_keys_collide(depth, terms):
    # f * f on every frequency below 2^10 meets each key 1,024 times; at
    # depth 70 the 40 terms span 8 bits above bit 62
    rng = np.random.default_rng(depth)
    if depth > 64:
        f = WalshSpectrum({(int(n) << 62) | 5: float(rng.normal())
                           for n in rng.choice(256, terms, replace=False)})
    else:
        f = _random_spectrum(rng, depth=depth, terms=terms)
    g = _random_spectrum(rng, depth=min(depth, 8), terms=min(terms, 100))
    assert_product_matches_packed_reference(f, f)
    assert_product_matches_packed_reference(f, g)


@pytest.mark.parametrize("limbs", [1, 5])
@pytest.mark.parametrize("size", [100, 150, 300])
def test_product_peak_stays_within_its_budget_estimate(limbs, size):
    # every pair gives its own result term, the worst case for the
    # result dict; keys are 64 * limbs bits wide
    rng = np.random.default_rng(size + limbs)
    half = 32 * limbs
    low = rng.choice(1 << min(half, 62), size, replace=False)
    high = rng.choice(1 << min(half, 62), size, replace=False)
    f = WalshSpectrum({int(a) | (1 << (2 * half - 1)): 1.0 for a in low})
    g = WalshSpectrum({int(b) << half: 0.5 for b in high})
    tracemalloc.start()
    try:
        out = spectrum_product(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == size * size
    # measured 146 bytes a pair at 64 bits and 177 at 320 (size 300),
    # against estimates of 154 and 186
    assert peak <= _product_peak_bytes(size * size, 2 * half)


def test_inner_product():
    assert inner_product(WalshSpectrum({5: 1.0}), WalshSpectrum({5: 1.0})) == 1.0
    assert inner_product(WalshSpectrum({5: 1.0}), WalshSpectrum({6: 1.0})) == 0.0
    f = WalshSpectrum({0: 2.0, 5: 3.0})
    assert inner_product(f, f) == 13.0


def test_inner_product_matches_dense_mean():
    rng = np.random.default_rng(99)
    for _ in range(10):
        f = _random_spectrum(rng, depth=10, terms=12)
        g = _random_spectrum(rng, depth=10, terms=12)
        dense = float(np.mean(synthesize(f, 10) * synthesize(g, 10)))
        assert abs(inner_product(f, g) - dense) < 1e-12


def test_synthesize_examples():
    f = WalshSpectrum({0: 0.5, 1: 0.5})
    assert np.allclose(synthesize(f, 1), [1.0, 0.0])
    got = analyze_dense(np.array([3.0, 1.0]))
    assert got.allclose(WalshSpectrum({0: 2.0, 1: 1.0}))


def test_indicator_parseval():
    # indicator of [0, 3/8) at depth 3 has squared L2 norm 3/8
    values = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    f = analyze_dense(values)
    assert abs(inner_product(f, f) - 3.0 / 8.0) < 1e-15


def test_analysis_lists_frequencies_in_order_and_refuses_non_finite_cells():
    values = np.zeros(16)
    values[3:11] = 1.0
    f = analyze_dense(values)
    assert list(f) == sorted(f) and all(type(n) is int for n in f)
    assert all(type(c) is float and c != 0.0 for _, c in f.items())
    with pytest.raises(ValueError, match="finite"):
        analyze_dense(np.array([1.0, np.inf]))


def test_roundtrip_random_depth10():
    rng = np.random.default_rng(7)
    values = rng.normal(size=1 << 10)
    back = synthesize(analyze_dense(values), 10)
    assert np.max(np.abs(back - values)) < 1e-12


@given(
    st.lists(
        st.floats(min_value=-8, max_value=8, allow_nan=False),
        min_size=2,
        max_size=32,
    )
)
@settings(max_examples=60, deadline=None)
def test_analysis_synthesis_identity(values):
    size = 1 << (len(values).bit_length() - 1)
    arr = np.array(values[:size])
    f = analyze_dense(arr)
    assert np.max(np.abs(synthesize(f, size.bit_length() - 1) - arr)) < 1e-12


def test_synthesize_depth_checks():
    f = WalshSpectrum({9: 1.0})  # needs depth >= 4
    with pytest.raises(DepthError):
        synthesize(f, 3)
    with pytest.raises(BudgetError):
        synthesize(f, 31)
    with pytest.raises(ValueError):
        analyze_dense(np.ones(3))


def test_numpy_integer_inputs_are_coerced():
    # numpy ints overflow silently under wide shifts, so every entry
    # point must coerce to Python ints
    j = np.int64(100)
    assert rademacher_index(j).bit_length() == 100
    f = WalshSpectrum({np.int64(3): 1.0, rademacher_index(j): 2.0})
    assert f.depth() == 100
    assert all(type(n) is int for n in f)
    assert phi_index(np.int64(2)) == 3
    assert walsh_eval(np.int64(3), DyadicPoint(np.int64(2), np.int64(0))) == 1


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_coefficients_are_refused(bad):
    # a NaN would otherwise reach lp_even_spectral and be labelled exact
    with pytest.raises(ValueError, match="finite"):
        WalshSpectrum({1: bad, 3: 1.0})
    with pytest.raises(ValueError, match="finite"):
        WalshSpectrum([(3, 1.0), (5, np.float64(bad))])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float64("-inf")])
def test_scaling_by_a_non_finite_scalar_is_refused(bad):
    with pytest.raises(ValueError, match="finite"):
        spectrum_scale(WalshSpectrum([(1, 1.0)]), bad)
    with pytest.raises(ValueError, match="finite"):
        WalshSpectrum({1: 1.0, 6: -2.0}) * bad


def test_scaling_past_the_float_range_is_refused():
    with pytest.raises(ValueError, match="overflows"):
        spectrum_scale(WalshSpectrum([(1, 1e300)]), 1e300)
    with pytest.raises(ValueError, match="overflows"):
        spectrum_scale(WalshSpectrum([(1, 1.0), (2, -1e300)]), np.float64(-1e10))
    # products that underflow to 0 leave the spectrum, as summed repeats do
    small = spectrum_scale(WalshSpectrum([(1, 1e-300), (2, 1.0)]), 1e-300)
    assert list(small.items()) == [(2, 1e-300)]
    assert spectrum_scale(WalshSpectrum([(1, 1e300)]), 1e8)[1] == 1e308


def test_coefficients_summing_past_the_float_range_are_refused():
    with pytest.raises(ValueError, match="finite"):
        WalshSpectrum([(1, 1e308), (1, 1e308)])
    # only accumulated values are checked: two huge terms may cancel
    assert dict(WalshSpectrum([(1, 1e308), (1, -1e308), (2, 1e308)]).items()) == {2: 1e308}


def test_sums_past_the_float_range_are_refused():
    big = WalshSpectrum({1: 1e308, 2: 1.0})
    for op in (lambda: big + big, lambda: big - -big, lambda: spectrum_add(big, big)):
        with pytest.raises(ValueError, match="overflows"):
            op()
    # huge terms that cancel, or that meet nothing, are summed as before
    assert dict((big - big).items()) == {}
    assert dict((big + WalshSpectrum({3: 1e308})).items()) == {1: 1e308, 2: 1.0, 3: 1e308}


@pytest.mark.parametrize("pairs", [1, 300])  # one pair and many
def test_products_past_the_float_range_are_refused(pairs):
    f = WalshSpectrum({1: 1e200, **{4 * j: 1.0 for j in range(1, pairs)}})
    g = WalshSpectrum({2: 1e200, **{8 * j: 1.0 for j in range(1, pairs)}})
    with pytest.raises(ValueError, match="overflows"):  # and no numpy warning first
        spectrum_product(f, g)
    assert spectrum_product(f, spectrum_scale(g, 1e-200))[3] == pytest.approx(1e200)


def test_json_roundtrip(tmp_path):
    f = WalshSpectrum({0: 0.25, (1 << 272): -1.5, 5: 2.0})
    doc = spectrum_to_json(f)
    assert doc["terms"][0]["n"] == "0"
    assert spectrum_from_json(doc) == f
    path = tmp_path / "spec.json"
    save_spectrum(f, path)
    assert load_spectrum(path) == f
    raw = json.loads(path.read_text())
    assert {"n", "c"} == set(raw["terms"][0])


def _random_spectrum(rng, depth, terms):
    freqs = rng.choice(1 << depth, size=terms, replace=False)
    return WalshSpectrum({int(n): float(rng.normal()) for n in freqs})
