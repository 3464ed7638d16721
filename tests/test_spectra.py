import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    w1 = WalshSpectrum.single(1)
    assert len(spectrum_add(w1, spectrum_scale(w1, -1.0))) == 0
    f = WalshSpectrum({0: 1.0, 3: 1.0})
    doubled = spectrum_scale(f, 2.0)
    assert doubled[0] == 2.0 and doubled[3] == 2.0
    g = WalshSpectrum({0: 1.0, 5: 2.0})
    assert len(f + g) <= len(f) + len(g)


def test_product_small_cases():
    w1 = WalshSpectrum.single(1)
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


def test_product_budget():
    f = WalshSpectrum({n: 1.0 for n in range(64)})
    with pytest.raises(BudgetError):
        spectrum_product(f, f, max_bytes=_product_peak_bytes(1000, 1))


def test_product_packed_path_matches_dict_path():
    rng = np.random.default_rng(11)

    def wide_freq():
        hi = int(rng.integers(0, 2**35))
        lo = int(rng.integers(0, 2**35))
        return (hi << 35) | lo

    # two spectra big enough to cross the packed cutoff, spanning >64 bits
    fa = WalshSpectrum({wide_freq(): float(rng.normal()) for _ in range(160)})
    fb = WalshSpectrum({wide_freq(): float(rng.normal()) for _ in range(130)})
    packed = spectrum_product(fa, fb)
    slow: dict[int, float] = {}
    for a, ca in fa.items():
        for b, cb in fb.items():
            slow[a ^ b] = slow.get(a ^ b, 0.0) + ca * cb
    assert packed.allclose(WalshSpectrum(slow), tol=1e-10)


@pytest.mark.parametrize("limbs", [1, 5])
@pytest.mark.parametrize("size", [100, 150, 300])
def test_product_peak_stays_within_its_budget_estimate(limbs, size):
    # every pair gives its own result term, the worst case for the
    # result dict; 100 x 100 pairs take the dict path
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
    assert peak <= _product_peak_bytes(size * size, limbs)


def test_inner_product():
    assert inner_product(WalshSpectrum.single(5), WalshSpectrum.single(5)) == 1.0
    assert inner_product(WalshSpectrum.single(5), WalshSpectrum.single(6)) == 0.0
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
    with pytest.raises(DepthError):
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


def test_coefficients_summing_past_the_float_range_are_refused():
    with pytest.raises(ValueError, match="finite"):
        WalshSpectrum([(1, 1e308), (1, 1e308)])
    # only accumulated values are checked: two huge terms may cancel
    assert dict(WalshSpectrum([(1, 1e308), (1, -1e308), (2, 1e308)]).items()) == {2: 1e308}


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
