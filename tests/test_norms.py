import math
import tracemalloc

import numpy as np
import pytest

import walshlab.spectra
from walshlab.errors import BudgetError, ConfigError, DepthError
from walshlab.norms import (
    lp_dense,
    lp_even_spectral,
    lp_monte_carlo,
    rademacher_fourth_moment,
)
from walshlab.spectra import WalshSpectrum, rademacher_index


def _random_spectrum(rng, depth, terms):
    freqs = rng.choice(1 << depth, size=terms, replace=False)
    return WalshSpectrum({int(n): float(rng.normal()) for n in freqs})


def test_dense_constant():
    f = WalshSpectrum({0: -2.5})
    for p in (1.0, 2.0, 3.7, 6.0):
        assert lp_dense(f, p).value == pytest.approx(2.5, abs=1e-14)


def test_dense_indicator_example():
    # W_0 + W_1 equals 2 on [0, 1/2) and 0 after, so its L4 norm is 8^(1/4)
    f = WalshSpectrum({0: 1.0, 1: 1.0})
    assert lp_dense(f, 4).value == pytest.approx(8.0 ** 0.25, abs=1e-14)


def test_dense_p2_is_parseval():
    rng = np.random.default_rng(0)
    for _ in range(5):
        f = _random_spectrum(rng, 10, 12)
        coeff_l2 = np.sqrt(sum(c * c for _, c in f.items()))
        assert lp_dense(f, 2).value == pytest.approx(coeff_l2, abs=1e-12)


def test_dense_depth_cap():
    with pytest.raises(DepthError):
        lp_dense(WalshSpectrum({1 << 24: 1.0}), 2)


def test_spectral_examples():
    f = WalshSpectrum({0: 1.0, 1: 1.0})
    assert lp_even_spectral(f, 4).value == pytest.approx(8.0 ** 0.25, abs=1e-14)
    assert lp_even_spectral(WalshSpectrum({77: 1.0}), 4).value == pytest.approx(1.0)
    rad4 = WalshSpectrum({rademacher_index(k): 1.0 for k in range(1, 5)})
    assert lp_even_spectral(rad4, 4).value == pytest.approx(40.0 ** 0.25, abs=1e-13)
    assert lp_even_spectral(WalshSpectrum(), 4).value == 0.0


def test_spectral_rejects_odd_p():
    with pytest.raises(ConfigError):
        lp_even_spectral(WalshSpectrum({1: 1.0}), 3)


@pytest.mark.parametrize("p", [0.5, 4.5, 0, -2, math.inf, math.nan])
def test_spectral_refuses_what_is_not_an_even_integer_of_at_least_2(p):
    with pytest.raises(ConfigError, match="even integer p >= 2"):
        lp_even_spectral(WalshSpectrum({1: 1.0}), p)


@pytest.mark.parametrize("p", [0.99, -3.0, math.inf, -math.inf, math.nan])
def test_dense_and_monte_carlo_refuse_p_that_is_not_finite_or_below_1(p):
    f = WalshSpectrum({1: 1.0, 6: 0.5})
    with pytest.raises(ConfigError, match="finite p >= 1"):
        lp_dense(f, p)
    with pytest.raises(ConfigError, match="finite p >= 1"):
        lp_monte_carlo(f, p, 100, 0)


@pytest.mark.parametrize("samples, seed, message", [
    (1, 0, "at least 2 samples"), (0, 0, "at least 2 samples"),
    (100, -1, "seed"), (100, 2**128, "seed"),
])
def test_monte_carlo_refuses_its_samples_and_seed(samples, seed, message):
    with pytest.raises(ConfigError, match=message):
        lp_monte_carlo(WalshSpectrum({1: 1.0, 6: 0.5}), 3.0, samples, seed)
    # the edges are taken: p = 1, 2 samples, the largest key
    est = lp_monte_carlo(WalshSpectrum({1: 1.0, 6: 0.5}), 1.0, 2, 2**128 - 1)
    assert est.kind == "sampled" and est.samples == 2


def test_engine_agreement_depth12():
    rng = np.random.default_rng(21)
    for _ in range(30):
        f = _random_spectrum(rng, 12, int(rng.integers(1, 20)))
        for p in (2, 4):
            dense = lp_dense(f, p).value
            spectral = lp_even_spectral(f, p).value
            assert abs(dense - spectral) <= 1e-10


def test_split_and_convolution_routes_agree():
    # deep spectra exercise the head/tail split; forcing tiny budgets is
    # not possible here, so compare against p=4 via explicit squaring
    rng = np.random.default_rng(8)
    from walshlab.spectra import inner_product, spectrum_product

    for _ in range(5):
        terms = {0: float(rng.normal()), 5: float(rng.normal())}
        for j in rng.choice(200, size=12, replace=False):
            terms[rademacher_index(int(j) + 1)] = float(rng.normal())
        f = WalshSpectrum(terms)
        sq = spectrum_product(f, f)
        expected = inner_product(sq, sq) ** 0.25
        assert lp_even_spectral(f, 4).value == pytest.approx(expected, abs=1e-12)


def test_spectral_p8_small():
    rng = np.random.default_rng(13)
    f = _random_spectrum(rng, 8, 6)
    dense = lp_dense(f, 8).value
    assert lp_even_spectral(f, 8).value == pytest.approx(dense, abs=1e-10)


def test_spectral_budget(monkeypatch):
    # a head of rank 20 (on 21 bits) needs 24 * 2^20 bytes of cells, past
    # this budget: refused before they are allocated
    # the byte estimate of 10,000 one-limb pairs when products packed their keys
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", 2_800_000)
    f = WalshSpectrum({3 << j: 1.0 for j in range(20)})
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            lp_even_spectral(f, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # 128 frequencies on 14 bits span only 7 dimensions: 128 cells
    f = WalshSpectrum({n | (n << 7): 1.0 for n in range(1 << 7)})
    assert lp_even_spectral(f, 8).value == pytest.approx(lp_dense(f, 8).value, rel=1e-12)


def test_seven_bit_head_takes_the_split_at_p8(monkeypatch):
    f = WalshSpectrum({n: 1.0 for n in range(1 << 7)})
    # the byte estimate of 10,000 one-limb pairs when products packed their keys
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", 2_800_000)
    assert lp_even_spectral(f, 8).value == pytest.approx(
        lp_dense(f, 8).value, rel=1e-12
    )


def test_monte_carlo_reads_the_byte_budget_when_called(monkeypatch):
    from walshlab.norms import _mc_peak_bytes, even_split

    f = WalshSpectrum({1: 1.0, 6: 0.5})
    budget = _mc_peak_bytes(100, even_split(list(f)))
    monkeypatch.setattr(walshlab.spectra, "BYTE_BUDGET", budget)
    assert lp_monte_carlo(f, 3.0, 100, seed=1).samples == 100
    with pytest.raises(BudgetError):
        lp_monte_carlo(f, 3.0, 101, seed=1)


def test_monotone_in_p():
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = _random_spectrum(rng, 8, 10)
        dense_ps = [1.0, 1.5, 2.0, 3.0, 4.0, 7.5]
        values = [lp_dense(f, p).value for p in dense_ps]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12
        assert lp_even_spectral(f, 2).value <= lp_even_spectral(f, 4).value + 1e-12
        assert lp_even_spectral(f, 4).value <= lp_even_spectral(f, 6).value + 1e-12


def test_khintchine_p4_bound():
    rng = np.random.default_rng(99)
    bound = 3.0 ** 0.25
    for _ in range(20):
        n = int(rng.integers(1, 17))
        a = rng.normal(size=n)
        f = WalshSpectrum(
            {rademacher_index(j + 1): float(a[j]) for j in range(n)}
        )
        l2 = float(np.sqrt(np.sum(a * a)))
        assert lp_even_spectral(f, 4).value <= bound * l2 + 1e-12
        # closed fourth moment matches the engine
        assert lp_even_spectral(f, 4).value ** 4 == pytest.approx(
            rademacher_fourth_moment(a), rel=1e-12
        )


def test_mc_constant_has_zero_width():
    est = lp_monte_carlo(WalshSpectrum({0: -3.0}), 2.5, 100, seed=1)
    assert est.value == 3.0
    assert est.ci_low == est.ci_high == 3.0


def test_mc_ci_contains_truth():
    f = WalshSpectrum({0: 1.0, 1: 1.0})
    est = lp_monte_carlo(f, 3.0, 100_000, seed=7)
    truth = 4.0 ** (1.0 / 3.0)
    assert est.ci_low <= truth <= est.ci_high
    assert est.kind == "sampled" and est.samples == 100_000


def test_mc_deterministic():
    rng = np.random.default_rng(2)
    f = WalshSpectrum(
        {rademacher_index(int(j) + 1): float(rng.normal()) for j in rng.choice(300, 20, replace=False)}
    )
    a = lp_monte_carlo(f, 2.7, 5000, seed=123)
    b = lp_monte_carlo(f, 2.7, 5000, seed=123)
    assert (a.value, a.ci_low, a.ci_high) == (b.value, b.ci_low, b.ci_high)
    c = lp_monte_carlo(f, 2.7, 5000, seed=124)
    assert c.value != a.value


def test_mc_deep_spectrum_unbiased_check():
    # a single wide Rademacher has |f| = 1 everywhere at any depth
    f = WalshSpectrum({rademacher_index(273): 1.0})
    est = lp_monte_carlo(f, 3.0, 500, seed=0)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_mc_calibration():
    f = WalshSpectrum({0: 1.0, 1: 1.0})
    truth = 4.0 ** (1.0 / 3.0)
    hits = sum(
        1
        for seed in range(100)
        if (
            lambda e: e.ci_low <= truth <= e.ci_high
        )(lp_monte_carlo(f, 3.0, 4000, seed=seed))
    )
    assert hits >= 90


def test_estimate_dict_shapes():
    exact = lp_dense(WalshSpectrum({0: 1.0}), 2)
    assert exact.as_dict() == {"p": 2, "value": 1.0, "kind": "exact"}
    sampled = lp_monte_carlo(WalshSpectrum({0: 1.0}), 2.0, 10, seed=3)
    assert {"p", "value", "kind", "ci_low", "ci_high", "samples", "seed"} == set(
        sampled.as_dict()
    )


def test_non_even_power_means_past_the_float_range_are_refused():
    # |f|^3 of 1e200 overflows; a numpy warning would fail instead
    with pytest.raises(ConfigError, match="overflows"):
        lp_dense(WalshSpectrum({0: 1e200, 5: 1.0}), 3.0)
    with pytest.raises(ConfigError, match="overflows"):
        lp_monte_carlo(WalshSpectrum({1 << 40: 1e200}), 3.0, 100, 1)
    # the cubes (0 or 8e159) and their mean are finite, their spread is not
    with pytest.raises(ConfigError, match="overflows"):
        lp_monte_carlo(WalshSpectrum({1: 1e53, 1 << 40: 1e53}), 3.0, 100, 1)
    assert lp_dense(WalshSpectrum({0: 1e100}), 3.0).value == pytest.approx(1e100)


def test_non_even_power_means_below_the_float_range_are_refused():
    # 0.5^1100 underflows to 0, which would read as a norm of 0
    with pytest.raises(ConfigError, match="underflows"):
        lp_dense(WalshSpectrum({1: 0.5}), 1100.0)
    with pytest.raises(ConfigError, match="underflows"):
        lp_monte_carlo(WalshSpectrum({1 << 200: 0.5}), 1100.0, 100, 1)
    # 0.5^1000 = 2^-1000 is a normal float, and the function 0 has norm 0
    assert lp_dense(WalshSpectrum({1: 0.5}), 1000.0).value == 0.5
    assert lp_monte_carlo(WalshSpectrum({1 << 200: 0.5}), 1000.0, 100, 1).value == 0.5
    assert lp_dense(WalshSpectrum(), 1100.0).value == 0.0
    assert lp_monte_carlo(WalshSpectrum(), 1100.0, 100, 1).value == 0.0


def test_head_powers_scale_exactly_by_powers_of_two():
    # a 14-bit head of rank 7 takes its moments from 128 cells, whose
    # powers would overflow at 1e100 unless the row is scaled by 2^-e first
    f = WalshSpectrum({n | (n << 7): 1e100 for n in range(1 << 7)})
    norm = lp_even_spectral(f, 8).value
    unit = WalshSpectrum({n: 1.0 for n in f})
    assert norm == pytest.approx(1e100 * lp_even_spectral(unit, 8).value, rel=1e-12)
    for k in (-1000, -332, -1, 1, 300):
        assert lp_even_spectral(f * 2.0 ** k, 8).value == math.ldexp(norm, k)
