import itertools
import math

import numpy as np
import pytest

from walshlab.blocks import BlockPlan
from walshlab.errors import ConfigError, HorizonError
from walshlab.greedy import (
    analyze,
    coefficients_from_json,
    coefficients_to_json,
    greedy_approximant,
    greedy_order,
    load_coefficients,
    partial_sum,
    save_coefficients,
    synthesize_coefficients,
)
from walshlab.norms import lp_even_spectral
from walshlab.spectra import WalshSpectrum, inner_product


@pytest.fixture(scope="module")
def desk24():
    return BlockPlan([2, 4])


def _random_coeffs(rng, plan, terms):
    positions = np.sort(
        rng.choice(plan.horizon_size, size=terms, replace=False)
    ) + 1
    return dict(
        (int(m), float(rng.normal())) for m in positions
    )


def test_analyze_single_element(desk24):
    f = desk24.psi_spectrum(1, 3)
    got = analyze(f, desk24)
    ((m, c),) = got.items()
    assert m == 3 and c == pytest.approx(1.0, abs=1e-12)


def test_analyze_invert_first_rotation():
    plan = BlockPlan([1])
    f = WalshSpectrum({0: 2.0 ** 0.5})
    got = analyze(f, plan)
    assert [m for m, _ in got.items()] == [1, 2]
    assert all(c == pytest.approx(1.0, abs=1e-12) for _, c in got.items())


def test_analyze_roundtrip(desk24):
    rng = np.random.default_rng(31)
    for _ in range(5):
        coeffs = _random_coeffs(rng, desk24, 12)
        f = synthesize_coefficients(coeffs, desk24)
        back = analyze(f, desk24)
        assert set(back) == set(coeffs)
        assert all(abs(back[m] - coeffs[m]) < 1e-12 for m in coeffs)
        # Parseval through the analysis
        assert sum(c * c for c in back.values()) == pytest.approx(
            inner_product(f, f), abs=1e-12
        )


def test_analyze_rejects_foreign_frequency(desk24):
    with pytest.raises(HorizonError):
        analyze(WalshSpectrum({6: 1.0}), desk24)  # phi_4 needs four blocks
    with pytest.raises(HorizonError):
        analyze(WalshSpectrum({1 << 300: 1.0}), desk24)


def test_greedy_order_examples():
    coeffs = dict([(1, 0.5), (2, -0.5), (3, 0.9)])
    assert greedy_order(coeffs) == (3, 1, 2)
    flat = dict([(1, 0.3), (2, -0.3), (3, 0.3)])
    assert greedy_order(flat) == (1, 2, 3)
    decreasing = dict([(1, 3.0), (2, 2.0), (3, 1.0)])
    assert greedy_order(decreasing) == (1, 2, 3)
    with_zero = dict([(1, 0.0), (2, 1.0)])
    assert greedy_order(with_zero) == (2,)


def test_greedy_order_invariant_randomized():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        mags = rng.choice([0.25, 0.5, 0.5, 1.0, 2.0], size=n)
        signs = rng.choice([-1.0, 1.0], size=n)
        coeffs = dict(
            (m + 1, mags[m] * signs[m]) for m in range(n)
        )
        rho = greedy_order(coeffs)
        for j, k in itertools.combinations(range(len(rho)), 2):
            cj, ck = abs(coeffs[rho[j]]), abs(coeffs[rho[k]])
            assert ck < cj or (ck == cj and rho[k] > rho[j])


def test_analyze_keeps_a_tiny_function():
    plan = BlockPlan([2, 4, 8])
    for k, i in ((1, 2), (2, 7), (3, 200)):
        got = analyze(1e-16 * plan.psi_spectrum(k, i), plan)
        assert [m for m, _ in got.items()] == [plan.to_global(k, i)]
        assert got[plan.to_global(k, i)] == pytest.approx(1e-16, rel=1e-12)


def test_an_l2_norm_past_the_float_range_is_refused():
    # ZERO_TOL times an infinite norm would zero every finite coefficient
    with pytest.raises(ConfigError, match="overflows"):
        greedy_order({m: 1e308 for m in range(1, 41)})
    assert len(greedy_order({m: 1e306 for m in range(1, 41)})) == 40


def test_greedy_order_is_scale_invariant():
    plan = BlockPlan([2, 4, 8])
    rng = np.random.default_rng(5)
    coeffs = _random_coeffs(rng, plan, 40)
    f = synthesize_coefficients(coeffs, plan)
    base = greedy_order(analyze(f, plan))
    raw = greedy_order(coeffs)
    assert sorted(base) == [m for m, _ in coeffs.items()]
    for k in range(-66, 67):
        assert greedy_order(analyze(f * 2.0 ** k, plan)) == base, k
        scaled = dict((m, c * 2.0 ** k) for m, c in coeffs.items())
        assert greedy_order(scaled) == raw, k


def test_greedy_approximant_largest_first(desk24):
    coeffs = dict([(1, 0.9), (2, 0.5), (3, -0.5)])
    f = synthesize_coefficients(coeffs, desk24)
    g1, trace = greedy_approximant(f, desk24, 1)
    assert g1.allclose(
        synthesize_coefficients(dict([(1, 0.9)]), desk24),
        tol=1e-12,
    )
    assert trace[0].selected == 1
    assert trace[0].coefficient == pytest.approx(0.9, abs=1e-12)


def test_greedy_residuals_are_parseval_tails(desk24):
    rng = np.random.default_rng(5)
    coeffs = _random_coeffs(rng, desk24, 10)
    f = synthesize_coefficients(coeffs, desk24)
    values = sorted((abs(c) for _, c in coeffs.items()), reverse=True)
    _, trace = greedy_approximant(f, desk24, 10)
    for step in trace:
        expected = math.sqrt(sum(c * c for c in values[step.m :]))
        assert step.residual_l2 == pytest.approx(expected, abs=1e-9)
    # exact recovery at full support
    assert trace[-1].residual_l2 <= 1e-6
    approx, _ = greedy_approximant(f, desk24, 10)
    assert lp_even_spectral(f - approx, 2).value <= 1e-12


def test_greedy_residual_monotone(desk24):
    rng = np.random.default_rng(6)
    coeffs = _random_coeffs(rng, desk24, 12)
    f = synthesize_coefficients(coeffs, desk24)
    _, trace = greedy_approximant(f, desk24, 12)
    residuals = [step.residual_l2 for step in trace]
    assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))


def test_greedy_l2_optimality_bruteforce(desk24):
    rng = np.random.default_rng(77)
    for _ in range(5):
        support = sorted(
            int(m) + 1 for m in rng.choice(20, size=8, replace=False)
        )
        coeffs = dict(
            (m, float(rng.normal())) for m in support
        )
        total = sum(c * c for c in coeffs.values())
        f = synthesize_coefficients(coeffs, desk24)
        _, trace = greedy_approximant(f, desk24, len(support))
        for step in trace:
            best = min(
                total - sum(coeffs[m] * coeffs[m] for m in subset)
                for subset in itertools.combinations(support, step.m)
            )
            assert step.residual_l2 <= math.sqrt(max(best, 0.0)) + 1e-9


def test_partial_sum_basics(desk24):
    psi7 = desk24.psi_spectrum(2, 3)  # global index 7
    assert partial_sum(psi7, desk24, 7).allclose(psi7)
    assert len(partial_sum(psi7, desk24, 6)) == 0
    assert len(partial_sum(psi7, desk24, 0)) == 0
    with pytest.raises(HorizonError):
        partial_sum(psi7, desk24, 21)


def test_partial_sum_is_projection(desk24):
    rng = np.random.default_rng(8)
    coeffs = _random_coeffs(rng, desk24, 15)
    f = synthesize_coefficients(coeffs, desk24)
    f_l2 = math.sqrt(inner_product(f, f))
    for n in range(0, 21):
        sn = partial_sum(f, desk24, n)
        expected = synthesize_coefficients(
            dict(
                (m, c) for m, c in coeffs.items() if m <= n
            ),
            desk24,
        )
        assert sn.allclose(expected, tol=1e-12)
        assert math.sqrt(max(inner_product(sn, sn), 0.0)) <= f_l2 + 1e-12
    assert partial_sum(f, desk24, 20).allclose(f, tol=1e-12)


def test_coefficient_json(tmp_path):
    coeffs = dict([(3, -0.25), (17, 1.5)])
    doc = coefficients_to_json(coeffs)
    assert doc == {"coeffs": [{"m": 3, "c": -0.25}, {"m": 17, "c": 1.5}]}
    assert list(coefficients_from_json(doc).items()) == list(coeffs.items())
    path = tmp_path / "c.json"
    save_coefficients(coeffs, path)
    assert list(load_coefficients(path).items()) == list(coeffs.items())


def test_duplicate_indices_rejected():
    doc = {"coeffs": [{"m": 1, "c": 0.5}, {"m": 1, "c": 0.25}]}
    with pytest.raises(ConfigError, match="duplicate basis index 1"):
        coefficients_from_json(doc)
