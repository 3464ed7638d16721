"""Symbol-row batches of span functions against the per-function routes.

quasigreedy builds every greedy prefix as a row of one batch:
coefficient rows, one batched ``rmatvec`` per block, then one head/tail
split of ``norms.even_moments`` over the touched blocks' symbols.
``reference_prefix_norms`` is the loop it replaces, one
``weighted_spectrum`` and one ``lp_even_spectral`` per prefix;
``reference_gather`` is the per-symbol loop ``gather`` replaced.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshlab.experiments as experiments
from walshlab.blocks import load_plan, validate_schedule
from walshlab.experiments import (
    ExperimentConfig,
    _prefix_norms,
    quasi_greedy_experiment,
)
from walshlab.greedy import (
    CoefficientList,
    analyze,
    greedy_order,
    synthesize_coefficients,
)
from walshlab.norms import even_moments, lp_dense, lp_even_spectral
from walshlab.spectra import WalshSpectrum


def reference_prefix_norms(plan, entries, p):
    """||sum of the first m entries||_p for m = 1..len(entries), one
    spectrum per prefix."""
    return [
        lp_even_spectral(plan.weighted_spectrum(entries[:m]), p).value
        for m in range(1, len(entries) + 1)
    ]


def reference_gather(plan, vectors):
    terms = {}
    for k in sorted(vectors):
        for n, c in zip(plan.symbol_frequencies(k), vectors[k].tolist()):
            if c != 0.0:
                terms[n] = c
    return WalshSpectrum(terms)


@st.composite
def plans_and_entries(draw):
    """A strictly increasing plan with blocks of at most 2^8 elements
    and distinct positions with coefficients; a third of the lists carry
    one dominant coefficient."""
    g = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    plan = validate_schedule(g)
    positions = draw(st.lists(
        st.integers(1, plan.horizon_size), min_size=1, max_size=30, unique=True
    ))
    coeff = st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)
    weights = [draw(coeff) for _ in positions]
    if draw(st.integers(0, 2)) == 0:
        weights[0] = draw(st.sampled_from([1e3, -1e3]))
    return plan, list(zip(positions, weights))


def _relative_close(got, want, rel):
    return all(abs(a - b) <= rel * abs(b) for a, b in zip(got, want))


@settings(max_examples=60, deadline=None)
@given(plans_and_entries(), st.sampled_from([4, 6, 8, 10]))
def test_prefix_norms_equal_the_per_prefix_split(case, p):
    plan, entries = case
    f = synthesize_coefficients(CoefficientList.from_pairs(entries), plan)
    coeffs = analyze(f, plan)
    by_index = coeffs.as_dict()
    ordered = [(m, by_index[m]) for m in greedy_order(coeffs).rho]
    batch = list(_prefix_norms(plan, ordered, [float(p)]))
    assert len(batch) == len(ordered)
    got = [norms[float(p)] for _, norms in batch]
    assert _relative_close(got, reference_prefix_norms(plan, ordered, p), 1e-12)
    for m, (rows, _) in enumerate(batch, start=1):
        assert plan.gather(rows) == plan.weighted_spectrum(ordered[:m])


def test_small_batches_give_the_same_rows(monkeypatch):
    plan = load_plan("desk")
    rng = np.random.default_rng(3)
    positions = rng.choice(plan.horizon_size, size=25, replace=False) + 1
    entries = [(int(m), float(rng.normal())) for m in positions]
    ps = [4.0, 6.0]
    whole = list(_prefix_norms(plan, entries, ps))
    # room for two rows of desk's 276 symbols per batch
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 2 * 8 * 276)
    split = list(_prefix_norms(plan, entries, ps))
    assert len(split) == len(whole) == 25
    for (rows_a, norms_a), (rows_b, norms_b) in zip(whole, split):
        assert rows_a.keys() == rows_b.keys()
        assert all(np.array_equal(rows_a[k], rows_b[k]) for k in rows_a)
        assert norms_a == norms_b and set(norms_a) == {4.0, 6.0}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_gather_matches_the_per_symbol_loop(data):
    plan = load_plan("desk")
    blocks = data.draw(st.sets(st.integers(1, 3), min_size=1))
    vectors = {}
    for k in blocks:
        size = plan.N[k - 1]
        dense = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 1.5, -2.25, 1e-300, 3.0]),
            min_size=size, max_size=size,
        )))
        vectors[k] = dense
    got = plan.gather(vectors)
    want = reference_gather(plan, vectors)
    assert list(got.items()) == list(want.items())


def test_quasigreedy_rows_equal_the_per_prefix_loop():
    plan = load_plan("desk")
    cfg = ExperimentConfig(
        plan=plan, p_values=(2.0, 4.0, 8.0), seed=2,
        corpus={"kind": "mixed", "count": 4, "terms": 15},
    )
    records, _ = quasi_greedy_experiment(cfg)
    for fi, f, coeffs, _ in experiments._corpus_expansions(cfg):
        by_index = coeffs.as_dict()
        ordered = [(m, by_index[m]) for m in greedy_order(coeffs).rho]
        for p in (4, 8):
            norm_f = lp_even_spectral(f, p).value
            want = [v / norm_f for v in reference_prefix_norms(plan, ordered, p)]
            got = [r.value for r in records
                   if r.experiment == "quasigreedy" and r.trial == fi and r.p == p]
            assert _relative_close(got, want, 1e-12)
            assert all(r.exact for r in records if r.p == p)
    assert math.isfinite(max(r.value for r in records))


def test_prefix_batches_peak_near_six_batches(monkeypatch):
    plan = validate_schedule([2, 12])
    rng = np.random.default_rng(8)
    positions = rng.choice(plan.horizon_size, size=120, replace=False) + 1
    entries = [(int(m), float(rng.normal())) for m in positions]
    plan.symbol_frequencies(2)  # the plan's cached symbols are not the batch's
    budget = 1 << 20
    monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
    tracemalloc.start()
    try:
        count = sum(1 for _ in _prefix_norms(plan, entries, [4.0, 10.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 120 and peak <= 7 * budget


def test_even_moments_rows_equal_dense_with_a_wide_head():
    # bits 0..13 are head (16384 cells, left to the XOR powers), 1 << 3
    # lies inside them, 1 << 16 and 1 << 20 are the tail
    freqs = [0b11 << 12, 0b111111111111, 1 << 3, 1 << 16, 1 << 20]
    coeffs = np.random.default_rng(12).normal(size=(3, len(freqs)))
    coeffs[1, :2] = 0.0  # a row whose own head would be narrow
    got = even_moments(freqs, coeffs, [2, 3])
    for row, moments in zip(coeffs.tolist(), got):
        f = WalshSpectrum(dict(zip(freqs, row)))
        for m, x in zip([2, 3], moments):
            assert x == pytest.approx(lp_dense(f, 2 * m).value ** (2 * m), rel=1e-12)
    assert even_moments(freqs, coeffs, []).shape == (3, 0)
