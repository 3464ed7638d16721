"""Symbol-row batches of span functions against the per-function routes.

quasigreedy builds every greedy prefix, and partialsum every S_n f, as
a row of one batch: coefficient rows, one batched ``rmatvec`` per
block, then one head/tail split of ``norms.even_moments`` over the
touched blocks' symbols.  ``reference_prefix_norms`` is the loop it
replaces in quasigreedy, one ``weighted_spectrum`` and one
``lp_even_spectral`` per prefix; ``reference_partial_sum_norms`` the
one in partialsum, one ``partial_sum`` and one ``lp_even_spectral`` per
grid point; ``reference_gather`` is the per-symbol loop ``gather``
replaced.
"""

import math
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import walshlab.experiments as experiments
import walshlab.norms
from walshlab.blocks import load_plan, validate_schedule
from walshlab.experiments import (
    ExperimentConfig,
    _prefix_norms,
    partial_sum_experiment,
    quasi_greedy_experiment,
)
from walshlab.greedy import (
    CoefficientList,
    analyze,
    greedy_order,
    partial_sum,
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


def reference_partial_sum_norms(plan, f, grid, p):
    """||S_n f||_p for each n of the grid, one spectrum per grid point."""
    return [lp_even_spectral(partial_sum(f, plan, n), p).value for n in grid]


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
    batch = list(_prefix_norms(plan, ordered, range(1, len(ordered) + 1), [float(p)]))
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
    ps, cuts = [4.0, 6.0], range(1, 26)
    whole = list(_prefix_norms(plan, entries, cuts, ps))
    # room for two rows of desk's 276 symbols per batch
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 2 * 8 * 276)
    split = list(_prefix_norms(plan, entries, cuts, ps))
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
        count = sum(1 for _ in _prefix_norms(plan, entries, range(1, 121), [4.0, 10.0]))
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


@st.composite
def plans_entries_and_grids(draw):
    """A plan, entries as in ``plans_and_entries``, and a grid of n that
    holds a point below every entry (cut 0), a point inside a block and
    the horizon."""
    plan, entries = draw(plans_and_entries())
    k = draw(st.integers(1, plan.horizon_blocks))
    inside = plan.to_global(k, draw(st.integers(1, plan.N[k - 1] - 1)))
    first = min(m for m, _ in entries)
    drawn = draw(st.lists(st.integers(0, plan.horizon_size), max_size=8))
    grid = sorted({first - 1, inside, plan.horizon_size, *drawn})
    return plan, entries, grid


@settings(max_examples=60, deadline=None)
@given(
    plans_entries_and_grids(),
    st.sampled_from([4, 6, 8, 10]),
    st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e),
)
def test_partial_sum_rows_equal_the_per_grid_point_split(case, p, scale):
    plan, entries, grid = case
    f = synthesize_coefficients(CoefficientList.from_pairs(entries), plan)
    coeffs = list(analyze(f, plan).entries)  # basis order
    cuts = [bisect_right([m for m, _ in coeffs], n) for n in grid]
    got = [norms[p] for _, norms in _prefix_norms(plan, coeffs, cuts, [p])]
    want = reference_partial_sum_norms(plan, f, grid, p)
    norm_f = want[-1]
    for cut, a, b in zip(cuts, got, want):
        if cut:
            assert abs(a - b) <= 1e-12 * b
        else:  # S_n f = 0; the per-point route may leave rounding noise
            assert a == 0.0 and b <= 1e-12 * norm_f
    # the ratios do not change when the coefficients are scaled
    scaled = [(m, scale * c) for m, c in coeffs]
    got_scaled = [norms[p] for _, norms in _prefix_norms(plan, scaled, cuts, [p])]
    for a, b in zip(got, got_scaled):
        assert abs(b / got_scaled[-1] - a / got[-1]) <= 1e-12 * (a / got[-1])


def test_partialsum_takes_even_norms_from_rows(monkeypatch):
    plan = load_plan("desk")
    calls = {"even": [], "partial_sum": []}

    def counting_even(f, p, *args):
        calls["even"].append(p)
        return lp_even_spectral(f, p, *args)

    def counting_partial_sum(f, plan, n):
        calls["partial_sum"].append(n)
        return partial_sum(f, plan, n)

    monkeypatch.setattr(experiments, "lp_even_spectral", counting_even)
    monkeypatch.setattr(walshlab.norms, "lp_even_spectral", counting_even)
    monkeypatch.setattr(experiments, "partial_sum", counting_partial_sum)
    cfg = ExperimentConfig(
        plan=plan, p_values=(2.0, 4.0, 6.0, 8.0, 10.0), seed=4,
        corpus={"kind": "mixed", "count": 3, "terms": 20},
    )
    records, summary = partial_sum_experiment(cfg)
    # only the block-end cross-check, at p = 2, reads a spectrum
    assert set(calls["even"]) == {2}
    assert calls["partial_sum"] == list(plan.offsets[1:]) * 3
    assert summary["block_end_dev_max"] <= 1e-12
    at_horizon = [r for r in records if r.size_or_m == plan.horizon_size]
    assert len(at_horizon) == 15 and all(r.value == 1.0 for r in at_horizon)
    for fi, f, coeffs, _ in experiments._corpus_expansions(cfg):
        grid = summary["n_grid"]
        for p in (4, 8):
            want = reference_partial_sum_norms(plan, f, grid, p)
            got = [r.value for r in records if r.trial == fi and r.p == p]
            assert all(abs(a - w / want[-1]) <= 1e-12 for a, w in zip(got, want))
