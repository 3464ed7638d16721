"""Row batches of the experiment sweeps against the per-function routes.

quasigreedy and both sides of walsh-baseline build every greedy
prefix, partialsum every S_n f, democracy every index set,
almostgreedy every candidate's residual f - P_c f and khintchine every
trial as a row of one batch (``_span_norms``): coefficient rows weighed
by a membership matrix, then one head/tail split of
``norms.even_norms`` over the call's frequencies.  On the plan's
positions one batched ``rmatvec`` per block makes the rows symbol
vectors; on Walsh frequencies (khintchine's r_1..r_max_terms,
walsh-baseline's Walsh side) the rows are taken as they are.
``reference_prefix_norms`` is the loop it replaces in quasigreedy, one
``weighted_spectrum`` and one ``lp_even_spectral`` per prefix, and
``reference_residuals`` the residual check quasigreedy now takes from
the rows' symbol vectors below the full prefix;
``reference_partial_sum_norms`` the one in partialsum, one
``partial_sum`` and one ``lp_even_spectral`` per grid point;
``reference_democracy`` the one in democracy, one ``sum_spectrum`` and
one ``lp_norm`` per set; ``reference_gather`` is the per-symbol loop
``gather`` replaced.  ``reference_khintchine`` is khintchine's
per-trial loop, one ``lp_norm`` per trial and p;
``reference_almost_greedy`` almostgreedy's per-candidate loop, one
residual spectrum ``f - weighted_spectrum(c)`` per candidate;
``reference_walsh_baseline`` walsh-baseline's per-prefix loop, one
spectrum and one ``lp_norm`` per prefix on each side.  Every batch of
a call shares one head/tail classification, and on the plan's
positions every call on the same plan and blocks (``_block_split``).
"""

import dataclasses
import math
import sys
import tracemalloc
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import walshlab.experiments as experiments
import walshlab.norms
import walshlab.spectra
from walshlab.blocks import BlockPlan, load_plan
from walshlab.experiments import (
    ExperimentConfig,
    _draw_positions,
    _norm,
    _record,
    _span_norms,
    almost_greedy_experiment,
    baseline_walsh_comparison,
    democracy_experiment,
    derive_seed,
    khintchine_experiment,
    partial_sum_experiment,
    quasi_greedy_experiment,
)
from walshlab.greedy import (
    analyze,
    greedy_order,
    partial_sum,
    synthesize_coefficients,
)
from walshlab.norms import (
    NormEstimate,
    even_moments,
    even_norms,
    even_split,
    lp_dense,
    lp_even_spectral,
    rademacher_fourth_moment,
    takes_split,
)
from walshlab.spectra import WalshSpectrum, rademacher_index, spectrum_scale, synthesize


def prefix_norms(plan, entries, cuts, ps):
    """(symbol vectors, norms) of the sum of the first ``cuts[r]``
    entries, row r at a time, through ``_span_norms``."""
    member = np.arange(len(entries)) < np.array(cuts, dtype=int)[:, None]
    keys, weights = [m for m, _ in entries], [w for _, w in entries]
    for rows, norms, _ in _span_norms(plan, keys, weights, member, ps):
        yield rows, norms


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
        for n, c in zip(plan.symbol_frequencies(k, range(plan.N[k - 1])), vectors[k].tolist()):
            if c != 0.0:
                terms[n] = c
    return WalshSpectrum(terms)


@st.composite
def plans_and_entries(draw):
    """A strictly increasing plan with blocks of at most 2^8 elements
    and distinct positions with coefficients; a third of the lists carry
    one dominant coefficient."""
    g = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    plan = BlockPlan(g)
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
    f = synthesize_coefficients(dict(entries), plan)
    coeffs = analyze(f, plan)
    ordered = [(m, coeffs[m]) for m in greedy_order(coeffs)]
    batch = list(prefix_norms(plan, ordered, range(1, len(ordered) + 1), [float(p)]))
    assert len(batch) == len(ordered)
    got = [norms[float(p)] for _, norms in batch]
    assert _relative_close(got, reference_prefix_norms(plan, ordered, p), 1e-12)
    for m, (rows, _) in enumerate(batch, start=1):
        assert plan.gather(rows) == plan.weighted_spectrum(ordered[:m])


@settings(max_examples=60, deadline=None)
@given(plans_and_entries(), st.integers(-300, 300))
def test_even_norms_scale_by_exact_powers_of_two(case, k):
    # ||2^k f||_p = 2^k ||f||_p bit for bit: both routes take the norm of
    # f / 2^e, e from f's largest |coefficient|, and scale it back
    plan, entries = case
    scaled = [(m, math.ldexp(w, k)) for m, w in entries]
    ps, cuts = [4.0, 6.0, 8.0, 10.0], range(1, len(entries) + 1)
    rows = prefix_norms(plan, entries, cuts, ps)
    for (_, norms), (_, got) in zip(rows, prefix_norms(plan, scaled, cuts, ps)):
        assert got == {p: math.ldexp(x, k) for p, x in norms.items()}
    f, f_scaled = plan.weighted_spectrum(entries), plan.weighted_spectrum(scaled)
    for p in (4, 6, 8, 10):
        assert lp_even_spectral(f_scaled, p).value == math.ldexp(lp_even_spectral(f, p).value, k)


def test_small_batches_give_the_same_rows(monkeypatch):
    plan = load_plan("desk")
    rng = np.random.default_rng(3)
    positions = rng.choice(plan.horizon_size, size=25, replace=False) + 1
    entries = [(int(m), float(rng.normal())) for m in positions]
    ps, cuts = [4.0, 6.0], range(1, 26)
    whole = list(prefix_norms(plan, entries, cuts, ps))
    # room for two rows of desk's 276 symbols per batch
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 2 * 8 * 276)
    split = list(prefix_norms(plan, entries, cuts, ps))
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
        ordered = [(m, coeffs[m]) for m in greedy_order(coeffs)]
        for p in (4, 8):
            norm_f = lp_even_spectral(f, p).value
            want = [v / norm_f for v in reference_prefix_norms(plan, ordered, p)]
            got = [r.value for r in records
                   if r.experiment == "quasigreedy" and r.trial == fi and r.p == p]
            assert _relative_close(got, want, 1e-12)
            assert all(r.exact for r in records if r.p == p)
    assert math.isfinite(max(r.value for r in records))


def test_prefix_batches_peak_near_six_batches(monkeypatch):
    plan = BlockPlan([2, 12])
    rng = np.random.default_rng(8)
    positions = rng.choice(plan.horizon_size, size=120, replace=False) + 1
    entries = [(int(m), float(rng.normal())) for m in positions]
    budget = 1 << 20
    monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
    tracemalloc.start()
    try:
        count = sum(1 for _ in prefix_norms(plan, entries, range(1, 121), [4.0, 10.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 120 and peak <= 7 * budget


def test_even_moments_rows_equal_dense_with_a_wide_head():
    # bits 0..13 are head, of rank 3 (8 cells), 1 << 3 lies inside
    # them, 1 << 16 and 1 << 20 are the tail
    freqs = [0b11 << 12, 0b111111111111, 1 << 3, 1 << 16, 1 << 20]
    coeffs = np.random.default_rng(12).normal(size=(3, len(freqs)))
    coeffs[1, :2] = 0.0  # a row whose own head would be narrow
    got = even_moments(even_split(freqs), coeffs, [2, 3])
    for row, moments in zip(coeffs.tolist(), got):
        f = WalshSpectrum(dict(zip(freqs, row)))
        for m, x in zip([2, 3], moments):
            assert x == pytest.approx(lp_dense(f, 2 * m).value ** (2 * m), rel=1e-12)
    assert even_moments(even_split(freqs), coeffs, []).shape == (3, 0)


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
    f = synthesize_coefficients(dict(entries), plan)
    coeffs = list(analyze(f, plan).items())  # basis order
    cuts = [bisect_right([m for m, _ in coeffs], n) for n in grid]
    got = [norms[p] for _, norms in prefix_norms(plan, coeffs, cuts, [p])]
    want = reference_partial_sum_norms(plan, f, grid, p)
    norm_f = want[-1]
    for cut, a, b in zip(cuts, got, want):
        if cut:
            assert abs(a - b) <= 1e-12 * b
        else:  # S_n f = 0; the per-point route may leave rounding noise
            assert a == 0.0 and b <= 1e-12 * norm_f
    # the ratios do not change when the coefficients are scaled
    scaled = [(m, scale * c) for m, c in coeffs]
    got_scaled = [norms[p] for _, norms in prefix_norms(plan, scaled, cuts, [p])]
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


def reference_democracy(cfg):
    """The per-set loop democracy replaced: one ``sum_spectrum`` and one
    ``lp_norm`` per drawn set, p = 2 from Parseval."""
    plan, records = cfg.plan, []
    for size in cfg.sizes:
        for trial in range(cfg.trials):
            set_seed = derive_seed(cfg.seed, 2, size, trial)
            members = _draw_positions(np.random.default_rng(set_seed), plan, size)
            spectrum = plan.sum_spectrum(int(m) for m in members)
            scale = math.sqrt(size)
            for p_idx, p in enumerate(cfg.p_values):
                est = (NormEstimate(2.0, scale, "exact") if p == 2.0
                       else _norm(spectrum, p, cfg, 3, size, trial, p_idx))
                records.append(_record(
                    "democracy", plan.label(), p, size, trial, est, scale, set_seed
                ))
    return records


@st.composite
def democracy_configs(draw):
    """A strictly increasing plan with blocks of at most 2^8 elements,
    a few set sizes and trials, and a list of p from 2, 3, 4, 6, 8, 10
    in any order, repeats allowed."""
    g = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    plan = BlockPlan(g)
    sizes = draw(st.lists(
        st.integers(1, min(plan.horizon_size, 40)), min_size=1, max_size=3
    ))
    ps = draw(st.lists(st.sampled_from([2.0, 3.0, 4.0, 6.0, 8.0, 10.0]), min_size=1, max_size=6))
    return ExperimentConfig(
        plan=plan, p_values=tuple(ps), sizes=tuple(sizes),
        trials=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2 ** 32)),
        mc_samples=200,
    )


@settings(max_examples=40, deadline=None)
@given(democracy_configs(), st.sampled_from([1, 3, 8]))
def test_democracy_rows_equal_the_per_set_loop(cfg, rows_per_batch):
    records, summary = democracy_experiment(cfg)
    want = reference_democracy(cfg)
    assert len(records) == len(want)
    for got, ref in zip(records, want):
        if got.p in (4.0, 6.0, 8.0, 10.0):
            assert abs(got.value - ref.value) <= 1e-12 * ref.value
            assert got == ref._replace(value=got.value)
        else:  # Parseval and the dense or sampled route read the same spectrum
            assert got == ref
    assert summary["spectrum_route_dev_max"] <= 1e-12
    # a set's row does not depend on the batch it falls in
    symbols = sum(cfg.plan.N)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_BATCH_BYTES", 8 * symbols * rows_per_batch)
        assert democracy_experiment(cfg) == (records, summary)


def test_democracy_takes_even_norms_from_rows(monkeypatch):
    calls = {"even": [], "sum_spectrum": 0}

    def counting_even(f, p, *args):
        calls["even"].append(p)
        return lp_even_spectral(f, p, *args)

    plan = load_plan("desk")
    sum_spectrum = type(plan).sum_spectrum

    def counting_sum_spectrum(self, indices):
        calls["sum_spectrum"] += 1
        return sum_spectrum(self, indices)

    monkeypatch.setattr(experiments, "lp_even_spectral", counting_even)
    monkeypatch.setattr(walshlab.norms, "lp_even_spectral", counting_even)
    monkeypatch.setattr(type(plan), "sum_spectrum", counting_sum_spectrum)
    cfg = ExperimentConfig(
        plan=plan, p_values=(2.0, 4.0, 6.0, 12.0), sizes=(5, 60, 200), trials=4, seed=9,
    )
    records, summary = democracy_experiment(cfg)
    # only the first set's cross-check, at 4 and 6, reads a spectrum
    # there; p = 12 is above the split and samples every set's spectrum
    assert calls == {"even": [4, 6], "sum_spectrum": 1}
    assert len(records) == 4 * 3 * 4
    assert all(r.exact == (r.p != 12.0) for r in records)
    assert summary["spectrum_route_dev_max"] <= 1e-12


def test_democracy_batches_peak_near_six_batches(monkeypatch):
    plan = load_plan("desk")
    cfg = ExperimentConfig(
        plan=plan, p_values=(2.0, 4.0), sizes=tuple(range(1, 201)), trials=20, seed=3,
    )
    democracy_experiment(ExperimentConfig(plan=plan, sizes=(3,), trials=1))
    budget = 1 << 20
    monkeypatch.setattr(experiments, "_BATCH_BYTES", budget)
    tracemalloc.start()
    try:
        records, _ = democracy_experiment(cfg)
        # the records are the output and stay; the batches must not
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # 4,000 sets make about nine batches of 1,899 rows of desk's 276 symbols
    assert len(records) == 8000 and peak - kept <= 7 * budget
    # rows over Walsh frequencies: walsh-baseline's two sides, each nine
    # batches of 1,025 rows of 2^10 frequencies or 1,044 symbols
    cfg = ExperimentConfig(
        plan=BlockPlan([2, 4, 10]), p_values=(2.0, 4.0), seed=3,
        corpus={"kind": "adversarial_walsh", "depth": 10, "count": 1},
    )
    tracemalloc.start()
    try:
        records, _ = baseline_walsh_comparison(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 2 * 2 * 1024 and peak - kept <= 7 * budget


def test_partialsum_p2_ratios_agree_from_both_sides():
    cfg = ExperimentConfig(
        plan=load_plan("desk"), p_values=(2.0, 4.0), seed=6,
        corpus={"kind": "mixed", "count": 5, "terms": 50},
    )
    _, summary = partial_sum_experiment(cfg)
    assert summary["p2_max_over_all_n"] == 1.0  # at most 1 by construction
    assert summary["p2_route_dev_max"] <= 1e-12


def reference_khintchine(cfg):
    """The per-trial loop khintchine replaced: one spectrum and one
    ``lp_norm`` per trial and p."""
    records, identity_dev, label = [], 0.0, cfg.plan.label()
    for trial in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, 9, trial)
        rng = np.random.default_rng(trial_seed)
        length = int(rng.integers(1, cfg.max_terms + 1))
        a = rng.normal(size=length)
        a /= np.sqrt(np.sum(a * a))
        f = WalshSpectrum({rademacher_index(j + 1): float(a[j]) for j in range(length)})
        l2 = float(np.sqrt(np.sum(a * a)))
        for p in cfg.p_values:
            est = _norm(f, p, cfg, 9, trial)
            records.append(
                _record("khintchine", label, p, length, trial, est, l2, trial_seed)
            )
        if 4.0 in cfg.p_values:
            moment_dense = float(np.mean(synthesize(f, length) ** 4))
            gap = abs(moment_dense - rademacher_fourth_moment(a))
            identity_dev = max(identity_dev, gap)
    return records, identity_dev


# Zero padding regroups the tail's power sums, and the cumulant
# recursion magnifies that as p grows: over 140,000 trials of 1 to 16
# terms the batch rows drifted from the per-trial split by at most
# 6.7e-16, 1.8e-15, 1.1e-14 and 1.5e-13 relative at p = 4, 6, 8, 10.
EVEN_DRIFT = {4.0: 1e-14, 6.0: 1e-14, 8.0: 1e-13, 10.0: 1e-12}


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 16),
    st.sets(st.sampled_from([2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0]), min_size=1),
    st.integers(0, 2 ** 32),
    st.integers(1, 7),
)
def test_khintchine_batches_equal_the_per_trial_loop(
    trials, max_terms, ps, seed, per_batch
):
    cfg = ExperimentConfig(
        plan=load_plan("desk"), p_values=tuple(sorted(ps)), trials=trials, seed=seed,
        max_terms=max_terms, mc_samples=200,
    )
    with pytest.MonkeyPatch.context() as mp:
        # batches of per_batch rows, so most cases split into several
        mp.setattr(experiments, "_BATCH_BYTES", 8 * max_terms * per_batch)
        records, summary = khintchine_experiment(cfg)
    want, identity_dev = reference_khintchine(cfg)
    assert len(records) == len(want)
    for got, ref in zip(records, want):
        if got.p in EVEN_DRIFT:
            assert abs(got.value - ref.value) <= EVEN_DRIFT[got.p] * ref.value
            assert got == ref._replace(value=got.value)
        else:
            assert got == ref
    assert summary["fourth_moment_dev_max"] == identity_dev
    # a trial's row does not depend on the batch it falls in
    assert khintchine_experiment(cfg)[0] == records


def test_khintchine_takes_even_norms_from_one_pass_per_batch(monkeypatch):
    calls = {"even": [], "norms": []}

    def counting_even(f, p, *args):
        calls["even"].append(p)
        return lp_even_spectral(f, p, *args)

    def counting_norms(split, coeffs, ps, *args):
        calls["norms"].append((len(split.in_tail), coeffs.shape, list(ps)))
        return even_norms(split, coeffs, ps, *args)

    monkeypatch.setattr(walshlab.norms, "lp_even_spectral", counting_even)
    monkeypatch.setattr(experiments, "even_norms", counting_norms)
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 8 * 16 * 5)
    cfg = ExperimentConfig(
        plan=load_plan("desk"), p_values=(2.0, 3.0, 4.0, 6.0), trials=12, seed=81,
    )
    records, _ = khintchine_experiment(cfg)
    # p = 2 stays on each trial's Parseval sum
    assert calls["even"] == [2] * 12
    assert calls["norms"] == [(16, (5, 16), [4.0, 6.0])] * 2 + [(16, (2, 16), [4.0, 6.0])]
    assert len(records) == 12 * 4 and all(r.exact for r in records)


def reference_almost_greedy(cfg):
    """The per-candidate loop almostgreedy replaced: every candidate's
    residual f - P_c f as the spectrum ``f - weighted_spectrum(c)``,
    p = 2 from the squares of the coefficients outside c."""
    plan, records = cfg.plan, []
    for fi, f, coeffs, _ in experiments._corpus_expansions(cfg):
        order = greedy_order(coeffs)
        support = sorted(coeffs)
        for m in range(1, len(order)):
            greedy_set = frozenset(order[:m])
            candidates = {greedy_set, frozenset(support[:m])}
            for ci in range(cfg.random_candidates):
                rng = np.random.default_rng(derive_seed(cfg.seed, 10, fi, m, ci))
                pick = rng.choice(len(support), size=m, replace=False)
                candidates.add(frozenset(support[int(x)] for x in pick))
            residuals = {}
            for cand in candidates:
                rest = f - plan.weighted_spectrum((j, coeffs[j]) for j in sorted(cand))
                l2 = math.sqrt(math.fsum(
                    coeffs[j] * coeffs[j] for j in support if j not in cand
                ))
                residuals[cand] = [
                    NormEstimate(2.0, l2, "exact") if p == 2.0 else _norm(rest, p, cfg, 11)
                    for p in cfg.p_values
                ]
            for p_idx, p in enumerate(cfg.p_values):
                denom = min((r[p_idx] for r in residuals.values()), key=lambda e: e.value)
                est = residuals[greedy_set][p_idx]
                records.append(
                    _record("almostgreedy", plan.label(), p, m, fi, est, denom, cfg.seed)
                )
    return records


def assert_rows_close(records, want, exact_p=(2.0,)):
    """Equal rows, but values at p outside ``exact_p`` within 1e-12 relative."""
    assert len(records) == len(want)
    for got, ref in zip(records, want):
        if got.p in exact_p:
            assert got == ref
        else:
            assert abs(got.value - ref.value) <= 1e-12 * ref.value
            assert got == ref._replace(value=got.value)


def test_almostgreedy_builds_each_candidate_spectrum_once():
    # on g = (2, 4) every residual has depth <= 24, so p = 3 is dense on
    # both routes
    plan = BlockPlan([2, 4])
    weighted_spectrum, gather, span_norms = (
        type(plan).weighted_spectrum, type(plan).gather, experiments._span_norms
    )
    calls = {"built": 0, "gathered": 0, "span_norms": 0, "rows": 0}

    def counting_weighted(self, entries):
        calls["built"] += 1
        return weighted_spectrum(self, entries)

    def counting_gather(self, vectors):
        # only the driver's own calls, made inside ``_estimates``
        calls["gathered"] += sys._getframe(1).f_globals is experiments.__dict__
        return gather(self, vectors)

    def counting_span_norms(*args):
        calls["span_norms"] += 1
        for row in span_norms(*args):
            calls["rows"] += 1
            yield row

    corpus = {"kind": "mixed", "count": 3, "terms": 8}
    p_sets = [(2.0,), (2.0, 3.0), (2.0, 3.0, 4.0, 6.0), (6.0, 2.0, 3.0, 6.0),
              (4.0, 2.5, 3.0)]
    for ps in p_sets:
        cfg = ExperimentConfig(
            plan=plan, p_values=ps, seed=14, mc_samples=200, random_candidates=3,
            corpus=corpus,
        )
        want = reference_almost_greedy(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(plan), "weighted_spectrum", counting_weighted)
            mp.setattr(type(plan), "gather", counting_gather)
            mp.setattr(experiments, "_span_norms", counting_span_norms)
            calls.update(built=0, gathered=0, span_norms=0, rows=0)
            list(experiments._corpus_expansions(cfg))
            corpus_built = calls["built"]
            calls.update(built=0, gathered=0, span_norms=0, rows=0)
            records, _ = almost_greedy_experiment(cfg)
        assert_rows_close(records, want)
        # the corpus's spectra alone, one _span_norms call per m, and one
        # gather per candidate only where a p is outside the split
        assert calls["built"] == corpus_built
        assert calls["span_norms"] == len({(r.trial, r.size_or_m) for r in records})
        outside_split = any(p in (2.5, 3.0) for p in ps)
        assert calls["gathered"] == (calls["rows"] if outside_split else 0)
        assert calls["rows"] > calls["span_norms"]


def reference_walsh_baseline(cfg):
    """The per-prefix loop walsh-baseline replaced: one spectrum per
    greedy prefix on the Walsh side, one ``weighted_spectrum`` per
    prefix and one for the whole expansion on the mixed-basis side,
    every norm ``lp_norm`` of that spectrum."""
    plan, label, records = cfg.plan, cfg.plan.label(), []
    corpus = experiments.corpus_generate(cfg.corpus, derive_seed(cfg.seed, 12), plan)
    for fi, f in enumerate(corpus):
        walsh = dict(f.items())
        psi = dict(
            (t + 1, walsh[n]) for t, n in enumerate(sorted(walsh))
        )
        walsh_order = greedy_order(walsh)
        psi_order = greedy_order(psi)
        f_psi = synthesize_coefficients(psi, plan)
        norms_walsh = {p: _norm(f, p, cfg, 13, fi) for p in cfg.p_values}
        norms_psi = {p: _norm(f_psi, p, cfg, 14, fi) for p in cfg.p_values}
        for m in range(1, len(walsh_order) + 1):
            g_walsh = WalshSpectrum({n: walsh[n] for n in walsh_order[:m]})
            g_psi = plan.weighted_spectrum((j, psi[j]) for j in psi_order[:m])
            for p in cfg.p_values:
                for plan_label, g, norms, part in [
                    ("walsh", g_walsh, norms_walsh, 15), (label, g_psi, norms_psi, 16)
                ]:
                    est = _norm(g, p, cfg, part, fi, m)
                    records.append(_record(
                        "walsh-baseline", plan_label, p, m, fi, est, norms[p], cfg.seed
                    ))
    return records


@st.composite
def walsh_baseline_configs(draw):
    """A shallow plan (blocks of at most 2^4 elements), an
    adversarial_walsh corpus of depth at most 5 that fits it, and p from
    2, 2.5, 4 and 6."""
    g = sorted(draw(st.sets(st.integers(1, 4), min_size=1, max_size=4)))
    plan = BlockPlan(g)
    depth = draw(st.integers(0, min(5, plan.horizon_size.bit_length() - 1)))
    ps = draw(st.lists(st.sampled_from([2.0, 2.5, 4.0, 6.0]), min_size=1, max_size=4))
    corpus = {"kind": "adversarial_walsh", "depth": depth, "count": draw(st.integers(1, 3)),
              "tilt": draw(st.sampled_from([1e-3, 0.5, -0.05]))}
    return ExperimentConfig(
        plan=plan, p_values=tuple(ps), seed=draw(st.integers(0, 2 ** 32)),
        corpus=corpus, mc_samples=200,
    )


@settings(max_examples=40, deadline=None)
@given(walsh_baseline_configs())
@example(ExperimentConfig(  # late elements of block 4 reach r_42: p = 2.5 is sampled
    plan=BlockPlan([1, 2, 3, 5]), p_values=(2.5, 2.0), seed=3, mc_samples=200,
    corpus={"kind": "adversarial_walsh", "depth": 5, "count": 2},
))
def test_walsh_baseline_rows_equal_the_per_prefix_loop(cfg):
    records, _ = baseline_walsh_comparison(cfg)
    want = reference_walsh_baseline(cfg)
    # both sides take p = 2 from their rows' squared sums and the split p
    # from one split of their greedy order; at any other p a Walsh row
    # reads the loop's spectrum, term for term
    assert_rows_close(records, want, exact_p=())

    def walsh_off_split(rows):
        return [r for r in rows if r.plan == "walsh" and not takes_split(r.p)]

    assert walsh_off_split(records) == walsh_off_split(want)


def test_walsh_baseline_splits_each_walsh_side_once(monkeypatch):
    plan = BlockPlan([2, 4, 6])
    split_sizes, built = [], []
    init = WalshSpectrum.__init__

    def counting_split(freqs):
        split_sizes.append(len(freqs))
        return even_split(freqs)

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(experiments, "even_split", counting_split)
    monkeypatch.setattr(WalshSpectrum, "__init__", counting_init)
    corpus = {"kind": "adversarial_walsh", "depth": 6, "count": 3}
    # p = 3 needs a spectrum for the whole function and each of its 64
    # prefixes; the mixed side gathers its spectra without __init__
    for ps, per_function in [((2.0, 4.0, 6.0), 0), ((4.0, 3.0, 2.0), 1 + 64)]:
        cfg = ExperimentConfig(plan=plan, p_values=ps, seed=7, corpus=corpus)
        experiments._block_split.cache_clear()
        split_sizes.clear()
        built.clear()
        records, _ = baseline_walsh_comparison(cfg)
        # one split of the 64 frequencies per Walsh side; the mixed side's
        # one of the 84 symbols of blocks 1-3 is cached
        assert split_sizes == [64, 84, 64, 64]
        # the corpus's three spectra, then the Walsh side's
        assert len(built) == 3 + 3 * per_function
        assert len(records) == 2 * len(ps) * 64 * 3
        assert all(r.exact for r in records if r.plan == "walsh")


def reference_residuals(plan, f, prefix_rows):
    """||f - G_m f||_2 per prefix as quasigreedy took it for every m
    before: one spectrum of the prefix, one of the difference, and its
    Parseval sum."""
    return [lp_even_spectral(f - plan.gather(rows), 2).value for rows in prefix_rows]


@st.composite
def plans_and_corpus_functions(draw):
    """A strictly increasing plan with blocks of at most 2^8 elements
    and one function of a mixed-corpus kind in its span."""
    g = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    plan = BlockPlan(g)
    kind = draw(st.sampled_from(experiments._MIXED_ROTATION))
    spec = {**kind, "count": 1, "terms": draw(st.integers(1, 40))}
    return plan, experiments.corpus_generate(spec, draw(st.integers(0, 2 ** 32)), plan)[0]


@settings(max_examples=60, deadline=None)
@given(plans_and_corpus_functions(), st.floats(-20.0, 20.0).map(lambda e: 10.0 ** e))
def test_symbol_residuals_equal_the_per_prefix_spectra(case, scale):
    plan, f = case
    f = spectrum_scale(f, scale)
    coeffs = analyze(f, plan)
    ordered = [(m, coeffs[m]) for m in greedy_order(coeffs)]
    cuts = range(1, len(ordered) + 1)
    prefix_rows = [rows for rows, _ in prefix_norms(plan, ordered, cuts, [])]
    symbols_f = plan.scatter(f)
    got = [math.sqrt(experiments._residual_sq(symbols_f, rows)) for rows in prefix_rows]
    want = reference_residuals(plan, f, prefix_rows)
    # both are differences of functions of norm about ||f||, so their
    # rounding scales with ||f||, not with the residual
    norm_f = lp_even_spectral(f, 2).value
    assert len(got) == len(want) == len(ordered)
    assert all(abs(a - b) <= 1e-12 * norm_f for a, b in zip(got, want))
    if ordered:
        assert got[-1] <= 1e-12 * norm_f


def test_quasigreedy_reads_spectra_once_per_function(monkeypatch):
    plan = load_plan("desk")
    calls = {"add": 0, "even": [], "gather": 0}
    spectrum_add, gather = walshlab.spectra.spectrum_add, type(plan).gather

    def counting_add(f, g):
        calls["add"] += 1
        return spectrum_add(f, g)

    def counting_even(f, p, *args):
        calls["even"].append(p)
        return lp_even_spectral(f, p, *args)

    def counting_gather(self, vectors):
        # only the driver's own calls, some made inside ``_estimates``;
        # corpus synthesis gathers too
        calls["gather"] += sys._getframe(1).f_globals is experiments.__dict__
        return gather(self, vectors)

    monkeypatch.setattr(walshlab.spectra, "spectrum_add", counting_add)
    monkeypatch.setattr(experiments, "lp_even_spectral", counting_even)
    monkeypatch.setattr(walshlab.norms, "lp_even_spectral", counting_even)
    monkeypatch.setattr(type(plan), "gather", counting_gather)
    corpus = {"kind": "mixed", "count": 3, "terms": 12}
    cfg = ExperimentConfig(plan=plan, p_values=(2.0, 4.0), seed=5, corpus=corpus)
    records, summary = quasi_greedy_experiment(cfg)
    prefixes = sum(r.experiment == "quasigreedy-residual" for r in records)
    assert prefixes > 3
    # f's own p = 4 norm, then the full prefix's residual at p = 2; the
    # spectrum of that prefix is the driver's only gather
    assert calls == {"add": 3, "even": [4, 2] * 3, "gather": 3}
    assert summary["residual_parseval_dev_max"] <= 1e-12
    assert summary["terminal_residual_max"] <= 1e-12
    calls.update(add=0, even=[], gather=0)
    cfg = dataclasses.replace(cfg, p_values=(2.0, 3.0, 4.0), mc_samples=200)
    with_p3, summary_p3 = quasi_greedy_experiment(cfg)
    # p = 3 reads every prefix's spectrum
    assert calls == {"add": 3, "even": [4, 2] * 3, "gather": prefixes}
    assert summary_p3 == {**summary, "empirical_constant": summary_p3["empirical_constant"]}
    assert [r for r in with_p3 if r.p != 3.0] == records


def run_recording_moments(driver, cfg, uncached=False, reclassify=None):
    """(records, every ``even_norms`` result) of one driver run.  With
    ``uncached``, ``_span_norms`` classifies its frequency list afresh on
    every call; ``reclassify(width)`` replaces every batch's split."""
    moments = []

    def recording(split, coeffs, ps, *args):
        if reclassify is not None:
            split = reclassify(coeffs.shape[1])
        moments.append(even_norms(split, coeffs, ps, *args))
        return moments[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "even_norms", recording)
        if uncached:
            mp.setattr(experiments, "_block_split", experiments._block_split.__wrapped__)
        return driver(cfg), moments


def test_cached_and_fresh_splits_give_equal_moments(monkeypatch):
    plan = load_plan("desk")
    # three rows of desk's symbols per batch; khintchine's 9-term rows
    # then come 92 to a batch
    monkeypatch.setattr(experiments, "_BATCH_BYTES", 3 * 8 * sum(plan.N))
    cfg = ExperimentConfig(
        plan=plan, p_values=(2.0, 4.0, 6.0, 10.0), sizes=(1, 4, 30), trials=100,
        seed=12, corpus={"kind": "mixed", "count": 3, "terms": 25}, max_terms=9,
    )

    def rademachers(width):
        return even_split([rademacher_index(j + 1) for j in range(width)])

    for driver, fresh in [
        (democracy_experiment, {"uncached": True}),
        (partial_sum_experiment, {"uncached": True}),
        # khintchine classifies once per call, so afresh means per batch
        (khintchine_experiment, {"reclassify": rademachers}),
    ]:
        driver(cfg)  # the cache is warm from here on
        cached_records, cached = run_recording_moments(driver, cfg)
        fresh_records, fresh_moments = run_recording_moments(driver, cfg, **fresh)
        assert len(cached) == len(fresh_moments) > 1
        assert cached == fresh_moments
        assert cached_records == fresh_records
    assert experiments._block_split.cache_info().hits > 0


def test_quasigreedy_checks_every_prefix_residual(monkeypatch):
    # a block on one side only counts in full
    left = {1: np.array([3.0, 0.0]), 2: np.ones(4)}
    right = {2: np.zeros(4), 3: np.array([0.0, 4.0])}
    assert experiments._residual_sq(left, right) == 9.0 + 4.0 + 16.0
    # off by 1 at every prefix but the full one, whose residual is ~0:
    # the check reads each prefix, terminal_residual_max only the last
    residual_sq = experiments._residual_sq

    def off_by_one(vectors, rows):
        x = residual_sq(vectors, rows)
        return x + 1.0 if x > 1e-20 else x

    monkeypatch.setattr(experiments, "_residual_sq", off_by_one)
    cfg = ExperimentConfig(
        plan=load_plan("desk"), p_values=(2.0, 4.0), seed=5,
        corpus={"kind": "decay", "alpha": 1.0, "count": 2, "terms": 12},
    )
    _, summary = quasi_greedy_experiment(cfg)
    assert summary["residual_parseval_dev_max"] >= 0.1
    assert summary["terminal_residual_max"] <= 1e-12


def test_span_norms_reuse_the_split_of_their_blocks(monkeypatch):
    classified = []

    def counting_split(freqs):
        classified.append(len(freqs))
        return even_split(freqs)

    experiments._block_split.cache_clear()
    monkeypatch.setattr(experiments, "even_split", counting_split)
    plan = load_plan("desk")
    # positions in blocks 1 and 3 (4 and 256 symbols)
    entries = [(2, 0.5), (30, -1.5), (100, 2.0), (4, 0.25)]
    cuts = range(1, 5)
    first = [norms for _, norms in prefix_norms(plan, entries, cuts, [4.0, 6.0])]
    assert classified == [4 + 256]
    # an equal plan built anew and the entries in another order: same blocks
    again = list(prefix_norms(load_plan("desk"), entries[::-1], cuts, [4.0]))
    assert classified == [4 + 256] and len(again) == 4
    assert [norms for _, norms in prefix_norms(plan, entries, cuts, [4.0, 6.0])] == first
    # block 2 joins: a new classification, once
    list(prefix_norms(plan, entries + [(10, 1.0)], range(1, 6), [4.0]))
    list(prefix_norms(plan, entries + [(12, 1.0)], range(1, 6), [4.0]))
    assert classified == [4 + 256, 4 + 16 + 256]
