"""The plan's symbol map against the per-call loops it replaced.

``reference_analyze`` and ``reference_partial_sum`` are the loop
implementations that located every frequency inline; the library now
goes through ``BlockPlan.scatter``/``gather``.  The properties run over
random strictly increasing schedules with blocks of at most 2^8
elements.
"""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab import olevskii
from walshlab.blocks import MATERIALIZATION_CAP, BlockPlan, load_plan
from walshlab.errors import BudgetError, HorizonError
from walshlab.greedy import (
    ZERO_TOL,
    analyze,
    partial_sum,
    synthesize_coefficients,
)
from walshlab.spectra import WalshSpectrum, phi_index, rademacher_index


def _check_cap(plan, k):
    if plan.N[k - 1] > MATERIALIZATION_CAP:
        raise BudgetError(f"block {k} above cap")


def reference_analyze(f, plan):
    per_block = {}
    phis = {phi_index(k): k for k in range(1, plan.horizon_blocks + 1)}
    for n, c in f.items():
        if n.bit_count() == 1:
            j = n.bit_length()
            if not 1 <= j <= plan.F[-1]:
                raise HorizonError(f"r_{j} outside horizon")
            k = bisect_left(plan.F, j) + 1
            f_prev = plan.F[k - 2] if k >= 2 else 0
            col = j - f_prev + 1
        else:
            k = phis.get(n)
            if k is None:
                raise HorizonError(f"frequency {n:#x} is not spanned")
            col = 1
        _check_cap(plan, k)
        if k not in per_block:
            per_block[k] = np.zeros(plan.N[k - 1])
        per_block[k][col - 1] += c
    rows = {
        k: olevskii.matvec(plan.g[k - 1], per_block[k]) for k in sorted(per_block)
    }
    tol = ZERO_TOL * math.hypot(*(float(c) for row in rows.values() for c in row))
    pairs = []
    for k in sorted(rows):
        base = plan.to_global(k, 1) - 1
        for i, c in enumerate(rows[k], start=1):
            if abs(c) > tol:
                pairs.append((base + i, float(c)))
    return dict(pairs)


def reference_partial_sum(f, plan, n):
    if n == 0:
        return WalshSpectrum()
    k_edge, i_edge = plan.to_block(n)
    full_cut = plan.F[k_edge - 2] if k_edge >= 2 else 0
    phi_blocks = {phi_index(k): k for k in range(1, plan.horizon_blocks + 1)}
    kept = {}
    edge_symbols = np.zeros(plan.N[k_edge - 1])
    for freq, c in f.items():
        if freq.bit_count() == 1:
            j = freq.bit_length()
            if j > plan.F[-1]:
                raise HorizonError(f"r_{j} outside horizon")
            if j <= full_cut:
                kept[freq] = c
            elif j <= plan.F[k_edge - 1]:
                edge_symbols[j - full_cut] += c
        else:
            k = phi_blocks.get(freq)
            if k is None:
                raise HorizonError(f"frequency {freq:#x} is not spanned")
            if k < k_edge:
                kept[freq] = c
            elif k == k_edge:
                edge_symbols[0] += c
    if i_edge == plan.N[k_edge - 1]:
        projected = edge_symbols
    else:
        kk = plan.g[k_edge - 1]
        row_values = olevskii.matvec(kk, edge_symbols)
        row_values[i_edge:] = 0.0
        projected = olevskii.rmatvec(kk, row_values)
    f_prev = plan.F[k_edge - 2] if k_edge >= 2 else 0
    freqs = [phi_index(k_edge)] + [
        rademacher_index(f_prev + j - 1) for j in range(2, plan.N[k_edge - 1] + 1)
    ]
    for freq, c in zip(freqs, projected):
        if c != 0.0:
            kept[freq] = kept.get(freq, 0.0) + float(c)
    return WalshSpectrum(kept)


@st.composite
def plans_and_coefficients(draw):
    g = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    plan = BlockPlan(g)
    positions = draw(
        st.lists(st.integers(1, plan.horizon_size), min_size=1, max_size=24,
                 unique=True)
    )
    values = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    return plan, dict(zip(sorted(positions), values))


@st.composite
def plans_and_symbol_spectra(draw):
    """Spectra drawn on the plan's symbols directly, not through synthesis."""
    g = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    plan = BlockPlan(g)
    symbols = [
        n for k in range(1, plan.horizon_blocks + 1)
        for n in plan.symbol_frequencies(k)
    ]
    chosen = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=24,
                           unique=True))
    values = draw(st.lists(st.floats(-10.0, 10.0, allow_nan=False),
                           min_size=len(chosen), max_size=len(chosen)))
    return plan, WalshSpectrum(dict(zip(chosen, values)))


@settings(max_examples=60, deadline=None)
@given(plans_and_symbol_spectra())
def test_analyze_equals_reference(case):
    plan, f = case
    # as lists: dict equality would not check the basis order
    assert list(analyze(f, plan).items()) == list(reference_analyze(f, plan).items())


@settings(max_examples=40, deadline=None)
@given(plans_and_symbol_spectra(), st.data())
def test_partial_sum_equals_reference(case, data):
    plan, f = case
    n = data.draw(st.integers(0, plan.horizon_size))
    assert partial_sum(f, plan, n) == reference_partial_sum(f, plan, n)
    # block boundaries, where the edge block is full, too
    for n in plan.offsets:
        assert partial_sum(f, plan, n) == reference_partial_sum(f, plan, n)


@settings(max_examples=60, deadline=None)
@given(plans_and_coefficients())
def test_analyze_inverts_synthesis_in_every_block(case):
    plan, coeffs = case
    back = analyze(synthesize_coefficients(coeffs, plan), plan)
    assert back.keys() == coeffs.keys()
    for m in coeffs:
        assert abs(back[m] - coeffs[m]) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(plans_and_coefficients(), st.data())
def test_partial_sums_compose_to_the_smaller(case, data):
    plan, coeffs = case
    f = synthesize_coefficients(coeffs, plan)
    n = data.draw(st.integers(0, plan.horizon_size))
    m = data.draw(st.integers(0, plan.horizon_size))
    assert partial_sum(partial_sum(f, plan, m), plan, n).allclose(
        partial_sum(f, plan, min(n, m)), tol=1e-12
    )


def test_symbol_map_round_trips_on_desk():
    plan = load_plan("desk")
    for k in range(1, plan.horizon_blocks + 1):
        freqs = plan.symbol_frequencies(k)
        assert len(freqs) == plan.N[k - 1]
        assert [plan.locate(n) for n in freqs] == [
            (k, col) for col in range(1, plan.N[k - 1] + 1)
        ]
    # built once per plan
    assert plan.symbol_frequencies(3) is plan.symbol_frequencies(3)
    assert plan.offsets == (0, 4, 20, 276)
    with pytest.raises(HorizonError):
        plan.locate(1 << plan.F[-1])
    with pytest.raises(HorizonError):
        plan.locate(phi_index(4))


def test_symbol_cache_stays_out_of_equality_and_repr():
    a, b = BlockPlan([2, 4]), BlockPlan([2, 4])
    a.symbol_frequencies(2)
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b)


def test_gather_inverts_scatter():
    plan = load_plan("desk")
    f = synthesize_coefficients(dict([(2, 0.5), (30, -1.0)]), plan)
    assert plan.gather(plan.scatter(f)) == f


def test_paper_partial_sum_refuses_the_wide_block_before_allocating():
    paper = load_plan("paper")
    f = paper.psi_spectrum(1, 1)
    with pytest.raises(BudgetError):
        partial_sum(f, paper, 1025)
    wide = f + WalshSpectrum({rademacher_index(1030): 1.0, phi_index(2): -0.5})
    with pytest.raises(BudgetError):
        partial_sum(wide, paper, 1025)


def test_paper_partial_sum_drops_later_blocks_without_materializing():
    paper = load_plan("paper")
    f = paper.psi_spectrum(1, 1) + WalshSpectrum(
        {rademacher_index(1030): 1.0, phi_index(2): -0.5}
    )
    for n in (10, 1024):
        sn = partial_sum(f, paper, n)
        assert len(sn) == 11
        assert sn.allclose(paper.psi_spectrum(1, 1), tol=1e-12)
