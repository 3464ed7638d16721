import json
import re

import numpy as np
import pytest

from walshlab.blocks import (
    MAX_EXPONENT,
    BlockPlan,
    load_plan,
    plan_from_json,
)
from walshlab.errors import BudgetError, HorizonError, ScheduleError
from walshlab.olevskii import row_abs_sum
from walshlab.spectra import (
    WalshSpectrum,
    inner_product,
    phi_index,
    rademacher_index,
    synthesize,
)


def test_presets():
    desk = load_plan("desk")
    assert desk.g == (2, 4, 8)
    assert desk.N == (4, 16, 256)
    assert desk.F == (3, 18, 273)
    assert desk.democracy_condition and not desk.lambda_separation

    paper = load_plan("paper")
    assert paper.g == (10, 100)
    assert paper.N == (1 << 10, 1 << 100)
    assert paper.democracy_condition and paper.lambda_separation


def test_validate_flags():
    plan = BlockPlan([2, 4, 8])
    assert plan.democracy_condition and not plan.lambda_separation
    weak = BlockPlan([2, 3])
    assert not weak.democracy_condition


def test_validate_rejects_non_increasing():
    with pytest.raises(ScheduleError):
        BlockPlan([3, 2])
    with pytest.raises(ScheduleError):
        BlockPlan([2, 2])
    with pytest.raises(ScheduleError):
        BlockPlan([])
    with pytest.raises(ScheduleError):
        BlockPlan((0, 2))


@pytest.mark.parametrize("spec, message", [
    ({"g": [2.7, 4.2, 8.9]}, "g(1) must be an integer"),
    ({"g": [2, True]}, "g(2) must be a number, got True"),
    ({"g": [2, 10**9]}, "above MAX_EXPONENT"),
    ([2, MAX_EXPONENT + 1], "above MAX_EXPONENT"),
    ({"g": [2, float("inf")]}, "g(2) must be finite"),
    ({"g": [2, "x"]}, "g(2)"),
    ({"g": "248"}, "must be a non-empty list"),
    (5, "must be a non-empty list"),
    ([], "must be a non-empty list"),
    ({"preset": ["desk"]}, "unknown preset"),
    ({"plan": "desk"}, "needs a 'g' list"),
])
def test_plan_spec_errors(spec, message):
    with pytest.raises(ScheduleError, match=re.escape(message)):
        plan_from_json(spec)


def test_plan_spec_forms_agree():
    desk = load_plan("desk")
    for spec in ("desk", [2, 4, 8], (2.0, 4, "8"), {"preset": "desk"}, {"g": [2, 4, 8]}):
        assert plan_from_json(spec) == desk
    assert BlockPlan([1, MAX_EXPONENT]).N[-1] == 1 << MAX_EXPONENT


def test_offsets_consistent():
    plan = BlockPlan([1, 2, 3, 4, 5])
    prev = 0
    for size, f in zip(plan.N, plan.F):
        assert f - prev == size - 1
        prev = f


def test_index_maps():
    plan = BlockPlan([2, 4])
    assert plan.to_global(1, 4) == 4
    assert plan.to_global(2, 1) == 5
    assert plan.to_block(20) == (2, 16)
    for m in range(1, plan.horizon_size + 1):
        k, i = plan.to_block(m)
        assert plan.to_global(k, i) == m
    with pytest.raises(HorizonError):
        plan.to_block(21)
    with pytest.raises(HorizonError):
        plan.to_global(3, 1)
    with pytest.raises(HorizonError):
        plan.to_global(1, 5)


def test_psi_block1_rotation():
    plan = BlockPlan([1])
    psi1 = plan.psi_spectrum(1, 1)
    psi2 = plan.psi_spectrum(1, 2)
    s = 2.0 ** -0.5
    assert psi1.allclose(WalshSpectrum({0: s, 1: s}))
    assert psi2.allclose(WalshSpectrum({0: s, 1: -s}))
    assert abs(inner_product(psi1, psi2)) < 1e-15
    assert inner_product(psi1, psi1) == pytest.approx(1.0, abs=1e-15)


def test_psi_sparsity_and_frequencies():
    plan = BlockPlan([2, 4])
    # block 2 elements each hold g(2)+1 = 5 nonzero terms, drawn from
    # phi_2 = W_3 and the Rademachers r_4..r_18
    allowed = {phi_index(2)} | {rademacher_index(j) for j in range(4, 19)}
    union = set()
    for i in range(1, 17):
        psi = plan.psi_spectrum(2, i)
        assert len(psi) == 5
        assert set(psi).issubset(allowed)
        assert psi[phi_index(2)] == pytest.approx(0.25)
        union |= set(psi)
    assert union == allowed


def test_psi_unit_norm_every_block():
    plan = BlockPlan([2, 4, 8])
    for k in (1, 2, 3):
        for i in (1, plan.N[k - 1] // 2, plan.N[k - 1]):
            psi = plan.psi_spectrum(k, i)
            assert inner_product(psi, psi) == pytest.approx(1.0, abs=1e-12)


def test_gram_identity_two_blocks():
    plan = BlockPlan([2, 4])
    els = [plan.psi_spectrum(*plan.to_block(m)) for m in range(1, 21)]
    gram = np.array([[inner_product(a, b) for b in els] for a in els])
    assert np.max(np.abs(gram - np.eye(20))) < 1e-12


def test_uniform_bound_by_row_sums():
    plan = BlockPlan([1, 2, 3])  # F = (1, 4, 11)
    for k in (1, 2, 3):
        bound = row_abs_sum(plan.g[k - 1])
        for i in range(1, plan.N[k - 1] + 1):
            values = synthesize(plan.psi_spectrum(k, i), plan.F[-1])
            assert np.abs(values).max() <= bound + 1e-12


def test_completeness_partition_at_horizon():
    plan = BlockPlan([2, 4])
    union: set[int] = set()
    count = 0
    for k in (1, 2):
        for i in range(1, plan.N[k - 1] + 1):
            union |= set(plan.psi_spectrum(k, i))
        count += plan.N[k - 1]
    expected = {phi_index(k) for k in (1, 2)} | {
        rademacher_index(j) for j in range(1, plan.F[-1] + 1)
    }
    assert union == expected
    assert len(expected) == count


def test_sum_spectrum():
    plan = BlockPlan([1])
    s = plan.sum_spectrum([1, 2])
    assert s.allclose(WalshSpectrum({0: 2.0 ** 0.5}))
    # singletons match psi_spectrum
    assert plan.sum_spectrum([(1, 1)]).allclose(plan.psi_spectrum(1, 1))

    desk = BlockPlan([2, 4, 8])
    rng = np.random.default_rng(0)
    for _ in range(5):
        size = int(rng.integers(1, 60))
        members = rng.choice(desk.horizon_size, size=size, replace=False) + 1
        total = desk.sum_spectrum(int(m) for m in members)
        assert inner_product(total, total) == pytest.approx(size, abs=1e-10)


def test_repeated_indices_add():
    desk = BlockPlan([2, 4, 8])
    psi = desk.psi_spectrum(1, 3)
    assert desk.sum_spectrum([3, 3]) == 2 * psi
    # a position and its (k, i) spelling are the same element
    assert desk.sum_spectrum([(1, 3), 3]) == 2 * psi
    # weights add in order, so these sums are exact
    twice = desk.weighted_spectrum([(30, 0.5), (3, 1.0), ((3, 10), 0.25), (3, -0.5)])
    assert twice == desk.weighted_spectrum([(30, 0.75), (3, 0.5)])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_gather_refuses_non_finite_coefficients(bad):
    desk = load_plan("desk")
    with pytest.raises(ValueError, match="finite"):
        desk.gather({1: np.array([bad, 0.0, 0.0, 0.0])})
    with pytest.raises(ValueError, match="finite"):
        desk.gather({1: np.ones(4), 2: np.full(16, bad)})
    assert dict(desk.gather({1: np.array([1e308, 0.0, 0.0, 0.0])}).items()) == {0: 1e308}


def test_materialization_cap():
    paper = load_plan("paper")
    # block 1 is materializable, block 2 is astronomically wide
    psi = paper.psi_spectrum(1, 1)
    assert len(psi) == 11
    with pytest.raises(BudgetError):
        paper.psi_spectrum(2, 1)
    with pytest.raises(BudgetError):
        paper.sum_spectrum([(2, 1)])


def test_plan_json(tmp_path):
    assert plan_from_json({"g": [2, 4, 8]}).g == (2, 4, 8)
    assert plan_from_json({"preset": "desk"}).g == (2, 4, 8)
    with pytest.raises(ScheduleError):
        plan_from_json({"preset": "nope"})
    with pytest.raises(ScheduleError):
        plan_from_json({})
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"g": [1, 2]}))
    assert load_plan(str(path)).g == (1, 2)
