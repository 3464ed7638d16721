"""Float even moments against the exact Q(sqrt 2) oracle (``exact.py``),
which shares no code with the norm engines."""

import importlib.util
import math
import pathlib
from decimal import Decimal, localcontext

import numpy as np

from walshlab.blocks import BlockPlan
from walshlab.experiments import ExperimentConfig, run_experiment
from walshlab.norms import lp_dense

_spec = importlib.util.spec_from_file_location(
    "exact", pathlib.Path(__file__).with_name("exact.py"))
exact = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(exact)


def _exact_norm(g, weights: dict, p: int = 4) -> Decimal:
    coeffs = exact.symbol_coefficients(g, weights)
    with localcontext() as ctx:
        ctx.prec = 60
        return exact.to_decimal(exact.even_moment(coeffs, p // 2)) ** (Decimal(1) / p)


def _ulps(got: float, want: Decimal) -> Decimal:
    return abs(Decimal(got) - want) / Decimal(math.ulp(float(want)))


def test_the_oracle_matches_the_dense_route_on_a_shallow_plan():
    # g = (2, 4) reaches depth 18, where lp_dense synthesizes every cell;
    # measured worst 1.27 ulp of the exact norm at p = 4, 0.73 at p = 6
    plan, rng = BlockPlan([2, 4]), np.random.default_rng(1)
    for _ in range(10):
        positions = rng.choice(plan.horizon_size, size=rng.integers(1, 12), replace=False)
        weights = {int(m) + 1: int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
                   for m in positions}
        f = plan.weighted_spectrum(weights.items())
        for p in (4, 6):
            assert _ulps(lp_dense(f, float(p)).value, _exact_norm(plan.g, weights, p)) <= 2


def _democracy_worst_ulps(p: int) -> Decimal:
    """Worst error, in ulps of the exact ratio, of 87 democracy rows of
    sets of up to 197 desk elements, whose spectra reach depth 273."""
    sizes = list(range(1, 201, 7))
    cfg = ExperimentConfig.from_dict(
        {"plan": "desk", "p": [p], "sizes": sizes, "trials": 3, "seed": 11})
    records, _ = run_experiment("democracy", cfg)
    assert len(records) == 3 * len(sizes) and all(r.exact for r in records)
    worst = Decimal(0)
    for r in records:
        # the set the row's seed draws, as democracy draws it
        drawn = np.random.default_rng(r.seed).choice(
            cfg.plan.horizon_size, size=r.size_or_m, replace=False)
        want = _exact_norm(cfg.plan.g, {int(m) + 1: 1 for m in drawn}, p)
        worst = max(worst, _ulps(r.value, want / Decimal(r.size_or_m).sqrt()))
    return worst


def test_democracy_p4_rows_are_within_two_ulps_of_the_exact_ratio():
    # measured worst 1.29 ulp, 54 rows within 0.5
    worst = _democracy_worst_ulps(4)
    assert worst <= 2, f"worst error {worst:.3f} ulp"


def test_democracy_p6_rows_are_within_three_ulps_of_the_exact_ratio():
    # the same sets at p = 6: measured worst 2.17 ulp
    worst = _democracy_worst_ulps(6)
    assert worst <= 3, f"worst error {worst:.3f} ulp"


def test_democracy_p8_rows_are_within_two_ulps_of_the_exact_ratio():
    # the same sets at p = 8: measured worst 1.72 ulp
    worst = _democracy_worst_ulps(8)
    assert worst <= 2, f"worst error {worst:.3f} ulp"


def test_democracy_p10_rows_are_within_three_ulps_of_the_exact_ratio():
    # the same sets at p = 10: measured worst 2.67 ulp
    worst = _democracy_worst_ulps(10)
    assert worst <= 3, f"worst error {worst:.3f} ulp"
