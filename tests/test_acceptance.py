"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass.  Thresholds that are empirical (democracy 3.0, quasi-greedy
5.0, partial sums 2.0) were frozen after sweeps on the exact seeded
configurations below and live in ACCEPTANCE_CONFIG, not in library
code.
"""

import itertools
import json
import math
import time

import numpy as np

from walshlab.blocks import validate_schedule
from walshlab.experiments import (
    ExperimentConfig,
    democracy_experiment,
    khintchine_experiment,
    partial_sum_experiment,
    quasi_greedy_experiment,
    run_experiment,
    write_records_csv,
)
from walshlab.greedy import (
    CoefficientList,
    greedy_approximant,
    synthesize_coefficients,
)
from walshlab.norms import lp_dense, lp_even_spectral, lp_monte_carlo
from walshlab.olevskii import check_orthogonality, row_abs_sum
from walshlab.spectra import WalshSpectrum, inner_product, synthesize

ACCEPTANCE_CONFIG = {
    "democracy": {
        "plan": "desk",
        "p": [2, 4],
        "sizes": {"range": [1, 200]},
        "trials": 100,
        "seed": 20240809,
        "ratio_low": 1.0 - 1e-12,
        "ratio_high": 3.0,
        "spectrum_route_tol": 1e-12,
    },
    "quasigreedy": {
        "plan": "desk",
        "p": [2, 4],
        "seed": 31415,
        "corpus": {"kind": "mixed", "count": 50, "terms": 40},
        "constant_bound": 5.0,
        "residual_tail_tol": 1e-12,
        "terminal_residual_tol": 1e-6,
    },
    "partialsum": {
        "plan": "desk",
        "p": [2, 4],
        "seed": 31415,
        "corpus": {"kind": "mixed", "count": 50, "terms": 40},
        "p2_bound": 1.0 + 1e-12,
        "p2_route_tol": 1e-12,
        "p4_bound": 2.0,
        "block_end_tol": 1e-12,
    },
    "khintchine": {
        "plan": "desk",
        "p": [4],
        "trials": 200,
        "seed": 27182,
        "max_terms": 16,
        "identity_tol": 1e-12,
    },
}


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_olevskii_orthogonality():
    start = time.time()
    exact_devs = [check_orthogonality(k, exact=True) for k in range(1, 9)]
    float_devs = [check_orthogonality(k, exact=False) for k in range(1, 9)]
    elapsed = time.time() - start
    ok = (
        all(d == 0.0 for d in exact_devs)
        and all(d <= 1e-12 for d in float_devs)
        and elapsed <= 10.0
    )
    _report(
        1,
        "olevskii orthogonality k=1..8",
        ok,
        f"exact devs all 0: {all(d == 0.0 for d in exact_devs)}, "
        f"float max {max(float_devs):.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_row_sum_bound():
    limit = 1.0 + math.sqrt(2.0)
    worst_gap = 0.0
    ok = True
    for k in range(1, 31):
        value = row_abs_sum(k)
        explicit = sum([2.0 ** (-k / 2.0)] + [2.0 ** ((s - k) / 2.0) for s in range(k)])
        geometric = 2.0 ** (-k / 2.0) + limit * (1.0 - 2.0 ** (-k / 2.0))
        worst_gap = max(worst_gap, abs(value - explicit), abs(value - geometric))
        ok = ok and value <= 2.4143 and abs(value - explicit) <= 1e-12
    ok = ok and abs(row_abs_sum(30) - limit) < 1e-3
    _report(
        2,
        "row absolute sums k<=30",
        ok,
        f"max closed-form gap {worst_gap:.2e}, "
        f"k=30 value {row_abs_sum(30):.6f} vs limit {limit:.6f}",
    )


def test_criterion_03_basis_orthonormality():
    plan = validate_schedule([2, 4])
    elements = [plan.psi_spectrum(*plan.to_block(m)) for m in range(1, 21)]
    gram = np.array([[inner_product(a, b) for b in elements] for a in elements])
    dev = float(np.max(np.abs(gram - np.eye(20))))
    _report(3, "gram identity, 20 elements of g=(2,4)", dev <= 1e-12, f"max dev {dev:.2e}")


def test_criterion_04_uniform_boundedness():
    plan = validate_schedule([2, 4])
    ok = True
    sup_max = 0.0
    for m in range(1, 21):
        k, i = plan.to_block(m)
        values = synthesize(plan.psi_spectrum(k, i), 18)
        sup = float(np.abs(values).max())
        sup_max = max(sup_max, sup)
        ok = ok and sup <= 2.45 and sup <= row_abs_sum(plan.g[k - 1]) + 1e-12
    _report(4, "uniform bound at depth 18", ok, f"largest sup-norm {sup_max:.6f} <= 2.45")


def test_criterion_05_democracy():
    doc = ACCEPTANCE_CONFIG["democracy"]
    cfg = ExperimentConfig.from_dict(doc)
    records, summary = democracy_experiment(cfg)
    p2 = [r for r in records if r.p == 2.0]
    p4 = [r for r in records if r.p == 4.0]
    ok = (
        len(p2) == len(p4) == 200 * 100
        and all(r.value == 1.0 for r in p2)
        and all(r.exact for r in records)
        and all(doc["ratio_low"] <= r.value <= doc["ratio_high"] for r in p4)
        and summary["spectrum_route_dev_max"] <= doc["spectrum_route_tol"]
    )
    _report(
        5,
        "democracy g=(2,4,8) sizes 1..200 x100",
        ok,
        f"p4 ratios in [{summary['ratio_min']['4.0']:.4f}, "
        f"{summary['ratio_max']['4.0']:.4f}] within "
        f"[{doc['ratio_low']}, {doc['ratio_high']}]; p2 all exactly 1.0; "
        f"rows-vs-spectrum dev {summary['spectrum_route_dev_max']:.2e}",
    )


def test_criterion_06_quasi_greedy():
    doc = ACCEPTANCE_CONFIG["quasigreedy"]
    cfg = ExperimentConfig.from_dict(doc)
    records, summary = quasi_greedy_experiment(cfg)
    constant = summary["empirical_constant"]["4.0"]
    ok = (
        constant <= doc["constant_bound"]
        and summary["residual_parseval_dev_max"] <= doc["residual_tail_tol"]
        and summary["terminal_residual_max"] <= doc["terminal_residual_tol"]
        and len({r.trial for r in records}) == 50
    )
    _report(
        6,
        "quasi-greedy constant, frozen 50-function corpus",
        ok,
        f"sup ratio {constant:.4f} <= {doc['constant_bound']}, "
        f"residual-vs-tail dev {summary['residual_parseval_dev_max']:.2e}, "
        f"terminal residual {summary['terminal_residual_max']:.2e}",
    )


def test_criterion_07_partial_sums():
    doc = ACCEPTANCE_CONFIG["partialsum"]
    cfg = ExperimentConfig.from_dict(doc)
    _, summary = partial_sum_experiment(cfg)
    # p2_max_over_all_n is at most 1 by construction; p2_route_dev_max
    # checks the p = 2 ratios against the Walsh side of each S_n f row
    ok = (
        summary["p2_max_over_all_n"] <= doc["p2_bound"]
        and summary["p2_route_dev_max"] <= doc["p2_route_tol"]
        and summary["ratio_max"]["4.0"] <= doc["p4_bound"]
        and summary["block_end_dev_max"] <= doc["block_end_tol"]
    )
    _report(
        7,
        "partial-sum operator bounds",
        ok,
        f"p2 sup over all n {summary['p2_max_over_all_n']:.12f} <= {doc['p2_bound']}, "
        f"p2 coefficient-vs-Walsh dev {summary['p2_route_dev_max']:.2e}, "
        f"p4 sup {summary['ratio_max']['4.0']:.4f} <= frozen {doc['p4_bound']}, "
        f"rows-vs-restriction dev at block ends {summary['block_end_dev_max']:.2e}",
    )


def test_criterion_08_khintchine():
    doc = ACCEPTANCE_CONFIG["khintchine"]
    cfg = ExperimentConfig.from_dict(doc)
    _, summary = khintchine_experiment(cfg)
    bound = 3.0 ** 0.25
    ok = (
        summary["B_empirical"]["4.0"] <= bound + 1e-12
        and summary["fourth_moment_dev_max"] <= doc["identity_tol"]
    )
    _report(
        8,
        "khintchine p=4 over 200 vectors",
        ok,
        f"max ratio {summary['B_empirical']['4.0']:.6f} <= 3^(1/4) = {bound:.6f}, "
        f"identity dev {summary['fourth_moment_dev_max']:.2e}",
    )


def test_criterion_09_norm_engine_coherence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        depth = int(rng.integers(1, 13))
        terms = int(rng.integers(1, min(20, 1 << depth) + 1))
        freqs = rng.choice(1 << depth, size=terms, replace=False)
        f = WalshSpectrum({int(n): float(rng.normal()) for n in freqs})
        for p in (2, 4):
            worst = max(worst, abs(lp_dense(f, p).value - lp_even_spectral(f, p).value))
    agree = worst <= 1e-10

    truth = 4.0 ** (1.0 / 3.0)
    f = WalshSpectrum({0: 1.0, 1: 1.0})
    hits = 0
    for seed in range(100):
        est = lp_monte_carlo(f, 3.0, 4000, seed=seed)
        if est.ci_low <= truth <= est.ci_high:
            hits += 1
    ok = agree and hits >= 90
    _report(
        9,
        "norm engine coherence",
        ok,
        f"dense vs spectral worst gap {worst:.2e} <= 1e-10, MC coverage {hits}/100",
    )


def test_criterion_10_greedy_l2_optimality():
    plan = validate_schedule([2, 4])
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(50):
        size = int(rng.integers(2, 11))
        support = sorted(int(x) + 1 for x in rng.choice(20, size=size, replace=False))
        coeffs = CoefficientList.from_pairs(
            (m, float(rng.normal())) for m in support
        )
        by_index = coeffs.as_dict()
        total = sum(c * c for c in by_index.values())
        f = synthesize_coefficients(coeffs, plan)
        _, trace = greedy_approximant(f, plan, size)
        for step in trace.steps:
            best_sq = min(
                total - sum(by_index[m] ** 2 for m in subset)
                for subset in itertools.combinations(support, step.m)
            )
            if step.residual_l2 > math.sqrt(max(best_sq, 0.0)) + 1e-12:
                ok = False
    _report(
        10,
        "greedy L2 optimality vs brute force",
        ok,
        "greedy residual minimal over all equal-size subsets, 50 functions",
    )


def test_criterion_11_reproducibility(tmp_path):
    configs = [
        (
            "democracy",
            {"plan": "desk", "p": [2, 4], "sizes": {"range": [1, 20]},
             "trials": 5, "seed": 99},
        ),
        (
            "democracy",
            {"plan": "desk", "p": [3.0], "sizes": [15], "trials": 3,
             "seed": 7, "mc_samples": 2000},
        ),
        (
            "khintchine",
            {"plan": "desk", "p": [2, 4], "trials": 50, "seed": 123},
        ),
    ]
    ok = True
    for idx, (kind, doc) in enumerate(configs):
        cfg_path = tmp_path / f"cfg{idx}.json"
        cfg_path.write_text(json.dumps(doc))
        outputs = []
        for attempt in range(2):
            cfg = ExperimentConfig.from_dict(json.loads(cfg_path.read_text()))
            records, _ = run_experiment(kind, cfg)
            path = tmp_path / f"out{idx}_{attempt}.csv"
            write_records_csv(records, path)
            outputs.append(path.read_bytes())
        ok = ok and outputs[0] == outputs[1]
    _report(
        11,
        "bit-identical reruns from config files",
        ok,
        f"{len(configs)} configs, exact and sampled routes",
    )
