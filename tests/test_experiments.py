import math
import sys

import numpy as np
import pytest

import walshlab.experiments as experiments
from walshlab.blocks import BlockPlan, load_plan
from walshlab.errors import BudgetError, ConfigError
from walshlab.experiments import (
    CSV_COLUMNS,
    ExperimentConfig,
    ResultRecord,
    almost_greedy_experiment,
    baseline_walsh_comparison,
    corpus_generate,
    democracy_experiment,
    derive_seed,
    khintchine_experiment,
    partial_sum_experiment,
    quasi_greedy_experiment,
    run_experiment,
    write_records_csv,
)
from walshlab.norms import NormEstimate, lp_even_spectral
from walshlab.spectra import inner_product


@pytest.fixture(scope="module")
def desk():
    return load_plan("desk")


def test_config_parsing(desk):
    cfg = ExperimentConfig.from_dict(
        {"plan": "desk", "p": 4, "sizes": {"range": [1, 5]}, "seed": 3}
    )
    assert cfg.plan.g == (2, 4, 8)
    assert cfg.p_values == (4.0,)
    assert cfg.sizes == (1, 2, 3, 4, 5)
    cfg2 = ExperimentConfig.from_dict({"plan": {"g": [1, 2]}, "sizes": [2, 4]})
    assert cfg2.plan.g == (1, 2) and cfg2.sizes == (2, 4)


def test_config_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"plan": "desk", "sizes": {"range": [1]}})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"plan": "desk", "trials": "many"})
    with pytest.raises(ConfigError):
        run_experiment("nope", ExperimentConfig.from_dict({"plan": "desk"}))


@pytest.mark.parametrize(
    "field, value",
    [
        ("trials", 0),
        ("sizes", [3, 0]),
        ("mc_samples", 1),
        ("max_terms", 0),
        ("p", [4, 0.5]),
        ("p", [4, float("nan")]),
        ("p", ["inf"]),
        ("p", [True, 4]),
        ("seed", -1),
        ("seed", 1.9),
        ("trials", 1.7),
        ("trials", float("inf")),
        ("mc_samples", True),
        ("sizes", [3.5]),
        ("sizes", 5),
        ("sizes", {"range": [5, 1]}),
        ("sizes", {"range": [1, 277]}),
        ("n_grid", [-1]),
        ("n_grid", {"range": [0, 277]}),
        ("random_candidates", -1),
        ("exhaustive", "false"),
        ("exhaustive", 1),
        ("corpus", "mixed"),
    ],
)
def test_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict({"plan": "desk", field: value})


def test_config_accepts_lower_bounds():
    cfg = ExperimentConfig.from_dict(
        {"plan": "desk", "trials": 1, "sizes": [1], "mc_samples": 2,
         "max_terms": 1, "p": [1]}
    )
    assert (cfg.trials, cfg.sizes, cfg.mc_samples, cfg.max_terms, cfg.p_values) == (
        1, (1,), 2, 1, (1.0,)
    )


def test_config_accepted_forms_load_unchanged(desk):
    base = ExperimentConfig.from_dict({"plan": "desk", "p": [4], "trials": 5})
    for doc in [
        {"plan": [2, 4, 8], "p": 4, "trials": 5.0},
        {"plan": {"preset": "desk"}, "p": [4.0], "trials": "5"},
        {"plan": {"g": [2, 4, 8]}, "p": "4", "trials": 5, "seed": 0.0},
        {"plan": {"g": [2.0, 4.0, 8.0]}, "p": [4], "trials": 5, "ratio_low": 1.0},
    ]:
        cfg = ExperimentConfig.from_dict(doc)
        assert cfg == base and type(cfg.trials) is int and type(cfg.seed) is int
    cfg = ExperimentConfig.from_dict(
        {"plan": "desk", "seed": 2**64 - 1, "sizes": {"range": [1, 200]},
         "n_grid": {"range": [0, 276]}, "exhaustive": True}
    )
    assert cfg.seed == 2**64 - 1 and derive_seed(cfg.seed, 1) >= 0
    assert cfg.sizes == tuple(range(1, 201)) and cfg.n_grid == tuple(range(277))
    assert cfg.exhaustive is True


@pytest.mark.parametrize("kind, part", [("partialsum", 7), ("quasigreedy", 5)])
def test_ratio_over_a_sampled_denominator_is_sampled(kind, part):
    # ||f||_3 of these 30-term functions is a Monte Carlo estimate, so
    # every p = 3 ratio carries its interval even where S_n f or G_m f
    # is shallow enough for an exact numerator
    cfg = ExperimentConfig.from_dict({
        "plan": "desk", "p": [2, 3], "seed": 7, "mc_samples": 2000,
        "corpus": {"kind": "mixed", "count": 5, "terms": 30},
    })
    kinds = {experiments._norm(f, 3.0, cfg, part, fi).kind
             for fi, f, _, _ in experiments._corpus_expansions(cfg)}
    assert kinds == {"sampled"}
    records, _ = run_experiment(kind, cfg)
    rows = [r for r in records if r.experiment == kind]
    assert all(r.exact for r in rows if r.p == 2.0)
    at3 = [r for r in rows if r.p == 3.0]
    assert at3 and not any(r.exact for r in at3)
    assert all(r.ci_low <= r.value <= r.ci_high for r in at3)


def test_record_divides_intervals():
    num = NormEstimate(3.0, 1.0, "sampled", ci_low=0.9, ci_high=1.1)
    one = NormEstimate(3.0, 1.0, "exact")
    exact = experiments._record("x", "g", 3.0, 1, 0, one, NormEstimate(3.0, 2.0, "exact"), 0)
    assert (exact.value, exact.ci_low, exact.ci_high, exact.exact) == (0.5, None, None, True)
    over_exact = experiments._record("x", "g", 3.0, 1, 0, num, 2.0, 0)
    assert (over_exact.ci_low, over_exact.ci_high, over_exact.exact) == (0.45, 0.55, False)
    den = NormEstimate(3.0, 2.0, "sampled", ci_low=0.0, ci_high=4.0)
    row = experiments._record("x", "g", 3.0, 1, 0, one, den, 0)
    assert (row.value, row.ci_low, row.ci_high, row.exact) == (0.5, 0.25, math.inf, False)
    den = NormEstimate(3.0, 2.0, "sampled", ci_low=1.0, ci_high=4.0)
    row = experiments._record("x", "g", 3.0, 1, 0, num, den, 0)
    assert (row.value, row.ci_low, row.ci_high, row.exact) == (0.5, 0.225, 1.1, False)


@pytest.mark.parametrize("kind, budget", [("indicator", 1 << 17), ("adversarial_walsh", 1 << 18)])
def test_dense_corpus_refused_before_its_cells(desk, monkeypatch, kind, budget):
    # at 160 and 340 bytes a cell, 2^9 cells fit the budget and 2^10 do not
    monkeypatch.setattr(experiments.spectra, "BYTE_BUDGET", budget)
    corpus_generate({"kind": kind, "depth": 9, "count": 1}, 1, desk)
    with pytest.raises(BudgetError, match=f"{kind} corpus of depth 10"):
        corpus_generate({"kind": kind, "depth": 10, "count": 1}, 1, desk)


def test_derive_seed_stable():
    assert derive_seed(5, 1, 2) == derive_seed(5, 1, 2)
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def test_corpus_determinism(desk):
    spec = {"kind": "mixed", "count": 6, "terms": 12}
    a = corpus_generate(spec, 11, desk)
    b = corpus_generate(spec, 11, desk)
    assert all(x == y for x, y in zip(a, b))
    c = corpus_generate(spec, 12, desk)
    assert any(x != y for x, y in zip(a, c))


def test_corpus_decay_definition(desk):
    from walshlab.greedy import analyze

    spec = {"kind": "decay", "alpha": 1.0, "terms": 10, "count": 1}
    (f,) = corpus_generate(spec, 2, desk)
    got = analyze(f, desk)
    assert set(got) == set(range(1, 11))
    for m, c in got.items():
        assert abs(c) == pytest.approx(1.0 / m, abs=1e-12)


def test_corpus_indicator_parseval(desk):
    spec = {"kind": "indicator", "depth": 3, "count": 4}
    for f in corpus_generate(spec, 7, desk):
        # squared L2 norm equals the interval length, a multiple of 1/8
        sq = inner_product(f, f)
        assert sq == pytest.approx(round(sq * 8) / 8.0, abs=1e-12)
        assert sq > 0


def test_corpus_indicator_default_depth_follows_the_plan_span(desk):
    # phi_1..phi_5 = 0, 3, 5, 6, 7 need five blocks; desk has three
    spec = {"kind": "indicator", "count": 6}
    assert all(f.depth() <= 2 for f in corpus_generate(spec, 7, desk))
    assert corpus_generate(spec, 7, desk) == corpus_generate(
        {**spec, "depth": 2}, 7, desk
    )
    five = BlockPlan([1, 2, 3, 4, 5])
    assert corpus_generate(spec, 7, five) == corpus_generate(
        {**spec, "depth": 3}, 7, five
    )
    one = BlockPlan([1])  # spans 0 and 1 only
    assert {f.depth() for f in corpus_generate(spec, 7, one)} <= {0, 1}


def test_corpus_unknown_kind(desk):
    with pytest.raises(ConfigError):
        corpus_generate({"kind": "wat"}, 0, desk)
    with pytest.raises(ConfigError):
        corpus_generate({}, 0, desk)


def test_democracy_small(desk):
    cfg = ExperimentConfig(
        plan=desk, p_values=(2.0, 4.0), sizes=tuple(range(1, 11)), trials=5, seed=1
    )
    records, summary = democracy_experiment(cfg)
    p2 = [r for r in records if r.p == 2.0]
    p4 = [r for r in records if r.p == 4.0]
    assert len(p2) == len(p4) == 50
    assert all(r.value == 1.0 for r in p2)
    assert all(r.exact for r in records)
    assert all(1.0 - 1e-12 <= r.value <= 3.0 for r in p4)
    assert summary["ratio_min"]["2.0"] == summary["ratio_max"]["2.0"] == 1.0


def test_democracy_full_block_ratio_is_one(desk):
    # a full block collapses to sqrt(N_k) phi_k, whose every L_p norm is
    # sqrt(N_k), so the democracy ratio is exactly 1 there
    from walshlab.norms import lp_even_spectral

    block2 = [desk.to_global(2, i) for i in range(1, 17)]
    s = desk.sum_spectrum(block2)
    assert lp_even_spectral(s, 4).value == pytest.approx(4.0, abs=1e-12)


def test_democracy_monte_carlo_route(desk):
    cfg = ExperimentConfig(
        plan=desk, p_values=(3.0,), sizes=(40,), trials=2, seed=2, mc_samples=2000
    )
    records, _ = democracy_experiment(cfg)
    assert all(not r.exact for r in records)
    assert all(r.ci_low <= r.value <= r.ci_high for r in records)


def test_quasigreedy_single_element_ratio_one(desk):
    cfg = ExperimentConfig(
        plan=desk,
        p_values=(2.0, 4.0),
        seed=4,
        corpus={"kind": "decay", "alpha": 1.0, "terms": 1, "count": 1},
    )
    records, summary = quasi_greedy_experiment(cfg)
    ratios = [r for r in records if r.experiment == "quasigreedy"]
    assert all(r.value == pytest.approx(1.0, abs=1e-9) for r in ratios)
    assert summary["terminal_residual_max"] <= 1e-9


def test_quasigreedy_residual_rows(desk):
    cfg = ExperimentConfig(
        plan=desk,
        p_values=(2.0,),
        seed=4,
        corpus={"kind": "decay", "alpha": 0.8, "terms": 8, "count": 2},
    )
    records, summary = quasi_greedy_experiment(cfg)
    tails = [r for r in records if r.experiment == "quasigreedy-residual"]
    assert len(tails) == 16
    # decay corpus: greedy follows the decay, tails shrink to an exact 0
    per_fn = {}
    for r in tails:
        per_fn.setdefault(r.trial, []).append((r.size_or_m, r.value))
    for steps in per_fn.values():
        values = [v for _, v in sorted(steps)]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] == 0.0
    assert summary["residual_parseval_dev_max"] <= 1e-12


def test_partialsum_bounds(desk):
    cfg = ExperimentConfig(
        plan=desk,
        p_values=(2.0, 4.0),
        seed=6,
        corpus={"kind": "mixed", "count": 6, "terms": 20},
        n_grid=(1, 4, 7, 20, 100, 276),
    )
    records, summary = partial_sum_experiment(cfg)
    assert summary["p2_max_over_all_n"] <= 1.0 + 1e-12
    # block boundaries are always included in the grid
    ns = {r.size_or_m for r in records}
    assert {4, 20, 276}.issubset(ns)
    terminal = [r for r in records if r.size_or_m == 276]
    assert all(r.value == pytest.approx(1.0, abs=1e-9) for r in terminal)


def test_khintchine_bounds(desk):
    cfg = ExperimentConfig(plan=desk, p_values=(2.0, 4.0), trials=60, seed=8)
    records, summary = khintchine_experiment(cfg)
    assert summary["B_empirical"]["4.0"] <= 3.0 ** 0.25 + 1e-12
    assert summary["A_empirical"]["2.0"] == pytest.approx(1.0, abs=1e-12)
    assert summary["fourth_moment_dev_max"] <= 1e-12
    assert all(r.size_or_m <= 16 for r in records)
    with pytest.raises(ConfigError):
        khintchine_experiment(
            ExperimentConfig(plan=desk, trials=1, seed=0, max_terms=20)
        )


def test_khintchine_p4_identity_with_other_p(desk):
    cfg = ExperimentConfig(plan=desk, p_values=(3.0, 4.0, 6.0), trials=40, seed=11)
    _, summary = khintchine_experiment(cfg)
    assert summary["fourth_moment_dev_max"] <= 1e-12


def test_khintchine_rows_do_not_depend_on_p4(desk, tmp_path):
    # without p = 4 the cell values are never synthesized; the rows for
    # the other exponents must come out the same
    with_p4 = ExperimentConfig(plan=desk, p_values=(3.0, 4.0, 6.0), trials=40, seed=11)
    without = ExperimentConfig(plan=desk, p_values=(3.0, 6.0), trials=40, seed=11)
    rows, _ = khintchine_experiment(with_p4)
    write_records_csv([r for r in rows if r.p != 4.0], tmp_path / "a.csv")
    write_records_csv(khintchine_experiment(without)[0], tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_almostgreedy_p2_exact_one():
    plan = BlockPlan([2, 4])
    cfg = ExperimentConfig(
        plan=plan,
        p_values=(2.0, 4.0),
        seed=9,
        corpus={"kind": "decay", "alpha": 1.2, "terms": 8, "count": 3},
        random_candidates=4,
    )
    records, summary = almost_greedy_experiment(cfg)
    p2 = [r for r in records if r.p == 2.0]
    assert p2 and all(r.value == 1.0 for r in p2)
    p4 = [r for r in records if r.p == 4.0]
    assert all(r.value >= 1.0 - 1e-12 for r in p4)
    assert summary["ratio_max"]["2.0"] == 1.0


def test_almostgreedy_exhaustive_consistency():
    plan = BlockPlan([2, 4])
    base = dict(
        plan=plan,
        p_values=(4.0,),
        seed=10,
        corpus={"kind": "decay", "alpha": 1.0, "terms": 7, "count": 2},
    )
    # adding every subset as a candidate can only lower denominators,
    # so exhaustive ratios dominate the candidate-only ones
    rec_small, _ = almost_greedy_experiment(ExperimentConfig(**base))
    rec_full, _ = almost_greedy_experiment(
        ExperimentConfig(**base, exhaustive=True)
    )
    for a, b in zip(rec_small, rec_full):
        assert b.value >= a.value - 1e-12


@pytest.mark.parametrize("ps", [[2, 3], [2, 3, 4, 6]])
def test_almostgreedy_sampled_ratios_carry_their_interval(ps):
    # on desk the greedy residual reaches block 3, so p = 3 is sampled
    cfg = ExperimentConfig.from_dict({
        "plan": "desk", "p": ps, "seed": 7, "mc_samples": 200,
        "corpus": {"kind": "lacunary", "count": 1},
    })
    records, _ = almost_greedy_experiment(cfg)
    sampled = [r for r in records if r.p == 3.0]
    assert sampled and not any(r.exact for r in sampled)
    assert all(r.ci_low <= r.value <= r.ci_high for r in sampled)
    others = [r for r in records if r.p != 3.0]
    assert len(others) == (len(ps) - 1) * len(sampled)
    assert all(r.exact and r.ci_low is None and r.ci_high is None for r in others)


def test_walsh_baseline_direction(desk):
    cfg = ExperimentConfig(
        plan=desk,
        p_values=(4.0,),
        seed=3,
        corpus={"kind": "adversarial_walsh", "depth": 5, "count": 4},
    )
    records, summary = baseline_walsh_comparison(cfg)
    assert summary["walsh_constant"]["4.0"] > summary["mixed_basis_constant"]["4.0"]
    plans = {r.plan for r in records}
    assert plans == {"walsh", desk.label()}


def test_walsh_baseline_rejects_misfit(desk):
    with pytest.raises(ConfigError):
        baseline_walsh_comparison(
            ExperimentConfig(plan=desk, corpus={"kind": "decay"}, seed=0)
        )
    with pytest.raises(ConfigError):
        baseline_walsh_comparison(
            ExperimentConfig(
                plan=BlockPlan([1, 2]),
                corpus={"kind": "adversarial_walsh", "depth": 6, "count": 1},
                seed=0,
            )
        )


def test_csv_format(tmp_path, desk):
    import csv

    cfg = ExperimentConfig(
        plan=desk, p_values=(2.0,), sizes=(3,), trials=2, seed=5
    )
    records, _ = democracy_experiment(cfg)
    path = tmp_path / "out.csv"
    write_records_csv(records, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(records)
    first = rows[1]
    assert first[0] == "democracy"
    assert first[1] == "g=2,4,8"
    # exact rows leave the CI cells empty
    assert first[6] == "" and first[7] == ""
    assert first[8] == "true"
    assert float(first[5]) == 1.0


def test_csv_header_is_the_readme_column_list(tmp_path):
    # CSV_COLUMNS is derived from ResultRecord's fields, so a renamed or
    # reordered field must show up here, not silently in the CSV
    path = tmp_path / "out.csv"
    write_records_csv([], path)
    assert path.read_text() == (
        "experiment,plan,p,size_or_m,trial,value,ci_low,ci_high,exact,seed\n"
    )


def test_csv_rows_spell_numpy_floats_by_repr(tmp_path):
    # the csv module writes a float, np.float64 too, by its repr and None
    # as an empty cell; only ``exact`` is spelled out, as true or false
    exact = ResultRecord("democracy", "g=2,4,8", np.float64(4.0), 3, 0,
                         np.float64(0.1) + np.float64(0.2), None, None, True, 7)
    sampled = exact._replace(p=np.float64(2.5), ci_low=0.25, ci_high=math.inf, exact=False)
    path = tmp_path / "out.csv"
    write_records_csv([exact, sampled], path)
    assert path.read_text() == (
        "experiment,plan,p,size_or_m,trial,value,ci_low,ci_high,exact,seed\n"
        'democracy,"g=2,4,8",4.0,3,0,0.30000000000000004,,,true,7\n'
        'democracy,"g=2,4,8",2.5,3,0,0.30000000000000004,0.25,inf,false,7\n'
    )


def test_rows_and_estimates_are_immutable():
    fields = ("democracy", "g=1,2", 2.0, 1, 0, 1.0, None, None, True, 0)
    rec = ResultRecord(*fields)
    est = NormEstimate(2.0, 1.0, "exact")
    for obj, name in ((rec, "value"), (est, "value"), (est, "ci_low")):
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
    assert rec.value == 1.0 and est.ci_low is None
    assert rec == ResultRecord(*fields) and hash(rec) == hash(ResultRecord(*fields))


def test_rerun_bit_identical(tmp_path, desk):
    cfg_doc = {
        "plan": "desk",
        "p": [2, 4],
        "sizes": {"range": [1, 6]},
        "trials": 3,
        "seed": 77,
    }
    out = []
    for name in ("a.csv", "b.csv"):
        cfg = ExperimentConfig.from_dict(cfg_doc)
        records, _ = run_experiment("democracy", cfg)
        path = tmp_path / name
        write_records_csv(records, path)
        out.append(path.read_bytes())
    assert out[0] == out[1]

    # Monte Carlo route is reproducible too
    for name in ("c.csv", "d.csv"):
        cfg = ExperimentConfig.from_dict(
            {"plan": "desk", "p": [3.0], "sizes": [12], "trials": 2,
             "seed": 13, "mc_samples": 1500}
        )
        records, _ = run_experiment("democracy", cfg)
        path = tmp_path / name
        write_records_csv(records, path)
        out.append(path.read_bytes())
    assert out[2] == out[3]


SMALL_DESK_CONFIGS = {
    "democracy": {"plan": "desk", "p": [2, 3, 4], "sizes": [1, 3, 7],
                  "trials": 3, "seed": 1},
    "quasigreedy": {"plan": "desk", "p": [2, 4], "seed": 2,
                    "corpus": {"kind": "mixed", "count": 3, "terms": 8}},
    "partialsum": {"plan": "desk", "p": [2, 4], "seed": 2,
                   "corpus": {"kind": "mixed", "count": 3, "terms": 8}},
    "khintchine": {"plan": "desk", "p": [2, 3, 4], "trials": 10, "seed": 3,
                   "max_terms": 8},
    "almostgreedy": {"plan": "desk", "p": [2, 4], "seed": 4,
                     "corpus": {"kind": "decay", "alpha": 1.0, "terms": 6,
                                "count": 2},
                     "random_candidates": 2},
    "walsh-baseline": {"plan": "desk", "p": [2, 4], "seed": 5,
                       "corpus": {"kind": "adversarial_walsh", "depth": 4,
                                  "count": 2}},
}

# summary key -> (min or max, CSV columns a row must match to count)
SUMMARY_EXTREMES = {
    "democracy": [("ratio_min", min, {}), ("ratio_max", max, {})],
    "quasigreedy": [("empirical_constant", max, {"experiment": "quasigreedy"})],
    "partialsum": [("ratio_max", max, {})],
    "khintchine": [("A_empirical", min, {}), ("B_empirical", max, {})],
    "almostgreedy": [("ratio_max", max, {})],
    "walsh-baseline": [
        ("walsh_constant", max, {"plan": "walsh"}),
        ("mixed_basis_constant", max, {"plan": "g=2,4,8"}),
    ],
}


@pytest.mark.parametrize("kind", sorted(SMALL_DESK_CONFIGS))
def test_summary_extremes_are_the_csv_rows_extremes(kind, tmp_path):
    import csv

    cfg = ExperimentConfig.from_dict(SMALL_DESK_CONFIGS[kind])
    records, summary = run_experiment(kind, cfg)
    write_records_csv(records, tmp_path / "rows.csv")
    with open(tmp_path / "rows.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for key, pick, match in SUMMARY_EXTREMES[kind]:
        chosen = [r for r in rows if all(r[c] == v for c, v in match.items())]
        by_p: dict[str, list[float]] = {}
        for r in chosen:
            by_p.setdefault(r["p"], []).append(float(r["value"]))
        assert set(summary[key]) == set(by_p) == {str(p) for p in cfg.p_values}
        for p, values in by_p.items():
            assert summary[key][p] == pick(values), (key, p)


def test_summary_checks_keep_a_nan(desk, monkeypatch):
    # Python's max(0.0, nan) is 0.0, which would report a failed check as passed
    def nan_at_2_and_6(f, p):
        if p in (2, 6):
            return NormEstimate(float(p), math.nan, "exact")
        return lp_even_spectral(f, p)

    monkeypatch.setattr(experiments, "lp_even_spectral", nan_at_2_and_6)
    corpus = {"kind": "mixed", "count": 2, "terms": 12}
    cfg = ExperimentConfig(
        plan=desk, p_values=(2.0, 4.0, 6.0), corpus=corpus, sizes=(3,), trials=2
    )
    _, summary = quasi_greedy_experiment(cfg)
    assert math.isnan(summary["residual_parseval_dev_max"])
    assert math.isnan(summary["terminal_residual_max"])
    _, summary = partial_sum_experiment(cfg)
    assert math.isnan(summary["block_end_dev_max"])
    _, summary = democracy_experiment(cfg)
    assert math.isnan(summary["spectrum_route_dev_max"])


@pytest.mark.parametrize("kind", ["democracy", "quasigreedy", "partialsum", "khintchine"])
def test_summary_extremes_keep_a_nan(kind, monkeypatch):
    # Python's max and min skip a NaN that comes after the start value
    lp_norm = experiments.lp_norm

    def nan_at_3(f, p, *args):
        return NormEstimate(3.0, math.nan, "exact") if p == 3.0 else lp_norm(f, p, *args)

    monkeypatch.setattr(experiments, "lp_norm", nan_at_3)
    cfg = ExperimentConfig.from_dict({
        "plan": "desk", "p": [2, 3, 4], "sizes": [2, 5], "trials": 2, "seed": 3,
        "corpus": {"kind": "mixed", "count": 2, "terms": 10}, "max_terms": 6,
    })
    _, summary = run_experiment(kind, cfg)
    for key, _, _ in SUMMARY_EXTREMES[kind]:
        assert math.isnan(summary[key]["3.0"]), key
        assert math.isfinite(summary[key]["4.0"]) and math.isfinite(summary[key]["2.0"])


@pytest.mark.parametrize("kind", sorted(SMALL_DESK_CONFIGS))
def test_every_norm_route_is_picked_in_estimates(kind, monkeypatch):
    # rows, trials, candidates, prefixes and denominators all reach
    # lp_norm through _norm, and _norm only from _estimates
    norm, lp_norm = experiments._norm, experiments.lp_norm
    calls = []

    def guarded_norm(*args):
        assert sys._getframe(1).f_code is experiments._estimates.__code__
        calls.append(args[1])
        return norm(*args)

    def guarded_lp_norm(*args):
        assert sys._getframe(1).f_code is norm.__code__
        return lp_norm(*args)

    monkeypatch.setattr(experiments, "_norm", guarded_norm)
    monkeypatch.setattr(experiments, "lp_norm", guarded_lp_norm)
    doc = {**SMALL_DESK_CONFIGS[kind], "p": [2, 3, 4], "mc_samples": 200}
    records, _ = run_experiment(kind, ExperimentConfig.from_dict(doc))
    assert 3.0 in calls and {r.p for r in records} == {2.0, 3.0, 4.0}
