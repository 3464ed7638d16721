"""Seeded verification experiments over the block basis.

Each experiment consumes an ExperimentConfig and returns (records,
summary): one ResultRecord per measurement plus a JSON-friendly digest.
Per-trial randomness is derived from the master seed and the trial's
own coordinates, so reruns are bit-identical and independent of any
execution order.

Norm routes: p = 2 ratios of expansions are computed in coefficient
space (orthonormal Parseval, exact by construction; the test suite
separately confirms coefficient and spectral routes agree), even p uses
the exact spectral engine, anything else uses dense synthesis when the
depth allows and seeded Monte Carlo otherwise.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .blocks import BlockPlan, plan_from_json, validate_schedule
from .errors import ConfigError
from .greedy import (
    CoefficientList,
    analyze,
    greedy_order,
    parseval_tails,
    partial_sum,
    synthesize_coefficients,
)
from .norms import (
    NormEstimate,
    lp_even_spectral,
    lp_norm,
    rademacher_fourth_moment,
)
from .spectra import WalshSpectrum, analyze_dense, rademacher_index, synthesize

CSV_COLUMNS = (
    "experiment",
    "plan",
    "p",
    "size_or_m",
    "trial",
    "value",
    "ci_low",
    "ci_high",
    "exact",
    "seed",
)


@dataclass(frozen=True)
class ResultRecord:
    experiment: str
    plan: str
    p: float
    size_or_m: int
    trial: int
    value: float
    ci_low: float | None
    ci_high: float | None
    exact: bool
    seed: int

    def row(self) -> list[str]:
        return [
            self.experiment,
            self.plan,
            repr(float(self.p)),
            str(self.size_or_m),
            str(self.trial),
            repr(float(self.value)),
            "" if self.ci_low is None else repr(float(self.ci_low)),
            "" if self.ci_high is None else repr(float(self.ci_high)),
            "true" if self.exact else "false",
            str(self.seed),
        ]


def write_records_csv(records: list[ResultRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow(rec.row())


@dataclass
class ExperimentConfig:
    """Parameters shared by the experiment drivers.

    Every quantity that influences a result is either here or derived
    from ``seed`` plus trial coordinates, so the config file is the
    complete provenance of an output file.
    """

    plan: BlockPlan
    p_values: tuple[float, ...] = (2.0, 4.0)
    sizes: tuple[int, ...] = ()
    trials: int = 100
    seed: int = 0
    corpus: dict = field(default_factory=dict)
    n_grid: tuple[int, ...] = ()
    mc_samples: int = 20000
    random_candidates: int = 5
    max_terms: int = 16
    exhaustive: bool = False

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            plan_spec = doc["plan"]
        except KeyError as exc:
            raise ConfigError("config needs a 'plan'") from exc
        try:
            if isinstance(plan_spec, str):
                plan = plan_from_json({"preset": plan_spec})
            elif isinstance(plan_spec, dict):
                plan = plan_from_json(plan_spec)
            else:
                plan = validate_schedule(plan_spec)
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"bad plan spec {plan_spec!r}") from exc
        p_raw = doc.get("p", [2, 4])
        if not isinstance(p_raw, (list, tuple)):
            p_raw = [p_raw]
        sizes = _expand_sizes(doc.get("sizes", []))
        n_grid = _expand_sizes(doc.get("n_grid", []))
        try:
            return cls(
                plan=plan,
                p_values=tuple(float(p) for p in p_raw),
                sizes=sizes,
                trials=int(doc.get("trials", 100)),
                seed=int(doc.get("seed", 0)),
                corpus=dict(doc.get("corpus", {})),
                n_grid=n_grid,
                mc_samples=int(doc.get("mc_samples", 20000)),
                random_candidates=int(doc.get("random_candidates", 5)),
                max_terms=int(doc.get("max_terms", 16)),
                exhaustive=bool(doc.get("exhaustive", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc


def _expand_sizes(raw) -> tuple[int, ...]:
    if isinstance(raw, dict):
        if "range" not in raw or len(raw["range"]) != 2:
            raise ConfigError(f"size spec {raw!r} needs 'range': [lo, hi]")
        lo, hi = raw["range"]
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in raw)


def derive_seed(master: int, *parts: int) -> int:
    """Stable per-trial seed from the master seed and coordinates."""
    ss = np.random.SeedSequence([int(master)] + [int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# -- corpus generators ---------------------------------------------------------

def corpus_generate(
    spec: dict, seed: int, plan: BlockPlan
) -> list[WalshSpectrum]:
    """Deterministic corpus of functions in the plan's span.

    Kinds: decay (signed m**-alpha coefficients), flat_block (unit
    magnitudes at random positions), lacunary (signs on geometrically
    spaced positions), indicator (dyadic interval analyzed densely),
    adversarial_walsh (near-flat tilted Walsh coefficients, used by the
    plain-Walsh baseline), mixed (rotation of the first three).
    """
    return [f for _, f in corpus_with_coefficients(spec, seed, plan)]


def corpus_with_coefficients(
    spec: dict, seed: int, plan: BlockPlan
) -> list[tuple[str, WalshSpectrum]]:
    kind = spec.get("kind")
    if kind is None:
        raise ConfigError("corpus spec needs a 'kind'")
    count = int(spec.get("count", 1))
    out = []
    for index in range(count):
        rng = np.random.default_rng(derive_seed(seed, 1, index))
        if kind == "mixed":
            sub = _MIXED_ROTATION[index % len(_MIXED_ROTATION)]
            merged = {**spec, **sub}
            out.append(
                (f"{sub['kind']}#{index}", _generate_one(merged, rng, plan))
            )
        else:
            out.append((f"{kind}#{index}", _generate_one(spec, rng, plan)))
    return out


_MIXED_ROTATION = (
    {"kind": "decay", "alpha": 0.6},
    {"kind": "decay", "alpha": 1.0},
    {"kind": "flat_block"},
    {"kind": "decay", "alpha": 1.5},
    {"kind": "lacunary"},
)


def _generate_one(spec: dict, rng, plan: BlockPlan) -> WalshSpectrum:
    kind = spec["kind"]
    horizon = plan.horizon_size
    terms = min(int(spec.get("terms", 40)), horizon)
    if kind == "decay":
        alpha = float(spec.get("alpha", 1.0))
        signs = rng.choice([-1.0, 1.0], size=terms)
        pairs = [
            (m, signs[m - 1] * m ** -alpha) for m in range(1, terms + 1)
        ]
        return synthesize_coefficients(CoefficientList.from_pairs(pairs), plan)
    if kind == "flat_block":
        positions = np.sort(rng.choice(horizon, size=terms, replace=False)) + 1
        signs = rng.choice([-1.0, 1.0], size=terms)
        pairs = [(int(m), float(s)) for m, s in zip(positions, signs)]
        return synthesize_coefficients(CoefficientList.from_pairs(pairs), plan)
    if kind == "lacunary":
        positions = []
        m = 1
        while m <= horizon:
            positions.append(m)
            m *= 2
        signs = rng.choice([-1.0, 1.0], size=len(positions))
        pairs = [(int(m), float(s)) for m, s in zip(positions, signs)]
        return synthesize_coefficients(CoefficientList.from_pairs(pairs), plan)
    if kind == "indicator":
        depth = int(spec.get("depth", 3))
        cells = 1 << depth
        lo = int(rng.integers(0, cells - 1))
        hi = int(rng.integers(lo + 1, cells + 1))
        values = np.zeros(cells)
        values[lo:hi] = 1.0
        return analyze_dense(values)
    if kind == "adversarial_walsh":
        # near-flat magnitudes, signs alternating by dyadic band, tilted
        # so the greedy ordering walks fine bands before coarse ones
        # (the worst observed direction for plain-Walsh thresholding)
        depth = int(spec.get("depth", 6))
        tilt = float(spec.get("tilt", 1e-3))
        count = 1 << depth
        jitter = rng.random(count) * (tilt / 8.0)
        terms = {}
        for n in range(count):
            band = n.bit_length()
            terms[n] = float(
                (-1.0) ** band * (1.0 + tilt * band + jitter[n])
            )
        return WalshSpectrum(terms)
    raise ConfigError(f"unknown corpus kind {kind!r}")


# -- norm dispatch -------------------------------------------------------------

def _norm(
    f: WalshSpectrum, p: float, cfg: ExperimentConfig, *seed_parts: int
) -> NormEstimate:
    # seed derivation deferred: exact routes never touch randomness
    return lp_norm(
        f, p, cfg.mc_samples, lambda: derive_seed(cfg.seed, *seed_parts)
    )


def _record(
    cfg,
    experiment,
    plan_label,
    p,
    size_or_m,
    trial,
    est: NormEstimate,
    scale: float,
    seed: int,
) -> ResultRecord:
    exact = est.kind == "exact"
    return ResultRecord(
        experiment=experiment,
        plan=plan_label,
        p=p,
        size_or_m=size_or_m,
        trial=trial,
        value=est.value / scale,
        ci_low=None if exact else est.ci_low / scale,
        ci_high=None if exact else est.ci_high / scale,
        exact=exact,
        seed=seed,
    )


# -- experiments ---------------------------------------------------------------

def democracy_experiment(cfg: ExperimentConfig):
    """||sum over A of psi||_p / sqrt(|A|) over random index sets.

    At p = 2 the ratio is Parseval-exact: the expansion coefficients of
    the sum are the 0/1 indicator of A, so the quotient is literally
    1.0 without any synthesis.
    """
    plan = cfg.plan
    horizon = plan.horizon_size
    sizes = cfg.sizes or tuple(range(1, min(horizon, 200) + 1))
    records: list[ResultRecord] = []
    ratio_span: dict[float, list[float]] = {p: [math.inf, -math.inf] for p in cfg.p_values}
    for size in sizes:
        if size > horizon:
            raise ConfigError(f"set size {size} above horizon {horizon}")
        for trial in range(cfg.trials):
            set_seed = derive_seed(cfg.seed, 2, size, trial)
            rng = np.random.default_rng(set_seed)
            members = np.sort(rng.choice(horizon, size=size, replace=False)) + 1
            scale = math.sqrt(size)
            spectrum = None
            for p_idx, p in enumerate(cfg.p_values):
                if p == 2.0:
                    coeff_l2 = math.sqrt(size)
                    est = NormEstimate(p=2.0, value=coeff_l2, kind="exact")
                else:
                    if spectrum is None:
                        spectrum = plan.sum_spectrum(int(m) for m in members)
                    est = _norm(spectrum, p, cfg, 3, size, trial, p_idx)
                rec = _record(
                    cfg, "democracy", plan.label(), p, size, trial, est, scale, set_seed
                )
                records.append(rec)
                lohi = ratio_span[p]
                lohi[0] = min(lohi[0], rec.value)
                lohi[1] = max(lohi[1], rec.value)
    summary = {
        "experiment": "democracy",
        "plan": plan.label(),
        "sizes": [min(sizes), max(sizes)],
        "trials": cfg.trials,
        "ratio_min": {str(p): ratio_span[p][0] for p in cfg.p_values},
        "ratio_max": {str(p): ratio_span[p][1] for p in cfg.p_values},
    }
    return records, summary


def _corpus_for(cfg: ExperimentConfig) -> list[tuple[str, WalshSpectrum]]:
    spec = cfg.corpus or {"kind": "mixed", "count": 50, "terms": 40}
    return corpus_with_coefficients(spec, derive_seed(cfg.seed, 4), cfg.plan)


def quasi_greedy_experiment(cfg: ExperimentConfig):
    """sup over m of ||G_m f||_p / ||f||_p per corpus function.

    Also emits the exact L2 residual curve (Parseval tails) so greedy
    convergence is visible in the same output file.
    """
    plan = cfg.plan
    records: list[ResultRecord] = []
    constant: dict[float, float] = {p: 0.0 for p in cfg.p_values}
    residual_dev_max = 0.0
    terminal_residual_max = 0.0
    for fi, (_, f) in enumerate(_corpus_for(cfg)):
        coeffs = analyze(f, plan)
        order = greedy_order(coeffs).rho
        by_index = coeffs.as_dict()
        total_sq = sum(c * c for c in by_index.values())
        tail_sq = parseval_tails([by_index[sel] for sel in order])
        norms_f = {
            p: (
                math.sqrt(total_sq)
                if p == 2.0
                else _norm(f, p, cfg, 5, fi).value
            )
            for p in cfg.p_values
        }
        running: list[tuple[int, float]] = []
        head_sq = 0.0
        for m, sel in enumerate(order, start=1):
            c = by_index[sel]
            running.append((sel, c))
            head_sq += c * c
            approx = plan.weighted_spectrum(running)
            for p in cfg.p_values:
                if p == 2.0:
                    value = math.sqrt(head_sq) / math.sqrt(total_sq)
                    est = NormEstimate(p=2.0, value=value, kind="exact")
                    rec = _record(
                        cfg, "quasigreedy", plan.label(), p, m, fi, est, 1.0, cfg.seed
                    )
                else:
                    est = _norm(approx, p, cfg, 6, fi, m)
                    rec = _record(
                        cfg,
                        "quasigreedy",
                        plan.label(),
                        p,
                        m,
                        fi,
                        est,
                        norms_f[p],
                        cfg.seed,
                    )
                records.append(rec)
                constant[p] = max(constant[p], rec.value)
            tail = math.sqrt(tail_sq[m])
            records.append(
                ResultRecord(
                    experiment="quasigreedy-residual",
                    plan=plan.label(),
                    p=2.0,
                    size_or_m=m,
                    trial=fi,
                    value=tail,
                    ci_low=None,
                    ci_high=None,
                    exact=True,
                    seed=cfg.seed,
                )
            )
            spectral_tail = lp_even_spectral(f - approx, 2).value
            residual_dev_max = max(residual_dev_max, abs(spectral_tail - tail))
        terminal_residual_max = max(
            terminal_residual_max,
            lp_even_spectral(f - plan.weighted_spectrum(running), 2).value,
        )
    summary = {
        "experiment": "quasigreedy",
        "plan": plan.label(),
        "corpus_size": len(set(r.trial for r in records)),
        "empirical_constant": {str(p): constant[p] for p in cfg.p_values},
        "residual_parseval_dev_max": residual_dev_max,
        "terminal_residual_max": terminal_residual_max,
    }
    return records, summary


def partial_sum_experiment(cfg: ExperimentConfig):
    """||S_n f||_p / ||f||_p over the corpus, on an n grid.

    The p = 2 ratio is additionally checked over every n (cumulative
    Parseval sums), and the summary reports that full sweep's max.
    """
    plan = cfg.plan
    horizon = plan.horizon_size
    grid = sorted(
        set(cfg.n_grid or _default_n_grid(horizon)) | set(plan.offsets[1:])
    )
    if grid[-1] > horizon:
        raise ConfigError(f"n={grid[-1]} beyond horizon {horizon}")
    records: list[ResultRecord] = []
    p2_all_max = 0.0
    ratio_max: dict[float, float] = {p: 0.0 for p in cfg.p_values}
    for fi, (_, f) in enumerate(_corpus_for(cfg)):
        coeffs = analyze(f, plan)
        by_index = coeffs.as_dict()
        # head_sq[t]: squared l2 norm of the first t coefficients in
        # basis order, so ||S_n f||_2^2 = head_sq[#support <= n]
        support = sorted(by_index)
        head_sq = np.cumsum([0.0] + [by_index[m] * by_index[m] for m in support])
        total = head_sq[-1]
        p2_all_max = max(p2_all_max, float(np.sqrt(head_sq.max() / total)))
        norms_f = {
            p: (
                math.sqrt(total)
                if p == 2.0
                else _norm(f, p, cfg, 7, fi).value
            )
            for p in cfg.p_values
        }
        for n in grid:
            sn = None
            for p in cfg.p_values:
                if p == 2.0:
                    kept_sq = head_sq[bisect_right(support, n)]
                    est = NormEstimate(
                        p=2.0, value=float(np.sqrt(kept_sq)), kind="exact"
                    )
                else:
                    if sn is None:
                        sn = partial_sum(f, plan, n)
                    est = _norm(sn, p, cfg, 8, fi, n)
                rec = _record(
                    cfg,
                    "partialsum",
                    plan.label(),
                    p,
                    n,
                    fi,
                    est,
                    norms_f[p],
                    cfg.seed,
                )
                records.append(rec)
                ratio_max[p] = max(ratio_max[p], rec.value)
    summary = {
        "experiment": "partialsum",
        "plan": plan.label(),
        "n_grid": list(grid),
        "p2_max_over_all_n": p2_all_max,
        "ratio_max": {str(p): ratio_max[p] for p in cfg.p_values},
    }
    return records, summary


def _default_n_grid(horizon: int) -> tuple[int, ...]:
    grid = {1, 2, 3}
    n = 4
    while n < horizon:
        grid.add(n)
        n = max(n + 1, int(n * 1.5))
    grid.add(horizon)
    return tuple(sorted(grid))


def khintchine_experiment(cfg: ExperimentConfig):
    """Empirical best constants in ||sum a_k r_k||_p vs ||a||_2.

    Lengths stay <= 16 so that dense synthesis enumerates all sign
    patterns exactly; the p = 4 runs are cross-checked against the
    closed fourth-moment value 3 (sum a^2)^2 - 2 sum a^4.
    """
    if cfg.max_terms > 16:
        raise ConfigError(f"max_terms {cfg.max_terms} above enumeration cap 16")
    records: list[ResultRecord] = []
    lo: dict[float, float] = {p: math.inf for p in cfg.p_values}
    hi: dict[float, float] = {p: -math.inf for p in cfg.p_values}
    identity_dev = 0.0
    for trial in range(cfg.trials):
        trial_seed = derive_seed(cfg.seed, 9, trial)
        rng = np.random.default_rng(trial_seed)
        length = int(rng.integers(1, cfg.max_terms + 1))
        a = rng.normal(size=length)
        # unit vectors keep the moment magnitudes O(1), so the absolute
        # tolerance on the fourth-moment identity is meaningful
        a /= np.sqrt(np.sum(a * a))
        f = WalshSpectrum(
            {rademacher_index(j + 1): float(a[j]) for j in range(length)}
        )
        l2 = float(np.sqrt(np.sum(a * a)))
        # only the p = 4 identity check reads the cell values
        values = synthesize(f, length) if 4.0 in cfg.p_values else None
        for p in cfg.p_values:
            est = _norm(f, p, cfg, 9, trial)
            rec = _record(
                cfg, "khintchine", cfg.plan.label(), p, length, trial, est, l2, trial_seed
            )
            records.append(rec)
            lo[p] = min(lo[p], rec.value)
            hi[p] = max(hi[p], rec.value)
            if p == 4.0:
                moment_dense = float(np.mean(values ** 4))
                identity_dev = max(
                    identity_dev,
                    abs(moment_dense - rademacher_fourth_moment(a)),
                )
    summary = {
        "experiment": "khintchine",
        "trials": cfg.trials,
        "A_empirical": {str(p): lo[p] for p in cfg.p_values},
        "B_empirical": {str(p): hi[p] for p in cfg.p_values},
        "fourth_moment_dev_max": identity_dev,
        "B4_bound": 3.0 ** 0.25,
    }
    return records, summary


def almost_greedy_experiment(cfg: ExperimentConfig):
    """Greedy residual vs the best candidate projection residual.

    The denominator minimizes over candidate index sets (greedy,
    natural prefix, seeded random ones, and optionally every subset
    when ``exhaustive``), so it upper-bounds the true infimum and the
    reported ratio lower-bounds the definition's quotient.
    """
    plan = cfg.plan
    records: list[ResultRecord] = []
    ratio_max: dict[float, float] = {p: 0.0 for p in cfg.p_values}
    for fi, (_, f) in enumerate(_corpus_for(cfg)):
        coeffs = analyze(f, plan)
        by_index = coeffs.as_dict()
        order = greedy_order(coeffs).rho
        support = sorted(by_index)
        total_sq = sum(c * c for c in by_index.values())
        if cfg.exhaustive and len(support) > 10:
            raise ConfigError(
                f"exhaustive search needs support <= 10, got {len(support)}"
            )
        for m in range(1, len(order)):
            greedy_set = frozenset(order[:m])
            candidates = {greedy_set, frozenset(support[:m])}
            for ci in range(cfg.random_candidates):
                rng = np.random.default_rng(derive_seed(cfg.seed, 10, fi, m, ci))
                pick = rng.choice(len(support), size=m, replace=False)
                candidates.add(frozenset(support[int(x)] for x in pick))
            if cfg.exhaustive:
                candidates.update(
                    frozenset(c) for c in combinations(support, m)
                )
            for p in cfg.p_values:
                numer = _projection_residual_norm(
                    f, plan, by_index, greedy_set, p, cfg, total_sq
                )
                denom = min(
                    _projection_residual_norm(
                        f, plan, by_index, cand, p, cfg, total_sq
                    )
                    for cand in candidates
                )
                value = 1.0 if numer == denom else numer / denom
                rec = ResultRecord(
                    experiment="almostgreedy",
                    plan=plan.label(),
                    p=p,
                    size_or_m=m,
                    trial=fi,
                    value=value,
                    ci_low=None,
                    ci_high=None,
                    exact=True,
                    seed=cfg.seed,
                )
                records.append(rec)
                ratio_max[p] = max(ratio_max[p], value)
    summary = {
        "experiment": "almostgreedy",
        "plan": plan.label(),
        "ratio_max": {str(p): ratio_max[p] for p in cfg.p_values},
        "candidate_note": "denominator is an upper bound on the projection infimum",
    }
    return records, summary


def _projection_residual_norm(
    f: WalshSpectrum,
    plan: BlockPlan,
    by_index: dict[int, float],
    index_set: frozenset,
    p: float,
    cfg: ExperimentConfig,
    total_sq: float,
) -> float:
    if p == 2.0:
        kept = sum(by_index[m] * by_index[m] for m in index_set)
        return math.sqrt(max(total_sq - kept, 0.0))
    residual = f - plan.weighted_spectrum(
        (m, by_index[m]) for m in sorted(index_set)
    )
    return _norm(residual, p, cfg, 11).value


def baseline_walsh_comparison(cfg: ExperimentConfig):
    """Greedy ratios in the plain Walsh system vs the mixed basis.

    The same tilted near-flat coefficient vectors are read once as raw
    Walsh coefficients (natural order, identity transform) and once as
    expansion coefficients of the mixed system at matching positions.
    Rows are distinguished by the plan column ("walsh" vs the plan
    label).
    """
    plan = cfg.plan
    spec = cfg.corpus or {"kind": "adversarial_walsh", "depth": 6, "count": 8}
    if spec.get("kind") != "adversarial_walsh":
        raise ConfigError("walsh-baseline wants an 'adversarial_walsh' corpus")
    if (1 << int(spec.get("depth", 6))) > plan.horizon_size:
        raise ConfigError(
            f"depth {spec.get('depth', 6)} corpus does not fit the plan horizon"
        )
    records: list[ResultRecord] = []
    walsh_max: dict[float, float] = {p: 0.0 for p in cfg.p_values}
    psi_max: dict[float, float] = {p: 0.0 for p in cfg.p_values}
    for fi, (_, f) in enumerate(
        corpus_with_coefficients(spec, derive_seed(cfg.seed, 12), plan)
    ):
        walsh_coeffs = dict(f.items())
        ordered = sorted(
            walsh_coeffs, key=lambda n: (-abs(walsh_coeffs[n]), n)
        )
        # transport preserves natural order: t-th smallest Walsh
        # frequency becomes basis position t+1
        psi_pairs = [
            (t + 1, walsh_coeffs[n])
            for t, n in enumerate(sorted(walsh_coeffs))
        ]
        psi_coeffs = CoefficientList.from_pairs(psi_pairs)
        f_psi = synthesize_coefficients(psi_coeffs, plan)
        psi_order = greedy_order(psi_coeffs).rho
        psi_by_index = psi_coeffs.as_dict()
        norms_walsh = {
            p: _norm(f, p, cfg, 13, fi).value
            for p in cfg.p_values
        }
        norms_psi = {
            p: _norm(f_psi, p, cfg, 14, fi).value
            for p in cfg.p_values
        }
        walsh_running: dict[int, float] = {}
        psi_running: list[tuple[int, float]] = []
        for m in range(1, len(ordered) + 1):
            walsh_running[ordered[m - 1]] = walsh_coeffs[ordered[m - 1]]
            g_walsh = WalshSpectrum(dict(walsh_running))
            psi_running.append(
                (psi_order[m - 1], psi_by_index[psi_order[m - 1]])
            )
            g_psi = plan.weighted_spectrum(psi_running)
            for p in cfg.p_values:
                est_w = _norm(g_walsh, p, cfg, 15, fi, m)
                rec_w = _record(
                    cfg, "walsh-baseline", "walsh", p, m, fi, est_w,
                    norms_walsh[p], cfg.seed,
                )
                est_b = _norm(g_psi, p, cfg, 16, fi, m)
                rec_b = _record(
                    cfg, "walsh-baseline", plan.label(), p, m, fi, est_b,
                    norms_psi[p], cfg.seed,
                )
                records.extend((rec_w, rec_b))
                walsh_max[p] = max(walsh_max[p], rec_w.value)
                psi_max[p] = max(psi_max[p], rec_b.value)
    summary = {
        "experiment": "walsh-baseline",
        "plan": plan.label(),
        "walsh_constant": {str(p): walsh_max[p] for p in cfg.p_values},
        "mixed_basis_constant": {str(p): psi_max[p] for p in cfg.p_values},
    }
    return records, summary


EXPERIMENTS: dict[str, Callable] = {
    "democracy": democracy_experiment,
    "quasigreedy": quasi_greedy_experiment,
    "partialsum": partial_sum_experiment,
    "khintchine": khintchine_experiment,
    "almostgreedy": almost_greedy_experiment,
    "walsh-baseline": baseline_walsh_comparison,
}


def run_experiment(kind: str, cfg: ExperimentConfig):
    if kind not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {kind!r}; have {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[kind](cfg)
