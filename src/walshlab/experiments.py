"""Seeded verification experiments over the block basis.

Each experiment consumes an ExperimentConfig and returns (records,
summary): one ResultRecord per measurement plus a JSON-friendly digest.
Per-trial randomness is derived from the master seed and the trial's
own coordinates, so reruns are bit-identical and independent of any
execution order.

Every row is built by one constructor (``_record``), and every min/max
in a summary is the extreme of the returned rows at that p
(``_extremes``), so a summary can always be recomputed from its CSV.
The corpus drivers (quasigreedy, partialsum, almostgreedy) read their
functions and expansion coefficients from one iterator, and greedy
approximants are built from prefixes ``order[:m]`` of the greedy order.

Norm routes: p = 2 ratios of expansions are computed in coefficient
space (orthonormal Parseval, exact by construction; the test suite
separately confirms coefficient and spectral routes agree), even p up
to 10 the exact head/tail split (quasigreedy's prefixes and
partialsum's S_n f as symbol rows of one batch per function, f's own
row giving partialsum's denominator), anything else dense synthesis
when the depth allows and seeded Monte Carlo otherwise.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable

import numpy as np

from .blocks import MATERIALIZATION_CAP, BlockPlan, plan_from_json, validate_schedule
from .errors import BudgetError, ConfigError
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
    even_moments,
    lp_even_spectral,
    lp_norm,
    rademacher_fourth_moment,
    takes_split,
)
from .spectra import WalshSpectrum, analyze_dense, phi_index, rademacher_index, synthesize

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
        except (KeyError, TypeError) as exc:
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
        try:
            cfg = cls(
                plan=plan,
                p_values=tuple(float(p) for p in p_raw),
                sizes=_expand_sizes(doc.get("sizes", [])),
                trials=int(doc.get("trials", 100)),
                seed=int(doc.get("seed", 0)),
                corpus=dict(doc.get("corpus", {})),
                n_grid=_expand_sizes(doc.get("n_grid", [])),
                mc_samples=int(doc.get("mc_samples", 20000)),
                random_candidates=int(doc.get("random_candidates", 5)),
                max_terms=int(doc.get("max_terms", 16)),
                exhaustive=bool(doc.get("exhaustive", False)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad config value: {exc}") from exc
        # written so that a NaN fails the comparison and is refused too
        for name, value, least in [
            ("trials", cfg.trials, 1),
            ("mc_samples", cfg.mc_samples, 2),
            ("max_terms", cfg.max_terms, 1),
            *(("sizes", n, 1) for n in cfg.sizes),
            *(("p", p, 1.0) for p in cfg.p_values),
        ]:
            if not value >= least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        return cfg


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
    count = _corpus_number(spec, "count", 1, least=1)
    out = []
    for index in range(count):
        rng = np.random.default_rng(derive_seed(seed, 1, index))
        if kind == "mixed":
            sub = {**spec, **_MIXED_ROTATION[index % len(_MIXED_ROTATION)]}
        else:
            sub = spec
        out.append((f"{sub['kind']}#{index}", _generate_one(sub, rng, plan)))
    return out


_MIXED_ROTATION = (
    {"kind": "decay", "alpha": 0.6},
    {"kind": "decay", "alpha": 1.0},
    {"kind": "flat_block"},
    {"kind": "decay", "alpha": 1.5},
    {"kind": "lacunary"},
)


def _corpus_number(spec: dict, name: str, default, cast=int, least=None):
    """spec[name] (or ``default``) as a number; ConfigError names the field."""
    try:
        value = cast(spec.get(name, default))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"corpus {name}: {exc}") from exc
    if least is not None and not value >= least:
        raise ConfigError(f"corpus {name} must be >= {least}, got {value}")
    return value


def _generate_one(spec: dict, rng, plan: BlockPlan) -> WalshSpectrum:
    kind = spec["kind"]
    horizon = plan.horizon_size
    terms = min(_corpus_number(spec, "terms", 40, least=1), horizon)
    if kind == "decay":
        alpha = _corpus_number(spec, "alpha", 1.0, float)
        signs = rng.choice([-1.0, 1.0], size=terms)
        pairs = [(m, signs[m - 1] * m ** -alpha) for m in range(1, terms + 1)]
    elif kind == "flat_block":
        positions = _draw_positions(rng, plan, terms)
        pairs = zip(positions, rng.choice([-1.0, 1.0], size=terms))
    elif kind == "lacunary":
        positions = [1 << j for j in range(horizon.bit_length())]
        pairs = zip(positions, rng.choice([-1.0, 1.0], size=len(positions)))
    elif kind == "indicator":
        # by default the deepest d <= 3 with every frequency below 2^d a
        # symbol; r_1..r_3 are symbols of every plan that has phi_2 = 3
        phis = {phi_index(k) for k in range(1, min(plan.horizon_blocks, 5) + 1)}
        spanned = max(d for d in (1, 2, 3) if phis | {1, 2, 4} >= set(range(1 << d)))
        depth = _corpus_number(spec, "depth", spanned, least=1)
        cells = 1 << depth
        lo = int(rng.integers(0, cells - 1))
        hi = int(rng.integers(lo + 1, cells + 1))
        values = np.zeros(cells)
        values[lo:hi] = 1.0
        return analyze_dense(values)
    elif kind == "adversarial_walsh":
        # near-flat magnitudes, signs alternating by dyadic band, tilted
        # so the greedy ordering walks fine bands before coarse ones
        # (the worst observed direction for plain-Walsh thresholding)
        depth = _corpus_number(spec, "depth", 6, least=0)
        tilt = _corpus_number(spec, "tilt", 1e-3, float)
        jitter = rng.random(1 << depth) * (tilt / 8.0)
        bands = [n.bit_length() for n in range(1 << depth)]
        return WalshSpectrum({
            n: float((-1.0) ** band * (1.0 + tilt * band + jitter[n]))
            for n, band in enumerate(bands)
        })
    else:
        raise ConfigError(f"unknown corpus kind {kind!r}")
    return synthesize_coefficients(CoefficientList.from_pairs(pairs), plan)


def _draw_positions(rng, plan: BlockPlan, size: int) -> np.ndarray:
    """``size`` distinct uniform positions in 1..horizon, sorted; refused
    when a block is above the cap, which a uniform draw almost surely hits."""
    if max(plan.N) > MATERIALIZATION_CAP:
        raise BudgetError(f"uniform draws over a block above {MATERIALIZATION_CAP}")
    return np.sort(rng.choice(plan.horizon_size, size=size, replace=False)) + 1


# -- norms, rows and summaries -------------------------------------------------

def _norm(
    f: WalshSpectrum, p: float, cfg: ExperimentConfig, *seed_parts: int
) -> NormEstimate:
    # seed derivation deferred: exact routes never touch randomness
    return lp_norm(
        f, p, cfg.mc_samples, lambda: derive_seed(cfg.seed, *seed_parts)
    )


def _norms(
    f: WalshSpectrum, cfg: ExperimentConfig, *seed_parts: int, l2_sq=None
) -> dict[float, float]:
    """||f||_p for every configured p.

    Given ``l2_sq``, the squared l2 norm of f's expansion coefficients,
    p = 2 is Parseval-exact and never reads the spectrum.
    """
    return {
        p: math.sqrt(l2_sq) if p == 2.0 and l2_sq is not None
        else _norm(f, p, cfg, *seed_parts).value
        for p in cfg.p_values
    }


def _record(
    experiment: str, plan_label: str, p: float, size_or_m: int, trial: int,
    est: NormEstimate, scale: float, seed: int,
) -> ResultRecord:
    """One CSV row: ``est`` divided by ``scale``, CI cells only if sampled."""
    exact = est.kind == "exact"
    return ResultRecord(
        experiment, plan_label, p, size_or_m, trial, est.value / scale,
        None if exact else est.ci_low / scale,
        None if exact else est.ci_high / scale,
        exact, seed,
    )


def _extremes(
    records: list[ResultRecord], p_values, pick: Callable, start: float, **fields
) -> dict[str, float]:
    """``pick`` (min or max) over ``start`` and the row values at each p.

    Only rows whose attributes equal ``fields`` count, which splits the
    series one driver writes (quasigreedy's residual rows, the two plans
    of walsh-baseline).
    """
    rows = [r for r in records if all(getattr(r, k) == v for k, v in fields.items())]
    return {
        str(p): pick([start] + [r.value for r in rows if r.p == p]) for p in p_values
    }


def _corpus_expansions(cfg: ExperimentConfig):
    """(trial, f, coefficients, squared l2 of the coefficients) per function.

    The corpus is ``cfg.corpus`` (default: 50 mixed functions of 40
    terms) drawn from derive_seed(seed, 4).
    """
    spec = cfg.corpus or {"kind": "mixed", "count": 50, "terms": 40}
    corpus = corpus_with_coefficients(spec, derive_seed(cfg.seed, 4), cfg.plan)
    for trial, (_, f) in enumerate(corpus):
        coeffs = analyze(f, cfg.plan)
        yield trial, f, coeffs, sum(c * c for _, c in coeffs.entries)


# bytes of prefix rows per batch; the norm pass peaks near six times this
_BATCH_BYTES = 1 << 22


def _prefix_norms(plan: BlockPlan, entries, cuts, ps):
    """(symbol vectors, {p: norm} at the even ``ps``) of the sum of the
    first ``cuts[r]`` (position, weight) ``entries``, row r at a time:
    quasigreedy's greedy prefixes, partialsum's S_n f after f's own row
    (the horizon cut, its denominator).  A batch shares one ``rmatvec``
    per block and one ``even_moments`` pass."""
    blocks = sorted({plan.to_block(m)[0] for m, _ in entries})
    freqs = [n for k in blocks for n in plan.symbol_frequencies(k)]
    step = max(1, _BATCH_BYTES // (8 * max(len(freqs), 1)))
    for lo in range(0, len(cuts), step):
        select = np.arange(len(entries)) < np.array(cuts[lo:lo + step])[:, None]
        rows = plan.symbol_rows(entries, select)
        coeffs = np.concatenate([rows[k] for k in blocks], axis=1)
        moments = even_moments(freqs, coeffs, [int(p) // 2 for p in ps])
        for r, row in enumerate(moments.tolist()):
            norms = {p: x ** (1.0 / p) for p, x in zip(ps, row)}
            yield {k: w[r] for k, w in rows.items()}, norms


# -- experiments ---------------------------------------------------------------

def democracy_experiment(cfg: ExperimentConfig):
    """||sum over A of psi||_p / sqrt(|A|) over random index sets.

    At p = 2 the ratio is Parseval-exact: the expansion coefficients of
    the sum are the 0/1 indicator of A, so the quotient is literally
    1.0 without any synthesis.
    """
    plan = cfg.plan
    label = plan.label()
    horizon = plan.horizon_size
    sizes = cfg.sizes or tuple(range(1, min(horizon, 200) + 1))
    records: list[ResultRecord] = []
    for size in sizes:
        if size > horizon:
            raise ConfigError(f"set size {size} above horizon {horizon}")
        for trial in range(cfg.trials):
            set_seed = derive_seed(cfg.seed, 2, size, trial)
            rng = np.random.default_rng(set_seed)
            members = _draw_positions(rng, plan, size)
            scale = math.sqrt(size)
            spectrum = None
            for p_idx, p in enumerate(cfg.p_values):
                if p == 2.0:
                    est = NormEstimate(2.0, scale, "exact")
                else:
                    if spectrum is None:
                        spectrum = plan.sum_spectrum(int(m) for m in members)
                    est = _norm(spectrum, p, cfg, 3, size, trial, p_idx)
                records.append(
                    _record("democracy", label, p, size, trial, est, scale, set_seed)
                )
    summary = {
        "experiment": "democracy",
        "plan": label,
        "sizes": [min(sizes), max(sizes)],
        "trials": cfg.trials,
        "ratio_min": _extremes(records, cfg.p_values, min, math.inf),
        "ratio_max": _extremes(records, cfg.p_values, max, -math.inf),
    }
    return records, summary


def quasi_greedy_experiment(cfg: ExperimentConfig):
    """sup over m of ||G_m f||_p / ||f||_p per corpus function.

    Also emits the exact L2 residual curve (Parseval tails) so greedy
    convergence is visible in the same output file.
    """
    plan = cfg.plan
    label = plan.label()
    records: list[ResultRecord] = []
    residual_dev_max = 0.0
    terminal_residual_max = 0.0
    even_ps = [p for p in cfg.p_values if takes_split(p) and p != 2.0]
    for fi, f, coeffs, total_sq in _corpus_expansions(cfg):
        by_index = coeffs.as_dict()
        order = greedy_order(coeffs).rho
        tail_sq = parseval_tails([by_index[sel] for sel in order])
        norms_f = _norms(f, cfg, 5, fi, l2_sq=total_sq)
        head_sq = 0.0
        # an empty order means f = 0, whose residual is 0 as well
        spectral_tail = 0.0
        prefixes = _prefix_norms(
            plan, [(s, by_index[s]) for s in order], range(1, len(order) + 1), even_ps
        )
        for m, (sel, (rows, even)) in enumerate(zip(order, prefixes), start=1):
            head_sq += by_index[sel] * by_index[sel]
            approx = plan.gather(rows)
            for p in cfg.p_values:
                if p == 2.0:
                    est = NormEstimate(2.0, math.sqrt(head_sq), "exact")
                elif p in even:
                    est = NormEstimate(p, even[p], "exact")
                else:
                    est = _norm(approx, p, cfg, 6, fi, m)
                records.append(
                    _record("quasigreedy", label, p, m, fi, est, norms_f[p], cfg.seed)
                )
            tail = NormEstimate(2.0, math.sqrt(tail_sq[m]), "exact")
            records.append(
                _record("quasigreedy-residual", label, 2.0, m, fi, tail, 1.0, cfg.seed)
            )
            spectral_tail = lp_even_spectral(f - approx, 2).value
            residual_dev_max = max(residual_dev_max, abs(spectral_tail - tail.value))
        terminal_residual_max = max(terminal_residual_max, spectral_tail)
    summary = {
        "experiment": "quasigreedy",
        "plan": label,
        "corpus_size": len(set(r.trial for r in records)),
        "empirical_constant": _extremes(
            records, cfg.p_values, max, 0.0, experiment="quasigreedy"
        ),
        "residual_parseval_dev_max": residual_dev_max,
        "terminal_residual_max": terminal_residual_max,
    }
    return records, summary


def partial_sum_experiment(cfg: ExperimentConfig):
    """||S_n f||_p / ||f||_p over the corpus, on an n grid.

    The p = 2 ratio is additionally checked over every n (cumulative
    Parseval sums), and the summary reports that full sweep's max.
    Each S_n f is a symbol row of one batch, checked at block ends
    against ``partial_sum`` (l2 distance, ``block_end_dev_max``).
    """
    plan = cfg.plan
    label = plan.label()
    horizon = plan.horizon_size
    grid = sorted(
        set(cfg.n_grid or _default_n_grid(horizon)) | set(plan.offsets[1:])
    )
    if grid[-1] > horizon:
        raise ConfigError(f"n={grid[-1]} beyond horizon {horizon}")
    # S_n inside a block transforms all of it, so refuse one above the cap
    for k, i in (plan.to_block(n) for n in grid if n):
        if i < plan.N[k - 1]:
            plan._check_cap(k)
    even_ps = [p for p in cfg.p_values if takes_split(p) and p != 2.0]
    other_ps = [p for p in cfg.p_values if p != 2.0 and p not in even_ps]
    records: list[ResultRecord] = []
    p2_all_max = block_end_dev = 0.0
    for fi, f, coeffs, _ in _corpus_expansions(cfg):
        by_index = coeffs.as_dict()
        # head_sq[t]: squared l2 norm of the first t coefficients in
        # basis order, so ||S_n f||_2^2 = head_sq[#support <= n]
        support = sorted(by_index)
        head_sq = np.cumsum([0.0] + [by_index[m] * by_index[m] for m in support])
        p2_all_max = max(p2_all_max, float(np.sqrt(head_sq.max() / head_sq[-1])))
        cuts = [bisect_right(support, n) for n in grid]
        # row 0 is f, equal to the horizon's row: its norms are the
        # denominators, so the ratio at the horizon is exactly 1
        entries = [(m, by_index[m]) for m in support]
        sums = _prefix_norms(plan, entries, [len(support), *cuts], even_ps)
        norms_f = {2.0: math.sqrt(head_sq[-1]), **next(sums)[1]}
        norms_f.update((p, _norm(f, p, cfg, 7, fi).value) for p in other_ps)
        for n, cut, (rows, even) in zip(grid, cuts, sums):
            sn = plan.gather(rows) if other_ps or n in plan.offsets else None
            for p in cfg.p_values:
                if p == 2.0:
                    est = NormEstimate(2.0, float(np.sqrt(head_sq[cut])), "exact")
                elif p in even:
                    est = NormEstimate(p, even[p], "exact")
                else:
                    est = _norm(sn, p, cfg, 8, fi, n)
                records.append(
                    _record("partialsum", label, p, n, fi, est, norms_f[p], cfg.seed)
                )
            if n in plan.offsets:
                gap = lp_even_spectral(sn - partial_sum(f, plan, n), 2).value
                block_end_dev = max(block_end_dev, gap)
    summary = {
        "experiment": "partialsum",
        "plan": label,
        "n_grid": list(grid),
        "p2_max_over_all_n": p2_all_max,
        "ratio_max": _extremes(records, cfg.p_values, max, 0.0),
        "block_end_dev_max": block_end_dev,
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
    label = cfg.plan.label()
    records: list[ResultRecord] = []
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
        for p in cfg.p_values:
            est = _norm(f, p, cfg, 9, trial)
            records.append(
                _record("khintchine", label, p, length, trial, est, l2, trial_seed)
            )
        if 4.0 in cfg.p_values:
            moment_dense = float(np.mean(synthesize(f, length) ** 4))
            identity_dev = max(
                identity_dev, abs(moment_dense - rademacher_fourth_moment(a))
            )
    summary = {
        "experiment": "khintchine",
        "trials": cfg.trials,
        "A_empirical": _extremes(records, cfg.p_values, min, math.inf),
        "B_empirical": _extremes(records, cfg.p_values, max, -math.inf),
        "fourth_moment_dev_max": identity_dev,
        "B4_bound": 3.0 ** 0.25,
    }
    return records, summary


def almost_greedy_experiment(cfg: ExperimentConfig):
    """Greedy residual vs the best candidate projection residual.

    The denominator minimizes over candidate index sets (greedy,
    natural prefix, seeded random ones, and optionally every subset
    when ``exhaustive``), so it upper-bounds the true infimum and the
    reported ratio lower-bounds the definition's quotient.  At p = 2
    each residual norm is a Parseval tail of the coefficients.
    """
    plan = cfg.plan
    label = plan.label()
    records: list[ResultRecord] = []
    for fi, f, coeffs, total_sq in _corpus_expansions(cfg):
        by_index = coeffs.as_dict()
        order = greedy_order(coeffs).rho
        support = sorted(by_index)
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
                residuals = {}
                for cand in candidates:
                    if p == 2.0:
                        kept = sum(by_index[j] * by_index[j] for j in cand)
                        residuals[cand] = math.sqrt(max(total_sq - kept, 0.0))
                    else:
                        rest = f - plan.weighted_spectrum(
                            (j, by_index[j]) for j in sorted(cand)
                        )
                        residuals[cand] = _norm(rest, p, cfg, 11).value
                numer = residuals[greedy_set]
                denom = min(residuals.values())
                value = 1.0 if numer == denom else numer / denom
                est = NormEstimate(p, value, "exact")
                records.append(
                    _record("almostgreedy", label, p, m, fi, est, 1.0, cfg.seed)
                )
    summary = {
        "experiment": "almostgreedy",
        "plan": label,
        "ratio_max": _extremes(records, cfg.p_values, max, 0.0),
        "candidate_note": "denominator is an upper bound on the projection infimum",
    }
    return records, summary


def baseline_walsh_comparison(cfg: ExperimentConfig):
    """Greedy ratios in the plain Walsh system vs the mixed basis.

    The same tilted near-flat coefficient vectors are read once as raw
    Walsh coefficients (natural order, identity transform) and once as
    expansion coefficients of the mixed system at matching positions.
    Rows are distinguished by the plan column ("walsh" vs the plan
    label).
    """
    plan = cfg.plan
    label = plan.label()
    spec = cfg.corpus or {"kind": "adversarial_walsh", "depth": 6, "count": 8}
    if spec.get("kind") != "adversarial_walsh":
        raise ConfigError("walsh-baseline wants an 'adversarial_walsh' corpus")
    if (1 << _corpus_number(spec, "depth", 6, least=0)) > plan.horizon_size:
        raise ConfigError(
            f"depth {spec.get('depth', 6)} corpus does not fit the plan horizon"
        )
    records: list[ResultRecord] = []
    for fi, (_, f) in enumerate(
        corpus_with_coefficients(spec, derive_seed(cfg.seed, 12), plan)
    ):
        walsh_coeffs = CoefficientList.from_pairs(f.items())
        walsh_by_index = walsh_coeffs.as_dict()
        # transport preserves natural order: t-th smallest Walsh
        # frequency becomes basis position t+1
        psi_coeffs = CoefficientList.from_pairs(
            (t + 1, walsh_by_index[n]) for t, n in enumerate(sorted(walsh_by_index))
        )
        psi_by_index = psi_coeffs.as_dict()
        walsh_order = greedy_order(walsh_coeffs).rho
        psi_order = greedy_order(psi_coeffs).rho
        norms_walsh = _norms(f, cfg, 13, fi)
        norms_psi = _norms(synthesize_coefficients(psi_coeffs, plan), cfg, 14, fi)
        for m in range(1, len(walsh_order) + 1):
            g_walsh = WalshSpectrum({n: walsh_by_index[n] for n in walsh_order[:m]})
            g_psi = plan.weighted_spectrum((j, psi_by_index[j]) for j in psi_order[:m])
            for p in cfg.p_values:
                est_w = _norm(g_walsh, p, cfg, 15, fi, m)
                est_b = _norm(g_psi, p, cfg, 16, fi, m)
                records.append(
                    _record("walsh-baseline", "walsh", p, m, fi, est_w,
                            norms_walsh[p], cfg.seed)
                )
                records.append(
                    _record("walsh-baseline", label, p, m, fi, est_b,
                            norms_psi[p], cfg.seed)
                )
    summary = {
        "experiment": "walsh-baseline",
        "plan": label,
        "walsh_constant": _extremes(records, cfg.p_values, max, 0.0, plan="walsh"),
        "mixed_basis_constant": _extremes(
            records, cfg.p_values, max, 0.0, plan=label
        ),
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
