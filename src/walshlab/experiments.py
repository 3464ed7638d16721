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

Every value inside the plan's span is a symbol row of a byte-bounded
batch (``_span_norms``, the even split cached per plan and block tuple):
democracy's sets, quasigreedy's and walsh-baseline's greedy prefixes,
partialsum's S_n f and almostgreedy's candidate residuals f - P_c f.
``_estimates`` picks the norm route of every value: p = 2 from a known
l2 norm (Parseval in coefficient space, which partialsum and
quasigreedy check against their rows' Walsh side, or the Walsh side
itself in walsh-baseline), even p up to 10 from the rows' exact
head/tail split, anything else ``lp_norm`` of the spectrum, a row
gathered at most once.  Other spectra are the corpus, what lies
outside the plan (khintchine's trials, walsh-baseline's Walsh side)
and the cross-checks: democracy's first set, partialsum's block ends
and quasigreedy's full prefix.
"""

from __future__ import annotations

import csv
import functools
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, islice, tee
from typing import Callable

import numpy as np

from . import spectra
from .blocks import MATERIALIZATION_CAP, BlockPlan, plan_from_json
from .errors import BudgetError, ConfigError, read_number
from .greedy import analyze, greedy_order, parseval_tails, partial_sum, synthesize_coefficients
from .norms import (
    NormEstimate,
    even_moments,
    even_split,
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

    # the least value of each integer field
    _INT_LEAST = {"trials": 1, "seed": 0, "mc_samples": 2, "random_candidates": 0,
                  "max_terms": 1}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Config of a JSON document, every number read by ``read_number``;
        keys that name no field are ignored."""
        if not isinstance(doc, dict) or "plan" not in doc:
            raise ConfigError("config needs a 'plan'")
        plan = plan_from_json(doc["plan"])
        p, corpus = doc.get("p", cls.p_values), doc.get("corpus", {})
        if not isinstance(corpus, dict):
            raise ConfigError(f"corpus must be an object, got {corpus!r}")
        if not isinstance(exhaustive := doc.get("exhaustive", cls.exhaustive), bool):
            raise ConfigError(f"exhaustive must be true or false, got {exhaustive!r}")
        return cls(
            plan=plan,
            p_values=tuple(read_number(x, "p", float, 1.0)
                           for x in (p if isinstance(p, (list, tuple)) else [p])),
            sizes=_expand_sizes(doc.get("sizes", ()), "sizes", 1, plan),
            n_grid=_expand_sizes(doc.get("n_grid", ()), "n_grid", 0, plan),
            corpus=dict(corpus),
            exhaustive=exhaustive,
            **{name: read_number(doc.get(name, getattr(cls, name)), name, least=least)
               for name, least in cls._INT_LEAST.items()},
        )


def _expand_sizes(raw, name: str, least: int, plan: BlockPlan) -> tuple[int, ...]:
    """Integers >= ``least`` from a list or {"range": [lo, hi]}; a range is
    refused before it is listed when it is empty or has more entries than
    least..horizon or MATERIALIZATION_CAP."""
    if isinstance(raw, dict):
        if not isinstance(bounds := raw.get("range"), (list, tuple)) or len(bounds) != 2:
            raise ConfigError(f"{name} spec {raw!r} needs 'range': [lo, hi]")
        lo, hi = (read_number(x, name, least=least) for x in bounds)
        most = min(plan.horizon_size + 1 - least, MATERIALIZATION_CAP)
        if not lo <= hi < lo + most:
            raise ConfigError(f"{name} range [{lo}, {hi}] must hold 1 to {most} entries")
        return tuple(range(lo, hi + 1))
    if not isinstance(raw, (list, tuple)):
        raise ConfigError(f"{name} must be a list or a range, got {raw!r}")
    return tuple(read_number(x, name, least=least) for x in raw)


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
    kind = spec.get("kind")
    if kind is None:
        raise ConfigError("corpus spec needs a 'kind'")
    count = read_number(spec.get("count", 1), "corpus count", least=1)
    out = []
    for index in range(count):
        rng = np.random.default_rng(derive_seed(seed, 1, index))
        if kind == "mixed":
            sub = {**spec, **_MIXED_ROTATION[index % len(_MIXED_ROTATION)]}
        else:
            sub = spec
        out.append(_generate_one(sub, rng, plan))
    return out


# the name bench/tracer.py wraps; it traces every binding of the function
corpus_with_coefficients = corpus_generate


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
    terms = min(read_number(spec.get("terms", 40), "corpus terms", least=1), horizon)
    if kind == "decay":
        alpha = read_number(spec.get("alpha", 1.0), "corpus alpha", float)
        plan._check_cap(plan.to_block(terms)[0])  # the widest block of 1..terms
        signs = rng.choice([-1.0, 1.0], size=terms)
        try:
            pairs = [(m, signs[m - 1] * m ** -alpha) for m in range(1, terms + 1)]
        except OverflowError as exc:
            raise ConfigError(f"corpus alpha {alpha}: {terms}**{-alpha} overflows") from exc
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
        depth = read_number(spec.get("depth", spanned), "corpus depth", least=1)
        cells = _cells(kind, depth)
        lo = int(rng.integers(0, cells - 1))
        hi = int(rng.integers(lo + 1, cells + 1))
        values = np.zeros(cells)
        values[lo:hi] = 1.0
        return analyze_dense(values)
    elif kind == "adversarial_walsh":
        # near-flat magnitudes, signs alternating by dyadic band, tilted
        # so the greedy ordering walks fine bands before coarse ones
        # (the worst observed direction for plain-Walsh thresholding)
        depth = read_number(spec.get("depth", 6), "corpus depth", least=0)
        tilt = read_number(spec.get("tilt", 1e-3), "corpus tilt", float)
        cells = _cells(kind, depth)
        if not math.isfinite(tilt * (depth + 1)):
            raise ConfigError(f"corpus tilt {tilt}: coefficients overflow")
        jitter = rng.random(cells) * (tilt / 8.0)
        bands = [n.bit_length() for n in range(cells)]
        return WalshSpectrum({
            n: float((-1.0) ** band * (1.0 + tilt * band + jitter[n]))
            for n, band in enumerate(bands)
        })
    else:
        raise ConfigError(f"unknown corpus kind {kind!r}")
    return synthesize_coefficients(dict(pairs), plan)


# peak bytes per cell at depth 20 (CPython 3.11, x86-64): the cell arrays and
# spectrum of analyze_dense, or a spectrum entry, band and jitter per cell
_CELL_BYTES = {"indicator": 150, "adversarial_walsh": 340}


def _cells(kind: str, depth: int) -> int:
    """2**depth, refused before any allocation when its peak passes BYTE_BUDGET."""
    if _CELL_BYTES[kind] << min(depth, 64) > spectra.BYTE_BUDGET:
        raise BudgetError(f"{kind} corpus of depth {depth} needs more than BYTE_BUDGET")
    return 1 << depth


def _draw_positions(rng, plan: BlockPlan, size: int) -> np.ndarray:
    """``size`` distinct uniform positions in 1..horizon, sorted; refused
    when a block is above the cap, which a uniform draw almost surely hits."""
    if max(plan.N) > MATERIALIZATION_CAP:
        raise BudgetError(f"uniform draws over a block above {MATERIALIZATION_CAP}")
    return np.sort(rng.choice(plan.horizon_size, size=size, replace=False)) + 1


# -- norms, rows and summaries -------------------------------------------------

def _norm(f: WalshSpectrum, p: float, cfg: ExperimentConfig, *seed_parts) -> NormEstimate:
    # seed derivation deferred: exact routes never touch randomness
    return lp_norm(f, p, cfg.mc_samples, lambda: derive_seed(cfg.seed, *seed_parts))


def _estimates(cfg: ExperimentConfig, l2, even: dict, spectrum, parts: Callable):
    """(p, ||f||_p) for every p of ``cfg.p_values``, in order: ``l2`` at
    p = 2 when given, ``even[p]`` where the split took p, else ``lp_norm``
    of ``spectrum``, f's spectrum or its symbol vectors on ``cfg.plan``
    (gathered once); a sampled value alone derives a seed, ``parts(p_idx)``."""
    out = []
    for p_idx, p in enumerate(cfg.p_values):
        if p == 2.0 and l2 is not None:
            est = NormEstimate(2.0, l2, "exact")
        elif p in even:
            est = NormEstimate(p, even[p], "exact")
        else:
            if not isinstance(spectrum, WalshSpectrum):
                spectrum = cfg.plan.gather(spectrum)
            est = _norm(spectrum, p, cfg, *parts(p_idx))
        out.append((p, est))
    return out


def _record(
    experiment: str, plan_label: str, p: float, size_or_m: int, trial: int,
    est: NormEstimate, den, seed: int,
) -> ResultRecord:
    """One CSV row: ``est`` over ``den``, a NormEstimate or an exact number.
    The ratio is exact only if both sides are; otherwise its CI cells are
    num_lo / den_hi and num_hi / den_lo (inf when den_lo is 0)."""
    exact = est.kind == "exact"
    num_lo, num_hi = (est.value,) * 2 if exact else (est.ci_low, est.ci_high)
    if isinstance(den, NormEstimate) and den.kind != "exact":
        exact, den_lo, den_hi, den = False, den.ci_low, den.ci_high, den.value
    else:
        den = den_lo = den_hi = getattr(den, "value", den)
    return ResultRecord(
        experiment, plan_label, p, size_or_m, trial, est.value / den,
        None if exact else num_lo / den_hi,
        None if exact else (num_hi / den_lo if den_lo else math.inf),
        exact, seed,
    )


def _extremes(
    records: list[ResultRecord], p_values, pick: Callable, start: float, **fields
) -> dict[str, float]:
    """``pick`` (np.min or np.max, which keep a NaN) over ``start`` and
    the row values at each p.

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
    corpus = corpus_generate(spec, derive_seed(cfg.seed, 4), cfg.plan)
    for trial, f in enumerate(corpus):
        coeffs = analyze(f, cfg.plan)
        if not math.isfinite(l2_sq := sum(c * c for c in coeffs.values())):
            raise ConfigError(f"corpus function {trial}: its squared l2 norm overflows")
        yield trial, f, coeffs, l2_sq


# bytes of symbol rows per batch; the norm pass peaks near six times this
_BATCH_BYTES = 1 << 22


@functools.lru_cache(maxsize=32)
def _block_split(plan: BlockPlan, blocks: tuple[int, ...]):
    """``even_split`` of the symbols of ``blocks``, once per plan and blocks."""
    return even_split([n for k in blocks for n in plan.symbol_frequencies(k)])


def _split_ps(ps) -> list:
    """The p of ``ps`` that rows take from the even split; 2 stays Parseval."""
    return [p for p in ps if takes_split(p) and p != 2.0]


def _span_norms(plan: BlockPlan, entries, member, ps):
    """(symbol vectors, {p: norm} at the ``_split_ps`` of ``ps``, squared
    l2) of one span function per boolean row of ``member`` (an array, or
    any iterable of rows): row r sums the (position, weight) ``entries``
    it selects.  Rows are read and built ``_BATCH_BYTES`` at a time; a
    batch shares one ``rmatvec`` per block and one ``even_moments``
    pass, and every batch on the same blocks one cached split."""
    ps = _split_ps(ps)
    index = np.searchsorted(plan.offsets, [m for m, _ in entries])
    blocks = tuple(sorted(set(index.tolist())))
    split = _block_split(plan, blocks)
    step = max(1, _BATCH_BYTES // (8 * max(len(split.in_tail), 1)))
    member = iter(member)
    while batch := list(islice(member, step)):
        rows = plan.symbol_rows(entries, np.array(batch))
        coeffs = np.concatenate([rows[k] for k in blocks], axis=1)
        moments = even_moments(split, coeffs, [int(p) // 2 for p in ps])
        l2_sq = (coeffs * coeffs).sum(axis=1).tolist()
        for r, row in enumerate(moments.tolist()):
            norms = {p: x ** (1.0 / p) for p, x in zip(ps, row)}
            yield {k: w[r] for k, w in rows.items()}, norms, l2_sq[r]


def _residual_sq(vectors: dict, rows: dict) -> float:
    """Squared l2 distance of two span functions' per-block symbol vectors."""
    gaps = (vectors.get(k, 0.0) - rows.get(k, 0.0) for k in vectors.keys() | rows.keys())
    return sum(float(d @ d) for d in gaps)


# -- experiments ---------------------------------------------------------------

def democracy_experiment(cfg: ExperimentConfig):
    """||sum over A of psi||_p / sqrt(|A|) over random index sets.

    At p = 2 the ratio is Parseval-exact: the expansion coefficients of
    the sum are the 0/1 indicator of A, so the quotient is literally
    1.0 without any synthesis.  Each set is a membership row over the
    horizon in ``_span_norms`` batches: even p up to 10 from their even
    moments, other p from the row's spectrum.  The first set also takes
    the spectrum route: ``spectrum_route_dev_max``.
    """
    plan = cfg.plan
    label = plan.label()
    horizon = plan.horizon_size
    sizes = cfg.sizes or tuple(range(1, min(horizon, 200) + 1))
    if max(sizes) > horizon:
        raise ConfigError(f"set size {max(sizes)} above horizon {horizon}")

    def members(key):
        size, _, seed = key
        return _draw_positions(np.random.default_rng(seed), plan, size)

    pairs = ((size, trial) for size in sizes for trial in range(cfg.trials))
    keys, drawn = tee((s, t, derive_seed(cfg.seed, 2, s, t)) for s, t in pairs)
    # drawn before the horizon is listed, so a block above the cap is refused first
    first = members(next(drawn))
    drawn_sets = chain([first], map(members, drawn))
    member = (np.bincount(x - 1, minlength=horizon) > 0 for x in drawn_sets)
    entries = [(m, 1.0) for m in range(1, horizon + 1)]
    records: list[ResultRecord] = []
    route_dev = 0.0
    sets = _span_norms(plan, entries, member, cfg.p_values)
    for (size, trial, set_seed), (rows, even, _) in zip(keys, sets):
        if even and not records:
            f = plan.sum_spectrum(int(m) for m in first)
            devs = [abs(x / lp_even_spectral(f, int(p)).value - 1) for p, x in even.items()]
            route_dev = np.max(devs)  # np.max and np.maximum keep a NaN that max drops
        scale = math.sqrt(size)
        for p, est in _estimates(cfg, scale, even, rows, lambda i: (3, size, trial, i)):
            records.append(
                _record("democracy", label, p, size, trial, est, scale, set_seed)
            )
    summary = {
        "experiment": "democracy",
        "plan": label,
        "sizes": [min(sizes), max(sizes)],
        "trials": cfg.trials,
        "ratio_min": _extremes(records, cfg.p_values, np.min, math.inf),
        "ratio_max": _extremes(records, cfg.p_values, np.max, -math.inf),
        "spectrum_route_dev_max": route_dev,
    }
    return records, summary


def quasi_greedy_experiment(cfg: ExperimentConfig):
    """sup over m of ||G_m f||_p / ||f||_p per corpus function.

    Also emits the exact L2 residual curve (Parseval tails) so greedy
    convergence is visible in the same output file.  Each tail is
    checked against ||f - G_m f||_2 taken from the Walsh side, the
    distance of the prefix's symbol vectors to f's; at the full prefix
    also from the spectrum of f - G_m f (``terminal_residual_max``).
    Both gaps feed ``residual_parseval_dev_max``.  A prefix's spectrum
    is gathered only there and for p outside the split.
    """
    plan = cfg.plan
    label = plan.label()
    records: list[ResultRecord] = []
    residual_dev_max = 0.0
    terminal_residual_max = 0.0
    for fi, f, coeffs, total_sq in _corpus_expansions(cfg):
        order = greedy_order(coeffs)
        tail_sq = parseval_tails([coeffs[sel] for sel in order])
        norms_f = dict(_estimates(cfg, math.sqrt(total_sq), {}, f, lambda _: (5, fi)))
        symbols_f = plan.scatter(f)
        head_sq = 0.0
        # an empty order means f = 0, whose residual is 0 as well
        spectral_tail = 0.0
        # row m - 1 of the lower triangle selects the greedy prefix order[:m]
        entries = [(s, coeffs[s]) for s in order]
        prefixes = _span_norms(plan, entries, np.tri(len(order), dtype=bool), cfg.p_values)
        for m, (sel, (rows, even, _)) in enumerate(zip(order, prefixes), start=1):
            head_sq += coeffs[sel] * coeffs[sel]
            last = m == len(order)
            approx = plan.gather(rows) if last else rows  # the last is checked below
            ests = _estimates(cfg, math.sqrt(head_sq), even, approx, lambda _: (6, fi, m))
            for p, est in ests:
                records.append(
                    _record("quasigreedy", label, p, m, fi, est, norms_f[p], cfg.seed)
                )
            tail = NormEstimate(2.0, math.sqrt(tail_sq[m]), "exact")
            records.append(
                _record("quasigreedy-residual", label, 2.0, m, fi, tail, 1.0, cfg.seed)
            )
            gap = abs(math.sqrt(_residual_sq(symbols_f, rows)) - tail.value)
            if last:  # and once more from the spectra
                spectral_tail = lp_even_spectral(f - approx, 2).value
                gap = np.maximum(gap, abs(spectral_tail - tail.value))
            residual_dev_max = np.maximum(residual_dev_max, gap)
        terminal_residual_max = np.maximum(terminal_residual_max, spectral_tail)
    summary = {
        "experiment": "quasigreedy",
        "plan": label,
        "corpus_size": len(set(r.trial for r in records)),
        "empirical_constant": _extremes(
            records, cfg.p_values, np.max, 0.0, experiment="quasigreedy"
        ),
        "residual_parseval_dev_max": residual_dev_max,
        "terminal_residual_max": terminal_residual_max,
    }
    return records, summary


def partial_sum_experiment(cfg: ExperimentConfig):
    """||S_n f||_p / ||f||_p over the corpus, on an n grid.

    The p = 2 ratio is additionally taken over every n (cumulative
    Parseval sums, at most 1 by construction), and checked at the grid
    against the Walsh side of each row (``p2_route_dev_max``).  Each
    S_n f is a symbol row of one batch, checked at block ends against
    ``partial_sum`` (l2 distance, ``block_end_dev_max``).
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
    records: list[ResultRecord] = []
    p2_all_max = p2_route_dev = block_end_dev = 0.0
    for fi, f, coeffs, _ in _corpus_expansions(cfg):
        if not coeffs:
            raise ConfigError(f"corpus function {fi} is 0, so it has no ratios")
        # head_sq[t]: squared l2 norm of the first t coefficients in
        # basis order, so ||S_n f||_2^2 = head_sq[#support <= n]
        support = list(coeffs)  # analyze lists positions in order
        head_sq = np.cumsum([0.0] + [c * c for c in coeffs.values()])
        p2_all_max = np.maximum(p2_all_max, np.sqrt(head_sq.max() / head_sq[-1]))
        cuts = [bisect_right(support, n) for n in grid]
        # row 0 is f, equal to the horizon's row: its norms are the
        # denominators, so the ratio at the horizon is exactly 1
        member = np.arange(len(support)) < np.array([len(support), *cuts])[:, None]
        sums = _span_norms(plan, list(coeffs.items()), member, cfg.p_values)
        l2_f = math.sqrt(head_sq[-1])
        norms_f = dict(_estimates(cfg, l2_f, next(sums)[1], f, lambda _: (7, fi)))
        for n, cut, (rows, even, walsh_sq) in zip(grid, cuts, sums):
            end = n in plan.offsets
            sn = plan.gather(rows) if end else rows  # block ends are checked below
            l2 = float(np.sqrt(head_sq[cut]))
            for p, est in _estimates(cfg, l2, even, sn, lambda _: (8, fi, n)):
                records.append(
                    _record("partialsum", label, p, n, fi, est, norms_f[p], cfg.seed)
                )
            # the p = 2 ratio once more, from the Walsh side of the row
            gap = abs(math.sqrt(walsh_sq) - l2) / l2_f
            p2_route_dev = np.maximum(p2_route_dev, gap)
            if end:
                gap = lp_even_spectral(sn - partial_sum(f, plan, n), 2).value
                block_end_dev = np.maximum(block_end_dev, gap)
    summary = {
        "experiment": "partialsum",
        "plan": label,
        "n_grid": list(grid),
        "p2_max_over_all_n": p2_all_max,
        "p2_route_dev_max": p2_route_dev,
        "ratio_max": _extremes(records, cfg.p_values, np.max, 0.0),
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
    closed fourth-moment value 3 (sum a^2)^2 - 2 sum a^4.  Even p in 4..10
    come from one ``even_moments`` pass per batch of zero-padded rows.
    """
    if cfg.max_terms > 16:
        raise ConfigError(f"max_terms {cfg.max_terms} above enumeration cap 16")
    label = cfg.plan.label()
    records: list[ResultRecord] = []
    identity_dev = 0.0
    even_ps = _split_ps(cfg.p_values)
    freqs = [rademacher_index(j + 1) for j in range(cfg.max_terms)]
    split = even_split(freqs)
    trials = iter(range(cfg.trials))
    while batch := list(islice(trials, max(1, _BATCH_BYTES // (8 * cfg.max_terms)))):
        seeds = [derive_seed(cfg.seed, 9, trial) for trial in batch]
        vectors = []
        for rng in map(np.random.default_rng, seeds):
            a = rng.normal(size=int(rng.integers(1, cfg.max_terms + 1)))
            # unit vectors keep the moment magnitudes O(1), so the absolute
            # tolerance on the fourth-moment identity is meaningful
            vectors.append(a / np.sqrt(np.sum(a * a)))
        table = np.array([np.pad(a, (0, cfg.max_terms - len(a))) for a in vectors])
        moments = even_moments(split, table, [int(p) // 2 for p in even_ps]).tolist()
        for trial, trial_seed, a, row in zip(batch, seeds, vectors, moments):
            f = WalshSpectrum(zip(freqs, a.tolist()))
            l2 = float(np.sqrt(np.sum(a * a)))
            even = {p: x ** (1.0 / p) for p, x in zip(even_ps, row)}
            for p, est in _estimates(cfg, None, even, f, lambda _: (9, trial)):
                records.append(
                    _record("khintchine", label, p, len(a), trial, est, l2, trial_seed)
                )
            if 4.0 in cfg.p_values:
                moment_dense = float(np.mean(synthesize(f, len(a)) ** 4))
                identity_dev = np.maximum(
                    identity_dev, abs(moment_dense - rademacher_fourth_moment(a))
                )
    summary = {
        "experiment": "khintchine",
        "trials": cfg.trials,
        "A_empirical": _extremes(records, cfg.p_values, np.min, math.inf),
        "B_empirical": _extremes(records, cfg.p_values, np.max, -math.inf),
        "fourth_moment_dev_max": identity_dev,
        "B4_bound": 3.0 ** 0.25,
    }
    return records, summary


def almost_greedy_experiment(cfg: ExperimentConfig):
    """Greedy residual vs the best candidate projection residual.

    The denominator minimizes over candidate index sets (greedy,
    natural prefix, seeded random ones, and optionally every subset
    when ``exhaustive``), so it upper-bounds the true infimum and the
    reported ratio lower-bounds the definition's quotient.  Candidate
    c's residual f - P_c f is the row of f's support outside c, one
    ``_span_norms`` call per m, and its p = 2 norm sums those squares.
    The ratio divides by the minimizing candidate's estimate.
    """
    plan = cfg.plan
    label = plan.label()
    records: list[ResultRecord] = []
    for fi, _, coeffs, _ in _corpus_expansions(cfg):
        entries = list(coeffs.items())
        support = list(coeffs)  # analyze lists positions in order
        squares = [c * c for c in coeffs.values()]
        order = greedy_order(coeffs)
        if cfg.exhaustive and len(support) > 10:
            raise ConfigError(f"exhaustive search needs support <= 10, got {len(support)}")
        for m in range(1, len(order)):
            greedy_set = frozenset(order[:m])
            candidates = {greedy_set, frozenset(support[:m])}
            for ci in range(cfg.random_candidates):
                rng = np.random.default_rng(derive_seed(cfg.seed, 10, fi, m, ci))
                pick = rng.choice(len(support), size=m, replace=False)
                candidates.add(frozenset(support[int(x)] for x in pick))
            if cfg.exhaustive:
                candidates.update(frozenset(c) for c in combinations(support, m))
            candidates = list(candidates)
            outside = np.array([[j not in cand for j in support] for cand in candidates])
            rests = _span_norms(plan, entries, outside, cfg.p_values)
            residuals = {}  # per candidate, ||f - P_cand f||_p at every p
            for cand, out, (rows, even, _) in zip(candidates, outside, rests):
                l2 = math.sqrt(math.fsum(compress(squares, out)))
                ests = _estimates(cfg, l2, even, rows, lambda _: (11,))
                residuals[cand] = [est for _, est in ests]
            for p_idx, p in enumerate(cfg.p_values):
                greedy = residuals[greedy_set][p_idx]
                denom = min((r[p_idx] for r in residuals.values()), key=lambda e: e.value)
                records.append(
                    _record("almostgreedy", label, p, m, fi, greedy, denom, cfg.seed)
                )
    summary = {
        "experiment": "almostgreedy",
        "plan": label,
        "ratio_max": _extremes(records, cfg.p_values, np.max, 0.0),
        "candidate_note": "denominator is an upper bound on the projection infimum",
    }
    return records, summary


def baseline_walsh_comparison(cfg: ExperimentConfig):
    """Greedy ratios in the plain Walsh system vs the mixed basis.

    The same tilted near-flat coefficient vectors are read once as raw
    Walsh coefficients (natural order, identity transform) and once as
    expansion coefficients of the mixed system at matching positions.
    Rows are distinguished by the plan column ("walsh" vs the plan
    label).  The Walsh side lies outside the plan and stays spectra;
    each mixed-basis greedy prefix is a symbol row of ``_span_norms``,
    after the full expansion's row, whose norms are the denominators.
    """
    plan = cfg.plan
    label = plan.label()
    spec = cfg.corpus or {"kind": "adversarial_walsh", "depth": 6, "count": 8}
    if spec.get("kind") != "adversarial_walsh":
        raise ConfigError("walsh-baseline wants an 'adversarial_walsh' corpus")
    depth = read_number(spec.get("depth", 6), "corpus depth", least=0)
    if depth >= plan.horizon_size.bit_length():  # 2^depth > horizon
        raise ConfigError(f"depth {depth} corpus does not fit the plan horizon")
    records: list[ResultRecord] = []
    for fi, f in enumerate(corpus_generate(spec, derive_seed(cfg.seed, 12), plan)):
        walsh = dict(f.items())
        # transport preserves natural order: t-th smallest Walsh
        # frequency becomes basis position t+1
        psi = {t + 1: walsh[n] for t, n in enumerate(sorted(walsh))}
        walsh_order = greedy_order(walsh)
        psi_order = greedy_order(psi)
        # row 0 is the whole expansion, row m the greedy prefix psi_order[:m]
        entries = [(j, psi[j]) for j in psi_order]
        cuts = chain([len(entries)], range(1, len(walsh_order) + 1))
        member = (np.arange(len(entries)) < m for m in cuts)
        prefixes = _span_norms(plan, entries, member, cfg.p_values)
        norms_walsh = dict(_estimates(cfg, None, {}, f, lambda _: (13, fi)))
        rows, even, walsh_sq = next(prefixes)
        l2 = math.sqrt(walsh_sq)
        norms_psi = dict(_estimates(cfg, l2, even, rows, lambda _: (14, fi)))
        for m, (rows, even, walsh_sq) in enumerate(prefixes, start=1):
            g_walsh = WalshSpectrum({n: walsh[n] for n in walsh_order[:m]})
            for (p, est_w), (_, est_b) in zip(
                _estimates(cfg, None, {}, g_walsh, lambda _: (15, fi, m)),
                _estimates(cfg, math.sqrt(walsh_sq), even, rows, lambda _: (16, fi, m)),
            ):
                records += [
                    _record("walsh-baseline", "walsh", p, m, fi, est_w, norms_walsh[p],
                            cfg.seed),
                    _record("walsh-baseline", label, p, m, fi, est_b, norms_psi[p],
                            cfg.seed),
                ]
    summary = {
        "experiment": "walsh-baseline",
        "plan": label,
        "walsh_constant": _extremes(records, cfg.p_values, np.max, 0.0, plan="walsh"),
        "mixed_basis_constant": _extremes(
            records, cfg.p_values, np.max, 0.0, plan=label
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
