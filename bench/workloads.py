"""The three benchmark workloads: op schedules made from a seed, and output checks.

An op is one or two ``walshlab experiment`` CLI calls on the ``desk``
plan.  A workload's schedule is a fixed cycle of ``slots`` ops; op i of
the cycle gets a seed derived from the workload seed and i, so the
same workload seed always yields the same config files.  The timed
loop walks the cycle repeatedly, which keeps a run's op mix the same
whatever its length.

Checks run after the timed phase on the parsed CSV and on the summary
JSON the CLI prints.  Every check returns a list of problems; an empty
list means the op's outputs are correct.  Checks that need a second
computation route (rebuilding an index set from its seed column,
products through ``spectrum_product``) run on a subsample whose
choice is seeded too, so the outcome of every check repeats exactly
for a fixed seed.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

PLAN = "desk"
PLAN_LABEL = "g=2,4,8"
HORIZON = 4 + 16 + 256

CSV_COLUMNS = [
    "experiment", "plan", "p", "size_or_m", "trial",
    "value", "ci_low", "ci_high", "exact", "seed",
]

# ACCEPTANCE_CONFIG thresholds of the test suite, restated so the
# benchmark stands alone.
DEMOCRACY_LOW = 1.0 - 1e-12
DEMOCRACY_HIGH = 3.0
QUASIGREEDY_CONSTANT = 5.0
RESIDUAL_TAIL_TOL = 1e-12
TERMINAL_RESIDUAL_TOL = 1e-6
PARTIALSUM_P2 = 1.0 + 1e-12
PARTIALSUM_P4 = 2.0
# sharp Khintchine constants B_p for Rademacher sums (Haagerup 1981);
# A_p = 1 for p >= 2
KHINTCHINE_B3 = math.sqrt(2.0) * math.pi ** (-1.0 / 6.0)
KHINTCHINE_B6 = 15.0 ** (1.0 / 6.0)
EDGE_TOL = 1e-12
# relative agreement between an exact CSV norm and its product-route check
PRODUCT_REL_TOL = 1e-12

# the corpus kinds of walshlab's "mixed" rotation, streamed one per op
MIXED_ROTATION = (
    {"kind": "decay", "alpha": 0.6},
    {"kind": "decay", "alpha": 1.0},
    {"kind": "flat_block"},
    {"kind": "decay", "alpha": 1.5},
    {"kind": "lacunary"},
)


def derive(*parts: int) -> int:
    """64-bit seed from integer coordinates (numpy SeedSequence)."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def stratified_sizes(rng, lo: int, hi: int, count: int) -> list[int]:
    """One size from each of ``count`` equal strata of lo..hi.

    Spreads sizes over the whole range while keeping an op's total work
    nearly the same for every seed.
    """
    span = hi - lo + 1
    out = []
    for j in range(count):
        a = lo + (span * j) // count
        b = lo + (span * (j + 1)) // count - 1
        out.append(int(rng.integers(a, b + 1)))
    return out


@dataclass(frozen=True)
class Call:
    kind: str
    config: dict


@dataclass(frozen=True)
class Op:
    slot: int
    seed: int
    calls: tuple[Call, ...]


@dataclass(frozen=True)
class Output:
    """What one CLI call left behind: its CSV text and printed summary."""

    csv_text: str
    summary: dict


class Workload:
    name = ""
    why = ""
    slots = 0
    # ops a run makes at least: enough that its tail is the percentile
    # of a normal-length run (p99 needs 1000, p95 needs 200)
    min_ops = 0

    def op(self, workload_seed: int, slot: int) -> Op:
        raise NotImplementedError

    def schedule(self, workload_seed: int) -> list[Op]:
        return [self.op(workload_seed, i) for i in range(self.slots)]

    def check(self, op: Op, outputs: list[Output], sample_seed: int) -> list[str]:
        raise NotImplementedError


# -- parsing -------------------------------------------------------------------

@dataclass(frozen=True)
class Row:
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


def parse_rows(text: str) -> list[Row]:
    """CSV rows with typed fields; raises ValueError on a malformed file."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_COLUMNS:
        raise ValueError(f"bad CSV header {header!r}")
    rows = []
    for cells in reader:
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"bad CSV row {cells!r}")
        if cells[8] not in ("true", "false"):
            raise ValueError(f"bad exact cell {cells[8]!r}")
        rows.append(
            Row(
                experiment=cells[0],
                plan=cells[1],
                p=float(cells[2]),
                size_or_m=int(cells[3]),
                trial=int(cells[4]),
                value=float(cells[5]),
                ci_low=float(cells[6]) if cells[6] else None,
                ci_high=float(cells[7]) if cells[7] else None,
                exact=cells[8] == "true",
                seed=int(cells[9]),
            )
        )
    return rows


def _common(rows: list[Row], out: Output, experiments: set[str]) -> list[str]:
    problems = []
    if out.summary.get("rows") != len(rows):
        problems.append(f"summary rows {out.summary.get('rows')} != CSV rows {len(rows)}")
    for r in rows:
        if r.experiment not in experiments:
            problems.append(f"unexpected experiment {r.experiment!r}")
        if r.plan != PLAN_LABEL:
            problems.append(f"unexpected plan {r.plan!r}")
        if not math.isfinite(r.value):
            problems.append(f"non-finite value in {r}")
        if r.exact != (r.ci_low is None and r.ci_high is None):
            problems.append(f"exact flag disagrees with CI cells in {r}")
    return problems


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _sample(rows: list, sample_seed: int, count: int) -> list:
    if len(rows) <= count:
        return list(rows)
    rng = np.random.default_rng(sample_seed)
    pick = sorted(int(x) for x in rng.choice(len(rows), size=count, replace=False))
    return [rows[i] for i in pick]


def _rebuild_set_spectrum(plan, row: Row, master: int):
    """The index set of a democracy row, rebuilt from its seed column."""
    expected_seed = derive(master, 2, row.size_or_m, row.trial)
    if row.seed != expected_seed:
        return None, f"seed column {row.seed} != derived {expected_seed} for size {row.size_or_m}"
    rng = np.random.default_rng(row.seed)
    members = np.sort(rng.choice(HORIZON, size=row.size_or_m, replace=False)) + 1
    return plan.sum_spectrum(int(m) for m in members), None


def _moment(spec) -> float:
    return math.fsum(c * c for _, c in spec.items())


def _democracy_shape(rows: list[Row], cfg: dict) -> list[str]:
    want = {(s, float(p)) for s in cfg["sizes"] for p in cfg["p"]}
    have = {(r.size_or_m, r.p) for r in rows}
    problems = []
    if want != have or len(rows) != len(want):
        problems.append(f"democracy rows cover {sorted(have)}, config asks {sorted(want)}")
    if any(r.trial != 0 for r in rows):
        problems.append("democracy trial column is not 0")
    return problems


# -- democracy-p4 --------------------------------------------------------------

class DemocracyP4(Workload):
    name = "democracy-p4"
    why = (
        "Criterion-05 democracy sweep (p=2,4, sizes over 1..200): block assembly "
        "and olevskii.rmatvec dominate; no greedy, no packed even-p"
    )
    slots = 32
    min_ops = 1000
    sizes_per_op = 12

    def op(self, workload_seed: int, slot: int) -> Op:
        seed = derive(workload_seed, 1, slot)
        rng = np.random.default_rng(seed)
        sizes = stratified_sizes(rng, 1, 200, self.sizes_per_op)
        cfg = {"plan": PLAN, "p": [2, 4], "sizes": sizes, "trials": 1, "seed": seed}
        return Op(slot, seed, (Call("democracy", cfg),))

    def check(self, op, outputs, sample_seed):
        from walshlab.blocks import load_plan
        from walshlab.spectra import spectrum_product

        (out,) = outputs
        cfg = op.calls[0].config
        rows = parse_rows(out.csv_text)
        problems = _common(rows, out, {"democracy"}) + _democracy_shape(rows, cfg)
        p4 = []
        for r in rows:
            if not r.exact:
                problems.append(f"sampled row in an exact sweep: {r}")
            if r.p == 2.0 and r.value != 1.0:
                problems.append(f"p2 ratio {r.value!r} != 1.0 at size {r.size_or_m}")
            if r.p == 4.0:
                p4.append(r)
                if not DEMOCRACY_LOW <= r.value <= DEMOCRACY_HIGH:
                    problems.append(f"p4 ratio {r.value!r} outside [{DEMOCRACY_LOW}, {DEMOCRACY_HIGH}]")
        if p4:
            for key, pick in (("ratio_min", min), ("ratio_max", max)):
                if out.summary.get(key, {}).get("4.0") != pick(r.value for r in p4):
                    problems.append(f"summary {key} disagrees with the CSV")
        plan = load_plan(PLAN)
        for r in _sample(p4, sample_seed, 2):
            f, err = _rebuild_set_spectrum(plan, r, cfg["seed"])
            if err:
                problems.append(err)
                continue
            csv_moment = (r.value * math.sqrt(r.size_or_m)) ** 4
            product_moment = _moment(spectrum_product(f, f))
            if _rel_gap(csv_moment, product_moment) > PRODUCT_REL_TOL:
                problems.append(
                    f"||f||_4^4 {csv_moment!r} vs sum (f*f)_n^2 {product_moment!r} "
                    f"at size {r.size_or_m}"
                )
        return problems


# -- greedy-corpus -------------------------------------------------------------

class GreedyCorpus(Workload):
    name = "greedy-corpus"
    why = (
        "quasigreedy then partialsum on two fresh 40-term functions of one mixed-corpus kind: "
        "analysis (matvec), partial sums, greedy prefix rebuilds, spectrum arithmetic"
    )
    slots = 20  # a multiple of the 5-kind rotation
    min_ops = 200

    def op(self, workload_seed: int, slot: int) -> Op:
        seed = derive(workload_seed, 2, slot)
        corpus = dict(MIXED_ROTATION[slot % len(MIXED_ROTATION)], count=2, terms=40)
        cfg = {"plan": PLAN, "p": [2, 4], "seed": seed, "corpus": corpus}
        return Op(slot, seed, (Call("quasigreedy", cfg), Call("partialsum", cfg)))

    def check(self, op, outputs, sample_seed):
        qg_out, ps_out = outputs
        qg = parse_rows(qg_out.csv_text)
        ps = parse_rows(ps_out.csv_text)
        problems = _common(qg, qg_out, {"quasigreedy", "quasigreedy-residual"})
        problems += _common(ps, ps_out, {"partialsum"})
        if not qg or not ps:
            return problems + ["empty output"]

        qs = qg_out.summary
        if not qs.get("residual_parseval_dev_max", math.inf) <= RESIDUAL_TAIL_TOL:
            problems.append(f"residual-vs-tail dev {qs.get('residual_parseval_dev_max')!r}")
        if not qs.get("terminal_residual_max", math.inf) <= TERMINAL_RESIDUAL_TOL:
            problems.append(f"terminal residual {qs.get('terminal_residual_max')!r}")
        greedy4 = [r.value for r in qg if r.experiment == "quasigreedy" and r.p == 4.0]
        greedy2 = [r.value for r in qg if r.experiment == "quasigreedy" and r.p == 2.0]
        residual: dict[int, list[float]] = {}
        for r in qg:
            if r.experiment == "quasigreedy-residual":
                residual.setdefault(r.trial, []).append(r.value)
        if not greedy4 or max(greedy4) > QUASIGREEDY_CONSTANT:
            problems.append(f"quasi-greedy p4 constant above {QUASIGREEDY_CONSTANT}")
        if qs.get("empirical_constant", {}).get("4.0") != max(greedy4, default=None):
            problems.append("summary quasi-greedy constant disagrees with the CSV")
        if any(v > PARTIALSUM_P2 for v in greedy2):
            problems.append("greedy p2 ratio above 1")
        if sorted(residual) != list(range(op.calls[0].config["corpus"]["count"])):
            problems.append(f"residual rows cover functions {sorted(residual)}")
        for tails in residual.values():
            if any(b > a for a, b in zip(tails, tails[1:])) or tails[-1] != 0.0:
                problems.append("Parseval residual tails not decreasing to exactly 0")

        pss = ps_out.summary
        if not pss.get("p2_max_over_all_n", math.inf) <= PARTIALSUM_P2:
            problems.append(f"partial-sum p2 sup {pss.get('p2_max_over_all_n')!r}")
        sum4 = [r for r in ps if r.p == 4.0]
        sum2 = [r for r in ps if r.p == 2.0]
        if not sum4 or max(r.value for r in sum4) > PARTIALSUM_P4:
            problems.append(f"partial-sum p4 ratio above {PARTIALSUM_P4}")
        if pss.get("ratio_max", {}).get("4.0") != max((r.value for r in sum4), default=None):
            problems.append("summary partial-sum max disagrees with the CSV")
        if any(r.value > PARTIALSUM_P2 for r in sum2):
            problems.append("partial-sum p2 ratio above 1")
        # S_n at the full horizon is the identity
        for r in sum4 + sum2:
            if r.size_or_m == HORIZON and abs(r.value - 1.0) > EDGE_TOL:
                problems.append(f"S_horizon f / f = {r.value!r} at p={r.p}")
        return problems


# -- norms-highp ---------------------------------------------------------------

class NormsHighP(Workload):
    name = "norms-highp"
    why = (
        "khintchine then democracy at p=3,6 on small sets: packed even-p at p=6, "
        "270-bit Monte Carlo, dense FWHT; the blocks layer is nearly idle"
    )
    # 192 slots, so a run's p95 comes from many slots and not from the
    # few dearest that one seed happens to draw
    slots = 192
    min_ops = 200
    khintchine_trials = 8
    # fixed sizes: the p=6 cost grows like the cube of the set's term
    # count, so drawing sizes would make an op's cost swing with the seed.
    # No size below 4: about one 2-set in 200 draws both members from the
    # two shallow blocks, and its p=3 norm then takes the dense route at
    # depth ~20 (10 MB against a typical 2.4 MB), so a run's peak RSS
    # would depend on whether its seed drew one.
    sizes = [4, 5, 6]

    def op(self, workload_seed: int, slot: int) -> Op:
        seed = derive(workload_seed, 3, slot)
        kh = {"plan": PLAN, "p": [3, 6], "trials": self.khintchine_trials,
              "max_terms": 16, "seed": seed}
        dem = {"plan": PLAN, "p": [3, 6], "sizes": self.sizes, "trials": 1, "seed": seed}
        return Op(slot, seed, (Call("khintchine", kh), Call("democracy", dem)))

    def check(self, op, outputs, sample_seed):
        from walshlab.blocks import load_plan
        from walshlab.norms import lp_even_spectral
        from walshlab.spectra import spectrum_product

        kh_out, dem_out = outputs
        kh_cfg, dem_cfg = op.calls[0].config, op.calls[1].config
        kh = parse_rows(kh_out.csv_text)
        dem = parse_rows(dem_out.csv_text)
        problems = _common(kh, kh_out, {"khintchine"}) + _common(dem, dem_out, {"democracy"})
        problems += _democracy_shape(dem, dem_cfg)

        if {(r.trial, r.p) for r in kh} != {
            (t, float(p)) for t in range(kh_cfg["trials"]) for p in kh_cfg["p"]
        }:
            problems.append("khintchine rows do not cover trials x p")
        for r in kh:
            bound = KHINTCHINE_B3 if r.p == 3.0 else KHINTCHINE_B6
            if not r.exact or not 1.0 - EDGE_TOL <= r.value <= bound + EDGE_TOL:
                problems.append(f"khintchine ratio {r.value!r} outside [1, B_{r.p:g}]")
            if not 1 <= r.size_or_m <= kh_cfg["max_terms"]:
                problems.append(f"khintchine length {r.size_or_m} out of range")
            if r.seed != derive(kh_cfg["seed"], 9, r.trial):
                problems.append(f"khintchine seed column wrong at trial {r.trial}")

        plan = load_plan(PLAN)
        by_size = {}
        for r in dem:
            by_size.setdefault(r.size_or_m, {})[r.p] = r
        checked = set(_sample(sorted(by_size), sample_seed, 2))
        for size, row in sorted(by_size.items()):
            r3, r6 = row.get(3.0), row.get(6.0)
            if r3 is None or r6 is None:
                continue
            if not r6.exact:
                problems.append(f"p6 democracy row not exact at size {size}")
            f, err = _rebuild_set_spectrum(plan, r6, dem_cfg["seed"])
            if err:
                problems.append(err)
                continue
            scale = math.sqrt(size)
            r4 = lp_even_spectral(f, 4).value / scale
            if r6.value < r4 * (1.0 - EDGE_TOL):
                problems.append(f"p6 ratio {r6.value!r} below exact p4 ratio {r4!r}")
            lo3, hi3 = (r3.value, r3.value) if r3.exact else (r3.ci_low, r3.ci_high)
            if hi3 < 1.0 - EDGE_TOL or lo3 > r4 * (1.0 + EDGE_TOL):
                problems.append(f"p3 interval [{lo3!r}, {hi3!r}] misses [1, {r4!r}]")
            if size in checked:
                f3 = spectrum_product(spectrum_product(f, f), f)
                csv_moment = (r6.value * scale) ** 6
                if _rel_gap(csv_moment, _moment(f3)) > PRODUCT_REL_TOL:
                    problems.append(
                        f"||f||_6^6 {csv_moment!r} vs ||f^3||_2^2 {_moment(f3)!r} at size {size}"
                    )
        return problems


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (DemocracyP4(), GreedyCorpus(), NormsHighP())
}
