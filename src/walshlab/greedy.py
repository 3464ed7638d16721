"""Expansion coefficients, greedy orderings, approximants, partial sums.

The greedy ordering lists the nonzero coefficients by decreasing
magnitude, breaking ties by increasing basis index.  Coefficients of
magnitude at most ``ZERO_TOL`` times the l2 norm of all coefficients
are treated as zero, so that rounding noise from analysis cannot leak
into the ordering and scaling the input does not change the support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import olevskii
from .blocks import BlockPlan
from .errors import ConfigError, HorizonError
from .spectra import WalshSpectrum

# zero threshold relative to the l2 norm of the coefficients
ZERO_TOL = 1e-15


@dataclass(frozen=True)
class CoefficientList:
    """Expansion coefficients keyed by global basis position."""

    entries: tuple[tuple[int, float], ...]

    def __post_init__(self):
        seen = set()
        for m, _ in self.entries:
            if m in seen:
                raise ValueError(f"duplicate basis index {m}")
            seen.add(m)

    @classmethod
    def from_pairs(cls, pairs) -> "CoefficientList":
        return cls(tuple((int(m), float(c)) for m, c in pairs))

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class GreedyOrdering:
    """rho as the tuple of basis indices in greedy order."""

    rho: tuple[int, ...]


@dataclass
class TraceStep:
    m: int
    selected: int
    coefficient: float
    residual_l2: float


@dataclass
class ApproximantTrace:
    steps: list[TraceStep] = field(default_factory=list)


def analyze(f: WalshSpectrum, plan: BlockPlan) -> CoefficientList:
    """Coefficients <f, psi_m> for every element sharing a frequency with f.

    Every frequency of f must belong to the plan's horizon (one of the
    phi indices or a Rademacher below F_K); otherwise the expansion
    would extend past the materialized blocks.  Values with magnitude
    <= ZERO_TOL times the l2 norm of all the coefficients are dropped.
    """
    rows = [
        (plan.offsets[k - 1], olevskii.matvec(plan.g[k - 1], symbols))
        for k, symbols in plan.scatter(f).items()
    ]
    tol = ZERO_TOL * math.hypot(*(c for _, v in rows for c in v.tolist()))
    pairs: list[tuple[int, float]] = []
    for base, row_values in rows:
        for m, c in enumerate(row_values.tolist(), start=base + 1):
            if abs(c) > tol:
                pairs.append((m, c))
    return CoefficientList(tuple(pairs))


def synthesize_coefficients(
    coeffs: CoefficientList, plan: BlockPlan
) -> WalshSpectrum:
    """Spectrum of sum of c_m psi_m."""
    return plan.weighted_spectrum(coeffs.entries)


def greedy_order(coeffs: CoefficientList) -> GreedyOrdering:
    """Magnitude-decreasing order of the nonzero support, ties by index."""
    tol = ZERO_TOL * math.hypot(*(c for _, c in coeffs.entries))
    live = [(m, c) for m, c in coeffs.entries if abs(c) > tol]
    live.sort(key=lambda mc: (-abs(mc[1]), mc[0]))
    return GreedyOrdering(tuple(m for m, _ in live))


def parseval_tails(coefficients: list[float]) -> list[float]:
    """Squared l2 norms of every suffix: out[j] = sum of c^2 over [j:].

    Suffix sums give each Parseval tail directly, with no cancellation,
    so the residual at full support is an exact 0.
    """
    out = [0.0] * (len(coefficients) + 1)
    for j in range(len(coefficients) - 1, -1, -1):
        out[j] = out[j + 1] + coefficients[j] * coefficients[j]
    return out


def greedy_approximant(
    f: WalshSpectrum, plan: BlockPlan, m: int
) -> tuple[WalshSpectrum, ApproximantTrace]:
    """First m greedy terms of f's expansion, plus the selection trace.

    The trace carries the exact L2 residual at every step (a Parseval
    tail, no synthesis involved).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    coeffs = analyze(f, plan)
    by_index = coeffs.as_dict()
    order = greedy_order(coeffs).rho
    chosen = order[: min(m, len(order))]
    tail_sq = parseval_tails([by_index[sel] for sel in order])
    trace = ApproximantTrace()
    for step, sel in enumerate(chosen, start=1):
        trace.steps.append(TraceStep(
            m=step,
            selected=sel,
            coefficient=by_index[sel],
            residual_l2=float(np.sqrt(tail_sq[step])),
        ))
    approx = plan.weighted_spectrum((s, by_index[s]) for s in chosen)
    return approx, trace


def partial_sum(f: WalshSpectrum, plan: BlockPlan, n: int) -> WalshSpectrum:
    """Linear partial sum S_n f over the first n basis elements.

    Full blocks act as identity on their own symbols and later blocks
    drop out, so only a straddled block needs an analysis/synthesis
    round trip.  When n ends a block nothing is materialized: S_n f is
    f restricted to blocks <= that block, in ``gather``'s order.
    """
    if n < 0:
        raise HorizonError(f"n must be >= 0, got {n}")
    if n > plan.horizon_size:
        raise HorizonError(f"n={n} beyond horizon {plan.horizon_size}")
    if n == 0:
        return WalshSpectrum()
    k_edge, i_edge = plan.to_block(n)
    if i_edge == plan.N[k_edge - 1]:
        located = sorted((plan.locate(freq), freq, c) for freq, c in f.items())
        return WalshSpectrum(
            {freq: c for (k, _), freq, c in located if k <= k_edge}
        )
    blocks = plan.scatter(f, through=k_edge)
    kk = plan.g[k_edge - 1]
    row_values = olevskii.matvec(kk, blocks[k_edge])
    row_values[i_edge:] = 0.0
    blocks[k_edge] = olevskii.rmatvec(kk, row_values)
    return plan.gather(blocks)


@dataclass(frozen=True)
class LambdaPartition:
    """Per-block split of coefficients by magnitude thresholds.

    Block k with size N splits at 1/N and N**(-1/10): ``small`` takes
    |c| <= 1/N, ``large`` takes |c| >= N**(-1/10), ``middle`` is the
    open band between.  ``plan_separated`` is the plan's
    ``lambda_separation`` flag, which guarantees 1/N_k >= N_{k+1}**(-1/10)
    for all k (so middle bands cannot interleave across blocks);
    ``data_separated`` says the actual middle-band magnitudes decrease
    strictly from block to block.
    """

    middle: dict[int, tuple[int, ...]]
    small: dict[int, tuple[int, ...]]
    large: dict[int, tuple[int, ...]]
    plan_separated: bool
    data_separated: bool


def lambda_classify(coeffs: CoefficientList, plan: BlockPlan) -> LambdaPartition:
    """Classify each coefficient within its block's magnitude bands."""
    middle: dict[int, list[int]] = {}
    small: dict[int, list[int]] = {}
    large: dict[int, list[int]] = {}
    mid_bounds: dict[int, tuple[float, float]] = {}
    for m, c in coeffs.entries:
        k, _ = plan.to_block(m)
        # 1/N_k and N_k^(-1/10) from g(k): N_k itself may not fit a float
        g = plan.g[k - 1]
        lo, hi = 2.0 ** -g, 2.0 ** (-g / 10)
        mag = abs(c)
        if mag <= lo:
            small.setdefault(k, []).append(m)
        elif mag >= hi:
            large.setdefault(k, []).append(m)
        else:
            middle.setdefault(k, []).append(m)
            lo_seen, hi_seen = mid_bounds.get(k, (np.inf, 0.0))
            mid_bounds[k] = (min(lo_seen, mag), max(hi_seen, mag))
    # consecutive occupied blocks ordered => all pairs ordered (transitive)
    ks = sorted(mid_bounds)
    data_sep = all(mid_bounds[a][0] > mid_bounds[b][1] for a, b in zip(ks, ks[1:]))
    return LambdaPartition(
        middle={k: tuple(v) for k, v in middle.items()},
        small={k: tuple(v) for k, v in small.items()},
        large={k: tuple(v) for k, v in large.items()},
        plan_separated=plan.lambda_separation,
        data_separated=data_sep,
    )


# -- JSON coefficient files ---------------------------------------------------

def coefficients_to_json(coeffs: CoefficientList) -> dict:
    return {"coeffs": [{"m": m, "c": c} for m, c in coeffs.entries]}


def coefficients_from_json(doc: dict) -> CoefficientList:
    """Coefficients from their JSON form; a malformed document is a ConfigError."""
    try:
        coeffs = CoefficientList.from_pairs(
            (item["m"], item["c"]) for item in doc["coeffs"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad coefficient entry: {exc!r}") from exc
    for m, c in coeffs.entries:
        if not math.isfinite(c):
            raise ConfigError(f"coefficient of element {m} is {c}")
    return coeffs


def save_coefficients(coeffs: CoefficientList, path) -> None:
    with open(path, "w") as fh:
        json.dump(coefficients_to_json(coeffs), fh, indent=1)
        fh.write("\n")


def load_coefficients(path) -> CoefficientList:
    with open(path) as fh:
        return coefficients_from_json(json.load(fh))
