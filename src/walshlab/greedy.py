"""Expansion coefficients, greedy orderings, approximants, partial sums.

Expansion coefficients are a dict from global basis position to value;
``analyze`` lists the positions in increasing order.  The greedy
ordering lists the nonzero coefficients by decreasing magnitude,
breaking ties by increasing basis index.  Coefficients of magnitude at
most ``ZERO_TOL`` times the l2 norm of all coefficients are treated as
zero, so that rounding noise from analysis cannot leak into the
ordering and scaling the input does not change the support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import olevskii
from .blocks import BlockPlan
from .errors import ConfigError, HorizonError, read_json, read_number
from .spectra import WalshSpectrum

# zero threshold relative to the l2 norm of the coefficients
ZERO_TOL = 1e-15


@dataclass
class TraceStep:
    m: int
    selected: int
    coefficient: float
    residual_l2: float


def analyze(f: WalshSpectrum, plan: BlockPlan) -> dict[int, float]:
    """Coefficients <f, psi_m> for every element sharing a frequency with f,
    keyed by position in increasing order.

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
    return {
        m: c
        for base, row_values in rows
        for m, c in enumerate(row_values.tolist(), start=base + 1)
        if abs(c) > tol
    }


def synthesize_coefficients(coeffs: dict[int, float], plan: BlockPlan) -> WalshSpectrum:
    """Spectrum of sum of c_m psi_m."""
    return plan.weighted_spectrum(coeffs.items())


def greedy_order(coeffs: dict[int, float]) -> tuple[int, ...]:
    """rho: the nonzero support in magnitude-decreasing order, ties by index."""
    tol = ZERO_TOL * math.hypot(*coeffs.values())
    live = [(m, c) for m, c in coeffs.items() if abs(c) > tol]
    live.sort(key=lambda mc: (-abs(mc[1]), mc[0]))
    return tuple(m for m, _ in live)


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
) -> tuple[WalshSpectrum, list[TraceStep]]:
    """First m greedy terms of f's expansion, plus one trace step per term.

    Each step carries the exact L2 residual (a Parseval tail, no
    synthesis involved).
    """
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    coeffs = analyze(f, plan)
    order = greedy_order(coeffs)
    chosen = order[:m]
    tail_sq = parseval_tails([coeffs[sel] for sel in order])
    trace = [
        TraceStep(m=step, selected=sel, coefficient=coeffs[sel],
                  residual_l2=float(np.sqrt(tail_sq[step])))
        for step, sel in enumerate(chosen, start=1)
    ]
    approx = plan.weighted_spectrum((s, coeffs[s]) for s in chosen)
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


def lambda_classify(coeffs: dict[int, float], plan: BlockPlan) -> LambdaPartition:
    """Classify each coefficient within its block's magnitude bands."""
    middle: dict[int, list[int]] = {}
    small: dict[int, list[int]] = {}
    large: dict[int, list[int]] = {}
    mid_bounds: dict[int, tuple[float, float]] = {}
    for m, c in coeffs.items():
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

def coefficients_to_json(coeffs: dict[int, float]) -> dict:
    return {"coeffs": [{"m": m, "c": c} for m, c in coeffs.items()]}


def coefficients_from_json(doc: dict) -> dict[int, float]:
    """Coefficients from their JSON form, positions (at least 1) and values
    read by ``read_number``; a malformed document or a position that
    repeats is a ConfigError."""
    coeffs: dict[int, float] = {}
    try:
        for item in doc["coeffs"]:
            m = read_number(item["m"], "coefficient position", least=1)
            if m in coeffs:
                raise ConfigError(f"duplicate basis index {m}")
            coeffs[m] = read_number(item["c"], f"coefficient of element {m}", float)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad coefficient entry: {exc!r}") from exc
    return coeffs


def save_coefficients(coeffs: dict[int, float], path) -> None:
    with open(path, "w") as fh:
        json.dump(coefficients_to_json(coeffs), fh, indent=1)
        fh.write("\n")


def load_coefficients(path) -> dict[int, float]:
    return coefficients_from_json(read_json(path))
