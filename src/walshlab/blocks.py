"""Block plans and the mixed orthonormal system built on them.

A growth schedule g assigns block k the size N_k = 2**g(k).  Block k
consists of one leftover Walsh function phi_k (the k-th index of
popcount != 1) followed by the Rademacher run r_(F_{k-1}+1) .. r_(F_k),
where F_0 = 0 and F_k - F_{k-1} = N_k - 1.  Applying the 2^g(k) x
2^g(k) Olevskii matrix to that block yields the elements

    psi_i^(k) = 2**(-g(k)/2) * phi_k
                + sum_j entry(g(k), i, j) * r_(F_{k-1}+j-1),  j = 2..N_k,

which stay orthonormal, are uniformly bounded by the matrix row sums,
and have at most g(k)+1 nonzero Walsh coefficients each.

Two presets are provided: "desk" (g = 2, 4, 8; every block
materializable) and "paper" (g = 10, 100; block 2 exists only as
indexing, its Rademacher frequencies being astronomically wide).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from . import olevskii
from .errors import BudgetError, HorizonError, ScheduleError
from .spectra import WalshSpectrum, phi_index, rademacher_index

# Blocks larger than this are refused by any operation that needs an
# N_k-sized vector or block-wide frequencies.
MATERIALIZATION_CAP = 1 << 20

PRESETS: dict[str, tuple[int, ...]] = {
    "desk": (2, 4, 8),
    "paper": (10, 100),
}


@dataclass(frozen=True)
class GrowthSchedule:
    """Strictly increasing exponents g(1..K); block k has 2**g(k) elements."""

    g: tuple[int, ...]

    def __post_init__(self):
        if not self.g:
            raise ScheduleError("schedule is empty")
        if any(x < 1 for x in self.g):
            raise ScheduleError(f"exponents must be >= 1, got {self.g}")

    @classmethod
    def preset(cls, name: str) -> "GrowthSchedule":
        if name not in PRESETS:
            raise ScheduleError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
        return cls(PRESETS[name])

    @property
    def horizon(self) -> int:
        return len(self.g)


@dataclass(frozen=True)
class BlockPlan:
    """A validated schedule with block sizes and Rademacher offsets.

    N[k-1] = 2**g(k); F[k-1] is the index of the last Rademacher used
    by block k, with F_0 = 0 implicit; offsets[k] = N_1 + ... + N_k is
    the global position of block k's last element, with offsets[0] = 0.
    The two flags are diagnostics for the hypotheses behind the
    democracy and greedy-rearrangement arguments; a plan may be valid
    without satisfying either.

    The plan is the one place that maps frequencies to symbols: symbol
    1 of block k is phi_k, symbols 2..N_k its Rademachers.  ``scatter``
    and ``gather`` convert between spectra and per-block symbol
    vectors; block symbol lists are built once per plan, on first use.
    """

    schedule: GrowthSchedule
    N: tuple[int, ...] = field(init=False)
    F: tuple[int, ...] = field(init=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)
    _phi_block: dict[int, int] = field(init=False, repr=False, compare=False)
    _symbols: dict[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = tuple(1 << e for e in self.schedule.g)
        offsets = [0]
        for size in n:
            offsets.append(offsets[-1] + size)
        # block k spends N_k - 1 Rademachers, so F_k = offsets[k] - k
        f = tuple(m - k for k, m in enumerate(offsets) if k)
        phis = {phi_index(k): k for k in range(1, len(n) + 1)}
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "offsets", tuple(offsets))
        object.__setattr__(self, "_phi_block", phis)
        object.__setattr__(self, "_symbols", {})

    @property
    def g(self) -> tuple[int, ...]:
        return self.schedule.g

    @property
    def horizon_blocks(self) -> int:
        return len(self.g)

    @property
    def horizon_size(self) -> int:
        """Total number of basis elements across all blocks."""
        return self.offsets[-1]

    @property
    def democracy_condition(self) -> bool:
        """g(k+1) >= 2 g(k) for all k (recomputed, never cached)."""
        g = self.g
        return all(g[k + 1] >= 2 * g[k] for k in range(len(g) - 1))

    @property
    def lambda_separation(self) -> bool:
        """g(k+1) >= 10 g(k) for all k (recomputed, never cached)."""
        g = self.g
        return all(g[k + 1] >= 10 * g[k] for k in range(len(g) - 1))

    def label(self) -> str:
        return "g=" + ",".join(str(x) for x in self.g)

    # -- index maps ---------------------------------------------------------

    def to_global(self, k: int, i: int) -> int:
        """Global position of element i of block k (both 1-based)."""
        k, i = int(k), int(i)
        self._check_element(k, i)
        return self.offsets[k - 1] + i

    def to_block(self, m: int) -> tuple[int, int]:
        """Inverse of to_global."""
        m = int(m)
        if not 1 <= m <= self.horizon_size:
            raise HorizonError(
                f"m={m} outside horizon 1..{self.horizon_size}"
            )
        k = bisect_left(self.offsets, m)
        return k, m - self.offsets[k - 1]

    def locate(self, n: int) -> tuple[int, int]:
        """Block k and 1-based symbol column of frequency n."""
        if n.bit_count() == 1:
            j = n.bit_length()
            if j > self.F[-1]:
                raise HorizonError(f"r_{j} outside horizon (F_K={self.F[-1]})")
            k = bisect_left(self.F, j) + 1
            return k, j - self.F[k - 1] + self.N[k - 1]
        k = self._phi_block.get(n)
        if k is None:
            raise HorizonError(
                f"frequency {n:#x} is not spanned by the first "
                f"{self.horizon_blocks} blocks"
            )
        return k, 1

    def _check_block(self, k: int) -> None:
        if not 1 <= k <= len(self.N):
            raise HorizonError(f"block {k} outside horizon K={len(self.N)}")

    def _check_element(self, k: int, i: int) -> None:
        self._check_block(k)
        if not 1 <= i <= self.N[k - 1]:
            raise HorizonError(f"i={i} out of range for block {k}")

    def _check_cap(self, k: int) -> None:
        if self.N[k - 1] > MATERIALIZATION_CAP:
            raise BudgetError(
                f"block {k} has {self.N[k - 1]} elements, "
                f"cap is {MATERIALIZATION_CAP}"
            )

    # -- symbol space -------------------------------------------------------

    def symbol_frequencies(self, k: int) -> tuple[int, ...]:
        """Frequencies of block k's symbols: phi_k then its Rademachers."""
        freqs = self._symbols.get(k)
        if freqs is None:
            self._check_block(k)
            self._check_cap(k)
            first = self.F[k - 1] - self.N[k - 1] + 1  # F_(k-1)
            freqs = (phi_index(k),) + tuple(
                rademacher_index(j) for j in range(first + 1, self.F[k - 1] + 1)
            )
            self._symbols[k] = freqs
        return freqs

    def scatter(
        self, f: WalshSpectrum, through: int | None = None
    ) -> dict[int, np.ndarray]:
        """f as per-block symbol vectors, keyed by block in increasing order.

        Every frequency of f must be one of the plan's symbols.  With
        ``through``, blocks after it are dropped and block ``through``
        is present even where f has no term in it.
        """
        located = [(self.locate(n), c) for n, c in f.items()]
        last = self.horizon_blocks if through is None else through
        touched = {k for (k, _), _ in located if k <= last}
        if through is not None:
            touched.add(through)
        for k in touched:
            self._check_cap(k)
        out = {k: np.zeros(self.N[k - 1]) for k in sorted(touched)}
        for (k, col), c in located:
            if k <= last:
                out[k][col - 1] = c
        return out

    def gather(self, vectors: dict[int, np.ndarray]) -> WalshSpectrum:
        """Spectrum whose block-k symbol coefficients are vectors[k]."""
        terms: dict[int, float] = {}
        for k in sorted(vectors):
            freqs, nz = self.symbol_frequencies(k), np.flatnonzero(vectors[k]).tolist()
            terms.update(zip([freqs[i] for i in nz], vectors[k][nz].tolist()))
        return WalshSpectrum._from_clean_dict(terms)

    def symbol_rows(self, entries: Sequence, member: np.ndarray) -> dict:
        """Per touched block, the (R, N_k) symbol rows of R span functions:
        function r sums w psi_m over the (index, weight) ``entries`` that
        row r of the boolean ``member`` selects.  One batched ``rmatvec``
        per block; each row equals its own single-row transform."""
        located = [
            self.to_block(self.to_global(*m) if isinstance(m, tuple) else m)
            for m, _ in entries
        ]
        picks = np.where(member, np.array([w for _, w in entries], dtype=float), 0.0)
        rows = {}
        for k in sorted({k for k, _ in located}):
            self._check_cap(k)
            mine = [t for t, (b, _) in enumerate(located) if b == k]
            cols = [located[t][1] - 1 for t in mine]
            coeffs = np.zeros((len(member), self.N[k - 1]))
            np.add.at(coeffs, (slice(None), cols), picks[:, mine])
            rows[k] = olevskii.rmatvec(self.g[k - 1], coeffs)
        return rows

    # -- basis elements -----------------------------------------------------

    def psi_spectrum(self, k: int, i: int) -> WalshSpectrum:
        """Element i of block k as a sparse spectrum (g(k)+1 terms)."""
        return self.weighted_spectrum([((int(k), int(i)), 1.0)])

    def sum_spectrum(self, indices: Iterable) -> WalshSpectrum:
        """Spectrum of the plain sum of the selected elements.

        Accepts global positions or (k, i) pairs.  Goes block by block
        through weighted column sums, so the cost is bounded by the
        touched block sizes, not by the number of selected elements.
        """
        return self.weighted_spectrum((m, 1.0) for m in indices)

    def weighted_spectrum(
        self, entries: Iterable[tuple[object, float]]
    ) -> WalshSpectrum:
        """Spectrum of sum of w_m * psi_m over (index, weight) pairs."""
        entries = list(entries)
        rows = self.symbol_rows(entries, np.ones((1, len(entries)), dtype=bool))
        return self.gather({k: w[0] for k, w in rows.items()})


def validate_schedule(schedule: GrowthSchedule | Sequence[int]) -> BlockPlan:
    """Build a plan, rejecting non-increasing schedules.

    The democracy and separation flags are only diagnostics; a weak
    schedule still validates.
    """
    if not isinstance(schedule, GrowthSchedule):
        try:
            schedule = GrowthSchedule(tuple(int(x) for x in schedule))
        except (TypeError, ValueError) as exc:
            raise ScheduleError(f"bad schedule {schedule!r}: {exc}") from exc
    g = schedule.g
    for k in range(len(g) - 1):
        if g[k + 1] <= g[k]:
            raise ScheduleError(
                f"schedule must increase strictly: g({k + 2})={g[k + 1]} "
                f"<= g({k + 1})={g[k]}"
            )
    return BlockPlan(schedule)


def plan_from_json(doc: dict) -> BlockPlan:
    if "preset" in doc:
        return validate_schedule(GrowthSchedule.preset(doc["preset"]))
    if "g" in doc:
        return validate_schedule(doc["g"])
    raise ScheduleError("plan document needs a 'g' list or a 'preset' name")


def load_plan(source: str) -> BlockPlan:
    """Plan from a preset name or a JSON file path."""
    if source in PRESETS:
        return validate_schedule(GrowthSchedule.preset(source))
    with open(source) as fh:
        return plan_from_json(json.load(fh))
