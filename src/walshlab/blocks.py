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

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import olevskii, spectra
from .errors import BudgetError, ConfigError, HorizonError, ScheduleError, read_json, read_number
from .spectra import WalshSpectrum, phi_index

# Blocks larger than this are refused by any operation that needs an
# N_k-sized vector.
MATERIALIZATION_CAP = 1 << 20

# Largest g(k): 2**4096 prints in 1,234 digits, and 4,096 blocks build in milliseconds
MAX_EXPONENT = 4096

PRESETS: dict[str, tuple[int, ...]] = {
    "desk": (2, 4, 8),
    "paper": (10, 100),
}


@dataclass(frozen=True)
class BlockPlan:
    """Schedule g, strictly increasing in 1..MAX_EXPONENT, and its blocks.

    N[k-1] = 2**g(k); F[k-1] is the index of the last Rademacher used
    by block k, with F_0 = 0 implicit; offsets[k] = N_1 + ... + N_k is
    the global position of block k's last element, with offsets[0] = 0.
    The two flags are diagnostics for the hypotheses behind the
    democracy and greedy-rearrangement arguments; a plan may be valid
    without satisfying either.

    The plan maps frequencies to symbols, both ways by arithmetic: symbol
    1 of block k is phi_k (k = n + 1 - bit_length(n)), symbols 2..N_k its
    Rademachers.  ``scatter`` and ``gather`` convert between spectra and
    per-block symbol vectors, ``gather`` building nonzero columns only.
    """

    g: tuple[int, ...]
    N: tuple[int, ...] = field(init=False)
    F: tuple[int, ...] = field(init=False)
    offsets: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.g, (list, tuple)) or not self.g:
            raise ScheduleError(f"schedule must be a non-empty list, got {self.g!r}")
        g = tuple(read_number(x, f"g({k})", least=1, error=ScheduleError)
                  for k, x in enumerate(self.g, start=1))
        for k in range(1, len(g)):
            if g[k] <= g[k - 1]:
                raise ScheduleError(f"schedule must increase strictly: g({k + 1})={g[k]} "
                                    f"<= g({k})={g[k - 1]}")
        if g[-1] > MAX_EXPONENT:
            raise ScheduleError(f"g({len(g)})={g[-1]} above MAX_EXPONENT {MAX_EXPONENT}")
        n = tuple(1 << e for e in g)
        offsets = [0]
        for size in n:
            offsets.append(offsets[-1] + size)
        # block k spends N_k - 1 Rademachers, so F_k = offsets[k] - k
        f = tuple(m - k for k, m in enumerate(offsets) if k)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "F", f)
        object.__setattr__(self, "offsets", tuple(offsets))

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
        return all(b >= 2 * a for a, b in zip(self.g, self.g[1:]))

    @property
    def lambda_separation(self) -> bool:
        """g(k+1) >= 10 g(k) for all k (recomputed, never cached)."""
        return all(b >= 10 * a for a, b in zip(self.g, self.g[1:]))

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
        k = n + 1 - n.bit_length()  # phi_k is the k-th index of popcount != 1
        if k > self.horizon_blocks:
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

    def symbol_frequencies(self, k: int, cols) -> list[int]:
        """Frequencies of block k's 0-based symbol columns ``cols``: phi_k at
        column 0, r_(F_(k-1)+c) = 1 << (F_(k-1) + c - 1) at column c."""
        cols = np.asarray(cols, dtype=np.int64).tolist()
        self._check_element(k, 1 + max(cols, default=0))
        shift = self.F[k - 1] - self.N[k - 1]  # F_(k-1) - 1
        # 1 << b takes sys.getsizeof = 28 + 4 (b // 30) bytes, its slot 8
        need = sum(36 + 4 * ((shift + c) // 30) for c in cols)
        spectra.check_bytes(need, f"{len(cols)} symbol frequencies of block {k}")
        return [1 << (shift + c) if c else phi_index(k) for c in cols]

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
        """Spectrum whose block-k symbol coefficients are vectors[k], built
        from the nonzero columns alone; a NaN or infinite one is a ValueError."""
        terms: dict[int, float] = {}
        for k in sorted(vectors):
            if not np.isfinite(vectors[k]).all():
                raise ValueError(f"block {k} has a coefficient that is not finite")
            nz = np.flatnonzero(vectors[k])
            terms.update(zip(self.symbol_frequencies(k, nz), vectors[k][nz].tolist()))
        return WalshSpectrum._from_clean_dict(terms)

    def symbol_rows(self, index: np.ndarray, weights: np.ndarray, member: np.ndarray) -> dict:
        """Per touched block, the (R, N_k) symbol rows of R span functions:
        function r sums weights[j] psi_index[j] over the distinct positions
        ``index`` that row r of the boolean ``member`` selects.  One
        ``searchsorted`` and one batched ``rmatvec`` per block; each row
        equals its own single-row transform."""
        index = np.asarray(index)
        for m in index[(index < 1) | (index > self.horizon_size)][:1]:
            self.to_block(m)  # raises HorizonError
        block = np.searchsorted(self.offsets, index)
        picks = np.where(member, np.asarray(weights, dtype=float), 0.0)
        rows = {}
        for k in sorted(set(block.tolist())):
            self._check_cap(k)
            mine = block == k
            coeffs = np.zeros((len(member), self.N[k - 1]))
            coeffs[:, (index[mine] - self.offsets[k - 1] - 1).astype(np.intp)] = picks[:, mine]
            rows[k] = olevskii.rmatvec(self.g[k - 1], coeffs)
        return rows

    # -- basis elements -----------------------------------------------------

    def psi_spectrum(self, k: int, i: int) -> WalshSpectrum:
        """Element i of block k as a sparse spectrum (g(k)+1 terms)."""
        return self.weighted_spectrum([((int(k), int(i)), 1.0)])

    def sum_spectrum(self, indices: Iterable) -> WalshSpectrum:
        """Spectrum of the plain sum of the selected elements, global
        positions or (k, i) pairs; an element selected twice counts twice."""
        return self.weighted_spectrum((m, 1.0) for m in indices)

    def weighted_spectrum(self, entries: Iterable[tuple[object, float]]) -> WalshSpectrum:
        """Spectrum of sum of w_m * psi_m over (index, weight) pairs, an index
        a global position or a (k, i) pair; repeated indices add, in order.
        A symbol coefficient past the float range is a ConfigError."""
        weights: dict[int, float] = {}
        for m, w in entries:
            m = self.to_global(*m) if isinstance(m, tuple) else int(m)
            weights[m] = weights.get(m, 0.0) + w
        with np.errstate(over="ignore", invalid="ignore"):
            rows = self.symbol_rows(np.array(list(weights)), list(weights.values()),
                                    np.ones((1, len(weights)), dtype=bool))
        if not all(np.isfinite(w).all() for w in rows.values()):
            raise ConfigError("the weighted sum of basis elements overflows a coefficient")
        return self.gather({k: w[0] for k, w in rows.items()})


def plan_from_json(spec) -> BlockPlan:
    """The plan of a spec: a preset name, a schedule list, or a document
    {"preset": name} or {"g": list}."""
    if isinstance(spec, dict) and "preset" not in spec:
        if "g" not in spec:
            raise ScheduleError("plan document needs a 'g' list or a 'preset' name")
        return BlockPlan(spec["g"])
    if isinstance(spec, (dict, str)):
        name = spec["preset"] if isinstance(spec, dict) else spec
        if not (isinstance(name, str) and name in PRESETS):
            raise ScheduleError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
        spec = PRESETS[name]
    return BlockPlan(spec)


def load_plan(source: str) -> BlockPlan:
    """Plan from a preset name or the path of a JSON plan spec."""
    if source in PRESETS:
        return plan_from_json(source)
    return plan_from_json(read_json(source))
