"""Walsh functions on [0,1) and exact algebra on sparse Walsh spectra.

Conventions used throughout the library:

* A frequency is a non-negative Python int read as a Paley index:
  bit j-1 of ``n`` is set iff the Rademacher function r_j is a factor of
  W_n.  Widths are unbounded, so indices such as 2**272 are ordinary
  values here.
* A dyadic point is the cell ``c`` at depth ``D``, standing for the
  interval [c*2**-D, (c+1)*2**-D).  The binary digits t_1..t_D of the
  point are the bits of ``c`` from most significant to least, and
  r_j(t) = (-1)**t_j.
* A spectrum maps frequencies to real coefficients; it represents the
  finite sum f(t) = sum_n c_n W_n(t).  W_a * W_b = W_(a XOR b), which is
  what makes pointwise products XOR convolutions.
* The dense transform pair is normalized so that analysis divides by
  2**D (coefficients are cell means against W_n) and synthesis is the
  plain signed sum, hence coefficients equal inner products <f, W_n>.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import BudgetError, ConfigError, DepthError, read_json, read_number

# The one byte budget: ``check_bytes`` refuses every allocation that grows
# with its inputs (products, draws, head cells, symbol frequencies, corpus
# cells, dense transforms and matrices) whose estimated peak would pass it.
BYTE_BUDGET = 1 << 30


@dataclass(frozen=True)
class DyadicPoint:
    """Dyadic cell ``cell`` at depth ``depth``; all Walsh functions of
    width <= depth are constant on it."""

    depth: int
    cell: int

    def __post_init__(self) -> None:
        # arbitrary-width arithmetic needs true Python ints; numpy
        # integers would overflow silently under wide shifts
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "cell", int(self.cell))
        if self.depth < 0:
            raise ValueError(f"depth must be >= 0, got {self.depth}")
        if not 0 <= self.cell < (1 << self.depth):
            raise ValueError(
                f"cell {self.cell} out of range for depth {self.depth}"
            )

    def bits(self) -> int:
        """Bit mask with t_j at bit j-1 (digit order reversed from cell)."""
        c, out = self.cell, 0
        for _ in range(self.depth):
            out = (out << 1) | (c & 1)
            c >>= 1
        return out


def rademacher_index(j: int) -> int:
    """Paley index of the j-th Rademacher function, j >= 1."""
    j = int(j)
    if j < 1:
        raise ValueError(f"Rademacher index must be >= 1, got {j}")
    return 1 << (j - 1)


def phi_index(k: int) -> int:
    """k-th non-negative integer whose popcount is not 1 (k >= 1).

    These are the Walsh indices left over once the Rademacher subsystem
    (popcount exactly 1) is removed; 0 is included, so the first few
    values are 0, 3, 5, 6, 7, 9, ...  As 0..n holds n + 1 - bit_length(n)
    of them, phi_k is k - 1 plus the b = bit_length(k - 1) powers of two up
    to k - 1, plus one if k - 1 + b reaches the next power.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = k - 1 + (k - 1).bit_length()
    return n + (n.bit_length() > (k - 1).bit_length())


def check_bytes(need: int, what: str) -> None:
    """Refuse ``what`` with BudgetError, before it is allocated, when its
    estimated peak of ``need`` bytes passes ``BYTE_BUDGET``, read at call time."""
    if need > BYTE_BUDGET:
        raise BudgetError(f"{what} needs about {need} bytes, budget {BYTE_BUDGET}")


def walsh_eval(n: int, t: DyadicPoint) -> int:
    """Value of W_n on the cell ``t``, always +1 or -1.

    The cell must be deep enough to determine the value, i.e.
    t.depth >= bit width of n.
    """
    n = int(n)
    if n < 0:
        raise ValueError(f"frequency must be >= 0, got {n}")
    if t.depth < n.bit_length():
        raise DepthError(
            f"depth {t.depth} does not determine W_n for n of width "
            f"{n.bit_length()}"
        )
    return -1 if (n & t.bits()).bit_count() & 1 else 1


class WalshSpectrum:
    """Immutable finite linear combination of Walsh functions.

    Stored as a frequency -> coefficient map with exact zeros pruned.
    Supports +, -, scalar *, and * between spectra (pointwise product
    of the represented functions, i.e. XOR convolution).
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, float] | Iterable[tuple[int, float]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, float] = {}
        for n, c in items:
            n = int(n)  # numpy ints would overflow wide-shift arithmetic
            if n < 0:
                raise ValueError(f"frequency must be >= 0, got {n}")
            acc[n] = acc.get(n, 0.0) + float(c)
        if not all(map(math.isfinite, acc.values())):
            raise ValueError("coefficients must be finite (after summing repeats)")
        self._terms = {n: c for n, c in acc.items() if c != 0.0}

    @classmethod
    def _from_clean_dict(cls, terms: dict[int, float]) -> "WalshSpectrum":
        # internal: terms already pruned and owned by the caller
        out = object.__new__(cls)
        out._terms = terms
        return out

    def items(self):
        return self._terms.items()

    def __getitem__(self, n: int) -> float:
        return self._terms.get(n, 0.0)

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self._terms)

    def __contains__(self, n: int) -> bool:
        return n in self._terms

    def depth(self) -> int:
        """Max bit width over frequencies; 0 for the empty spectrum."""
        return max((n.bit_length() for n in self._terms), default=0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WalshSpectrum):
            return NotImplemented
        return self._terms == other._terms

    def allclose(self, other: "WalshSpectrum", tol: float = 1e-12) -> bool:
        keys = self._terms.keys() | other._terms.keys()
        return all(abs(self[n] - other[n]) <= tol for n in keys)

    def __add__(self, other: "WalshSpectrum") -> "WalshSpectrum":
        return spectrum_add(self, other)

    def __sub__(self, other: "WalshSpectrum") -> "WalshSpectrum":
        return spectrum_add(self, spectrum_scale(other, -1.0))

    def __neg__(self) -> "WalshSpectrum":
        return spectrum_scale(self, -1.0)

    def __mul__(self, other):
        if isinstance(other, WalshSpectrum):
            return spectrum_product(self, other)
        return spectrum_scale(self, float(other))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        preview = ", ".join(
            f"W[{n:#x}]*{c:g}" for n, c in list(self._terms.items())[:4]
        )
        extra = "" if len(self._terms) <= 4 else f", ... ({len(self._terms)} terms)"
        return f"WalshSpectrum({preview}{extra})"


def spectrum_add(f: WalshSpectrum, g: WalshSpectrum) -> WalshSpectrum:
    """Coefficient-wise sum with exact zeros pruned; a sum past the
    float range is refused with ValueError."""
    if len(f) < len(g):
        f, g = g, f
    out = dict(f.items())
    for n, c in g.items():
        v = out.get(n, 0.0) + c
        if v == 0.0:
            out.pop(n, None)
        elif math.isfinite(v):
            out[n] = v
        else:
            raise ValueError(f"the sum overflows the coefficient of W_{n:#x}")
    return WalshSpectrum._from_clean_dict(out)


def spectrum_scale(f: WalshSpectrum, c: float) -> WalshSpectrum:
    """Scalar multiple; scaling by 0 gives the empty spectrum.  A
    non-finite scalar or product is refused with ValueError."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError(f"scalar must be finite, got {c}")
    if c == 0.0:
        return WalshSpectrum()
    terms = {n: x for n, v in f.items() if (x := c * v) != 0.0}  # 0 if underflowed
    if not all(map(math.isfinite, terms.values())):
        raise ValueError(f"scaling by {c} overflows a coefficient")
    return WalshSpectrum._from_clean_dict(terms)


def inner_product(f: WalshSpectrum, g: WalshSpectrum) -> float:
    """<f, g> on [0,1); equals the coefficient dot product by orthonormality."""
    if len(f) > len(g):
        f, g = g, f
    return sum(c * g[n] for n, c in f.items())


def spectrum_product(f: WalshSpectrum, g: WalshSpectrum) -> WalshSpectrum:
    """Pointwise product of the represented functions (XOR convolution).

    result[n] = sum over a ^ b = n of f[a] * g[b].  The len(f)*len(g)
    pair products go through ``check_bytes`` at their estimated peak
    (``_product_peak_bytes``) first; a coefficient past the float range
    is refused with ValueError.
    """
    pairs = len(f) * len(g)
    limbs = max(1, (max(f.depth(), g.depth()) + 63) // 64)
    check_bytes(_product_peak_bytes(pairs, limbs), f"a product of {pairs} pairs")
    if not pairs:
        return WalshSpectrum()
    # sum over equal pair keys; rebinding ``keys`` frees the unsorted ones
    fa, ca = _freq_arrays(f, limbs)
    ga, cb = _freq_arrays(g, limbs)
    keys = (fa[:, None, :] ^ ga[None, :, :]).reshape(-1, limbs)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    starts = np.flatnonzero(
        np.concatenate(([True], np.any(keys[1:] != keys[:-1], axis=1)))
    )
    with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
        sums = np.add.reduceat(np.multiply.outer(ca, cb).ravel()[order], starts)
    kept = sums != 0.0
    buf, width = keys[starts[kept]].tobytes(), 8 * limbs
    freqs = (int.from_bytes(buf[i:i + width], "little")
             for i in range(0, len(buf), width))
    out = dict(zip(freqs, sums[kept].tolist()))
    # an overflowed pair sum stays inf or NaN whatever is added to it
    if not all(map(math.isfinite, out.values())):
        raise ValueError("the product overflows a coefficient")
    return WalshSpectrum._from_clean_dict(out)


def synthesize(f: WalshSpectrum, depth: int) -> np.ndarray:
    """Exact values of f on all 2**depth dyadic cells, in cell order.

    Cell digits are MSB-first and Paley bits LSB-first, so the fast
    Walsh-Hadamard butterfly, run on W_n's coefficient placed at the bit
    reversal of n, leaves each cell's value at its own index.  A constant
    plus Rademacher terms skips it: level h adds to and subtracts from
    cells 0..h-1 the one value f[2^(depth-1)/h] that cells h..2h-1 hold,
    so doubling does the same floating operations in O(2**depth).
    A depth below f's width is a DepthError; ``check_bytes`` passes
    ``_synthesis_peak_bytes`` first.
    """
    if depth < f.depth():
        raise DepthError(f"depth {depth} below spectrum depth {f.depth()}")
    check_bytes(_synthesis_peak_bytes(depth, len(f)), f"synthesis at depth {depth}")
    values = np.zeros(1 << depth)
    if all(n & (n - 1) == 0 for n in f):
        values[0] = f[0]
        for h in (1 << k for k in range(depth)):
            c = f[(1 << (depth - 1)) // h]
            np.subtract(values[:h], c, out=values[h:2 * h])
            values[:h] += c
        return values
    freqs = np.fromiter(f, dtype=np.int64, count=len(f))
    values[_bit_reverse(freqs, depth)] = np.fromiter(
        (c for _, c in f.items()), dtype=float, count=len(f)
    )
    _fwht_inplace(values)
    return values


def analyze_dense(values: np.ndarray) -> WalshSpectrum:
    """Exact Walsh coefficients of a dyadic step function.

    ``values`` must have length 2**D; analysis is the inverse of
    ``synthesize`` at the same depth.  ``check_bytes`` passes its arrays,
    then its arrays and spectrum (``_analysis_peak_bytes``), before each.
    """
    values = np.asarray(values, dtype=float)
    size = len(values)
    if size == 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    depth = size.bit_length() - 1
    check_bytes(_analysis_peak_bytes(size, 0), f"analysis of {size} cells")
    work = values[_bit_reverse(np.arange(size, dtype=np.int64), depth)]
    _fwht_inplace(work)
    work /= size
    nonzero = np.flatnonzero(work)
    check_bytes(_analysis_peak_bytes(size, len(nonzero)), "the spectrum of the cells")
    if not np.isfinite(work).all():
        raise ValueError("coefficients must be finite")
    return WalshSpectrum._from_clean_dict(dict(zip(nonzero.tolist(), work[nonzero].tolist())))


def _synthesis_peak_bytes(depth: int, terms: int) -> int:
    """Bound on ``synthesize``'s peak: 16 bytes a cell (values, butterfly temps)
    and 32 a term (frequencies, their bit reversal, its scratch, coefficients)."""
    return (16 << min(depth, 64)) + 32 * terms


def _analysis_peak_bytes(cells: int, terms: int) -> int:
    """Bound on ``analyze_dense``'s peak: 24 bytes a cell (indices, their bit
    reversal, its scratch, then the values permuted) and 128 a spectrum term."""
    return 24 * cells + 128 * terms


def _fwht_inplace(v: np.ndarray) -> None:
    # unnormalized butterfly along the last axis of a C-contiguous v,
    # whose length must be a power of two
    n = v.shape[-1]
    h = 1
    while h < n:
        v2 = v.reshape(-1, 2 * h)
        a = v2[:, :h].copy()
        b = v2[:, h:]
        np.add(a, b, out=v2[:, :h])
        np.subtract(a, b, out=b)
        h *= 2


def _bit_reverse(idx: np.ndarray, depth: int) -> np.ndarray:
    """Each index, read as ``depth`` bits, with its bit order reversed;
    ``idx`` is left as it is, and two arrays of its size are built."""
    out, bit = np.zeros_like(idx), np.empty_like(idx)
    for i in range(depth):
        out <<= 1
        np.right_shift(idx, i, out=bit)
        out |= np.bitwise_and(bit, 1, out=bit)
    return out


# -- packed frequencies for spectrum_product ---------------------------------

def _freq_arrays(f: WalshSpectrum, limbs: int) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies packed into ``limbs`` little-endian uint64 limbs (wide
    enough for f's depth), plus coefficients."""
    raw = b"".join(n.to_bytes(limbs * 8, "little") for n in f)
    packed = np.frombuffer(raw, dtype="<u8").reshape(len(f), limbs)
    return packed, np.fromiter((c for _, c in f.items()), float, count=len(f))


def _product_peak_bytes(pairs: int, limbs: int) -> int:
    """Upper bound on what one ``spectrum_product`` allocates, per pair
    (so per result term at most): 24 bytes a limb for the pair keys, their
    sorted copy and the result's packed bytes, and 256 for a few numpy
    arrays and each result term's Python int, float and dict slot."""
    return pairs * (24 * limbs + 256)


# -- JSON spectrum files -----------------------------------------------------

def spectrum_to_json(f: WalshSpectrum) -> dict:
    """JSON form: terms listed by increasing frequency, hex encoded."""
    return {
        "terms": [
            {"n": format(n, "x"), "c": c} for n, c in sorted(f.items())
        ]
    }


def spectrum_from_json(doc: dict) -> WalshSpectrum:
    """Spectrum from its JSON form, each coefficient read by ``read_number``;
    a malformed document or a frequency that repeats (in any spelling) is
    a ConfigError."""
    terms, spelled = {}, {}
    try:
        for item in doc["terms"]:
            if (n := int(item["n"], 16)) < 0:
                raise ConfigError(f"frequency {item['n']} is negative")
            if n in spelled:
                raise ConfigError(f"duplicate frequency {spelled[n]!r} and {item['n']!r}")
            spelled[n] = item["n"]
            terms[n] = read_number(item["c"], f"coefficient of W_{item['n']}", float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad spectrum term: {exc!r}") from exc
    return WalshSpectrum(terms)


def save_spectrum(f: WalshSpectrum, path) -> None:
    with open(path, "w") as fh:
        json.dump(spectrum_to_json(f), fh, indent=1)
        fh.write("\n")


def load_spectrum(path) -> WalshSpectrum:
    return spectrum_from_json(read_json(path))
