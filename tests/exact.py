"""Exact even moments of span functions, in Q(sqrt 2).

An Olevskii entry is sign * 2^((s - k) / 2), so a sum of basis elements
with integer weights has symbol coefficients a + b sqrt(2) with a, b
rational, and so has each of its even moments.  This module computes
E f^(2m) with ``Fraction`` pairs, as an oracle for the float routes.  It
shares no code with the norm engines: no ``even_split``, no GF(2) basis,
no cumulant table.

* The coefficients come from ``olevskii.row_entries`` (signs and
  scales); symbol column 1 of block k is phi_k, the k-th integer whose
  popcount is not 1, and column c >= 2 is the Rademacher
  r_(F_(k-1) + c - 1), with F_k = F_(k-1) + N_k - 1 and F_0 = 0.
* f = q + T: the head q holds the frequencies of popcount other than 1
  and the Rademachers inside their bits, the tail T = sum b_j r_j the
  rest.  E q^(2j) are means over every assignment of the head's v bits,
  and T is independent of q and symmetric, so

      E f^(2m) = sum over j of C(2m, 2j) E q^(2m-2j) E T^(2j).

  E T^(2k) is (2k)! times the t^(2k) coefficient of prod cosh(b_j t),
  folded in one term at a time: adding b r to T maps its moments mu to
  mu'_k = sum over i of C(2k, 2i) b^(2i) mu_(k-i).  At m = 2 this is
  E q^4 + 6 E q^2 S_2 + 3 S_2^2 - 2 S_4, S_2i = sum b_j^(2i).

Not collected by pytest; tests load it by path.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction
from math import comb

from walshlab.olevskii import row_entries

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def mul(x, y):
    (a, b), (c, d) = x, y
    return (a * c + 2 * b * d, a * d + b * c)


def add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def scale(c, x):
    return (c * x[0], c * x[1])


def sum_of(xs):
    out = ZERO
    for x in xs:
        out = add(out, x)
    return out


def sqrt2_power(e: int):
    """2^(e / 2) as a + b sqrt(2)."""
    if e % 2 == 0:
        return (Fraction(2) ** (e // 2), Fraction(0))
    return (Fraction(0), Fraction(2) ** ((e - 1) // 2))


def _phi(k: int) -> int:
    n, seen = -1, 0
    while seen < k:
        n += 1
        seen += n.bit_count() != 1
    return n


def symbol_coefficients(g, weights: dict[int, int]) -> dict[int, tuple]:
    """Walsh frequency -> coefficient of sum of w_m psi_m over ``weights``
    (global position -> integer weight) on the plan of schedule ``g``."""
    starts, f_prev, out = [], 0, {}
    for k, gk in enumerate(g, start=1):
        starts.append((sum(1 << x for x in g[: k - 1]), f_prev, k, gk))
        f_prev += (1 << gk) - 1
    for m, w in weights.items():
        offset, f_before, k, gk = max(s for s in starts if s[0] < m)
        for j, e in row_entries(gk, m - offset):
            n = _phi(k) if j == 1 else 1 << (f_before + j - 2)
            term = scale(w * e.sign, sqrt2_power(e.scale - gk))
            out[n] = add(out.get(n, ZERO), term)
    return {n: c for n, c in out.items() if c != ZERO}


def even_moment(coeffs: dict[int, tuple], m: int):
    """E f^(2m) = a + b sqrt(2) of the spectrum ``coeffs``, exactly."""
    head_bits = 0
    for n in coeffs:
        if n.bit_count() != 1:
            head_bits |= n
    head = {n: c for n, c in coeffs.items() if n.bit_count() != 1 or n & head_bits}
    mu = [ONE] + [ZERO] * m  # mu[k] = E T^(2k), one tail term folded in at a time
    for n, c in coeffs.items():
        if n not in head:
            sq, powers = mul(c, c), [ONE]
            for _ in range(m):
                powers.append(mul(powers[-1], sq))
            mu = [sum_of(scale(comb(2 * k, 2 * i), mul(powers[i], mu[k - i]))
                          for i in range(k + 1)) for k in range(m + 1)]
    eq, cells, x = [ZERO] * (m + 1), 0, head_bits
    while True:  # every subset x of the head bits, one point's digits each
        q = ZERO
        for n, c in head.items():
            q = add(q, scale((-1) ** (n & x).bit_count(), c))
        q2, power = mul(q, q), ONE
        for j in range(m + 1):
            eq[j] = add(eq[j], power)
            power = mul(power, q2)
        cells += 1
        if x == 0:
            break
        x = (x - 1) & head_bits
    return sum_of(scale(Fraction(comb(2 * m, 2 * j), cells), mul(eq[m - j], mu[j]))
                  for j in range(m + 1))


def to_decimal(x, digits: int = 60) -> Decimal:
    """a + b sqrt(2) to ``digits`` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        a, b = x
        return (Decimal(a.numerator) / a.denominator
                + Decimal(b.numerator) / b.denominator * Decimal(2).sqrt())
