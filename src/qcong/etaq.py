"""q-Pochhammer symbols, eta-quotients, and overpartition generating functions.

``f(m)`` denotes the infinite product prod_{n>=1} (1 - q^{mn}).  The
production expansion of f(1) uses the pentagonal-number sparse form; the
dense finite product is kept as an independent cross-check path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .series import QSeries, Ring, ZZ


@dataclass(frozen=True)
class BiregularSpec:
    """A coprime pair (l1, l2), both > 1, selecting the counting sequence
    of overpartitions with no part divisible by l1 or l2."""

    l1: int
    l2: int

    def __post_init__(self) -> None:
        if self.l1 <= 1 or self.l2 <= 1:
            raise ValueError(f"both moduli must exceed 1, got {self}")
        if math.gcd(self.l1, self.l2) != 1:
            raise ValueError(f"moduli must be coprime, got {self}")

    def allows_part(self, part: int) -> bool:
        return part % self.l1 != 0 and part % self.l2 != 0

    def __str__(self) -> str:
        return f"({self.l1},{self.l2})"


@dataclass(frozen=True)
class EtaQuotient:
    """Finite map delta -> r_delta describing prod_delta eta(delta z)^r_delta."""

    terms: tuple[tuple[int, int], ...]
    level: int | None = None

    def __post_init__(self) -> None:
        seen = set()
        for delta, r in self.terms:
            if delta < 1:
                raise ValueError(f"eta argument must be positive, got {delta}")
            if r == 0:
                raise ValueError(f"exponent for delta={delta} must be nonzero")
            if delta in seen:
                raise ValueError(f"duplicate delta {delta}")
            seen.add(delta)
            if self.level is not None and self.level % delta != 0:
                raise ValueError(f"delta {delta} does not divide level {self.level}")

    @staticmethod
    def of(terms: Mapping[int, int], level: int | None = None) -> EtaQuotient:
        return EtaQuotient(tuple(sorted(terms.items())), level)

    def as_dict(self) -> dict[int, int]:
        return dict(self.terms)


def _pentagonal_coeffs(order: int) -> list[int]:
    # Euler: prod (1-q^n) = sum_{k in Z} (-1)^k q^{k(3k-1)/2}
    out = [0] * (order + 1)
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > order and g2 > order:
            break
        sign = -1 if k % 2 else 1
        if g1 <= order:
            out[g1] = sign
        if g2 <= order:
            out[g2] = sign
        k += 1
    return out


@lru_cache(maxsize=512)
def pochhammer(m: int, order: int, ring: Ring = ZZ, method: str = "pentagonal") -> QSeries:
    """f(m) = prod_{n>=1} (1 - q^{mn}) truncated at ``order``.

    ``method="product"`` multiplies the finite product out term by term;
    it is the slow oracle path used to cross-check the pentagonal expansion.
    """
    if m < 1:
        raise ValueError(f"Pochhammer index must be >= 1, got {m}")
    if method == "pentagonal":
        if m == 1:
            return QSeries.make(_pentagonal_coeffs(order), ring)
        # dilation of f(1); support sits on multiples of m, so the full
        # requested order is certifiable directly
        out = [0] * (order + 1)
        for i, c in enumerate(_pentagonal_coeffs(order // m)):
            out[i * m] = ring.reduce(c)
        return QSeries(ring, tuple(out))
    if method == "product":
        coeffs = [0] * (order + 1)
        coeffs[0] = 1
        for n in range(m, order + 1, m):
            # multiply by (1 - q^n) in place
            for i in range(order, n - 1, -1):
                coeffs[i] = ring.reduce(coeffs[i] - coeffs[i - n])
        return QSeries(ring, tuple(coeffs))
    raise ValueError(f"unknown method {method!r}")


def pochhammer_product(factors: Mapping[int, int], order: int, ring: Ring = ZZ) -> QSeries:
    """prod_m f(m)^{e_m} truncated at ``order``; negative exponents invert."""
    num = QSeries.one(order, ring)
    den = None
    for m, e in sorted(factors.items()):
        if e == 0:
            continue
        base = pochhammer(m, order, ring)
        if e > 0:
            num = num * base**e
        else:
            piece = base ** (-e)
            den = piece if den is None else den * piece
    if den is not None:
        num = num * den.invert()
    return num


def expand_monomial(
    c: int,
    s: int,
    factors: Mapping[int, int],
    order: int,
    ring: Ring = ZZ,
) -> QSeries:
    """c * q^s * prod f(m)^{e_m} truncated at ``order``."""
    if s < 0:
        raise ValueError(f"shift must be non-negative, got {s}")
    if s > order:
        warnings.warn(
            f"monomial shift q^{s} exceeds truncation order {order}; "
            "returning the zero series",
            stacklevel=2,
        )
        return QSeries.zero(order, ring)
    body = pochhammer_product(factors, order - s, ring)
    return body.scale(c).shift(s)


def overpartition_gf(order: int, ring: Ring = ZZ) -> QSeries:
    """Generating function of overpartition counts: f(2)/f(1)^2."""
    return pochhammer_product({2: 1, 1: -2}, order, ring)


def merge_factors(*maps: Mapping[int, int]) -> dict[int, int]:
    """Sum exponent maps, dropping zero exponents (indices may coincide)."""
    acc: dict[int, int] = {}
    for mp in maps:
        for m, e in mp.items():
            acc[m] = acc.get(m, 0) + e
    return {m: e for m, e in acc.items() if e != 0}


def regular_overpartition_gf(ell: int, order: int, ring: Ring = ZZ) -> QSeries:
    """Counts of overpartitions with no part divisible by ell."""
    if ell < 2:
        raise ValueError(f"regularity modulus must be >= 2, got {ell}")
    factors = merge_factors({2: 1, 1: -2}, {ell: 2, 2 * ell: -1})
    return pochhammer_product(factors, order, ring)


def biregular_factors(spec: BiregularSpec) -> dict[int, int]:
    """Exponent map of the biregular overpartition generating function."""
    l1, l2 = spec.l1, spec.l2
    return merge_factors(
        {2: 1, 1: -2},
        {l1: 2, 2 * l1: -1},
        {l2: 2, 2 * l2: -1},
        {2 * l1 * l2: 1, l1 * l2: -2},
    )


@lru_cache(maxsize=256)
def biregular_gf(spec: BiregularSpec, order: int, ring: Ring = ZZ) -> QSeries:
    """Coefficient at n counts (l1,l2)-biregular overpartitions of n."""
    return pochhammer_product(biregular_factors(spec), order, ring)


def materialize_eta(eq: EtaQuotient, order: int, ring: Ring = ZZ) -> tuple[QSeries, int]:
    """q-expansion of an eta-quotient together with its global q-power.

    Returns ``(series, e)`` where e = (sum delta*r_delta)/24 and the series
    equals q^e * prod f(delta)^{r_delta}.  Raises when the q-power is
    fractional.
    """
    total = sum(delta * r for delta, r in eq.terms)
    if total % 24 != 0:
        raise ValueError(
            f"eta-quotient has fractional q-power: sum(delta*r) = {total} "
            f"== {total % 24} (mod 24)"
        )
    exponent = total // 24
    if exponent < 0:
        raise ValueError(f"negative leading q-power {exponent} is not supported")
    if exponent > order:
        return QSeries.zero(order, ring), exponent
    body = pochhammer_product(eq.as_dict(), order - exponent, ring)
    return body.shift(exponent), exponent
