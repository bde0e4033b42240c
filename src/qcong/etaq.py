"""q-Pochhammer symbols, eta-quotients, and overpartition generating functions.

``f(m)`` denotes the infinite product prod_{n>=1} (1 - q^{mn}).  Products
of f(m) expand f(1) by the pentagonal-number sparse form; the dense finite
product is kept as an independent cross-check path.  The biregular
counting series is built from theta functions instead: with
phi(-q^l) = f(l)^2/f(2l), its eta-product is a quotient of four sparse
phi factors (see ``biregular_gf``), and the eta-product expansion
(``pochhammer_product(biregular_factors(spec), ...)``) is kept as its
cross-check.  Mod 2, 4 and 8 that quotient has no denominator: the series
is a sum of single-square and binary-form lattice sums
(``_theta_lattice``), which the division build checks in the tests.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

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


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")


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
    _check_order(order)
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


def merge_factors(*maps: Mapping[int, int]) -> dict[int, int]:
    """Sum exponent maps, dropping zero exponents (indices may coincide)."""
    acc: dict[int, int] = {}
    for mp in maps:
        for m, e in mp.items():
            acc[m] = acc.get(m, 0) + e
    return {m: e for m, e in acc.items() if e != 0}


def phi_factors(num: Iterable[int], den: Iterable[int] = ()) -> dict[int, int]:
    """f-exponent map of prod_{a in num} phi(-q^a) / prod_{b in den} phi(-q^b),
    by phi(-q^l) = f(l)^2/f(2l)."""
    return merge_factors(
        *({a: 2, 2 * a: -1} for a in num),
        *({b: -2, 2 * b: 1} for b in den),
    )


def overpartition_gf(order: int, ring: Ring = ZZ) -> QSeries:
    """Generating function of overpartition counts: f(2)/f(1)^2 = 1/phi(-q)."""
    return pochhammer_product(phi_factors((), (1,)), order, ring)


def regular_overpartition_gf(ell: int, order: int, ring: Ring = ZZ) -> QSeries:
    """Counts of overpartitions with no part divisible by ell:
    phi(-q^ell)/phi(-q)."""
    if ell < 2:
        raise ValueError(f"regularity modulus must be >= 2, got {ell}")
    return pochhammer_product(phi_factors((ell,), (1,)), order, ring)


def biregular_factors(spec: BiregularSpec) -> dict[int, int]:
    """Exponent map of the biregular overpartition generating function,
    phi(-q^l1) phi(-q^l2) / (phi(-q) phi(-q^(l1 l2)))."""
    return phi_factors((spec.l1, spec.l2), (1, spec.l1 * spec.l2))


def _theta_terms(l: int, order: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) of each nonzero term through q^order of
    phi(-q^l) = f(l)^2/f(2l) = 1 + 2 sum_{k>=1} (-1)^k q^{l k^2}."""
    terms = [(0, 1)]
    k = 1
    while l * k * k <= order:
        terms.append((l * k * k, 2 if k % 2 == 0 else -2))
        k += 1
    return terms


def _theta_product(l1: int, l2: int, order: int) -> list[int]:
    """Coefficients of phi(-q^l1) phi(-q^l2) through q^order, over ZZ."""
    out = [0] * (order + 1)
    for i, a in _theta_terms(l1, order):
        for j, b in _theta_terms(l2, order - i):
            out[i + j] += a * b
    return out


def _divide_by_theta(coeffs: list[int], l: int, ring: Ring) -> None:
    """Replace coeffs by coeffs / phi(-q^l) in ``ring``, in place.

    Ascending: once c[m] holds the quotient for every m < n, the quotient
    at n is c[n] less the phi terms applied to c[n - l k^2].
    """
    terms = _theta_terms(l, len(coeffs) - 1)[1:]
    reduce = ring.reduce
    for n in range(l, len(coeffs)):
        acc = coeffs[n]
        for e, s in terms:
            if e > n:
                break
            acc -= s * coeffs[n - e]
        coeffs[n] = reduce(acc)


#: rings in which ``biregular_gf`` writes the series as lattice sums
_LATTICE_MODULI = (2, 4, 8)


def _theta_lattice(l1: int, l2: int, order: int, m: int) -> list[int]:
    """Coefficients of B(l1,l2) through q^order in Z/m, m in 2, 4, 8.

    With phi(-q^l) = 1 + 2 T_l, T_l = sum_{k>=1} (-1)^k q^{l k^2}, and
    1/(1 + 2x) == 1 - 2x + 4x^2 (mod 8), the quotient has no denominator:
    B == 1 + 2 (T_l1 + T_l2 - T_1 - T_L) + 4 Q (mod 8), L = l1 l2.  Only Q
    mod 2 counts, and there T_a T_b == sum_{j,k>=1} q^{a j^2 + b k^2} and
    T_l^2 == sum_{k>=1} q^{2 l k^2}; Q holds the six pairs a < b of
    {1, l1, l2, L} and the squares T_1^2, T_L^2 of the denominator.
    Mod 4 the 4 Q term drops, and mod 2 only the constant is left.
    """
    out = [0] * (order + 1)
    out[0] = 1
    if m == 2:
        return out
    L = l1 * l2
    for l, sign in ((l1, 1), (l2, 1), (1, -1), (L, -1)):
        for e, s in _theta_terms(l, order)[1:]:
            out[e] += sign * s
    if m == 8:
        ls = (1, l1, l2, L)
        squares = {l: [l * k * k for k in range(1, math.isqrt(order // l) + 1)]
                   for l in ls}
        for i, a in enumerate(ls):
            for b in ls[i + 1:]:
                # the denser form inside, so each inner loop runs long
                outer, inner = squares[max(a, b)], squares[min(a, b)]
                for x in outer:
                    for y in inner:
                        if x + y > order:
                            break
                        out[x + y] += 4
        for l in (1, L):
            for e in squares[l]:
                if 2 * e > order:
                    break
                out[2 * e] += 4
    return [c % m for c in out]


@lru_cache(maxsize=256)
def biregular_gf(spec: BiregularSpec, order: int, ring: Ring = ZZ) -> QSeries:
    """Coefficient at n counts (l1,l2)-biregular overpartitions of n.

    The eta-product of ``biregular_factors`` pairs up into the theta quotient
    phi(-q^l1) phi(-q^l2) / (phi(-q) phi(-q^(l1 l2))), whose factors have
    about sqrt(order/l) terms each.  In Z/2, Z/4 and Z/8 the quotient is a
    sum of lattice sums (``_theta_lattice``), written straight out.  In
    every other ring, ZZ included, the numerator is one sparse product,
    and each denominator factor divides it in place in
    O(order sqrt(order/l)) steps, with no Newton iteration and no
    Kronecker product.
    """
    _check_order(order)
    if ring.modulus in _LATTICE_MODULI:
        coeffs = _theta_lattice(spec.l1, spec.l2, order, ring.modulus)
        return QSeries(ring, tuple(coeffs))
    num = _theta_product(spec.l1, spec.l2, order)
    # the sparser factor first, while exact coefficients are still small
    for l in (spec.l1 * spec.l2, 1):
        _divide_by_theta(num, l, ring)
    return QSeries.make(num, ring)


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
