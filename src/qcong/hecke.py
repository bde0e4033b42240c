"""Hecke operator action on q-expansions, eigenform checks, and the
Newman three-term coefficient recursions for f(1)f(3) and f(1)f(5).
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import ModularityReport, is_prime, kronecker, modularity_check
from .etaq import EtaQuotient, materialize_eta, pochhammer_product
from .series import CheckResult, QSeries, Ring, ZZ, congruent_upto

#: eta(6z)^4 = q f(6)^4 on level 36
ETA6_4 = EtaQuotient.of({6: 4}, level=36)
#: eta(4z)eta(20z) = q f(4) f(20) on level 80
ETA4_20 = EtaQuotient.of({4: 1, 20: 1}, level=80)

#: weight 2, trivial character (the product of the deltas is a square)
ETA6_4_CONTEXT = modularity_check(ETA6_4, ETA6_4.level)
#: weight 1, character (-20 | d)
ETA4_20_CONTEXT = modularity_check(ETA4_20, ETA4_20.level)

#: the forms ``hecke-check`` knows: name -> (eta-quotient, its report)
HECKE_FORMS = {
    "eta6_4": (ETA6_4, ETA6_4_CONTEXT),
    "eta4_20": (ETA4_20, ETA4_20_CONTEXT),
}


def eta6_4(order: int, ring: Ring = ZZ) -> QSeries:
    """q-expansion of eta(6z)^4 = q * f(6)^4."""
    return materialize_eta(ETA6_4, order, ring)[0]


def eta4_20(order: int, ring: Ring = ZZ) -> QSeries:
    """q-expansion of eta(4z)eta(20z) = q * f(4) f(20)."""
    return materialize_eta(ETA4_20, order, ring)[0]


def apply_tp(
    a: QSeries, p: int, ctx: ModularityReport, n_max: int | None = None
) -> QSeries:
    """T_p action: result(n) = a(p*n) + chi(p) * p^(k-1) * a(n/p), with the
    weight k and the character chi read from the form's modularity report."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if not ctx.weight_integral:
        raise ValueError(f"T_{p} needs an integral weight, got {ctx.weight}")
    out_order = a.order // p if n_max is None else n_max
    chi_p_pk = ctx.character(p) * p ** (ctx.weight.numerator - 1)
    return (a.extract(p, 0).truncate(out_order)
            + a.truncate(out_order).dilate(p, cap=out_order).scale(chi_p_pk))


@dataclass(frozen=True)
class EigenResult:
    ok: bool
    eigenvalue: int | None = None
    failure_index: int | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def eigen_check(a: QSeries, p: int, ctx: ModularityReport, n_max: int) -> EigenResult:
    """Is a a T_p eigenform to n_max?  Requires normalization a(1) = 1.

    On success returns the (integer) eigenvalue, which equals the
    coefficient of T_p a at n = 1.
    """
    if n_max < 1:
        raise ValueError(f"need n_max >= 1 to read the eigenvalue, got {n_max}")
    if a[1] != 1:
        raise ValueError(f"series not normalized: coefficient at q^1 is {a[1]}")
    if a.order < p * n_max:
        raise ValueError(f"need order >= {p * n_max} to check to n_max={n_max}")
    image = apply_tp(a, p, ctx, n_max)
    lam = image[1]
    res = congruent_upto(image, a.truncate(n_max).scale(lam), None, n_max)
    if not res:
        n = res.index
        return EigenResult(False, None, n,
                           f"T_{p} image differs from {lam} * series at n={n}")
    return EigenResult(True, lam, None, f"eigenvalue {lam} verified to n={n_max}")


def vanishing_class_check(a: QSeries, modulus: int, residue: int, n_max: int) -> CheckResult:
    """Do all coefficients vanish outside the class n == residue (mod modulus)?"""
    res = congruent_upto(a, a.on_class(modulus, residue), None, n_max)
    if not res:
        n = res.index
        return CheckResult(False, n, f"nonzero coefficient {a.coeffs[n]} at n={n}")
    return CheckResult(True, None, f"supported on {residue} mod {modulus} to n={n_max}")


#: Newman recursion parameters per product f(1) f(D): (c, D) with the
#: recursion u(p*n + w) = u(w)*u(n) - (-1)^((p-1)/2) (D|p) u((n-w)/p),
#: w = (p-1)/c, valid for primes p == 1 (mod c); the last term drops when
#: its argument is not a non-negative integer.
NEWMAN_PARAMS = {"f1f3": (6, 3), "f1f5": (4, 5)}


def _newman_params(product: str) -> tuple[int, int]:
    if product not in NEWMAN_PARAMS:
        raise ValueError(f"unknown product {product!r}; know {sorted(NEWMAN_PARAMS)}")
    return NEWMAN_PARAMS[product]


def newman_series(product: str, order: int) -> QSeries:
    """f(1) f(D) through q^order for a product named in NEWMAN_PARAMS."""
    _, dd = _newman_params(product)
    return pochhammer_product({1: 1, dd: 1}, order, ZZ)


def newman_check(product: str, p: int, n_max: int) -> CheckResult:
    """Verify the three-term recursion coefficientwise for n <= n_max."""
    c, dd = _newman_params(product)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if p % c != 1:
        raise ValueError(f"need p == 1 (mod {c}) for {product}, got p={p}")
    w = (p - 1) // c
    u = newman_series(product, p * n_max + w)
    sign = -1 if (p - 1) // 2 % 2 else 1
    head = u.truncate(n_max)
    # u((n - w)/p) sits at q^n of u(q^p) q^w, and is 0 off that class
    back = head.dilate(p, cap=n_max).shift(w)
    expected = head.scale(u[w]) - back.scale(sign * kronecker(dd, p))
    got = u.extract(p, w)
    res = congruent_upto(got, expected, None, n_max)
    if not res:
        n = res.index
        return CheckResult(False, n, f"u({p}*{n}+{w}) = {got[n]}, expected {expected[n]}")
    return CheckResult(True, None, f"{product} recursion at p={p} holds to n={n_max}")
