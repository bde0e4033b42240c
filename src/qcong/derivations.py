"""Intermediate generating-function identities behind each congruence.

Every record states: the arithmetic-progression component (step, residue)
of a biregular counting series equals (exactly, or mod m) a closed
eta-product expression, with the component written in q after the
re-dilation q^step -> q.  Verifying the whole chain end to end pins down
each printed derivation step, which is how transcription slips get caught.

Two displayed equations required corrections, confirmed by re-deriving the
products and by the checks here:

* the q^2 term of the odd-part dissection of the (2,9) series is the
  q^3-dilated image of the 6n+5 component, f(6)^4 f(18)^4 / (f(3)^6 f(9)^2),
  not the plain-q form;
* one exponent in the six-monomial 6n+1 expansion reads 16, not 8 (and 16,
  not 8, in its even extraction).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .dissect import SeriesExpr, eval_expr, expr
from .etaq import BiregularSpec, biregular_gf, merge_factors, phi_factors
from .series import CheckResult, QSeries, Ring, congruent_upto

SPEC29 = BiregularSpec(2, 9)
SPEC52 = BiregularSpec(5, 2)
SPEC54 = BiregularSpec(5, 4)
SPEC83 = BiregularSpec(8, 3)


@dataclass(frozen=True)
class Derivation:
    """One chain step: component (step*n + residue) of a counting series."""

    id: str
    spec: BiregularSpec
    step: int
    residue: int
    rhs: SeriesExpr | None  # None means the zero series
    modulus: int | None = None  # None means exact equality over ZZ


def verify_derivation(d: Derivation, n_terms: int = 45) -> CheckResult:
    """Expand both sides independently and compare through q^n_terms."""
    ring = Ring(d.modulus)
    gf = biregular_gf(d.spec, d.step * n_terms + d.residue, ring)
    lhs = gf.extract(d.step, d.residue).truncate(n_terms)
    if d.rhs is None:
        rhs = QSeries.zero(n_terms, ring)
    else:
        rhs = eval_expr(d.rhs, n_terms, ring)
    res = congruent_upto(lhs, rhs, d.modulus, n_terms)
    return CheckResult(res.ok, res.index, f"{d.id}: {res.detail}")


def _m(c: int, s: int, *maps: Mapping[int, int]):
    return (c, s, merge_factors(*maps))


# ---------------------------------------------------------------------------
# (2,9)

def _chain_2_9() -> list[Derivation]:
    d = []

    def add(id_, step, residue, rhs, modulus=None):
        d.append(Derivation(id_, SPEC29, step, residue, rhs, modulus))

    add("eq11a", 1, 0, expr(
        _m(1, 0, {12: 6, 2: -1, 4: -1, 6: -2, 18: -1, 36: -1}),
        _m(2, 1, {4: 1, 12: 2, 36: 1, 2: -2, 18: -2}),
        _m(1, 2, {4: 3, 6: 2, 36: 3, 2: -3, 12: -2, 18: -3}),
    ))
    add("eq12", 2, 0, expr(
        _m(1, 0, {6: 6, 1: -1, 2: -1, 3: -2, 9: -1, 18: -1}),
        _m(1, 1, {2: 3, 3: 2, 18: 3, 1: -3, 6: -2, 9: -3}),
    ))
    add("eq12a", 2, 1, expr(
        _m(2, 0, {2: 1, 6: 2, 18: 1, 1: -2, 9: -2}),
    ))
    # third summand corrected to the q^3-dilated image of the 6n+5 component
    add("eq12b", 2, 1, expr(
        _m(2, 0, {6: 6, 9: 4, 3: -8, 18: -2}),
        _m(4, 1, {6: 5, 9: 1, 18: 1, 3: -7}),
        _m(8, 2, {6: 4, 18: 4, 3: -6, 9: -2}),
    ))
    add("eq13", 6, 1, expr(_m(2, 0, {2: 6, 3: 4, 1: -8, 6: -2})))
    add("eq14", 6, 3, expr(_m(4, 0, {2: 5, 3: 1, 6: 1, 1: -7})))
    add("eq15", 6, 5, expr(_m(8, 0, {2: 4, 6: 4, 1: -6, 3: -2})))
    # exponent 16 corrected (printed 8) in the fifth monomial
    add("eq3.11", 6, 1, expr(
        _m(2, 0, {4: 22, 12: 4, 2: -18, 8: -6, 24: -2}),
        _m(8, 1, {4: 10, 8: 2, 12: 4, 2: -14, 24: -2}),
        _m(8, 1, {4: 19, 6: 1, 12: 1, 2: -17, 8: -4}),
        _m(32, 2, {4: 7, 6: 1, 8: 4, 12: 1, 2: -13}),
        _m(8, 2, {4: 16, 6: 2, 24: 2, 2: -16, 8: -2, 12: -2}),
        _m(32, 3, {4: 4, 6: 2, 8: 6, 24: 2, 2: -12, 12: -2}),
    ))
    add("eq3.12", 12, 1, expr(
        _m(2, 0, {2: 22, 6: 4, 1: -18, 4: -6, 12: -2}),
        _m(32, 1, {2: 7, 3: 1, 4: 4, 6: 1, 1: -13}),
        _m(8, 1, {2: 16, 3: 2, 12: 2, 1: -16, 4: -2, 6: -2}),
    ))
    add("eq3.13", 12, 7, expr(
        _m(8, 0, {2: 10, 4: 2, 6: 4, 1: -14, 12: -2}),
        _m(8, 0, {2: 19, 3: 1, 6: 1, 1: -17, 4: -4}),
        _m(32, 1, {2: 4, 3: 2, 4: 6, 12: 2, 1: -12, 6: -2}),
    ))
    add("eq3.17", 6, 3, expr(_m(1, 0, {2: 2, 6: 2, 1: -1, 3: -1})), 3)
    add("eq3.18", 6, 3, expr(
        _m(1, 0, {6: 3, 9: 2, 3: -2, 18: -1}),
        _m(1, 1, {6: 2, 18: 2, 3: -1, 9: -1}),
    ), 3)
    add("eq3.19", 18, 3, expr(_m(1, 0, {2: 3, 3: 2, 1: -2, 6: -1})), 3)
    add("eq3.20", 18, 9, expr(_m(1, 0, {2: 2, 6: 2, 1: -1, 3: -1})), 3)
    add("eq3.21", 18, 15, None, 3)
    add("eq3.22", 18, 9, expr(_m(1, 0, {6: 3, 1: -1, 2: -1, 3: -1})), 3)
    add("eq3.23", 54, 45, None, 3)
    add("eq800a", 18, 3, expr(_m(1, 0, {1: 4})), 3)
    add("eq815a1", 18, 3, expr(_m(1, 0, {1: 1, 3: 1})), 3)
    add("eq13a", 6, 1, expr(_m(2, 0, {1: 4})), 8)
    return d


# ---------------------------------------------------------------------------
# (5,2^t), t >= 3

def _chain_5_2t(t: int) -> list[Derivation]:
    spec = BiregularSpec(5, 2**t)
    tail, half, quarter = (phi_factors((2**j,), (5 * 2**j,)) for j in (t, t - 1, t - 2))
    tag = f"[t={t}]"
    return [
        Derivation(f"eq4.2{tag}", spec, 1, 0, expr(
            _m(1, 0, {8: 2, 20: 4, 2: -3, 10: -1, 40: -2}, tail),
            _m(2, 1, {4: 3, 20: 1, 2: -4}, tail),
            _m(1, 2, {4: 6, 10: 1, 40: 2, 2: -5, 8: -2, 20: -2}, tail),
        )),
        Derivation(f"eq4.3{tag}", spec, 2, 0, expr(
            _m(1, 0, {4: 2, 10: 4, 1: -3, 5: -1, 20: -2}, half),
            _m(1, 1, {2: 6, 5: 1, 20: 2, 1: -5, 4: -2, 10: -2}, half),
        )),
        Derivation(f"eq4.4{tag}", spec, 2, 1, expr(
            _m(2, 0, {2: 3, 10: 1, 1: -4}, half),
        )),
        Derivation(f"eq4.5{tag}", spec, 4, 1, expr(
            _m(2, 0, {2: 14, 5: 1, 1: -11, 4: -4}, quarter),
        )),
        # f(5) restored in the numerator: the odd extraction keeps the f(10)
        # carried along from the previous step, which halves to f(5)
        Derivation(f"eq4.6{tag}", spec, 4, 3, expr(
            _m(8, 0, {2: 2, 4: 4, 5: 1, 1: -7}, quarter),
        )),
        Derivation(f"eq4.7{tag}", spec, 4, 1, expr(_m(2, 0, {1: 1, 5: 1})), 8),
    ]


# ---------------------------------------------------------------------------
# (5,2)

def _chain_5_2() -> list[Derivation]:
    return [
        Derivation("eq17", SPEC52, 1, 0, expr(
            _m(1, 0, {8: 2, 20: 5, 2: -1, 4: -1, 10: -3, 40: -2}),
            _m(2, 1, {4: 2, 20: 2, 2: -2, 10: -2}),
            _m(1, 2, {4: 5, 40: 2, 2: -3, 8: -2, 10: -1, 20: -1}),
        )),
        Derivation("eq17.even", SPEC52, 2, 0, expr(
            _m(1, 0, {4: 2, 10: 5, 1: -1, 2: -1, 5: -3, 20: -2}),
            _m(1, 1, {2: 5, 20: 2, 1: -3, 4: -2, 5: -1, 10: -1}),
        )),
        Derivation("eq4.4b1", SPEC52, 2, 1, expr(
            _m(2, 0, {2: 2, 10: 2, 1: -2, 5: -2}),
        )),
        Derivation("eq4.4a", SPEC52, 2, 1, expr(_m(2, 0, {2: 1, 10: 1})), 4),
        Derivation("eq4.4b", SPEC52, 4, 1, expr(_m(2, 0, {1: 1, 5: 1})), 4),
        Derivation("eq4.4c", SPEC52, 4, 3, None, 4),
    ]


# ---------------------------------------------------------------------------
# (5,4)

def _chain_5_4() -> list[Derivation]:
    return [
        Derivation("eq19", SPEC54, 1, 0, expr(
            _m(1, 0, {4: 2, 8: 1, 20: 2, 2: -3, 10: -1, 40: -1}),
            _m(2, 1, {4: 5, 40: 1, 2: -4, 8: -1, 20: -1}),
            _m(1, 2, {4: 8, 10: 1, 40: 3, 2: -5, 8: -3, 20: -4}),
        )),
        Derivation("eq20", SPEC54, 2, 0, expr(
            _m(1, 0, {2: 2, 4: 1, 10: 2, 1: -3, 5: -1, 20: -1}),
            _m(1, 1, {2: 8, 5: 1, 20: 3, 1: -5, 4: -3, 10: -4}),
        )),
        Derivation("eq21", SPEC54, 2, 1, expr(
            _m(2, 0, {2: 5, 20: 1, 1: -4, 4: -1, 10: -1}),
        )),
        Derivation("eq22", SPEC54, 2, 1, expr(
            _m(2, 0, {2: 3, 20: 1, 4: -1, 10: -1}),
        ), 4),
        Derivation("eq22a", SPEC54, 2, 1, expr(_m(2, 0, {2: 1, 10: 1})), 4),
        Derivation("eq5.6", SPEC54, 4, 3, None, 4),
        Derivation("eq5.7", SPEC54, 4, 1, expr(_m(2, 0, {1: 1, 5: 1})), 4),
    ]


# ---------------------------------------------------------------------------
# (8,3)

def _chain_8_3() -> list[Derivation]:
    return [
        Derivation("eq24", SPEC83, 1, 0, expr(
            _m(1, 0, {4: 4, 8: 1, 12: 2, 48: 1, 2: -4, 16: -1, 24: -3}),
            _m(2, 1, {4: 1, 6: 1, 8: 3, 48: 1, 2: -3, 12: -1, 16: -1, 24: -1}),
        )),
        Derivation("eq24.even", SPEC83, 2, 0, expr(
            _m(1, 0, {2: 4, 4: 1, 6: 2, 24: 1, 1: -4, 8: -1, 12: -3}),
        )),
        Derivation("eq25", SPEC83, 2, 1, expr(
            _m(2, 0, {2: 1, 3: 1, 4: 3, 24: 1, 1: -3, 6: -1, 8: -1, 12: -1}),
        )),
        Derivation("eq26", SPEC83, 2, 1, expr(_m(2, 0, {8: 2, 2: -2})), 3),
        Derivation("eq27", SPEC83, 4, 1, expr(_m(2, 0, {4: 2, 1: -2})), 3),
        Derivation("eq28", SPEC83, 4, 3, None, 3),
        Derivation("eq31", SPEC83, 4, 1, expr(
            _m(2, 0, {6: 1, 9: 1, 18: 1, 3: -1, 12: -2}),
            _m(-2, 1, {18: 4, 9: -2, 12: -2}),
            _m(-2, 2, {6: 2, 9: 1, 36: 3, 3: -1, 12: -3, 18: -2}),
        ), 3),
        Derivation("eq32", SPEC83, 12, 1, expr(
            _m(2, 0, {2: 1, 3: 1, 6: 1, 1: -1, 4: -2}),
        ), 3),
        Derivation("eq6.13", SPEC83, 12, 5, expr(
            _m(1, 0, {6: 4, 3: -2, 4: -2}),
        ), 3),
        Derivation("eq6.14", SPEC83, 12, 9, expr(
            _m(1, 0, {2: 2, 3: 1, 12: 3, 1: -1, 4: -3, 6: -2}),
        ), 3),
        Derivation("eq6.15", SPEC83, 12, 9, expr(
            _m(1, 0, {2: 2, 3: 1, 12: 2, 1: -1, 6: -2}),
        ), 3),
        Derivation("eq6.16", SPEC83, 12, 9, expr(
            _m(1, 0, {9: 2, 12: 2, 6: -1, 18: -1}),
            _m(1, 1, {3: 1, 12: 2, 18: 2, 6: -2, 9: -1}),
        ), 3),
        Derivation("eq6.17", SPEC83, 36, 9, expr(
            _m(1, 0, {3: 2, 4: 2, 2: -1, 6: -1}),
        ), 3),
        Derivation("eq6.18", SPEC83, 36, 21, expr(
            _m(1, 0, {1: 1, 4: 2, 6: 2, 2: -2, 3: -1}),
        ), 3),
        Derivation("eq6.19", SPEC83, 36, 33, None, 3),
    ]


# ---------------------------------------------------------------------------
# (4,3^t), t >= 2

def _chain_4_3t(t: int) -> list[Derivation]:
    spec = BiregularSpec(4, 3**t)
    r = phi_factors((3 ** (t - 1),), (4 * 3 ** (t - 1),))
    tag = f"[t={t}]"
    return [
        Derivation(f"eq9.2{tag}", spec, 3, 0, expr(
            _m(1, 0, {2: 4, 3: 6, 12: 2, 1: -8, 6: -3, 24: -1}, r),
            _m(-8, 2, {2: 2, 4: 1, 6: 3, 24: 2, 1: -6, 8: -1, 12: -1}, r),
        )),
        Derivation(f"eq9.3{tag}", spec, 3, 1, expr(
            _m(2, 0, {2: 3, 3: 3, 12: 2, 1: -7, 24: -1}, r),
            _m(-2, 1, {2: 4, 3: 6, 4: 1, 24: 2, 1: -8, 6: -3, 8: -1, 12: -1}, r),
        )),
        Derivation(f"eq9.4{tag}", spec, 3, 2, expr(
            _m(4, 0, {2: 2, 6: 3, 12: 2, 1: -6, 24: -1}, r),
            _m(-4, 1, {2: 3, 3: 3, 4: 1, 24: 2, 1: -7, 8: -1, 12: -1}, r),
        )),
        Derivation(f"eq9.5{tag}", spec, 3, 0, expr(_m(1, 0, {})), 8),
        Derivation(f"eq9.7{tag}", spec, 3, 1, expr(
            _m(2, 0, {3: 3, 1: -1}),
            _m(-2, 1, {12: 3, 4: -1}),
        ), 4),
        Derivation(f"eq9.7a{tag}", spec, 3, 1, expr(
            _m(2, 0, {4: 3, 6: 2, 2: -2, 12: -1}),
        ), 4),
        Derivation(f"eq9.7b{tag}", spec, 3, 1, expr(_m(2, 0, {4: 2})), 4),
        Derivation(f"eq9.8{tag}", spec, 6, 4, None, 4),
        Derivation(f"eq9.9{tag}", spec, 6, 1, expr(_m(2, 0, {2: 2})), 4),
        Derivation(f"eq9.10{tag}", spec, 12, 7, None, 4),
        Derivation(f"eq9.11{tag}", spec, 12, 1, expr(_m(2, 0, {1: 2})), 4),
    ]


# ---------------------------------------------------------------------------
# (3,2^t), t >= 2

def _chain_3_2t(t: int) -> list[Derivation]:
    spec = BiregularSpec(3, 2**t)
    x, half, quarter = (phi_factors((2**j,), (3 * 2**j,)) for j in (t, t - 1, t - 2))
    tag = f"[t={t}]"
    return [
        Derivation(f"eq10.2{tag}", spec, 1, 0, expr(
            _m(1, 0, {4: 4, 12: 2, 2: -4, 8: -1, 24: -1}, x),
            _m(2, 1, {4: 1, 6: 1, 8: 1, 24: 1, 2: -3, 12: -1}, x),
        )),
        Derivation(f"eq10.3{tag}", spec, 2, 0, expr(
            _m(1, 0, {2: 4, 6: 2, 1: -4, 4: -1, 12: -1}, half),
        )),
        Derivation(f"eq10.4{tag}", spec, 2, 1, expr(
            _m(2, 0, {2: 1, 3: 1, 4: 1, 12: 1, 1: -3, 6: -1}, half),
        )),
        Derivation(f"eq10.5{tag}", spec, 4, 0, expr(
            _m(1, 0, {2: 13, 3: 2, 1: -10, 4: -4, 6: -1}, quarter),
        )),
        Derivation(f"eq10.6{tag}", spec, 4, 2, expr(
            _m(4, 0, {2: 1, 3: 2, 4: 4, 1: -6, 6: -1}, quarter),
        )),
        Derivation(f"eq10.7{tag}", spec, 4, 2, expr(_m(4, 0, {4: 3})), 8),
        Derivation(f"eq10.8{tag}", spec, 16, 2, expr(_m(4, 0, {1: 3})), 8),
        Derivation(f"eq10.9{tag}", spec, 16, 6, None, 8),
        Derivation(f"eq10.10{tag}", spec, 16, 10, None, 8),
        Derivation(f"eq10.11{tag}", spec, 16, 14, None, 8),
    ]


def all_derivations() -> list[Derivation]:
    out = _chain_2_9()
    for t in (3, 4):
        out += _chain_5_2t(t)
    out += _chain_5_2()
    out += _chain_5_4()
    out += _chain_8_3()
    for t in (2, 3):
        out += _chain_4_3t(t)
    for t in (2, 3):
        out += _chain_3_2t(t)
    return out


#: Chain steps asserted in the derivations that the engine refutes, with
#: the first counterexample each time (confirmed independently by the
#: brute-force oracle).  All three are mod-8 reductions in the t-indexed
#: families at t >= 3: the product-lemma replacements they rely on only
#: hold at a lower power of two once the t-dependent factors stop lining
#: up with exact lemma instances.  eq4.7 does hold mod 4 at both t; the
#: eq9.5 congruence holds mod 2 only (106 == 2 mod 4).
REFUTED: dict[str, str] = {
    # B(5,8)(9) = 122 == 2 (mod 8), while 2*f(1)*f(5) has -2 at q^2
    "eq4.7[t=3]": "fails at n=2: B(5,8)(4*2+1) = 122 == 2, not 6 (mod 8)",
    # B(5,16)(17) == 4 (mod 8), while 2*f(1)*f(5) has 0 at q^4
    "eq4.7[t=4]": "fails at n=4: B(5,16)(4*4+1) == 4, not 0 (mod 8)",
    # B(4,27)(9) = 106 == 2 (mod 8)
    "eq9.5[t=3]": "fails at n=3: B(4,27)(3*3) = 106 == 2, not 0 (mod 8)",
}

