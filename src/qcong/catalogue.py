"""Builtin catalogue of the congruence claims under verification.

One entry per stated congruence (vanishing, series congruence,
multiplicative relation, family instance, or Newman-type conditional),
with finite verification ranges chosen so the deepest coefficient
needed stays modest; product-of-squares family instances get short
ranges by necessity.

A claim that restates a derivation record (see ``RESTATES``) is built
from that record, so its spec, progression, modulus and target are
written once, in ``derivations``.

``KNOWN_FAILING`` lists the catalogued statements the engine refutes,
each with its first counterexample.  All of them sit in the mod-8
branches of the t-parametrized families at t >= 3, where the final
power-series reduction step only holds mod 4; the counterexamples are
confirmed independently by the brute-force counting oracle.
"""

from __future__ import annotations

from .claims import (
    Claim,
    MultiplicativeClaim,
    NewmanConditionalClaim,
    SeriesCongruenceClaim,
    VanishingClaim,
    instantiate_family,
)
from .derivations import REFUTED, SPEC29, SPEC52, SPEC54, all_derivations
from .etaq import BiregularSpec

#: claims that restate a derivation record: claim id -> record id
RESTATES: dict[str, str] = {
    "prop3.5a": "eq3.21",
    "prop3.5b": "eq3.23",
    **{cid: cid for cid in ("eq13a", "eq3.19", "eq800a", "eq815a1", "eq3.20")},
    **{f"eq4.7.t{t}": f"eq4.7[t={t}]" for t in (3, 4)},
    "prop5.1": "eq4.4c",
    "eq4.4b": "eq4.4b",
    "prop6a": "eq5.6",
    "prop6b": "eq5.7",
    "thm7.1": "eq6.19",
    "eq28": "eq28",
    **{f"thm8.1{part}.t{t}": f"{record}[t={t}]" for t in (2, 3)
       for part, record in (("b", "eq9.8"), ("c", "eq9.10"), ("d", "eq9.11"))},
    **{f"thm9.1{part}.t{t}": f"{record}[t={t}]" for t in (2, 3)
       for part, record in (("a", "eq10.9"), ("b", "eq10.10"), ("c", "eq10.11"))},
    **{f"eq10.8.t{t}": f"eq10.8[t={t}]" for t in (2, 3)},
}

_RECORDS = {d.id: d for d in all_derivations()}


def _restated(claim_id: str, n_max: int, source: str) -> Claim:
    """Claim ``claim_id`` as its record ``RESTATES[claim_id]`` states it:
    vanishing when the record's component is zero, else a series
    congruence with the record's expression as target."""
    d = _RECORDS[RESTATES[claim_id]]
    if d.rhs is None:
        return VanishingClaim(claim_id, d.spec, d.step, d.residue, d.modulus,
                              n_max, source=source)
    return SeriesCongruenceClaim(claim_id, d.spec, d.step, d.residue,
                                 d.modulus, d.rhs, n_max, source=source)


def hecke_sign_4_20(p: int) -> int:
    """Multiplier in the weight-1 two-case recursion: -(-20 | p).

    Equals -1 for p == 3, 7 (mod 20) and +1 for p == 11, 19 (mod 20).
    """
    from .arith import kronecker

    return -kronecker(-20, p)


#: statements from the source catalogue that the engine refutes; id -> note.
#: A claim on the progression of a refuted record or claim takes its note.
KNOWN_FAILING: dict[str, str] = {
    **{cid: REFUTED[rid] for cid, rid in RESTATES.items() if rid in REFUTED},
    "thm4.10.t3.p3":
        "n=0: B(5,8)(9) == 2 (mod 8) but -B(5,8)(1) == 6; the f(p) = -1 "
        "instances fail mod 8 (f(p) = +1 instances such as p=11 verify)",
    "thm4.8.t4.p7.j1":
        "n=2: B(5,16)(469) == 4 (mod 8); the t=4 family fails mod 8 "
        "(it does hold mod 4, and the t=3 family verifies mod 8)",
    "coro4.11.t4.p3k2":
        "n=0: B(5,16)(81) == 6 (mod 8) but B(5,16)(1) == 2",
    "thm8.1a.t3": REFUTED["eq9.5[t=3]"],  # the record adds n=0, B(0) = 1
}
KNOWN_FAILING["coro4.9.ex.t4"] = KNOWN_FAILING["thm4.8.t4.p7.j1"]


def _catalogue_2_9() -> list[Claim]:
    prop_31 = "Proposition: B(2,9) on 6n+3 and 6n+5"
    prop_34 = "Proposition: B(2,9) on 12n+7 and 12n+1"
    prop_35 = "Proposition: B(2,9) on 18n+15 and 54n+45"
    return [
        VanishingClaim("prop3.1a", SPEC29, 6, 3, 4, 80, source=prop_31),
        VanishingClaim("prop3.1b", SPEC29, 6, 5, 8, 80, source=prop_31),
        VanishingClaim("prop3.4a", SPEC29, 12, 7, 8, 80, source=prop_34),
        VanishingClaim("prop3.4b", SPEC29, 12, 1, 2, 80, source=prop_34),
        _restated("prop3.5a", 60, prop_35),
        _restated("prop3.5b", 60, prop_35),
        _restated("eq13a", 80, "6n+1 component == 2 f(1)^4 mod 8"),
        _restated("eq3.19", 60, "18n+3 component mod 3 (unreduced form)"),
        _restated("eq800a", 60, "18n+3 component == f(1)^4 mod 3"),
        _restated("eq815a1", 60, "18n+3 component == f(1)f(3) mod 3"),
        _restated("eq3.20", 60, "18n+9 component mod 3"),
        instantiate_family("thm3.2", [5], 1, 25, claim_id="thm3.2.p5.j1"),
        instantiate_family("thm3.2", [5], 2, 25, claim_id="thm3.2.p5.j2"),
        instantiate_family("thm3.2", [5, 11], 1, 3, claim_id="thm3.2.p5p11.j1"),
        instantiate_family("thm3.2", [5], 1, 25, claim_id="coro1.ex"),
        MultiplicativeClaim(
            "thm2.p5.k1", SPEC29, (150, 25), (6, 1), -5, 8, 60,
            source="B(2,9)(150n+25) == -5 B(2,9)(6n+1) mod 8",
        ),
        MultiplicativeClaim(
            "coro1.1.p5.k1", SPEC29, (150, 25), (6, 1), -5, 8, 60,
            source="even-power corollary, k=1",
        ),
        MultiplicativeClaim(
            "coro1.1.p5.k2", SPEC29, (3750, 625), (6, 1), 25, 8, 2,
            source="even-power corollary, k=2",
        ),
        instantiate_family("thm3.6", [5], 1, 10, claim_id="thm3.6.p5.j1"),
        instantiate_family("thm3.6", [5], 2, 10, claim_id="thm3.6.p5.j2"),
        instantiate_family("thm3.6", [5, 5], 1, 3, claim_id="thm3.6.p5p5.j1"),
        instantiate_family("thm3.6", [5], 1, 10, claim_id="coro3a.ex"),
        MultiplicativeClaim(
            "thm9a.p5.k1", SPEC29, (450, 75), (18, 3), -5, 3, 25,
            source="B(2,9)(450n+75) == -5 B(2,9)(18n+3) mod 3",
        ),
        # the printed right side reads B(6n+1); the relation that actually
        # holds (and that the surrounding chain proves) targets B(18n+3)
        MultiplicativeClaim(
            "coro4a.p5.k1", SPEC29, (450, 75), (18, 3), -5, 3, 25,
            source="even-power corollary mod 3, k=1 (right side corrected)",
        ),
        NewmanConditionalClaim(
            "thm10a.p7", SPEC29, 7, 0, 3, 6, 60,
            source="conditional family from the f(1)f(3) recursion, p=7",
        ),
        NewmanConditionalClaim(
            "thm10a.p13", SPEC29, 13, 0, 3, 6, 20,
            source="conditional family from the f(1)f(3) recursion, p=13",
        ),
    ]


def _catalogue_5_2t(t: int) -> list[Claim]:
    spec = BiregularSpec(5, 2**t)
    tag = f"t{t}"
    claims: list[Claim] = [
        _restated(f"eq4.7.{tag}", 80,
                  f"4n+1 component == 2 f(1)f(5) mod 8 ({spec})"),
        instantiate_family(
            f"thm4.8.{tag}", [7], 1, 20, claim_id=f"thm4.8.{tag}.p7.j1"
        ),
        instantiate_family(
            f"thm4.8.{tag}", [7], 1, 20, claim_id=f"coro4.9.ex.{tag}"
        ),
        MultiplicativeClaim(
            f"thm4.10.{tag}.p11", spec, (484, 121), (4, 1), hecke_sign_4_20(11),
            8, 10, source=f"B{spec}(484n+121) == B{spec}(4n+1) mod 8",
        ),
        MultiplicativeClaim(
            f"thm4.10.{tag}.p3", spec, (36, 9), (4, 1), hecke_sign_4_20(3),
            8, 60, source=f"B{spec}(36n+9) == -B{spec}(4n+1) mod 8",
        ) if t == 3 else None,
        MultiplicativeClaim(
            f"coro4.11.{tag}.p3k2", spec, (324, 81), (4, 1), hecke_sign_4_20(3) ** 2,
            8, 14, source=f"B{spec}(324n+81) == B{spec}(4n+1) mod 8",
        ),
        NewmanConditionalClaim(
            f"thm4.12.{tag}.p5", spec, 5, 0, 8, 4, 60,
            source=f"conditional family from the f(1)f(5) recursion, p=5 ({spec})",
        ),
        NewmanConditionalClaim(
            f"thm4.12.{tag}.p13", spec, 13, 0, 8, 4, 60,
            source=f"conditional family from the f(1)f(5) recursion, p=13 ({spec})",
        ),
    ]
    if t == 3:
        claims.append(
            instantiate_family(
                f"thm4.8.{tag}", [3, 7], 1, 3, claim_id=f"thm4.8.{tag}.p3p7.j1"
            )
        )
    return [c for c in claims if c is not None]


def _catalogue_5_2_and_5_4() -> list[Claim]:
    out: list[Claim] = []
    for spec, tag, thm in ((SPEC52, "5.2", "thm18"), (SPEC54, "5.4", "thm5.8")):
        out += [
            _restated("prop5.1" if spec == SPEC52 else "prop6a", 100,
                      f"B{spec}(4n+3) == 0 mod 4"),
            _restated("eq4.4b" if spec == SPEC52 else "prop6b", 100,
                      f"4n+1 component == 2 f(1)f(5) mod 4 ({spec})"),
            instantiate_family(thm, [7], 1, 25, claim_id=f"{thm}.p7.j1"),
            instantiate_family(thm, [3, 7], 1, 3, claim_id=f"{thm}.p3p7.j1"),
            MultiplicativeClaim(
                f"{'thm9b' if spec == SPEC52 else 'thm5.10'}.p3.k1",
                spec, (36, 9), (4, 1), hecke_sign_4_20(3), 4, 60,
                source=f"B{spec}(36n+9) == -B{spec}(4n+1) mod 4",
            ),
            MultiplicativeClaim(
                f"{'coro4b' if spec == SPEC52 else 'coro5.11'}.p3k2",
                spec, (324, 81), (4, 1), 1, 4, 15,
                source=f"B{spec}(324n+81) == B{spec}(4n+1) mod 4",
            ),
        ]
    return out


def _catalogue_8_3() -> list[Claim]:
    return [
        _restated("thm7.1", 60, "B(8,3)(36n+33) == 0 mod 3"),
        _restated("eq28", 100, "B(8,3)(4n+3) == 0 mod 3 (intermediate step)"),
    ]


def _catalogue_4_3t(t: int) -> list[Claim]:
    spec = BiregularSpec(4, 3**t)
    tag = f"t{t}"
    src = f"five-part theorem for {spec}"
    return [
        VanishingClaim(f"thm8.1a.{tag}", spec, 3, 0, 8, 60, n_min=1, source=src),
        _restated(f"thm8.1b.{tag}", 60, src),
        _restated(f"thm8.1c.{tag}", 60, src),
        _restated(f"thm8.1d.{tag}", 60,
                  src + " (12n+1 component == 2 f(1)^2 mod 4)"),
        VanishingClaim(f"thm8.1e.{tag}", spec, 3, 2, 4, 60, source=src),
    ]


def _catalogue_3_2t(t: int) -> list[Claim]:
    spec = BiregularSpec(3, 2**t)
    tag = f"t{t}"
    src = f"16n+r theorem for {spec}"
    return [
        _restated(f"thm9.1a.{tag}", 60, src),
        _restated(f"thm9.1b.{tag}", 60, src),
        _restated(f"thm9.1c.{tag}", 60, src),
        _restated(f"eq10.8.{tag}", 50, f"16n+2 component == 4 f(1)^3 mod 8 ({spec})"),
    ]


def builtin_catalogue() -> list[Claim]:
    out: list[Claim] = []
    out += _catalogue_2_9()
    for t in (3, 4):
        out += _catalogue_5_2t(t)
    out += _catalogue_5_2_and_5_4()
    out += _catalogue_8_3()
    for t in (2, 3):
        out += _catalogue_4_3t(t)
    for t in (2, 3):
        out += _catalogue_3_2t(t)
    ids = [c.id for c in out]
    assert len(ids) == len(set(ids)), "duplicate claim ids in catalogue"
    return out


def claim_by_id(claim_id: str) -> Claim:
    for claim in builtin_catalogue():
        if claim.id == claim_id:
            return claim
    raise KeyError(f"unknown claim id {claim_id!r}")
