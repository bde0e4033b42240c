"""Congruence-claim model, verification runner, and congruence search.

A claim pins one finite-range statement about a biregular counting
sequence: coefficients on a progression vanish mod m, a progression
component matches an eta-product mod m, two progressions are proportional
mod m, or a conditional family holds once its hypothesis (evaluated by the
engine, never assumed) is true.  Reports carry the range checked and the
first counterexample on failure, and serialize to a versioned JSON schema.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence, Union

from .arith import factorize, is_prime
from .derivations import SPEC29, SPEC52, SPEC54
from .dissect import SeriesExpr, eval_expr
from .etaq import BiregularSpec, biregular_gf
from .series import QSeries, Ring, congruent_upto

#: hard sanity bound on the deepest coefficient a catalogue claim may need
CLAIM_INDEX_LIMIT = 200_000

#: fewest terms per progression a congruence search accepts as evidence
MIN_EVIDENCE = 10

SCHEMA_VERSION = 1


def _check_progression(a: int, b: int, modulus: int, n_max: int, n_min: int = 0) -> None:
    if a < 1 or b < 0:
        raise ValueError(f"progression {a}n+{b} is not valid")
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if not 0 <= n_min <= n_max:
        raise ValueError(f"range n in [{n_min}, {n_max}] is empty or negative")
    if a * n_max + b > CLAIM_INDEX_LIMIT:
        raise ValueError(
            f"claim needs coefficient {a * n_max + b}, beyond the "
            f"supported limit {CLAIM_INDEX_LIMIT}"
        )


@dataclass(frozen=True)
class VanishingClaim:
    """B(spec)(a*n + b) == 0 (mod m) for n_min <= n <= n_max."""

    id: str
    spec: BiregularSpec
    a: int
    b: int
    modulus: int
    n_max: int
    n_min: int = 0
    source: str = ""
    family: tuple | None = None  # (theorem id, primes, j) when instantiated

    kind = "vanishing"

    def __post_init__(self) -> None:
        _check_progression(self.a, self.b, self.modulus, self.n_max, self.n_min)

    def max_index(self) -> int:
        return self.a * self.n_max + self.b

    def params(self) -> dict:
        out = {"spec": str(self.spec), "progression": f"{self.a}n+{self.b}",
               "modulus": self.modulus, "n_min": self.n_min}
        if self.family:
            theorem, primes, j = self.family
            out["family"] = {"theorem": theorem, "primes": list(primes), "j": j}
        return out


@dataclass(frozen=True)
class SeriesCongruenceClaim:
    """sum_n B(spec)(a*n + b) q^n == target (mod m) to n_max."""

    id: str
    spec: BiregularSpec
    a: int
    b: int
    modulus: int
    target: SeriesExpr
    n_max: int
    source: str = ""

    kind = "series-congruence"

    def __post_init__(self) -> None:
        _check_progression(self.a, self.b, self.modulus, self.n_max)

    def max_index(self) -> int:
        return self.a * self.n_max + self.b

    def params(self) -> dict:
        return {"spec": str(self.spec), "progression": f"{self.a}n+{self.b}",
                "modulus": self.modulus}


@dataclass(frozen=True)
class MultiplicativeClaim:
    """B(spec)(A*n + B) == factor * B(spec)(C*n + D) (mod m) to n_max."""

    id: str
    spec: BiregularSpec
    lhs: tuple[int, int]
    rhs: tuple[int, int]
    factor: int
    modulus: int
    n_max: int
    source: str = ""

    kind = "multiplicative"

    def __post_init__(self) -> None:
        _check_progression(*self.lhs, self.modulus, self.n_max)
        _check_progression(*self.rhs, self.modulus, self.n_max)

    def max_index(self) -> int:
        return max(
            self.lhs[0] * self.n_max + self.lhs[1],
            self.rhs[0] * self.n_max + self.rhs[1],
        )

    def params(self) -> dict:
        return {"spec": str(self.spec),
                "lhs": f"{self.lhs[0]}n+{self.lhs[1]}",
                "rhs": f"{self.rhs[0]}n+{self.rhs[1]}",
                "factor": self.factor, "modulus": self.modulus}


@dataclass(frozen=True)
class NewmanConditionalClaim:
    """If B(spec)(hyp_index) == 0 (mod m), then B(spec)(a*n + b) == 0 (mod m)
    for all n <= n_max with p not dividing (stride*n + 1)."""

    id: str
    spec: BiregularSpec
    p: int
    k: int
    modulus: int
    stride: int  # 6 for the f(1)f(3) route, 4 for the f(1)f(5) route
    n_max: int
    source: str = ""

    kind = "newman-conditional"

    def __post_init__(self) -> None:
        if self.stride == 6:
            if self.p % 6 != 1:
                raise ValueError(f"need p == 1 (mod 6), got {self.p}")
        elif self.stride == 4:
            if self.p % 4 != 1:
                raise ValueError(f"need p == 1 (mod 4), got {self.p}")
        else:
            raise ValueError(f"stride must be 4 or 6, got {self.stride}")
        _check_progression(self.a, self.b, self.modulus, self.n_max)

    @property
    def scale(self) -> int:
        """3 on the f(1)f(3) route, whose indices carry a factor 3; else 1."""
        return 3 if self.stride == 6 else 1

    @property
    def a(self) -> int:
        return self.scale * self.stride * self.p ** (2 * self.k + 1)

    @property
    def b(self) -> int:
        return self.scale * self.p ** (2 * self.k + 1)

    @property
    def hyp_index(self) -> int:
        return self.scale * self.p

    def max_index(self) -> int:
        return max(self.a * self.n_max + self.b, self.hyp_index)

    def params(self) -> dict:
        return {"spec": str(self.spec), "p": self.p, "k": self.k,
                "modulus": self.modulus,
                "hypothesis": f"B({self.hyp_index}) == 0 (mod {self.modulus})",
                "conclusion": f"{self.a}n+{self.b}"}


Claim = Union[
    VanishingClaim, SeriesCongruenceClaim, MultiplicativeClaim, NewmanConditionalClaim
]


@dataclass
class VerificationReport:
    claim_id: str
    kind: str
    status: str  # "pass" | "fail" | "skipped-hypothesis-false"
    source: str
    params: dict
    range_checked: str
    counterexample: tuple | None
    millis: float
    note: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def line(self) -> str:
        mark = {"pass": "PASS", "fail": "FAIL", "skipped-hypothesis-false": "SKIP"}[
            self.status
        ]
        extra = f"  <- {self.counterexample}" if self.counterexample else ""
        if self.note:
            extra += f"  ({self.note})"
        return f"[{mark}] {self.claim_id:24s} {self.range_checked}{extra}"


SeriesKey = tuple[BiregularSpec, tuple[int, ...]]


def series_key(claim: Claim, exact: bool = False) -> SeriesKey:
    """The counting series a claim reads: in ZZ one per spec, else one per
    spec and set of primes dividing the claim's modulus."""
    return claim.spec, (() if exact else tuple(factorize(claim.modulus)))


def build_series(
    claims: Iterable[Claim], exact: bool = False
) -> dict[SeriesKey, QSeries]:
    """Build, once per ``series_key``, the counting series its claims need.

    Each series reaches the deepest index its claims read.  It lies in ZZ
    when ``exact``, else in ZZ/LZ with L the lcm of the claims' moduli:
    every check reduces mod its claim's modulus, which divides L.  Claims
    mod powers of one prime share a series, so mod-2^k claims read a
    lattice-sum build and mod-3 claims a division build, each only as deep
    as they need; a claim whose modulus has two or more primes gets its own.
    """
    plan: dict[SeriesKey, tuple[int, int]] = {}
    for claim in claims:
        key = series_key(claim, exact)
        order, lcm = plan.get(key, (0, 1))
        plan[key] = (max(order, claim.max_index()),
                     math.lcm(lcm, claim.modulus))
    return {key: biregular_gf(key[0], order, Ring(None if exact else lcm))
            for key, (order, lcm) in plan.items()}


# ---------------------------------------------------------------------------
# verifiers


def _component(gf: QSeries, a: int, b: int, n_max: int) -> QSeries:
    """sum_{n <= n_max} gf(a*n + b) q^n; a slice, as ``extract`` needs b < a."""
    return QSeries(gf.ring, gf.coeffs[b : a * n_max + b + 1 : a])


def _verifier(check: Callable):
    """Turn ``check(claim, gf) -> (status, counterexample, range, note)``
    into a verifier: check the claim against the counting series gf (built
    for this claim alone when not given), time the check alone, and wrap
    the outcome in a report."""

    @functools.wraps(check)
    def verify(
        claim: Claim, gf: QSeries | None = None, exact: bool = False
    ) -> VerificationReport:
        if gf is None:
            gf = build_series([claim], exact)[series_key(claim, exact)]
        t0 = time.perf_counter()
        status, counter, checked, note = check(claim, gf)
        return VerificationReport(
            claim.id, claim.kind, status, claim.source, claim.params(),
            checked, counter, (time.perf_counter() - t0) * 1000, note,
        )

    return verify


@_verifier
def verify_vanishing(claim: VanishingClaim, gf: QSeries):
    m, lo = claim.modulus, claim.n_min
    lhs = _component(gf, claim.a, claim.a * lo + claim.b, claim.n_max - lo)
    res = congruent_upto(lhs, QSeries.zero(lhs.order, gf.ring), m, lhs.order)
    counter = None if res else (lo + res.index, lhs[res.index] % m)
    return (("pass" if res else "fail"), counter,
            f"n in [{lo}, {claim.n_max}]", "finite-range check only")


@_verifier
def verify_series_congruence(claim: SeriesCongruenceClaim, gf: QSeries):
    lhs = _component(gf, claim.a, claim.b, claim.n_max)
    rhs = eval_expr(claim.target, claim.n_max, gf.ring)
    m = claim.modulus
    res = congruent_upto(lhs, rhs, m, claim.n_max)
    counter = None if res else (res.index, lhs[res.index] % m, rhs[res.index] % m)
    return ("pass" if res else "fail"), counter, f"n in [0, {claim.n_max}]", ""


@_verifier
def verify_multiplicative(claim: MultiplicativeClaim, gf: QSeries):
    m = claim.modulus
    lhs = _component(gf, *claim.lhs, claim.n_max)
    rhs = _component(gf, *claim.rhs, claim.n_max)
    res = congruent_upto(lhs, rhs.scale(claim.factor), m, claim.n_max)
    counter = None if res else (res.index, lhs[res.index] % m, rhs[res.index] % m)
    return ("pass" if res else "fail"), counter, f"n in [0, {claim.n_max}]", ""


@_verifier
def verify_newman_conditional(claim: NewmanConditionalClaim, gf: QSeries):
    hyp = gf[claim.hyp_index] % claim.modulus
    if hyp:
        return ("skipped-hypothesis-false", None,
                f"hypothesis index {claim.hyp_index}",
                f"hypothesis value {hyp} (mod {claim.modulus})")
    m, p = claim.modulus, claim.p
    # the excluded class p | stride*n + 1 is n == -1/stride (mod p)
    excluded = -pow(claim.stride, -1, p) % p
    lhs = _component(gf, claim.a, claim.b, claim.n_max)
    res = congruent_upto(lhs, lhs.on_class(p, excluded), m, claim.n_max)
    counter = None if res else (res.index, lhs[res.index] % m)
    last = claim.n_max if res else res.index
    checked = last + 1 - (last + p - excluded) // p
    return (("pass" if res else "fail"), counter,
            f"n in [0, {claim.n_max}], {checked} admissible",
            "hypothesis engine-evaluated true")


_VERIFIERS = {
    VanishingClaim: verify_vanishing,
    SeriesCongruenceClaim: verify_series_congruence,
    MultiplicativeClaim: verify_multiplicative,
    NewmanConditionalClaim: verify_newman_conditional,
}


def verify_claim(
    claim: Claim, gf: QSeries | None = None, exact: bool = False
) -> VerificationReport:
    return _VERIFIERS[type(claim)](claim, gf, exact)


# ---------------------------------------------------------------------------
# family instantiation

#: family theorems: progression a = stride*scale*prod(p_i^2),
#: b = (stride*j + p_last) * scale * prod(p_i^2, i<last) * p_last
#: every prime must avoid the excluded class 1 (mod stride)
FAMILY_THEOREMS = {
    "thm3.2": dict(spec=SPEC29, stride=6, scale=1, modulus=8, min_p=5,
                   source="Theorem on 6 p^2-progressions mod 8 for (2,9)"),
    "thm3.6": dict(spec=SPEC29, stride=6, scale=3, modulus=3, min_p=5,
                   source="Theorem on 18 p^2-progressions mod 3 for (2,9)"),
    "thm4.8.t3": dict(spec=BiregularSpec(5, 8), stride=4, scale=1, modulus=8,
                      min_p=3,
                      source="Theorem on 4 p^2-progressions mod 8 for (5,8)"),
    "thm4.8.t4": dict(spec=BiregularSpec(5, 16), stride=4, scale=1, modulus=8,
                      min_p=3,
                      source="Theorem on 4 p^2-progressions mod 8 for (5,16)"),
    "thm18": dict(spec=SPEC52, stride=4, scale=1, modulus=4, min_p=3,
                  source="Theorem on 4 p^2-progressions mod 4 for (5,2)"),
    "thm5.8": dict(spec=SPEC54, stride=4, scale=1, modulus=4, min_p=3,
                   source="Theorem on 4 p^2-progressions mod 4 for (5,4)"),
}


def instantiate_family(
    theorem: str, primes_list: Sequence[int], j: int, n_max: int,
    claim_id: str | None = None,
) -> VanishingClaim:
    """Build the concrete vanishing claim for a family theorem instance.

    ``primes_list`` is p_1 .. p_{k+1}; every prime must avoid the excluded
    residue class, and j must not be divisible by the last prime.
    """
    if theorem not in FAMILY_THEOREMS:
        raise ValueError(f"unknown family theorem {theorem!r}")
    cfg = FAMILY_THEOREMS[theorem]
    if not primes_list:
        raise ValueError("need at least one prime")
    for p in primes_list:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p < cfg["min_p"]:
            raise ValueError(f"prime {p} below the smallest admissible {cfg['min_p']}")
        if p % cfg["stride"] == 1:
            raise ValueError(
                f"prime {p} lies in the excluded class 1 mod {cfg['stride']}"
            )
        if math.gcd(p, cfg["spec"].l1 * cfg["spec"].l2 * cfg["stride"]) > 1:
            raise ValueError(f"prime {p} divides the ambient level data")
    p_last = primes_list[-1]
    if j % p_last == 0:
        raise ValueError(f"j = {j} is divisible by the last prime {p_last}")
    square_all = 1
    for p in primes_list:
        square_all *= p * p
    square_head = square_all // (p_last * p_last)
    a = cfg["stride"] * cfg["scale"] * square_all
    b = (cfg["stride"] * j + p_last) * cfg["scale"] * square_head * p_last
    label = claim_id or (
        f"{theorem}.p{'p'.join(str(p) for p in primes_list)}.j{j}"
    )
    return VanishingClaim(
        id=label, spec=cfg["spec"], a=a, b=b, modulus=cfg["modulus"], n_max=n_max,
        source=cfg["source"], family=(theorem, tuple(primes_list), j),
    )


# ---------------------------------------------------------------------------
# runner and search


def run_catalogue(
    claims: Iterable[Claim] | None = None,
    filter_substring: str | None = None,
    n_max_override: int | None = None,
    exact: bool = False,
) -> list[VerificationReport]:
    """Verify claims in catalogue order; deterministic report list.
    Each ``series_key``'s series is built once, before the first check."""
    from .catalogue import builtin_catalogue

    if claims is None:
        claims = builtin_catalogue()
    chosen = [
        claim if n_max_override is None
        else replace(claim, n_max=min(claim.n_max, n_max_override))
        for claim in claims
        if not filter_substring or filter_substring in claim.id
        or filter_substring in str(claim.spec)
    ]
    series = build_series(chosen, exact)
    return [verify_claim(claim, series[series_key(claim, exact)], exact)
            for claim in chosen]


@dataclass(frozen=True)
class SearchHit:
    a: int
    b: int
    modulus: int
    n_checked: int
    known: bool  # already in the builtin catalogue


def search_congruences(
    spec: BiregularSpec,
    a_max: int,
    moduli: Sequence[int],
    n_max: int,
) -> list[SearchHit]:
    """All (a <= a_max, b < a, m) with B(spec)(a*n+b) == 0 (mod m), n <= n_max.
    The series is built once, mod the lcm of the moduli."""
    if not moduli:
        raise ValueError("need at least one modulus")
    for m in moduli:
        if m < 2:
            raise ValueError(f"modulus must be >= 2, got {m}")
    if n_max < MIN_EVIDENCE:
        raise ValueError(f"n_max {n_max} below the evidence floor {MIN_EVIDENCE}")
    order = a_max * (n_max + 1)
    if order > CLAIM_INDEX_LIMIT:
        raise ValueError(
            f"search needs coefficient {order}, beyond the supported limit "
            f"{CLAIM_INDEX_LIMIT}"
        )
    from .catalogue import builtin_catalogue

    known = {
        (c.a, c.b, c.modulus)
        for c in builtin_catalogue()
        if isinstance(c, VanishingClaim) and c.spec == spec and c.n_min == 0
    }
    gf = biregular_gf(spec, order, Ring(math.lcm(*moduli)))
    hits = []
    for a in range(1, a_max + 1):
        for b in range(a):
            residues = [gf[a * n + b] for n in range(n_max + 1)]
            for m in sorted(moduli):
                if all(v % m == 0 for v in residues):
                    hits.append(SearchHit(a, b, m, n_max + 1, (a, b, m) in known))
    return hits


# ---------------------------------------------------------------------------
# JSON report schema


def reports_to_json(reports: Sequence[VerificationReport]) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "engine": {"max_order": CLAIM_INDEX_LIMIT},
        "claims": [
            {
                "id": r.claim_id,
                "paper_ref": r.source,
                "kind": r.kind,
                "params": r.params,
                "status": r.status,
                "range": r.range_checked,
                **({"counterexample": list(r.counterexample)} if r.counterexample else {}),
                "millis": round(r.millis, 3),
            }
            for r in reports
        ],
    }
    return json.dumps(doc, indent=2)
