"""Dissection-identity catalogue and verification.

Identities live in ``data/identities.jsonl``: one JSON object per line with
fields ``id``, ``kind`` ("exact" or "congruence"), optional ``modulus``,
and ``lhs``/``rhs`` monomial lists.  A monomial ``[c, s, [[m, e], ...]]``
denotes c * q^s * prod f(m)^e.  Keeping the catalogue as data makes every
entry auditable at a glance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Mapping

from .arith import is_prime
from .etaq import EtaQuotient, expand_monomial, pochhammer
from .series import CheckResult, QSeries, Ring, ZZ, congruent_upto, mod_ring

_DATA_PACKAGE = "qcong.data"
_IDENTITIES_FILE = "identities.jsonl"


@dataclass(frozen=True)
class Monomial:
    """c * q^s * prod f(m)^e, with the f-exponents held as an eta-quotient."""

    c: int
    s: int
    factors: EtaQuotient

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"monomial shift must be >= 0, got {self.s}")


@dataclass(frozen=True)
class SeriesExpr:
    """Formal sum of monomials c * q^s * prod f(m)^e."""

    monomials: tuple[Monomial, ...]

    def __post_init__(self) -> None:
        if not self.monomials:
            raise ValueError("expression needs at least one monomial")


def mono(c: int, s: int, factors: Mapping[int, int] | None = None) -> Monomial:
    return Monomial(c, s, EtaQuotient.of(factors or {}))


def expr(*monomials: Monomial | tuple) -> SeriesExpr:
    parts = []
    for m in monomials:
        if isinstance(m, Monomial):
            parts.append(m)
        else:
            c, s, factors = m
            parts.append(mono(c, s, factors))
    return SeriesExpr(tuple(parts))


@dataclass(frozen=True)
class DissectionIdentity:
    id: str
    lhs: SeriesExpr
    rhs: SeriesExpr
    kind: str = "exact"  # "exact" | "congruence"
    modulus: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "congruence"):
            raise ValueError(f"unknown identity kind {self.kind!r}")
        if self.kind == "congruence" and (self.modulus is None or self.modulus < 2):
            raise ValueError(f"congruence identity {self.id} needs modulus >= 2")


def eval_expr(e: SeriesExpr, order: int, ring: Ring = ZZ) -> QSeries:
    """Expand an expression to a truncated series."""
    acc = QSeries.zero(order, ring)
    for m in e.monomials:
        if m.s > order:
            continue  # beyond truncation; contributes nothing certifiable
        acc = acc + expand_monomial(m.c, m.s, m.factors.as_dict(), order, ring)
    return acc


# ---------------------------------------------------------------------------
# catalogue loading


def _parse_monomials(raw: Iterable) -> SeriesExpr:
    return SeriesExpr(
        tuple(mono(c, s, {m: e for m, e in factors}) for c, s, factors in raw)
    )


def parse_identity(line: str) -> DissectionIdentity:
    rec = json.loads(line)
    return DissectionIdentity(
        id=rec["id"],
        lhs=_parse_monomials(rec["lhs"]),
        rhs=_parse_monomials(rec["rhs"]),
        kind=rec.get("kind", "exact"),
        modulus=rec.get("modulus"),
    )


@lru_cache(maxsize=1)
def load_catalogue() -> dict[str, DissectionIdentity]:
    text = resources.files(_DATA_PACKAGE).joinpath(_IDENTITIES_FILE).read_text()
    catalogue: dict[str, DissectionIdentity] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        ident = parse_identity(line)
        if ident.id in catalogue:
            raise ValueError(f"duplicate identity id {ident.id}")
        catalogue[ident.id] = ident
    return catalogue


def identity_ids() -> list[str]:
    return list(load_catalogue())


# ---------------------------------------------------------------------------
# verification


def verify_identity(
    ident: DissectionIdentity | str, order: int = 200
) -> CheckResult:
    """Check lhs = rhs (or lhs = rhs mod m) coefficientwise up to ``order``."""
    if isinstance(ident, str):
        catalogue = load_catalogue()
        if ident not in catalogue:
            raise KeyError(f"unknown identity id {ident!r}")
        ident = catalogue[ident]
    modulus = ident.modulus if ident.kind == "congruence" else None
    ring = Ring(modulus)
    lhs = eval_expr(ident.lhs, order, ring)
    rhs = eval_expr(ident.rhs, order, ring)
    res = congruent_upto(lhs, rhs, modulus, order)
    return CheckResult(res.ok, res.index, f"{ident.id}: {res.detail}")


def verify_lemma_2_9(p: int, k: int, m: int, order: int = 150) -> CheckResult:
    """f(p*m)^{p^(k-1)} == f(m)^{p^k}  (mod p^k), coefficientwise."""
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1 or m < 1:
        raise ValueError("need k >= 1 and m >= 1")
    modulus = p**k
    ring = mod_ring(modulus)
    lhs = pochhammer(p * m, order, ring) ** (p ** (k - 1))
    rhs = pochhammer(m, order, ring) ** (p**k)
    return congruent_upto(lhs, rhs, modulus, order)


def verify_dissection_consistency(
    f: SeriesExpr,
    k: int,
    components: list[SeriesExpr | None],
    order: int,
    modulus: int | None = None,
) -> CheckResult:
    """Check extract(eval(f), k, r) against each component.

    Components are written post-re-dilation (in q, after q^k -> q), the
    way dissections are customarily displayed; ``None`` stands for the
    zero series.  With ``modulus`` the comparison is a congruence,
    otherwise exact.
    """
    if len(components) != k:
        raise ValueError(f"need exactly {k} components, got {len(components)}")
    ring = Ring(modulus)
    full = eval_expr(f, order, ring)
    for r in range(k):
        got = full.extract(k, r)
        want = (
            QSeries.zero(got.order, ring)
            if components[r] is None
            else eval_expr(components[r], got.order, ring)
        )
        check = congruent_upto(got, want, modulus, got.order)
        if not check:
            return CheckResult(
                False, check.index, f"component {r}: {check.detail}"
            )
    return CheckResult(True, None, f"{k}-dissection consistent to order {order}")
