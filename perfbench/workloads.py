"""The four workloads: their inputs, the operations on them, their outcomes.

A workload is built from a seed.  Seed 0 feeds every input in the
program's own order (catalogue order, record order, spec order).  Any
other seed shuffles the order in which claims, records and specs are fed
in, and every pass of a run with that seed uses the same order.  The order
is a real input property: it decides how often ``SeriesCache`` rebuilds a
series deeper, so regression bounds apply per seed.

catalogue-exact keeps catalogue order for every seed.  In the exact ring
all moduli of a spec share one series, so the order moves its cost a lot:
over seeds 1-40, the quartile spread of the modelled build cost (the sum
of order**1.3 over the builds) was 12% of its median, against 7% for
catalogue-mod.  Catalogue order is also the one with the most rebuilds.

Building a workload (``build``) is set-up.  ``Workload.run`` is the timed
part: the calls into qcong a CLI user would make, returning one outcome per
operation.  Outcomes are plain JSON values, so they can be pinned.
"""

from __future__ import annotations

import random
import sys
import traceback
from dataclasses import dataclass
from typing import Callable

from qcong import catalogue, claims, derivations, dissect, oracle
from qcong.etaq import BiregularSpec

#: catalogue-exact takes the claims that need no coefficient beyond this
EXACT_MAX_INDEX = 2500
IDENTITY_ORDER = 500
LEMMA_ORDER = 300
LEMMA_GRID = tuple((p, k, m) for p in (2, 3, 5) for k in (1, 2, 3) for m in (1, 2, 3))
#: the default specs of scripts/search_congruences.py
SEARCH_SPECS = ((2, 9), (5, 2), (5, 4), (8, 3), (4, 9), (3, 4), (5, 8))
SEARCH_A_MAX = 16
SEARCH_MODULI = (3, 4, 8)
SEARCH_N_MAX = 120
ORACLE_N_MAX = 160


@dataclass
class Workload:
    name: str
    ops: int
    run: Callable[[], dict]


def _ordered(items, seed: int) -> list:
    items = list(items)
    if seed != 0:
        random.Random(seed).shuffle(items)
    return items


def _error(exc: Exception) -> dict:
    traceback.print_exc(file=sys.stderr)
    return {"error": f"{type(exc).__name__}: {exc}"}


def _report_outcome(report) -> list:
    counter = list(report.counterexample) if report.counterexample else None
    return [report.status, counter]


def _check_outcome(result) -> list:
    return [result.ok, result.index]


def _catalogue(name: str, exact: bool, seed: int) -> Workload:
    chosen = catalogue.builtin_catalogue()
    if exact:
        chosen = [c for c in chosen if c.max_index() <= EXACT_MAX_INDEX]
    else:
        chosen = _ordered(chosen, seed)

    def run() -> dict:
        try:
            reports = claims.run_catalogue(chosen, exact=exact)
        except Exception as exc:
            return {"run_catalogue": _error(exc)}
        return {r.claim_id: _report_outcome(r) for r in reports}

    return Workload(name, len(chosen), run)


def _each(calls: list[tuple[str, Callable]]) -> dict:
    outcomes = {}
    for op_id, call in calls:
        try:
            outcomes[op_id] = call()
        except Exception as exc:
            outcomes[op_id] = _error(exc)
    return outcomes


def _dissection_replay(seed: int) -> Workload:
    records = _ordered(derivations.all_derivations(), seed)
    identities = _ordered(dissect.load_catalogue().values(), seed)
    lemmas = _ordered(LEMMA_GRID, seed)
    calls = (
        [(f"derivation:{d.id}",
          lambda d=d: _check_outcome(derivations.verify_derivation(d)))
         for d in records]
        + [(f"identity:{i.id}",
            lambda i=i: _check_outcome(dissect.verify_identity(i, IDENTITY_ORDER)))
           for i in identities]
        + [(f"lemma:p{p}k{k}m{m}",
            lambda p=p, k=k, m=m: _check_outcome(
                dissect.verify_lemma_2_9(p, k, m, LEMMA_ORDER)))
           for p, k, m in lemmas]
    )
    return Workload("dissection-replay", len(calls), lambda: _each(calls))


def _search_oracle(seed: int) -> Workload:
    specs = [BiregularSpec(*pair) for pair in SEARCH_SPECS]

    def search(spec):
        hits = claims.search_congruences(spec, SEARCH_A_MAX, SEARCH_MODULI, SEARCH_N_MAX)
        return [[h.a, h.b, h.modulus, h.n_checked, h.known] for h in hits]

    def compare(spec):
        result = oracle.compare_series_vs_oracle(spec, ORACLE_N_MAX)
        return [result.ok, [list(m) for m in result.mismatches]]

    specs = _ordered(specs, seed)
    calls = ([(f"search:{s}", lambda s=s: search(s)) for s in specs]
             + [(f"oracle:{s}", lambda s=s: compare(s)) for s in specs])
    return Workload("search-oracle", len(calls), lambda: _each(calls))


def build(name: str, seed: int) -> Workload:
    """Set up workload ``name``; its inputs depend only on ``seed``."""
    if name == "catalogue-mod":
        return _catalogue(name, False, seed)
    if name == "catalogue-exact":
        return _catalogue(name, True, seed)
    if name == "dissection-replay":
        return _dissection_replay(seed)
    if name == "search-oracle":
        return _search_oracle(seed)
    raise ValueError(f"unknown workload {name!r}")
