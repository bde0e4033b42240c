"""Correctness gate: compare a run's outcomes with the pinned reference.

``reference.json`` pins, per workload, the outcome of every operation and
a SHA-256 digest of the whole outcome set (timings are never part of an
outcome).  It also pins the registries of refuted statements as they
stood when it was written.  An operation fails the gate when

* its outcome differs from the pinned one, or it raised, or it is missing;
* its status contradicts the program's registry of refuted statements
  (``catalogue.KNOWN_FAILING`` for claims, ``derivations.REFUTED`` for
  records; the pinned copies stand in if the program no longer has them);
* an identity, lemma instance or oracle comparison did not pass.

catalogue-exact is pinned to the mod-m outcomes of the same claims (see
``pin.py``), so an exact-ring verdict that differs from its mod-m
counterpart fails the gate.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def digest(outcomes: dict) -> str:
    text = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load() -> dict:
    return json.loads(REFERENCE.read_text())


def rule_failures(name: str, outcomes: dict, reference: dict) -> set[str]:
    """Op ids whose outcome breaks a rule that holds without the pin."""
    from qcong import catalogue, derivations

    known_failing = set(getattr(catalogue, "KNOWN_FAILING", reference["known_failing"]))
    refuted = set(getattr(derivations, "REFUTED", reference["refuted"]))
    bad = set()
    for op_id, outcome in outcomes.items():
        if isinstance(outcome, dict):  # the call raised
            bad.add(op_id)
        elif name.startswith("catalogue-"):
            if (outcome[0] == "fail") != (op_id in known_failing):
                bad.add(op_id)
        elif op_id.startswith("derivation:"):
            if outcome[0] == (op_id.split(":", 1)[1] in refuted):
                bad.add(op_id)
        elif op_id.split(":", 1)[0] in ("identity", "lemma", "oracle"):
            if outcome[0] is not True:
                bad.add(op_id)
    return bad


def failures(name: str, outcomes: dict, reference: dict) -> set[str]:
    """Every op id of workload ``name`` that fails the gate."""
    pinned = reference["workloads"][name]["outcomes"]
    bad = {op for op in pinned.keys() | outcomes.keys()
           if outcomes.get(op) != pinned.get(op)}
    return bad | rule_failures(name, outcomes, reference)
