"""Write ``reference.json``: the pinned outcome of every benchmark operation.

Run from the repository root as ``python3 perfbench/pin.py``.  It runs each
workload once in catalogue order and refuses to pin unless the outcomes
hold up on their own: the failing claims are exactly
``catalogue.KNOWN_FAILING``, the failing derivation records exactly
``derivations.REFUTED``, every identity, lemma instance and oracle
comparison passes, and the exact ring agrees with the mod-m ring on every
claim of catalogue-exact.  catalogue-exact is pinned to the mod-m outcomes.
Re-pin only when the program's answers are meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from qcong import catalogue, derivations  # noqa: E402
from run import WORKLOADS  # noqa: E402


def main() -> int:
    outcomes = {}
    for name in WORKLOADS:
        workload = workloads.build(name, 0)
        outcomes[name] = workload.run()
        print(f"{name}: {workload.ops} ops", file=sys.stderr)

    mod = outcomes["catalogue-mod"]
    exact = outcomes["catalogue-exact"]
    outcomes["catalogue-exact"] = {op: mod[op] for op in exact}
    reference = {
        "known_failing": sorted(catalogue.KNOWN_FAILING),
        "refuted": sorted(derivations.REFUTED),
        "workloads": {
            name: {"ops": len(got), "digest": gate.digest(got), "outcomes": got}
            for name, got in outcomes.items()
        },
    }
    problems = [f"exact/mod disagree on {op}" for op in exact if exact[op] != mod[op]]
    for name, got in outcomes.items():
        problems += [f"{name}: {op}" for op in sorted(
            gate.rule_failures(name, got, reference))]
    if problems:
        print("\n".join(["not pinned:"] + problems), file=sys.stderr)
        return 1
    gate.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {gate.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
