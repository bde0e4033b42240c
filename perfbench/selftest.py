"""Self-test of the benchmark and its correctness gate.

Run from the repository root as ``python3 perfbench/selftest.py`` (about a
minute on two cores).  It checks that

1. ``BENCHMARK.json`` names exactly the metrics ``run.py`` reports;
2. the gate's rules flag a refuted statement reported as passing, a
   registry statement that no longer fails, and a missing operation;
3. the tracer reports the boundaries it cannot wrap, counts a build
   anywhere under the claim runner as a claims build, and keys the needed
   orders by (spec, modulus);
4. an untouched run of every workload passes the gate (``ops_failed == 0``,
   exit code 0), and a traced run reports every per-layer metric;
5. a copy of the checkout with a tampered ``reference.json`` yields
   ``ops_failed > 0`` and a non-zero exit;
6. in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import tracer  # noqa: E402
from run import END_TO_END, OUT, PER_LAYER, WORKLOADS  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def copy_checkout(dest: Path, with_source: bool) -> None:
    """Copy what the benchmark needs into ``dest``, qcong's source or not."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=skip)
    if with_source:
        shutil.copytree(ROOT / "src", dest / "src", ignore=skip)


def check_tracer() -> None:
    owner = type("Layer", (), {"cached": staticmethod(len)})  # no lru_cache
    t = tracer.Tracer()
    t.wrap(owner, "gone", "gone")
    t.wrap(owner, "cached", "cached", cached=True)
    t.restore()
    check(t.missing == ["Layer.gone", "Layer.cached.cache_info"],
          "the tracer lists a missing attribute and a missing cache_info")

    def span(name, parent, start, end, attrs=None):
        return [name, start, end, parent, attrs, True]

    # two builds under the runner itself, of one spec in two rings, each
    # built once to the order it needs
    spans = [span("claims.run_catalogue", -1, 0.0, 3.0),
             span("etaq.biregular_gf", 0, 0.0, 1.0, ["(2,9)", 100, 3]),
             span("etaq.biregular_gf", 0, 1.0, 2.5, ["(2,9)", 50, 8]),
             span("claims.verify_claim", 0, 2.5, 3.0)]
    m = tracer.layer_metrics(spans)
    check(m["claims.series_builds"] == 2 and m["claims.build_s"] == 2.5
          and m["claims.check_s"] == 0.5 and m["claims.build_useful_ratio"] == 1.0,
          "builds under run_catalogue count as claims builds, per (spec, modulus)")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json lists the end-to-end metrics run.py reports")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
          "BENCHMARK.json lists the per-layer metrics run.py reports")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json lists the four workloads")

    reference = gate.load()
    claim = reference["known_failing"][0]
    record = reference["refuted"][0]
    check(gate.rule_failures("catalogue-mod", {claim: ["pass", None]}, reference)
          == {claim}, "a refuted claim reported as passing fails the gate")
    check(gate.rule_failures("catalogue-mod", {"prop3.1a": ["fail", [0, 1]]}, reference)
          == {"prop3.1a"}, "a claim outside KNOWN_FAILING that fails fails the gate")
    check(gate.rule_failures("dissection-replay", {f"derivation:{record}": [True, None]},
                             reference) == {f"derivation:{record}"},
          "a refuted derivation record reported as passing fails the gate")
    pinned = reference["workloads"]["search-oracle"]["outcomes"]
    partial = dict(list(pinned.items())[1:])
    check(gate.failures("search-oracle", partial, reference) == {next(iter(pinned))},
          "a missing operation fails the gate")

    check_tracer()

    for name in WORKLOADS:
        code, result = bench("--workload", name)
        check(code == 0 and result is not None and result["correct"]
              and result["failed"] == 0 and result["attempted"] > 0
              and set(result["metrics"]) == set(END_TO_END),
              f"untouched {name}: ops_failed == 0, exit 0, every end-to-end metric")
    code, result = bench("--workload", "dissection-replay", "--trace", "1")
    check(code == 0 and result is not None and set(result["metrics"]) == set(PER_LAYER),
          "traced run reports every per-layer metric")

    tampered = OUT / "tampered"
    copy_checkout(tampered, with_source=True)
    changed = json.loads(json.dumps(reference))
    outcomes = changed["workloads"]["dissection-replay"]["outcomes"]
    outcomes["derivation:eq11a"] = [False, 0]
    outcomes = changed["workloads"]["catalogue-exact"]["outcomes"]
    outcomes["prop3.1a"] = ["fail", [0, 1]]
    (tampered / "perfbench" / "reference.json").write_text(json.dumps(changed))
    for name in ("dissection-replay", "catalogue-exact"):
        code, result = bench("--workload", name, cwd=tampered)
        check(code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0,
              f"tampered reference on {name}: ops_failed > 0, non-zero exit")
    shutil.rmtree(tampered)

    bare = OUT / "bare"
    copy_checkout(bare, with_source=False)
    code, result = bench("--workload", "catalogue-mod", cwd=bare)
    shutil.rmtree(bare)
    check(code != 0 and result is None,
          "without qcong's source: non-zero exit and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
