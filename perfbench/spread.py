"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

Run from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--repeat N] [--write]

For each workload it makes ``--repeat`` benchmark runs per seed, in turn,
and prints for every end-to-end metric the median of the runs and the
distance between their first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``).  Seeds 1-10, one run each, is how
the benchmark's bounds are checked; since the seed sets the input order,
that spread holds noise and order together.  ``--seeds 1 --repeat 10``
isolates the noise.  A spread is flagged, and the exit code is 1, when it
is not below a third of the metric's bound in ``BENCHMARK.json``.  With
``--write`` the figures, the Python version, the platform and the CPU
count are stored in ``baseline.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"

#: work that the benchmark cannot time from outside the program
LATER = [
    "in-program spans, splitting Kronecker multiplication into pack, "
    "big-int multiply and unpack",
    "a `qcong verify-all --stats` view of the same counters",
    "JSON report schema v2: an engine block and per-claim build/check times",
]


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--write", action="store_true", help="store baseline.json")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    reference = json.loads((HERE / "reference.json").read_text())

    seeds = [seed for seed in _seeds(args.seeds) for _ in range(args.repeat)]
    figures, steady = {}, True
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"])],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: gate failed\n{proc.stdout}", file=sys.stderr)
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        figures[name] = {"ops_per_pass": reference["workloads"][name]["ops"], "metrics": {}}
        for metric, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            flag = "" if share < bounds[metric] / 3 else "  <- not below a third of its bound"
            steady = steady and not flag
            print(f"{name:18s} {metric:12s} median {median:9.4f}  spread {share:.3f}"
                  f"  (bound {bounds[metric]}){flag}\n    runs: "
                  + " ".join(f"{v:.4g}" for v in vals))
            figures[name]["metrics"][metric] = {
                "median": median, "q1": q1, "q3": q3, "spread": share, "runs": vals}
    if args.write:
        BASELINE.write_text(json.dumps({
            "python": platform.python_version(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "run_seconds": spec["run_seconds"],
            "seeds": seeds,
            "workloads": figures,
            "later": LATER,
        }, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
