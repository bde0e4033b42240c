"""qcong benchmark: four cold workloads, a correctness gate, a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see ``workloads.py``): catalogue-mod, catalogue-exact,
dissection-replay, search-oracle.

Every pass of a workload runs cold, in a fresh single-threaded interpreter
(``worker.py``), one pass at a time.  Passes repeat while another one is
expected to end within ``--seconds``, and at least ``MIN_PASSES`` times.
Every pass of a run feeds its inputs in the order drawn from the seed;
seed 0 (the default) keeps the program's own order.  The order sets how
often the claim runner rebuilds a series deeper, so regression bounds
apply per seed: compare runs made with the same seeds.  Set-up is also
timed in set-up-only passes between the full passes, so that the run has
at least ``MIN_SETUPS`` set-up samples spread evenly over its time.

``--trace 0`` reports the end-to-end metrics:

* ``wall_norm_s``: first call into qcong to last verdict, set-up excluded,
  at the reference host speed; the median over the run's passes.  While a
  pass runs, a sampler in its process (``worker.SpeedSampler``) times a
  fixed pure-Python kernel twenty times a second.  The pass's wall time,
  less the sampler's own time (2-4% of it), is multiplied by the host's
  mean speed over the samples, relative to ``worker.SAMPLE_REF_S``;
* ``setup_s``: interpreter start, ``import qcong`` and building the inputs;
  the median of the run's set-up samples, not scaled;
* ``peak_rss_mb``: peak resident set size of the pass's process; the
  median over the run's passes.

The unscaled ``wall_s`` and the host speed of each pass are printed above
the result line.  Wall time is scaled because the host's speed is not steady:
on a shared 2-vCPU VM, the kernel ran in a fast and a slow state (about
1.5 times slower), switching within seconds, in proportions that drifted
over minutes.  Identical passes of catalogue-exact spread by 0.27 of their
median in raw wall time and by 0.02 once scaled (12 passes, quartile
spread); over ten 30-second runs, the quartile spread of each run's
fastest pass was a third to a half of its median.  The kernel does not touch qcong, so a change
to qcong moves ``wall_norm_s`` only through its own time.

``--trace 1`` alternates untraced and traced passes over the same inputs
and reports the per-layer metrics of ``tracer.py`` (medians over traced
passes), ``trace.wall_s`` (the fastest traced pass) and
``trace.overhead_s`` (``trace.wall_s`` minus the fastest untraced pass;
both are wall times, not scaled, and the untraced ones exclude the
sampler's time).  The spans of
the last traced pass are written to ``.perfbench/spans-<workload>.jsonl``.
A traced run fails if the tracer could not wrap every layer boundary it
names, since the metrics of a missing boundary would read 0.

Every pass is checked against ``reference.json`` (see ``gate.py``).  The
last stdout line is one JSON object with the keys ``correct``,
``attempted`` (operations over all passes), ``failed`` (operations that
failed the gate, over all passes) and ``metrics``.  The exit code is 0 when
every operation passed the gate, 1 when one did not, a pass crashed or a
traced run missed a boundary, and 2 when the checkout has no qcong source
to run.

Beside this file: ``pin.py`` writes the reference, ``selftest.py`` tests
the gate, and ``spread.py`` measures run-to-run spread and writes the
baseline (``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from tracer import LAYER_METRICS  # noqa: E402

WORKLOADS = ("catalogue-mod", "catalogue-exact", "dissection-replay", "search-oracle")
MIN_PASSES = 2
#: set-up samples per run, spread evenly over the run's time
MIN_SETUPS = 40
#: every pass must have ended this many seconds after the run started
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**LAYER_METRICS, "trace.wall_s": "s", "trace.overhead_s": "s"}


class PassFailed(Exception):
    pass


def _pass(args, rep: int, deadline: float, trace: int = 0,
          setup_only: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{args.workload}.jsonl")]
    # set-up should not depend on the caller's environment: fix hashing, and
    # let qcong's bytecode be cached so that passes after the first reuse it
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True,
                              text=True, env=env, cwd=ROOT,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {rep} exceeded the run budget") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {rep} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _passes(args, start: float, deadline: float, make, minimum: int) -> list:
    """Call ``make(rep)`` at least ``minimum`` times, and again while the
    call, if it takes as long as the longest so far, ends within
    ``--seconds``; never start one that might overrun the run budget."""
    out, longest = [], 0.0
    while True:
        began = time.monotonic()
        if out and (began + longest > deadline or (
                len(out) >= minimum and began + longest - start > args.seconds)):
            break
        out.append(make(len(out)))
        longest = max(longest, time.monotonic() - began)
    return out


def _median(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure(args) -> tuple[list, dict]:
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    if not args.trace:
        setups = []

        def setup_passes(share: float) -> None:
            while len(setups) < MIN_SETUPS * share:
                setups.append(_pass(args, len(setups), deadline, setup_only=True)["setup_s"])

        def full_pass(rep: int) -> dict:
            run = _pass(args, rep, deadline)
            setups.append(run["setup_s"])
            setup_passes(min((time.monotonic() - start) / max(args.seconds, 1e-9), 1.0))
            return run

        runs = _passes(args, start, deadline, full_pass, MIN_PASSES)
        setup_passes(1.0)
        return runs, {
            "wall_norm_s": _median(runs, "wall_norm_s"),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": _median(runs, "peak_rss_mb"),
        }
    pairs = _passes(args, start, deadline, lambda rep: (
        _pass(args, rep, deadline), _pass(args, rep, deadline, trace=1)), 1)
    traced = [t for _, t in pairs]
    metrics = {name: statistics.median(t["layers"][name] for t in traced)
               for name in LAYER_METRICS}
    metrics["trace.wall_s"] = min(t["wall_s"] for t in traced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - min(u["wall_s"] for u, _ in pairs)
    return [r for pair in pairs for r in pair], metrics


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running pass
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "qcong" / "__init__.py").is_file():
        print(f"no qcong source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        runs, metrics = measure(args)
    except PassFailed as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1

    missing = sorted({a for r in runs for a in r.get("missing", ())})
    if missing:
        print("benchmark aborted: the tracer could not wrap " + ", ".join(missing)
              + "; update perfbench/tracer.py to the program's layer boundaries",
              file=sys.stderr)
        return 1

    failed = sum(len(r["failed"]) for r in runs)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload={args.workload} seed={args.seed} passes={len(runs)} "
          f"ops={runs[0]['ops']} ops_failed={failed}")
    print("  wall_s per pass: " + " ".join(f"{r['wall_s']:.4g}" for r in runs))
    if not args.trace:
        print("  host speed per pass: " + " ".join(f"{r['speed']:.3f}" for r in runs))
    for r in runs:
        if r["failed"]:
            print(f"  failed: {', '.join(r['failed'])}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["ops"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
