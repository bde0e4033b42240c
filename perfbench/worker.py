"""One cold pass of one workload, in a fresh interpreter.

Started by ``run.py``; prints one JSON object on its last stdout line.
``--t0`` is the ``time.monotonic()`` reading the parent took just before
starting this process, so ``setup_s`` covers interpreter start, the import
of qcong and building the workload's inputs.  ``wall_s`` runs from the
first call into qcong to the last verdict.  With ``--setup-only`` the pass
stops after set-up.

An untraced pass also measures the host's speed while the workload runs
(``SpeedSampler``).  Its ``wall_s`` then excludes the sampler's own time,
and ``wall_norm_s`` is that ``wall_s`` scaled to a host running at the
reference speed.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: wall time between two speed samples
SAMPLE_EVERY_S = 0.05
#: the time of one sample at the reference speed: the fast state of a
#: 2-vCPU Xeon (Sapphire Rapids) VM, with Python 3.11.7
SAMPLE_REF_S = 0.0011


class SpeedSampler:
    """Times a fixed pure-Python kernel every ``SAMPLE_EVERY_S`` of wall time,
    from a SIGALRM handler, while the code in its ``with`` block runs.

    The kernel does not touch qcong, so its time depends only on how fast
    the host runs this process at that moment.  A signal that arrives
    during a long call into C (a big integer product) is handled when the
    call returns, so such calls are sampled at their end.
    """

    def __init__(self) -> None:
        self.times: list[float] = []

    def _sample(self, signum, frame) -> None:
        began = time.perf_counter()
        table, acc = {}, 0
        for i in range(6000):
            table[i & 255] = table.get(i & 255, 0) + i
            acc += i * i % 7
        self.times.append(time.perf_counter() - began)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def speed(self) -> float:
        """The host's mean speed over the block, relative to the reference."""
        return statistics.fmean(SAMPLE_REF_S / t for t in self.times)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, help="write the trace's spans here")
    args = parser.parse_args()

    import workloads

    workload = workloads.build(args.workload, args.seed)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    if tracer is None:
        with SpeedSampler() as sampler:
            outcomes = workload.run()
        wall_s = time.perf_counter() - start - sum(sampler.times)
    else:
        outcomes = workload.run()
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    if tracer is None:
        result.update(speed=sampler.speed(), wall_norm_s=wall_s * sampler.speed())
    else:
        tracer.restore()
        result["layers"] = layer_metrics(tracer.spans)
        result["missing"] = tracer.missing
        if args.spans:
            tracer.write(args.spans)

    import gate

    result.update(
        ops=workload.ops,
        failed=sorted(gate.failures(args.workload, outcomes, gate.load())),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
