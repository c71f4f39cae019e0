"""One workload in one fresh process; prints its results as one JSON line.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --setup-only

Set-up is the import of raneyseq plus the workload's warm-up (such as
filling the tree cache); input generation and reference answers are
excluded.  The work of a run is fixed by --seconds: that many seconds'
worth of rounds at the workload's nominal round time (measured at the
seed commit on a 2-vCPU Xeon with Python 3.11), and at least one round,
so both sides of a comparison run the same operations on the same
inputs.  The measured time is the sum of the operations' durations.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SPANS_DIR = os.path.join(os.path.dirname(HERE), ".bench_spans")


def set_up(workload: str) -> tuple[type, float]:
    """Import the library and warm up; returns the workload class and the
    set-up time in seconds."""
    sys.path.insert(0, SRC)
    start = perf_counter()
    import raneyseq.cli  # noqa: F401  (imports every module)
    imported = perf_counter()
    if not os.path.abspath(raneyseq.__file__).startswith(SRC + os.sep):
        raise ImportError(f"raneyseq came from {raneyseq.__file__}, not {SRC}")
    import workloads
    cls = workloads.WORKLOADS[workload]
    warm_start = perf_counter()
    cls.warm_up()
    return cls, (imported - start) + (perf_counter() - warm_start)


def execute(op, tracer=None) -> dict:
    """Run one operation, with spans recorded if a tracer is given.  A
    failure is recorded and does not stop the run."""
    start = perf_counter()
    if tracer:
        tracer.enabled = True
    try:
        result = op.run()
        status, why = "ok", None
    except (Exception, SystemExit) as exc:  # the loop must keep running
        status, why = "failed", f"{type(exc).__name__}: {exc}"[:240]
    finally:
        if tracer:
            tracer.enabled = False
    seconds = perf_counter() - start
    if status == "ok":
        why = op.check(result)
        status = "wrong" if why else "ok"
    return {"label": op.label, "group": op.group, "objects": op.objects,
            "seconds": seconds, "status": status, "why": why}


def run_round(index: int, ops, tracer=None) -> list[dict]:
    """A closed loop over one round: each operation starts when the
    previous one returns, after a collection that leaves every round the
    same garbage to start from."""
    gc.collect()
    return [dict(execute(op, tracer), round=index) for op in ops]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cls, setup_s = set_up(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    wl = cls(args.seed)
    rounds = max(1, round(args.seconds / cls.ROUND_SECONDS))
    out = {"setup_s": setup_s, "latency_unit": cls.LATENCY_UNIT}
    if args.trace:
        import tracing
        plan = [wl.round(i) for i in range(rounds)] + [wl.probes()]
        untraced = [r for i, ops in enumerate(plan) for r in run_round(i, ops)]
        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            traced = [r for i, ops in enumerate(plan)
                      for r in run_round(i, ops, tracer)]
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"{args.workload}.spans"))
        n_ops = len(untraced) - len(plan[-1])
        out.update(records=untraced[:n_ops], probes=untraced[n_ops:],
                   traced=traced, layers=tracer.summary())
    else:
        out["records"] = [r for i in range(rounds)
                          for r in run_round(i, wl.round(i))]
        out["probes"] = run_round(rounds, wl.probes())
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
