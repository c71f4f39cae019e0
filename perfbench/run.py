"""raneyseq benchmark: one workload per call, from the repository root.

    python3 perfbench/run.py --workload cells --seed 1 --seconds 15 --trace 0

Workloads: cells, sample, stream, counts (see workloads.py).  With
--trace 0 it prints the end-to-end metrics; with --trace 1 a separate
traced run prints the per-layer metrics and the tracing overhead.  The
measurement runs in a fresh worker process, so peak memory and set-up
time belong to the workload; set-up is also timed in extra fresh
processes and the median is reported.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  "attempted"
and "failed" count the measured operations; probes of known defects
count toward error_rate only.  A wrong output from either makes
"correct" false.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "raneyseq")
WORKLOADS = ("cells", "sample", "stream", "counts")
SETUP_REPEATS = 8          # fresh processes that time set-up alone
RUN_LIMIT_S = 170          # the whole call must end within 180 s

sys.path.insert(0, HERE)
from tracing import NAMES, PROBED  # noqa: E402

LAYER_FIELDS = [("calls", "count"), ("objects", "count"), ("self_s", "s"),
                ("us_per_obj", "us")]


def spawn(args: list[str], deadline: float) -> dict:
    """Run worker.py with `args`; return the JSON of its last line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args], cwd=ROOT,
        capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout.splitlines()[-1])


def machine() -> dict:
    digest = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_sha": git_sha(),
            "src_sha256": digest.hexdigest()}


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree (the
    benchmark may run in an exported copy).  Git is kept from searching
    the directories above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def error_rate(records: list[dict], probes: list[dict]) -> float:
    everything = records + probes
    return sum(r["status"] != "ok" for r in everything) / len(everything)


def end_to_end(out: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    records, probes = out["records"], out["probes"]
    measured = sum(r["seconds"] for r in records)
    done = sum(r["objects"] for r in records if r["status"] == "ok")
    if out["latency_unit"] == "op":
        latency = [r["seconds"] for r in records]
    else:
        rounds: dict[int, float] = {}
        for r in records:
            rounds[r["round"]] = rounds.get(r["round"], 0.0) + r["seconds"]
        latency = list(rounds.values())
    p95 = percentile(latency, 95)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "objects_per_s": (done / measured, "1/s"),
        "latency_p50_ms": (statistics.median(latency) * 1e3, "ms"),
        "latency_p95_ms": (p95 * 1e3, "ms"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    by_group: dict[str, list[float]] = {}
    for r in records:
        by_group.setdefault(r["group"], []).append(r["seconds"])
    lines = [f"latency samples: {len(latency)} per {out['latency_unit']}, "
             f"{sum(x > p95 for x in latency)} beyond p95",
             f"measured: {measured:.3f} s over {len(records)} operations",
             f"setup_s samples: {', '.join(f'{x:.4f}' for x in setup_times)}"]
    lines += [f"{group} = {statistics.median(times):.4f} s (median of "
              f"{len(times)})" for group, times in sorted(by_group.items())]
    lines.append(f"error_rate = {error_rate(records, probes):.4f} "
                 f"(probes included: {len(records) + len(probes)} attempted)")
    return metrics, lines


def per_layer(out: dict) -> tuple[dict, list[str]]:
    layers = out["layers"]
    metrics = {}
    for name in NAMES:
        for field, unit in LAYER_FIELDS:
            metrics[f"{name}.{field}"] = (layers[name][field], unit)
        if name in PROBED:
            metrics[f"{name}.failures"] = (layers[name]["failures"], "count")
    metrics["exactmath.binomial.calls_per_raney"] = (
        layers["exactmath.binomial"]["calls_per_raney"], "count")
    metrics["verify.oracle_sequences.useful_ratio"] = (
        layers["verify.oracle_sequences"]["useful_ratio"], "ratio")

    traced = sum(r["seconds"] for r in out["traced"])
    untraced = sum(r["seconds"] for r in out["records"] + out["probes"])
    self_total = sum(row["self_s"] for row in layers.values())
    lines = [f"{'layer':<32}{'calls':>9}{'objects':>10}{'self_s':>10}"
             f"{'us/obj':>13}{'fail':>5}"]
    for name in NAMES:
        row = layers[name]
        if row["calls"]:
            lines.append(f"{name:<32}{row['calls']:>9}{row['objects']:>10}"
                         f"{row['self_s']:>10.4f}{row['us_per_obj']:>13.2f}"
                         f"{row['failures']:>5}")
    lines += [
        f"layer self time {self_total:.4f} s + unattributed "
        f"{traced - self_total:.4f} s = traced wall {traced:.4f} s",
        f"tracing overhead: traced {traced:.4f} s - untraced {untraced:.4f} s"
        f" = {traced - untraced:.4f} s ({(traced / untraced - 1) * 100:.1f}%)",
        f"error_rate = {error_rate(out['traced'], []):.4f} (traced pass, "
        f"probes included)"]
    return metrics, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print(f"error: no raneyseq sources at {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setup_times = [] if args.trace else [
            spawn(["--workload", args.workload, "--setup-only"],
                  deadline)["setup_s"] for _ in range(SETUP_REPEATS)]
        out = spawn(run_args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    n_ops = len(out["records"])
    traced = out.get("traced", [])
    op_passes = out["records"] + traced[:n_ops]
    probe_passes = out["probes"] + traced[n_ops:]
    ops = traced[:n_ops] if args.trace else out["records"]
    shown = traced if args.trace else out["records"] + out["probes"]
    if args.trace:
        metrics, lines = per_layer(out)
    else:
        metrics, lines = end_to_end(out, [out["setup_s"], *setup_times])

    print(f"# raneyseq benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine: " + json.dumps(machine()))
    for r in shown:
        if r["status"] != "ok":
            kind = "probe" if r["group"] == "probe" else "op"
            print(f"# {r['status'].upper()} {args.workload} {kind} "
                  f"{r['label']}: {r['why']}")
    for line in lines:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    failed = sum(r["status"] != "ok" for r in ops)
    correct = (all(r["status"] == "ok" for r in op_passes)
               and not any(r["status"] == "wrong" for r in probe_passes))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
