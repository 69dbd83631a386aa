"""Cold-process benchmark of crlie's scans and family queries.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a crlie checkout.  Every body runs in a fresh
interpreter (perfbench/child.py), because a user of the ``crlie`` command
pays for cold module caches on every call.  The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, which
are the end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Times are seconds at the reference speed of
perfbench/probe.py, which samples inside every measured process; the raw
wall times go to stderr.  The exit code is 0 only when every golden and
verdict check held.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
DATA = SRC / "crlie" / "data"
SPANS_DIR = HERE / "out"  # the traced run's span edges, one file per run
FIXTURES = ("primitive.json", "nonprimitive.json", "table1.json", "table2.json", "table3.json")

sys.path.insert(0, str(HERE))
from probe import REFERENCE_S  # noqa: E402
from spans import COUNTED, LAYERS  # noqa: E402
from workloads import WORKLOADS, family_queries  # noqa: E402

SETUP_LAUNCHES = 11
# A run ends before this many seconds, inside the 180 s a run may take.
DEADLINE_S = 170.0
# Probe samples this close to an operation count towards its speed.
PROBE_WINDOW_S = 0.25


class BenchError(Exception):
    """The run cannot produce a result."""


def check_checkout() -> None:
    missing = [p for p in [SRC / "crlie" / "__init__.py"] + [DATA / f for f in FIXTURES]
               if not p.is_file()]
    if missing:
        raise BenchError(f"not a crlie checkout, missing {missing[0]}")


def child(mode: str, job: dict | None, deadline: float, env=None,
          cpu: int | None = None) -> tuple[float, dict]:
    """Launch one fresh interpreter, pinned to ``cpu`` (default: the lowest
    this process may use); (launch time, its JSON result)."""
    if cpu is None:
        cpu = min(os.sched_getaffinity(0))
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before the run finished")
    launched = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(cpu)],
            input=json.dumps(job) if job is not None else "",
            capture_output=True, text=True, timeout=timeout, cwd=CHECKOUT, env=env,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded the run's {DEADLINE_S:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def scaled(samples: list, start: float, end: float, seconds: float) -> float:
    """``seconds`` spent in [start, end], converted to the reference speed
    by the speed probe's samples taken within PROBE_WINDOW_S of it."""
    near = [cpu for mid, cpu in samples if start - PROBE_WINDOW_S <= mid <= end + PROBE_WINDOW_S]
    if not near:
        if not samples:
            raise BenchError("the speed probe recorded no samples")
        near = [min(samples, key=lambda s: abs(s[0] - (start + end) / 2))[1]]
    return seconds * statistics.mean(REFERENCE_S / cpu for cpu in near)


def measure_setup(deadline: float) -> float:
    """Median time from launch until crlie, crlie.cli and crlie.classify
    are imported, after one untimed launch that compiles the bytecode."""
    child("setup", None, deadline)
    times = []
    for _ in range(SETUP_LAUNCHES):
        launched, out = child("setup", None, deadline)
        done = out["import_done"]
        times.append(scaled(out["samples"], launched, done, done - launched))
    return statistics.median(times)


def percentile(values: list[float], p: float) -> float:
    """Percentile interpolated linearly between the closest ranks, so that
    the p50 of a run's bodies is their median however many ran."""
    ordered = sorted(values)
    pos = p * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (pos - lo) * (ordered[hi] - ordered[lo])


def wall_s(result: dict) -> float:
    return sum(end - start for start, end, _cpu in result["ops"])


def op_times(result: dict) -> list[float]:
    return [scaled(result["samples"], *op) for op in result["ops"]]


def end_to_end(results: list[dict], setup_s: float, per_op: bool) -> dict:
    """End-to-end metrics.  A query is one operation when ``per_op`` (a
    family query), else one whole body (a scan, or the four tables)."""
    bodies = [op_times(r) for r in results]
    latencies = [t for b in bodies for t in b] if per_op else [sum(b) for b in bodies]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["raised"] + r["wrong"] for r in results)
    return {
        "scan_s": (statistics.median(sum(b) for b in bodies), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r["rss_mb"] for r in results), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "query_p50_ms": (1000 * percentile(latencies, 0.5), "ms"),
        "query_p90_ms": (1000 * percentile(latencies, 0.9), "ms"),
    }


def per_layer(trace: dict, scale: float, overhead_s: float) -> dict:
    """Per-layer metrics; ``scale`` converts the traced body's wall seconds
    (which the tracer's spans measure) to seconds at the reference speed."""
    metrics = {f"{layer}.self_s": (scale * trace["self_s"][layer], "s") for layer in LAYERS}
    metrics.update({f"{layer}.calls": (trace["calls"][layer], "count") for layer in COUNTED})
    good_calls = trace["calls"]["painted.is_good"]
    metrics["painted.good_ratio"] = (
        trace["graphs_returned"] / good_calls if good_calls else 0.0, "ratio")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    try:
        check_checkout()
        sys.path.insert(0, str(SRC))
        queries = family_queries(DATA, args.seed) if args.workload == "family-queries" else []
        job = {"workload": args.workload, "queries": queries, "trace": False}
        if args.trace:
            # the untraced body only gives trace.overhead_s, so it runs beside
            # the traced one on another CPU when there is one; each body's
            # times are scaled by the probe on its own CPU
            cpus = sorted(os.sched_getaffinity(0))
            runs = [(job, cpus[-1]), (dict(job, trace=True), cpus[0])]
            with ThreadPoolExecutor(max_workers=min(2, len(cpus))) as pool:
                results = list(pool.map(
                    lambda r: child("run", r[0], deadline, cpu=r[1])[1], runs))
            plain, traced = results
            traced_s = sum(op_times(traced))
            metrics = per_layer(traced["trace"], traced_s / wall_s(traced),
                                traced_s - sum(op_times(plain)))
            SPANS_DIR.mkdir(exist_ok=True)
            (SPANS_DIR / f"{args.workload}-seed{args.seed}.json").write_text(
                json.dumps(traced["trace"], indent=1) + "\n")
        else:
            setup_s = measure_setup(deadline)
            # closed loop of fresh processes until the next one would overrun
            results, start = [], time.perf_counter()
            while not results or (time.perf_counter() - start
                                  + statistics.median(wall_s(r) for r in results)
                                  <= args.seconds):
                results.append(child("run", job, deadline)[1])
            metrics = end_to_end(results, setup_s, args.workload == "family-queries")
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    wrong = 0
    for r in results:
        wrong += r["wrong"]
        for msg in r["errors"]:
            sys.stderr.write(f"perfbench: {args.workload}: {msg}\n")
    sys.stderr.write(f"perfbench: {args.workload}: wall seconds of each body "
                     f"{[round(wall_s(r), 4) for r in results]}\n")
    summary = {
        "correct": wrong == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["raised"] + r["wrong"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
