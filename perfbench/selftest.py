"""Self-test of the benchmark.  Run from the root of a crlie checkout:

    python3 perfbench/selftest.py

For each workload it runs the traced body twice, under two different
PYTHONHASHSEED values, and requires the exact counts (every ``.calls``
metric and ``painted.good_ratio``) to repeat.  For family-queries it also
requires two seeds to draw different query sets that both pass their
verdict checks.  It takes several minutes: the bodies run at full size.
"""

from __future__ import annotations

import os
import sys
import time

import run
from workloads import WORKLOADS, family_queries


def counts(result: dict) -> dict:
    metrics = run.per_layer(result["trace"], 1.0, 0.0)
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}


def check(ok: bool, what: str, failures: list[str]) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def main() -> int:
    run.check_checkout()
    sys.path.insert(0, str(run.SRC))
    failures: list[str] = []
    for name in WORKLOADS:
        queries = family_queries(run.DATA, 1) if name == "family-queries" else []
        job = {"workload": name, "queries": queries, "trace": True}
        deadline = time.perf_counter() + 2 * run.DEADLINE_S
        results = [run.child("run", job, deadline, dict(os.environ, PYTHONHASHSEED=h))[1]
                   for h in ("1", "2")]
        for r in results:
            check(r["wrong"] == 0, f"{name}: traced run passes its golden checks "
                  f"({r['attempted']} attempted, {r['raised']} raised)", failures)
        a, b = (counts(r) for r in results)
        diff = sorted(k for k in a if a[k] != b[k])
        check(not diff, f"{name}: counts repeat across hash seeds {diff or ''}", failures)
        if name == "family-queries":
            other = family_queries(run.DATA, 2)
            check(other != queries, "family-queries: seeds 1 and 2 draw different queries",
                  failures)
            r = run.child("run", {"workload": name, "queries": other, "trace": False},
                          time.perf_counter() + run.DEADLINE_S)[1]
            check(r["wrong"] == 0, f"family-queries: seed 2 passes its verdict checks "
                  f"({r['attempted']} attempted, {r['raised']} raised)", failures)
    print("selftest:", "FAILED " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
