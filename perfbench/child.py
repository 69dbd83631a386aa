"""One fresh interpreter: import crlie cold, then (for ``run``) one workload body.

    python3 perfbench/child.py setup CPU      # import only
    python3 perfbench/child.py run CPU < job.json

It pins itself to CPU before it imports anything.

Prints one JSON line: ``import_done`` (perf_counter after the imports; on
Linux that clock is shared by all processes, so the parent can subtract
its launch time), the speed probe's samples, and for ``run`` the body's
result, peak RSS and trace.
"""

import os
import sys

CHECKOUT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

import probe  # noqa: E402

SAMPLER = probe.start(int(sys.argv[2]))
sys.path.insert(0, os.path.join(CHECKOUT, "src"))

import crlie  # noqa: E402
import crlie.classify  # noqa: E402
import crlie.cli  # noqa: E402
import time  # noqa: E402

IMPORT_DONE = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def main(mode: str) -> int:
    src = Path(CHECKOUT, "src").resolve()
    if src not in Path(crlie.__file__).resolve().parents:
        sys.stderr.write(f"crlie was imported from {crlie.__file__}, not from {src}\n")
        return 2
    out = {"import_done": IMPORT_DONE}
    if mode == "run":
        from workloads import run_body

        job = json.load(sys.stdin)
        tracer = None
        if job["trace"]:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        out.update(run_body(crlie.cli, job["workload"], src / "crlie" / "data", job["queries"]))
        if tracer is not None:
            out["trace"] = tracer.summary()
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["samples"] = SAMPLER.stop()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
