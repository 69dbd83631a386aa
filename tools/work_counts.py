#!/usr/bin/env python3
"""Print deterministic work counts of crlie's structure checks.

Two workloads run in one process, in this order, with stdout captured:
``classify --what primitive --max-rank 6`` (``primitive``), then every
``check --family`` command of ``tools/cli_digest.py``'s battery
(``family``).  For each, one line per count:

    python3 tools/work_counts.py
    python3 tools/work_counts.py --src /path/to/other/checkout/src
    python3 tools/work_counts.py --workload primitive

The counts are booked by wrapping crlie functions from outside, as
``perfbench/spans.py`` does; crlie is never edited, so the tool counts an
older checkout's work as well:

* ``twisted integrability checks``: ``check_integrability`` calls on a
  subspace with a twisted line, the ones that bracket lines;
* ``line pairs of those checks``: the pairs of lines of those subspaces;
* ``line pairs bracketed``: the pairs those checks bracket, one
  ``crstruct._reduce`` call each;
* ``bracket terms``: the root pairs of those brackets, one
  ``crstruct.add_product`` call each from ``check_integrability``;
* ``disjointness determinants``: the determinants ``check_disjointness``
  takes, one top-level ``crstruct._det_poly`` call each;
* ``normalizer bracket rows``: the ``crstruct._bracket_row`` calls of
  ``normalizer_excess``;
* ``normalizer general-path calls``: the ``crstruct._graded_w_and_perp``
  calls made from ``normalizer_excess``, the calls that count the excess
  rather than read it off standardness;
* ``structure rows``: the ``classify._structure_row`` calls, one per row
  of a ``check --family`` report that the report computes.

Every count repeats exactly between runs of the same tree.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("twisted integrability checks", "line pairs of those checks", "line pairs bracketed",
          "bracket terms", "disjointness determinants", "normalizer bracket rows",
          "normalizer general-path calls", "structure rows")
WORKLOADS = ("primitive", "family")
PRIMITIVE_ARGV = ["classify", "--what", "primitive", "--max-rank", "6", "--format", "json"]


def install(counts: Counter) -> None:
    """Wrap the counted functions of the loaded crlie modules, booking
    into counts for the rest of the process's life."""
    from crlie import classify, crstruct

    integrability = crstruct.check_integrability

    def checked(h):
        if any(h.lines.values()):
            n = len(h.lines)
            counts["twisted integrability checks"] += 1
            counts["line pairs of those checks"] += n * (n - 1) // 2
        return integrability(h)

    def booked(fn, name, caller=None):
        def wrapper(*args):
            if caller is None or sys._getframe(1).f_code is caller:
                counts[name] += 1
            return fn(*args)
        return wrapper

    def rebind(module, name, wrapper):
        orig = getattr(module, name)
        for mod in [m for n, m in sys.modules.items() if n.startswith("crlie.") and m]:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    code = integrability.__code__
    rebind(crstruct, "_reduce", booked(crstruct._reduce, "line pairs bracketed", code))
    rebind(crstruct, "add_product", booked(crstruct.add_product, "bracket terms", code))
    rebind(crstruct, "_det_poly", booked(crstruct._det_poly, "disjointness determinants",
                                         crstruct.check_disjointness.__code__))
    rebind(crstruct, "_bracket_row", booked(crstruct._bracket_row, "normalizer bracket rows"))
    rebind(crstruct, "_graded_w_and_perp", booked(crstruct._graded_w_and_perp,
                                                  "normalizer general-path calls",
                                                  crstruct.normalizer_excess.__code__))
    rebind(classify, "_structure_row", booked(classify._structure_row, "structure rows"))
    rebind(crstruct, "check_integrability", checked)


def family_commands(src: Path) -> list[list[str]]:
    """The check --family commands of tools/cli_digest.py's battery."""
    spec = importlib.util.spec_from_file_location("cli_digest", ROOT / "tools" / "cli_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    from crlie import rootsys

    return [argv for argv in digest.battery(src / "crlie" / "data", rootsys)
            if argv[0] == "check" and "--family" in argv]


def run(argvs: list[list[str]], counts: Counter) -> dict[str, int]:
    """Run each argv through crlie.cli.main, stdout captured, and return
    the counts it booked."""
    from crlie import cli

    counts.clear()
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            with contextlib.suppress(SystemExit):
                cli.main(argv)
    return {name: counts[name] for name in COUNTS}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="source tree to import crlie from (default: this checkout's)")
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="run only this workload; repeatable (default: both, in order)")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import crlie.cli  # noqa: F401  (loads every module the commands use)

    counts: Counter = Counter()
    install(counts)
    for workload in [w for w in WORKLOADS if w in (args.workload or WORKLOADS)]:
        argvs = [PRIMITIVE_ARGV] if workload == "primitive" else family_commands(src)
        for name, value in run(argvs, counts).items():
            print(f"{workload}: {name} = {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
