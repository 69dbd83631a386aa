"""The four workloads: their inputs, their bodies and their correctness checks.

Every check here reads the golden fixtures in ``src/crlie/data`` as plain
JSON and compares rows itself, so a verdict is never judged by the code
under test.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from collections import Counter
from pathlib import Path

# Ranks of the two scans, below the paper's 8 so that every run fits the
# benchmark's time budget (README.md, "Why the scans run below rank 8").
PRIMITIVE_RANK = 6
CRGRAPH_RANK = 7
TABLES_RANK = 8
QUERY_MAX_RANK = 6

# Simple types of rank 2..QUERY_MAX_RANK without isomorphic duplicates.
QUERY_TYPES = (
    [f"A{r}" for r in range(2, QUERY_MAX_RANK + 1)]
    + [f"B{r}" for r in range(2, QUERY_MAX_RANK + 1)]
    + [f"C{r}" for r in range(3, QUERY_MAX_RANK + 1)]
    + [f"D{r}" for r in range(4, QUERY_MAX_RANK + 1)]
    + ["E6", "F4", "G2"]
)
RANDOM_KINDS = ("root", "diff", "sum")

PRIMITIVE_KEYS = ["type", "rank", "family", "theta_canon"]
NONPRIMITIVE_KEYS = ["type", "rank", "graph", "cr_type", "theta_canon", "fiber"]
TABLE1_KEYS = ["type", "rank", "mu_canon", "Ro", "R1", "g1_summands"]
MODULE_TABLE_KEYS = ["type", "rank", "theta_canon", "l_type", "groups"]

WORKLOADS = ("primitive-scan", "crgraph-scan", "tables", "family-queries")


def load_golden(data: Path, name: str) -> list[dict]:
    return json.loads((data / name).read_text())["rows"]


def _projection(rows, keys) -> Counter:
    return Counter(tuple(str(r.get(k, "")) for k in keys) for r in rows)


def golden_diff(rows: list[dict], golden: list[dict], keys: list[str]) -> list[str]:
    """Rows missing from or extra to the golden projection, counting
    repeats; empty when the two multisets are equal."""
    got, want = _projection(rows, keys), _projection(golden, keys)
    return ([f"missing {r}" for r in sorted(want - got)]
            + [f"extra {r}" for r in sorted(got - want)])


def _special_check(rows: list[dict], data: Path) -> list[str]:
    # special has no fixture of its own: every highest root of table1.json
    # must come back as a long special root of the same system (D3 = A3 is
    # scanned only as A3).
    want = {(r["type"], r["rank"], r["mu_canon"]) for r in load_golden(data, "table1.json")
            if int(r["rank"]) <= TABLES_RANK and (r["type"], r["rank"]) != ("D", "3")}
    got = {(r["type"], r["rank"], r["theta_canon"]) for r in rows if r.get("length") == "long"}
    return [f"missing special root {w}" for w in sorted(want - got)]


def scan_steps(workload: str) -> list[tuple[list[str], object]]:
    """(cli argv, check(rows, data) -> messages) for a scan workload."""

    def diff(fixture, keys, rank):
        return lambda rows, data: golden_diff(
            rows, [r for r in load_golden(data, fixture) if int(r["rank"]) <= rank], keys)

    if workload == "primitive-scan":
        return [(["classify", "--what", "primitive", "--max-rank", str(PRIMITIVE_RANK)],
                 diff("primitive.json", PRIMITIVE_KEYS, PRIMITIVE_RANK))]
    if workload == "crgraph-scan":
        return [(["classify", "--what", "nonprimitive", "--max-rank", str(CRGRAPH_RANK)],
                 diff("nonprimitive.json", NONPRIMITIVE_KEYS, CRGRAPH_RANK))]
    if workload == "tables":
        return [
            (["table1"], diff("table1.json", TABLE1_KEYS, TABLES_RANK)),
            (["table2", "--max-rank", str(TABLES_RANK)],
             diff("table2.json", MODULE_TABLE_KEYS, TABLES_RANK)),
            (["table3", "--max-rank", str(TABLES_RANK)],
             diff("table3.json", MODULE_TABLE_KEYS, TABLES_RANK)),
            (["classify", "--what", "special", "--max-rank", str(TABLES_RANK)], _special_check),
        ]
    raise ValueError(f"not a scan workload: {workload}")


# -- family-queries inputs ---------------------------------------------------------------


def _type_of(row: dict) -> str:
    t = row["type"]
    return t + row["rank"] if t.isalpha() else t


def golden_queries(data: Path) -> list[dict]:
    """Every distinct golden contact form of rank <= QUERY_MAX_RANK, with its verdict."""
    out, seen = [], set()
    for row in load_golden(data, "primitive.json"):
        if int(row["rank"]) <= QUERY_MAX_RANK:
            for key in ("theta_source", "theta_canon"):
                q = {"type": _type_of(row), "theta": row[key], "expect": "primitive"}
                if (q["type"], q["theta"]) not in seen:
                    seen.add((q["type"], q["theta"]))
                    out.append(q)
    for row in load_golden(data, "nonprimitive.json"):
        if int(row["rank"]) <= QUERY_MAX_RANK:
            out.append({"type": _type_of(row), "theta": row["theta_canon"],
                        "expect": "fiber", "fiber": row["fiber"]})
    return out


def _coords(v) -> str:
    return ",".join(str(x) for x in v.coords)


def random_form(rng: random.Random, system, kind: str):
    """A contact form of the given kind: a root, a - b for strongly
    orthogonal roots a, b, or a + b for any roots with a + b != 0."""
    roots = system.roots
    if kind == "diff":
        pairs = [(a, b) for a in roots for b in roots
                 if a != b and system.inner(a, b) == 0
                 and not system.is_root(a + b) and not system.is_root(a - b)]
        if pairs:
            a, b = rng.choice(pairs)
            return a - b
        kind = "sum"  # e.g. A2 has no strongly orthogonal pair
    if kind == "root":
        return rng.choice(roots)
    while True:
        v = rng.choice(roots) + rng.choice(roots)
        if not v.is_zero():  # a + b = 0 is not a contact form; draw again
            return v


def family_queries(data: Path, seed: int) -> list[dict]:
    """The seeded query session: all golden forms, then one random form of
    each kind for every simple type of rank 2..QUERY_MAX_RANK.  Needs crlie
    importable (root data for the random forms).

    A fixed draw picks the Weyl orbit of each random form, and the seed
    moves it to a random point of that orbit.  With the order fixed too
    (the first query on a system pays for its set-up), the cost of a
    session barely depends on the seed, while its inputs do."""
    from crlie.rootsys import parse_type

    orbits, rng = random.Random(0), random.Random(seed)
    queries = golden_queries(data)
    for t in QUERY_TYPES:
        system = parse_type(t)
        for kind in RANDOM_KINDS:
            v = random_form(orbits, system, kind)
            for _ in range(4 * system.rank):
                v = system.reflect(rng.choice(system.simple_roots), v)
            queries.append({"type": t, "theta": _coords(v), "expect": "rows"})
    return queries


def query_argv(q: dict) -> list[str]:
    # "--theta=" keeps argparse from reading a leading minus sign as an option
    return ["check", "--type", q["type"], f"--theta={q['theta']}", "--family"]


def check_query(q: dict, rows: list[dict]) -> str | None:
    """The golden-derived verdict for one answered query; None when it holds."""
    if not rows:
        return "no rows"
    if q["expect"] == "primitive" and not any(r.get("primitive") == "yes" for r in rows):
        return "golden primitive form has no primitive row"
    if q["expect"] == "fiber" and not any(
        r.get("family", "").startswith("disc family") and r.get("primitive") == "no"
        and q["fiber"] in r.get("fibers", "").split(";")
        for r in rows
    ):
        return f"no non-primitive disc family with fiber {q['fiber']}"
    return None


# -- the timed body, run in a fresh interpreter -----------------------------------------


def call_cli(cli, argv: list[str]):
    """One closed-loop operation: ((start, end, CPU seconds), exit code,
    rows, exception).  The CPU seconds are this thread's, so they leave
    out the speed probe's samples."""
    buf = io.StringIO()
    c0, t0 = time.thread_time(), time.perf_counter()
    rc, exc = None, None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + ["--format", "json"])
    except Exception as e:  # a raise is a failed operation, not the end of the run
        exc = f"{type(e).__name__}: {e}"
    op = (t0, time.perf_counter(), time.thread_time() - c0)
    rows = json.loads(buf.getvalue())["rows"] if rc == 0 else []
    return op, rc, rows, exc


def run_body(cli, workload: str, data: Path, queries: list[dict]) -> dict:
    """Run one workload body: its operations' (start, end, CPU seconds),
    and counts of what raised and what answered wrongly."""
    raised, wrong, ops, errors = 0, 0, [], []
    if workload == "family-queries":
        answers = []
        for q in queries:
            op, rc, rows, exc = call_cli(cli, query_argv(q))
            ops.append(op)
            answers.append((q, rc, rows, exc))
        for q, rc, rows, exc in answers:
            if exc is not None and q["expect"] == "rows":
                # a random form that raises (the known E6 roots) is a failed
                # operation; a golden form that raises is a wrong answer
                raised += 1
                errors.append(f"{q['type']} {q['theta']}: {exc}")
            elif exc is not None or rc != 0 or check_query(q, rows):
                wrong += 1
                errors.append(f"{q['type']} {q['theta']}: "
                              f"{exc or f'exit {rc}, {check_query(q, rows)}'}")
    else:
        outputs = []
        for argv, check in scan_steps(workload):
            op, rc, rows, exc = call_cli(cli, argv)
            ops.append(op)
            outputs.append((argv, check, rc, rows, exc))
        for argv, check, rc, rows, exc in outputs:
            # a scan that raises or exits nonzero has no clean golden diff
            msgs = [exc] if exc else [f"exit {rc}"] if rc != 0 else check(rows, data)
            if msgs:
                wrong += 1
                errors.append(f"{' '.join(argv)}: " + "; ".join(msgs[:5]))
    return {"ops": ops, "attempted": len(ops), "raised": raised, "wrong": wrong,
            "errors": errors}
