#!/usr/bin/env python3
"""Digest the stdout of a fixed battery of crlie commands.

Prints one line per command: the sha256 of its stdout, its exit code
(``raised:<type>`` when the command raises) and its argv.  Two source
trees write the same CLI bytes exactly when they print the same lines, so
comparing them is one diff:

    python3 tools/cli_digest.py > new.txt
    python3 tools/cli_digest.py --src /path/to/other/checkout/src > old.txt
    diff old.txt new.txt

The battery: ``roots --type T`` on the 31 simple types of rank <= 8 and on
``A1+A1`` and ``A2+G2``, the one command that prints every root;
``classify --what primitive|nonprimitive|special --max-rank 8``,
``table1`` and ``table2``/``table3 --max-rank 8``, all as JSON;
``check --family`` on every golden contact form of rank <= 6 (both the
source and the canonical form of each primitive row), in text and JSON;
and ``check --graph`` on every painting of D5 and of A2+A2 in JSON and on
every golden nonprimitive graph of rank <= 6 in text, so one diff also
covers the painted-graph verdicts and the K/Q flag types; and
``check --m10`` on the README's A4 user subspace and on an A1+A1 subspace
that is its own conjugate (exit 64), in text and JSON, so the
user-subspace path is diffed too; last, ``check --family`` in text on
every unreduced form a + b and a - b with a and b positive roots of A3-A5,
B3, C3, D4 and A2+A2.  Those include A5 ``1,-1,1,0,0,-1`` with its
negative normalizer excesses, so the forms on which l^C + m01 is not
l-stable, and the excess is counted, not read off standardness, are
diffed too; the A2+A2 forms
include rows where pair_family raises FamilyError.  Then ``check --family`` in text
and JSON on the dominant root of each length of the 31 simple types, so
the special and short-root routes are diffed up to rank 8.  Last,
``check --graph`` in JSON on every painting of E6, so the D-shapes at an
E-type fork are diffed too.  After them, ``check --family`` in text on
every a + b and a - b of B2 and G2, so the special, short-root and
g2-short routes and the rejected shapes of the two-length rank-2 systems
are diffed.  After those, ``roots --type`` in JSON on ``A1+E6``, ``A1+F4`` and
``G2+E6``, whose second factor prints a primed symbol ``e'`` with halves
and, on E6, the auxiliary vector, so the renderer is diffed on a later
factor too.  Last, ``check --m10`` in text and JSON on subspaces of A3,
B3, B4, C3, D5 with integer factors and exponents in their twists
(``2*s``, ``t^2``, ``-1*t``), two twist names, ``rj_plus`` both as
``"positive"`` and as a list, and an su2 line beside twisted pairs, so
the structure checks are diffed on user subspaces beyond the README's.
Last, ``check --family`` in text on three Weyl conjugates of each dominant
form a + b and a - b (a and b any roots) of the simple types of rank <= 6,
each reached from the dominant form by 4 * rank simple reflections drawn
from one ``random.Random`` of a fixed seed.  Unlike the dominant forms,
some of these representatives give subspaces l^C + m01 that are not
l-stable, so the normalizer is diffed where it is counted, not read off
standardness.  Last, ``check --graph`` in JSON on every painting
of B4, C4, D4, F4 and G2, so the counted goodness verdicts are diffed on
the two-length systems and on D4's triality too.  Last, the CSV renderer:
``classify --what primitive|nonprimitive|special --max-rank 8``,
``table1``, ``table2``/``table3 --max-rank 8``, ``roots --type E6``,
``check --family`` on the first two golden forms and ``check --graph`` on
the first two golden graphs, each with ``--format csv``.  Last, ``check
--m10`` in text and JSON on the ``"pairs"``-spelled twin of each spec
above with an su2 line (A4, B3, C3, A3, in that order): the line
``["mu", c]`` moved into ``"pairs"`` as ``["mu", "-mu", c]``, which must
print what the su2 spelling prints.  Last, ``check --m10`` in text and
JSON on three edges of the line checks: the README's A4 spec with its
first pair's twist ``"0"``, the D5 spec above with its pair's twist
``"0"`` beside ``rj_plus: "positive"``, so pair lines of twist 0,
unit rows of the disjointness determinant, are diffed, an A2
subspace of three plain modules whose congruence class holds one root
twice, which exits 64 with "identically degenerate block", and a G2
subspace of two twisted pairs whose four highest weights share one
class, so the disjointness determinant is diffed at 4 x 4, by cofactors.
Last, ``check --m10`` in text and JSON on two integrable, non-primitive
subspaces that no route of ``classify_datum`` builds, one on A4 and one
on D5 (tests/test_schur.py counts ten such), so a change to the routes
or the fibration witnesses shows on them.
The commands run in one process, through ``crlie.cli.main``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECK_MAX_RANK = 6
PAINTED_TYPES = (("D5", (5,)), ("A2+A2", (2, 2)))  # (type, rank of each factor)
# painted last: two root lengths, and D4's triality
MORE_PAINTED_TYPES = (("B4", (4,)), ("C4", (4,)), ("D4", (4,)), ("F4", (4,)), ("G2", (2,)))
# the simple types of rank <= 8 in scan order, then two products
ROOT_TYPES = ([f"A{r}" for r in range(1, 9)] + [f"B{r}" for r in range(2, 9)]
              + [f"C{r}" for r in range(3, 9)] + [f"D{r}" for r in range(4, 9)]
              + ["E6", "E7", "E8", "F4", "G2", "A1+A1", "A2+G2"])
# types whose unreduced forms a +- b (a, b positive roots) are checked
SUM_FORM_TYPES = ("A3", "A4", "A5", "B3", "C3", "D4", "A2+A2")
RANK2_SUM_FORM_TYPES = ("B2", "G2")
# products whose second factor has halves or an auxiliary vector
PRIMED_ROOT_TYPES = ("A1+E6", "A1+F4", "G2+E6")
SIMPLE_TYPES = ROOT_TYPES[:31]
CONJUGATE_SEED = 24  # the seed of the Weyl conjugates' reflections
CONJUGATES = 3  # Weyl conjugates per dominant form
# (type, theta, --m10 spec): the README example, then a degenerate spec
M10_CHECKS = (
    ("A4", "1,0,0,0,-1", {"pairs": [["1,0,0,-1,0", "0,0,0,-1,1", "s"],
                                    ["0,1,0,0,-1", "-1,1,0,0,0", "s"]],
                          "su2": ["1,0,0,0,-1", "t"]}),
    ("A1+A1", "1,-1,-1,1", {"plains": ["1,-1,0,0", "-1,1,0,0"]}),
)

# (type, theta, --m10 spec) checked last: twist factors and exponents, two
# names, rj_plus as "positive" and as a list, su2 beside twisted pairs
M10_MORE = (
    ("C3", "1,1,0", {"pairs": [["2,0,0", "0,-2,0", "2*s"], ["1,0,1", "0,-1,1", "t^2"]]}),
    ("B3", "1,1,0", {"rj_plus": ["0,1,-1", "0,1,0", "1,0,-1", "0,1,1", "1,0,0", "1,0,1"],
                     "su2": ["1,1,0", "2*t"]}),
    ("C3", "2,0,0", {"rj_plus": ["1,-1,0", "1,0,-1", "1,0,1", "1,1,0"],
                     "su2": ["2,0,0", "s*t^2"]}),
    ("D5", "0,1,1,1,1", {"pairs": [["0,1,1,0,0", "0,0,0,-1,-1", "t^3"]], "rj_plus": "positive"}),
    ("D5", "1,0,0,0,0", {"pairs": [["1,1,0,0,0", "-1,1,0,0,0", "3*t^2"]]}),
    ("A3", "1,0,0,-1", {"pairs": [["0,1,0,-1", "-1,1,0,0", "s"], ["1,0,-1,0", "0,0,-1,1", "2*t"]],
                        "su2": ["1,0,0,-1", "s*t"]}),
    ("B4", "1,0,0,0", {"pairs": [["1,1,0,0", "-1,1,0,0", "-1*t"]]}),
)


def pairs_twin(spec: dict) -> dict:
    """spec with its su2 line [mu, c] spelled as the pairs entry [mu, -mu, c]."""
    twin = {k: v for k, v in spec.items() if k != "su2"}
    mu, coeff = spec["su2"]
    neg = ",".join(str(-Fraction(x)) for x in mu.split(","))
    twin["pairs"] = twin.get("pairs", []) + [[mu, neg, coeff]]
    return twin


# (type, theta, --m10 spec) checked after the CSV renderer: the su2 specs
# of M10_CHECKS and M10_MORE spelled as pairs
M10_TWINS = tuple((t, theta, pairs_twin(spec)) for t, theta, spec in M10_CHECKS + M10_MORE
                  if "su2" in spec)

# (type, theta, --m10 spec) checked last: zero twists on pair lines, a
# class whose unit rows meet on one column, and a class of four twisted rows
M10_EDGES = (
    ("A4", "1,0,0,0,-1", {"pairs": [["1,0,0,-1,0", "0,0,0,-1,1", "0"],
                                    ["0,1,0,0,-1", "-1,1,0,0,0", "s"]],
                          "su2": ["1,0,0,0,-1", "t"]}),
    ("D5", "0,1,1,1,1", {"pairs": [["0,1,1,0,0", "0,0,0,-1,-1", "0"]], "rj_plus": "positive"}),
    ("A2", "1,0,-1", {"plains": ["1,-1,0", "-1,1,0", "1,0,-1"]}),
    ("G2", "2,-1,-1", {"pairs": [["1,0,-1", "-1,1,0", "s"], ["1/3,1/3,-2/3", "-1/3,2/3,-1/3", "t"]],
                       "plains": ["2/3,-1/3,-1/3"]}),
)


# (type, theta, --m10 spec) checked last: an l-stable choice of the Schur
# components of a pair form, integrable and not standard, built by no route
M10_UNROUTED = (
    ("A4", "1,1,0,-1,-1", {"pairs": [["1,0,0,0,-1", "0,-1,0,1,0", "t"]],
                           "plains": ["0,-1,1,0,0", "0,0,1,0,-1"]}),
    ("D5", "1,1,1,1,0", {"pairs": [["1,1,0,0,0", "0,0,-1,-1,0", "t"]],
                         "plains": ["0,0,0,-1,-1", "1,0,0,0,-1"]}),
)


def _type_of(row: dict) -> str:
    t = row["type"]
    return t + row["rank"] if t.isalpha() else t


def golden_forms(data: Path) -> list[tuple[str, str]]:
    """(type, theta) of every distinct golden contact form of rank <= 6."""
    out: list[tuple[str, str]] = []
    for name, keys in (("primitive.json", ("theta_source", "theta_canon")),
                       ("nonprimitive.json", ("theta_canon",))):
        rows = json.loads((data / name).read_text())["rows"]
        for row in rows:
            if int(row["rank"]) > CHECK_MAX_RANK:
                continue
            for key in keys:
                form = (_type_of(row), row[key])
                if form not in out:
                    out.append(form)
    return out


def sum_forms(rootsys, types=SUM_FORM_TYPES) -> list[tuple[str, str]]:
    """(type, theta) of every nonzero a + b and a - b with a and b positive
    roots of the types, in ambient coordinates, sorted per type."""
    out: list[tuple[str, str]] = []
    for t in types:
        s = rootsys.parse_type(t)
        pos = [r.canon() for i, r in enumerate(s.roots) if s.positive[i]]
        thetas = {tuple(x + sgn * y for x, y in zip(a, b))
                  for a in pos for b in pos for sgn in (1, -1)}
        out += [(t, ",".join(map(str, th))) for th in sorted(thetas) if any(th)]
    return out


def root_forms(rootsys) -> list[tuple[str, str]]:
    """(type, theta) of the dominant root of each length of the
    SIMPLE_TYPES, in ambient coordinates, in the order of first appearance."""
    out: list[tuple[str, str]] = []
    for t in SIMPLE_TYPES:
        s = rootsys.parse_type(t)
        firsts: dict = {}
        for i, r in enumerate(s.roots):
            firsts.setdefault(s.norm2(i), r)
        out += [(t, ",".join(map(str, s.dominant(r).canon()))) for r in firsts.values()]
    return out


def conjugate_forms(rootsys) -> list[tuple[str, str]]:
    """(type, theta) of CONJUGATES Weyl conjugates of each dominant a + b
    and a - b (a, b roots) of the SIMPLE_TYPES of rank <= CHECK_MAX_RANK, in
    ambient coordinates: the dominant forms sorted per type, each conjugate
    reached by 4 * rank simple reflections drawn from one seeded Random."""
    rng = random.Random(CONJUGATE_SEED)
    out: list[tuple[str, str]] = []
    for t in SIMPLE_TYPES:
        s = rootsys.parse_type(t)
        if s.rank > CHECK_MAX_RANK:
            continue
        dominant = {s.dominant(a + sgn * b).c for a in s.roots for b in s.roots
                    for sgn in (1, -1)}
        for c in sorted(dominant):
            if not any(c):
                continue
            for _ in range(CONJUGATES):
                v = rootsys.RootVector(s, c)
                for _ in range(4 * s.rank):
                    v = s.reflect(rng.choice(s.simple_roots), v)
                out.append((t, ",".join(map(str, v.canon()))))
    return out


def all_paintings(type_str: str, ranks: tuple[int, ...]) -> list[str]:
    """Every painting of the type, in the ``TYPE:c,c|c,c`` form."""
    out = []
    for colors in itertools.product("wbg", repeat=sum(ranks)):
        parts, pos = [], 0
        for r in ranks:
            parts.append(",".join(colors[pos : pos + r]))
            pos += r
        out.append(f"{type_str}:" + "|".join(parts))
    return out


def golden_graphs(data: Path) -> list[str]:
    """Every distinct golden nonprimitive graph of rank <= 6."""
    rows = json.loads((data / "nonprimitive.json").read_text())["rows"]
    return list(dict.fromkeys(r["graph"] for r in rows if int(r["rank"]) <= CHECK_MAX_RANK))


def battery(data: Path, rootsys) -> list[list[str]]:
    json_fmt = ["--format", "json"]
    cmds = [["roots", "--type", t, *json_fmt] for t in ROOT_TYPES]
    cmds += [["classify", "--what", what, "--max-rank", "8", *json_fmt]
             for what in ("primitive", "nonprimitive", "special")]
    cmds.append(["table1", *json_fmt])
    cmds += [[f"table{n}", "--max-rank", "8", *json_fmt] for n in (2, 3)]
    for t, theta in golden_forms(data):
        for fmt in ("text", "json"):
            cmds.append(["check", "--type", t, f"--theta={theta}", "--family", "--format", fmt])
    for t, ranks in PAINTED_TYPES:
        cmds += [["check", "--graph", g, *json_fmt] for g in all_paintings(t, ranks)]
    cmds += [["check", "--graph", g, "--format", "text"] for g in golden_graphs(data)]
    cmds += [["check", "--type", t, f"--theta={theta}", "--m10", json.dumps(spec), "--format", fmt]
             for t, theta, spec in M10_CHECKS for fmt in ("text", "json")]
    cmds += [["check", "--type", t, f"--theta={theta}", "--family", "--format", "text"]
             for t, theta in sum_forms(rootsys)]
    cmds += [["check", "--type", t, f"--theta={theta}", "--family", "--format", fmt]
             for t, theta in root_forms(rootsys) for fmt in ("text", "json")]
    cmds += [["check", "--graph", g, *json_fmt] for g in all_paintings("E6", (6,))]
    cmds += [["check", "--type", t, f"--theta={theta}", "--family", "--format", "text"]
             for t, theta in sum_forms(rootsys, RANK2_SUM_FORM_TYPES)]
    cmds += [["roots", "--type", t, *json_fmt] for t in PRIMED_ROOT_TYPES]
    cmds += [["check", "--type", t, f"--theta={theta}", "--m10", json.dumps(spec), "--format", fmt]
             for t, theta, spec in M10_MORE for fmt in ("text", "json")]
    cmds += [["check", "--type", t, f"--theta={theta}", "--family", "--format", "text"]
             for t, theta in conjugate_forms(rootsys)]
    for t, ranks in MORE_PAINTED_TYPES:
        cmds += [["check", "--graph", g, *json_fmt] for g in all_paintings(t, ranks)]
    csv_fmt = ["--format", "csv"]
    cmds += [["classify", "--what", what, "--max-rank", "8", *csv_fmt]
             for what in ("primitive", "nonprimitive", "special")]
    cmds.append(["table1", *csv_fmt])
    cmds += [[f"table{n}", "--max-rank", "8", *csv_fmt] for n in (2, 3)]
    cmds.append(["roots", "--type", "E6", *csv_fmt])
    cmds += [["check", "--type", t, f"--theta={theta}", "--family", *csv_fmt]
             for t, theta in golden_forms(data)[:2]]
    cmds += [["check", "--graph", g, *csv_fmt] for g in golden_graphs(data)[:2]]
    cmds += [["check", "--type", t, f"--theta={theta}", "--m10", json.dumps(spec), "--format", fmt]
             for t, theta, spec in M10_TWINS for fmt in ("text", "json")]
    cmds += [["check", "--type", t, f"--theta={theta}", "--m10", json.dumps(spec), "--format", fmt]
             for t, theta, spec in M10_EDGES for fmt in ("text", "json")]
    cmds += [["check", "--type", t, f"--theta={theta}", "--m10", json.dumps(spec), "--format", fmt]
             for t, theta, spec in M10_UNROUTED for fmt in ("text", "json")]
    return cmds


def run(main, argv: list[str]) -> tuple[bytes, int | str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # one raising command must not end the battery
            code = f"raised:{type(e).__name__}"
    return out.getvalue().encode(), code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="source tree to import crlie from (default: this checkout's)")
    args = ap.parse_args()
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from crlie import cli, rootsys

    for argv in battery(src / "crlie" / "data", rootsys):
        text, code = run(cli.main, argv)
        print(f"{hashlib.sha256(text).hexdigest()}  {code}  {' '.join(argv)}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
