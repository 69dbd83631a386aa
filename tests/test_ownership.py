"""Per-system and per-datum tables belong to the objects they describe.

The only module-level table is the interning cache of root systems by
type; every other table lives on its RootSystem or ContactDatum and is
freed with it.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs in a fresh interpreter, so that no earlier test has filled a table.
_GROWTH = r"""
import contextlib, io, json, sys
from crlie import cli

def sizes():
    return {f"{name}.{attr}": len(value)
            for name, mod in sorted(sys.modules.items())
            if name == "crlie" or name.startswith("crlie.")
            for attr, value in vars(mod).items()
            if not attr.startswith("__") and isinstance(value, (dict, list, set))}

before = sizes()
with contextlib.redirect_stdout(io.StringIO()):
    rcs = [cli.main(["classify", "--what", "nonprimitive", "--max-rank", "4", "--format", "json"]),
           cli.main(["check", "--type", "B3", "--theta=1,0,0", "--family", "--format", "json"])]
after = sizes()
print(json.dumps({"rcs": rcs, "grown": sorted(k for k in after if after[k] != before.get(k))}))
"""


def test_only_the_system_cache_grows():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", _GROWTH], env=env, capture_output=True,
                          text=True, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["rcs"] == [0, 0]
    assert result["grown"] == ["crlie.rootsys._CACHE"]


def test_dropped_system_is_freed():
    from crlie.crstruct import normalizer_excess
    from crlie.contact import grade_by_highest_root
    from crlie.families import special_su_families
    from crlie.painted import PaintedGraph, is_good
    from crlie.rootsys import RootSystem
    from crlie.scalars import Gauss
    from fractions import Fraction
    from test_crstruct import root_vector

    system = RootSystem([("A", 3)])  # built directly, so not interned
    a, b = system.simple_roots[:2]
    assert not root_vector(system, a).bracket(root_vector(system, b)).is_zero()
    assert is_good(PaintedGraph(system, ("g", "b", "w"))).admissible
    family = special_su_families(grade_by_highest_root(system))
    assert normalizer_excess(family.fibered, {"t": Gauss(Fraction(1, 2))}) == 0
    ref = weakref.ref(system)
    del system, a, b, family
    gc.collect()
    assert ref() is None


def test_sum_index_keeps_nothing():
    """sum_index reads the root codes and stores nothing: after every
    ordered pair of E8, no container on the system has grown."""
    from crlie.rootsys import RootSystem

    system = RootSystem([("E", 8)])  # built directly, so not interned

    def sizes():
        return {name: len(value) for name, value in vars(system).items()
                if isinstance(value, (dict, list, set, tuple, frozenset))}

    before = sizes()
    n = len(system.roots)
    sums = sum(system.sum_index(i, j) is not None for i in range(n) for j in range(n))
    assert sums == 240 * 56  # each root of E8 pairs to a root sum with 56 others
    assert sizes() == before
