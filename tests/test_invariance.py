"""Invariance of check --family under symmetries its output should ignore.

Each symmetry is one transform (system, theta) -> (system', theta'), and
the rows of structure_rows_for_datum on both sides must agree as a
multiset once the columns the symmetry changes are dropped:

* diagram automorphisms, triality included: the simple roots permuted by
  a symmetry of the Cartan matrix, on the dominant classes of R and of
  R +- R, without the theta column;
* factor order: A_p + A_q against A_q + A_p, on every root difference,
  without the type and theta columns.

Weyl conjugates and -theta are left out: the pair route still reads
theta's representative, so those rows may differ.

A third symmetry acts on the Chevalley basis, not on theta: the sign
gauges E_a -> eps_a E_a with eps_-a = eps_a, under which every verdict of
check --family and of the primitive and CR-graph scans must print the
same bytes.
"""

import json
import random
from collections import Counter
from itertools import permutations
from pathlib import Path

import pytest

from crlie import cli
from crlie import contact as ct
from crlie import rootsys as rs
from crlie.chevalley import ConstantTable
from crlie.classify import structure_rows_for_datum

DIAGRAM_TYPES = ("A2", "A3", "A4", "A5", "A6", "D4", "D5", "D6", "E6")
FACTOR_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3))  # A_p + A_q with p < q, p + q <= 5


def _rows(system, theta, drop):
    """The multiset of check --family rows of (system, theta), each
    without the columns in drop."""
    rows = structure_rows_for_datum(ct.contact_datum(system, theta))
    return Counter(tuple(sorted((k, v) for k, v in row.items() if k not in drop))
                   for row in rows)


def diagram_automorphisms(system):
    """The permutations of the simple roots that fix the Cartan matrix,
    the identity left out."""
    cm, n = system.cartan_matrix(), system.rank
    return [p for p in permutations(range(n)) if p != tuple(range(n))
            and all(cm[p[i]][p[j]] == cm[i][j] for i in range(n) for j in range(n))]


def diagram_image(system, theta, perm):
    """theta with simple root i carried to simple root perm[i]."""
    c = [0] * system.rank
    for i, x in enumerate(theta.c):
        c[perm[i]] = x
    return system, rs.RootVector(system, c, theta.den)


def factor_swap(p, q, theta):
    """theta on A_p + A_q as the same form on A_q + A_p."""
    swapped = rs.build_product([("A", q), ("A", p)])
    return swapped, rs.RootVector(swapped, theta.c[p:] + theta.c[:p], theta.den)


def _dominant_classes(system):
    """The dominant forms of the roots and of the nonzero a + b and a - b."""
    vs = list(system.roots)
    vs += [a + sgn * b for a in system.roots for b in system.roots for sgn in (1, -1)]
    return {system.dominant(v).c for v in vs if any(v.c)}


@pytest.mark.parametrize("tag", DIAGRAM_TYPES)
def test_rows_are_invariant_under_diagram_automorphisms(tag):
    system = rs.parse_type(tag)
    perms = diagram_automorphisms(system)
    assert len(perms) == {"D4": 5}.get(tag, 1)
    for c in sorted(_dominant_classes(system)):
        theta = rs.RootVector(system, c)
        want = _rows(system, theta, {"theta"})
        for perm in perms:
            assert _rows(*diagram_image(system, theta, perm), {"theta"}) == want, (theta.c, perm)


@pytest.mark.parametrize("p,q", FACTOR_PAIRS)
def test_rows_are_invariant_under_factor_order(p, q):
    system = rs.build_product([("A", p), ("A", q)])
    diffs = {(a - b).c for a in system.roots for b in system.roots if a is not b}
    for c in sorted(diffs):
        theta = rs.RootVector(system, c)
        assert _rows(*factor_swap(p, q, theta), {"type", "theta"}) \
            == _rows(system, theta, {"type", "theta"}), c


class GaugedTable:
    """The structure constants of the basis E'_a = eps_a E_a, eps_a = +-1
    with eps_-a = eps_a: N'(a, b) = eps_a eps_b eps_(a+b) N(a, b), read off
    an ungauged ConstantTable, whose recursive derivations stay ungauged.
    [E'_a, E'_-a] = H_a and conj(E'_a) = -E'_-a, so the coroot terms and
    the compact real form are the table's."""

    def __init__(self, system, rng):
        self.base = base = ConstantTable(system)
        self.coroot_scale, self.coroot_factors = base.coroot_scale, base.coroot_factors
        self.coroot_terms = base.coroot_terms
        self.system = system
        self.eps = [0] * len(system.roots)
        for i in range(len(system.roots)):
            if system.positive[i]:
                self.eps[i] = self.eps[system.neg_index[i]] = rng.choice((1, -1))

    def n(self, i, j):
        k = self.system.sum_index(i, j)
        return 0 if k is None else self.eps[i] * self.eps[j] * self.eps[k] * self.base.n(i, j)


class _GaugingCache(dict):
    """rootsys._CACHE that installs a GaugedTable on each system it
    stores, before the system's constants are first read."""

    def __init__(self, seed):
        super().__init__()
        self.rng = random.Random(seed)

    def __setitem__(self, key, system):
        system.__dict__["constants"] = GaugedTable(system, self.rng)
        super().__setitem__(key, system)


def _gauge_commands():
    """check --family on the golden forms of rank <= 4 and the rank-4
    primitive and nonprimitive scans, all in JSON."""
    data = Path(cli.__file__).resolve().parent / "data"
    forms = []
    for name, keys in (("primitive.json", ("theta_source", "theta_canon")),
                       ("nonprimitive.json", ("theta_canon",))):
        for row in json.loads((data / name).read_text())["rows"]:
            tag = row["type"] + row["rank"] if row["type"].isalpha() else row["type"]
            for key in keys:
                if int(row["rank"]) <= 4 and (tag, row[key]) not in forms:
                    forms.append((tag, row[key]))
    return ([["check", "--type", tag, f"--theta={theta}", "--family", "--format", "json"]
             for tag, theta in forms]
            + [["classify", "--what", what, "--max-rank", "4", "--format", "json"]
               for what in ("primitive", "nonprimitive")])


README_M10 = ["check", "--type", "A4", "--theta", "1,0,0,0,-1", "--m10", json.dumps(
    {"pairs": [["1,0,0,-1,0", "0,0,0,-1,1", "s"], ["0,1,0,0,-1", "-1,1,0,0,0", "s"]],
     "su2": ["1,0,0,0,-1", "t"]})]


def test_output_is_invariant_under_chevalley_sign_gauges(monkeypatch, capsys):
    def outputs(commands):
        out = []
        for argv in commands:
            assert cli.main(argv) == 0, argv
            out.append(capsys.readouterr().out)
        return out

    commands = _gauge_commands()
    assert len(commands) >= 20
    monkeypatch.setattr(rs, "_CACHE", {})
    want, m10 = outputs(commands), outputs([README_M10])
    m10_changed = False
    for seed in (1, 2, 3):
        monkeypatch.setattr(rs, "_CACHE", _GaugingCache(seed))
        assert outputs(commands) == want, seed
        # a user's twist is read in the gauged basis: the gauge takes effect
        monkeypatch.setattr(rs, "_CACHE", _GaugingCache(seed))
        m10_changed |= outputs([README_M10]) != m10
    assert m10_changed
