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
"""

from collections import Counter
from itertools import permutations

import pytest

from crlie import contact as ct
from crlie import rootsys as rs
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
