"""Root data of every simple type of rank <= 8 against sympy.liealgebras.

The test checks three things against sympy's own tables: the Cartan
matrix, the root count and the highest root.  rootsys generates its roots
from its Cartan matrix, which it takes from the ambient simple roots, so a
wrong simple root shows as a Cartan-matrix mismatch here.  sympy's node
numbering differs from ours (F4 is reversed, E6-E8 are renumbered), so the
Cartan matrices are compared up to a relabelling of nodes that preserves
the Dynkin graph.

The highest root is taken from the positive roots that this file's own
alpha-string generator, the reference run, finds on sympy's Cartan matrix,
not from sympy's positive_roots(): in sympy 1.14 that list holds
duplicates for E6-E8 and vectors that are not roots for F4 and G2 (F4's
simple_root(3) does not match its own Cartan matrix), and its root of
greatest height is wrong for F4 and E7.
"""

import pytest

from crlie import classify
from crlie import rootsys as rs

sympy_lie = pytest.importorskip("sympy.liealgebras.cartan_type")

# sympy's A1 cartan_matrix() raises, so the A series starts at rank 2
TYPES = [(t, r) for t, r in classify.simple_types(8) if (t, r) != ("A", 1)]


def _relabelling(ours, theirs):
    """A node map p with ours[i][j] == theirs[p[i]][p[j]] for all i, j, or None."""
    n = len(ours)
    p: list[int] = []

    def extend() -> bool:
        i = len(p)
        if i == n:
            return True
        for k in range(n):
            if k in p:
                continue
            if all(ours[i][j] == theirs[k][p[j]] and ours[j][i] == theirs[p[j]][k]
                   for j in range(i)):
                p.append(k)
                if extend():
                    return True
                p.pop()
        return False

    return p if extend() else None


def _positive_roots(cartan):
    """Simple-root coefficients of the positive roots of a Cartan matrix,
    by alpha_i-strings (Humphreys, Introduction to Lie Algebras and
    Representation Theory, 9.4): for a positive root b other than alpha_i,
    b + alpha_i is a root when p > <b, alpha_i^vee>, where b - p alpha_i is the
    bottom of the string."""
    n = len(cartan)
    roots = {tuple(int(j == i) for j in range(n)) for i in range(n)}
    layer = sorted(roots)
    while layer:
        above = set()
        for b in layer:
            for i in range(n):
                if b == tuple(int(j == i) for j in range(n)):
                    continue
                p, down = 0, list(b)
                while True:
                    down[i] -= 1
                    if tuple(down) not in roots:
                        break
                    p += 1
                if p > sum(c * cartan[j][i] for j, c in enumerate(b)):
                    above.add(tuple(c + (j == i) for j, c in enumerate(b)))
        roots |= above
        layer = sorted(above)
    return roots


@pytest.mark.parametrize("t, r", TYPES, ids=[f"{t}{r}" for t, r in TYPES])
def test_root_data_match_sympy(t, r):
    system = rs.build(t, r)
    ct = sympy_lie.CartanType(f"{t}{r}")
    assert len(system.roots) == 2 * len(ct.positive_roots())
    theirs = [[int(x) for x in row] for row in ct.cartan_matrix().tolist()]
    p = _relabelling(system.cartan_matrix(), theirs)
    assert p is not None, "no node relabelling matches the Cartan matrices"
    positive = _positive_roots(theirs)
    assert len(positive) == len(ct.positive_roots())
    top = max(positive, key=sum)
    assert [top[p[i]] for i in range(r)] == list(system.highest_root().c)
