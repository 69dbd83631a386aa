"""The Weyl machinery on simple-root coordinates against references that
work in ambient Fraction coordinates.

Each reference is the ambient implementation the integer one replaced: it
reflects gauge-fixed ambient vectors through the ambient metric, reduces
through a span solve for the diagram automorphisms, and finds the root
along a vector by trying a rational square root per root length.  The
goldens print ambient coordinates, so each comparison is on canon().  The
Gram matrix of the simple roots is checked against the ambient metric too.

The references memoize: every vector on a reflection path has the path's
dominant end, and the canonical form of v depends only on the dominant
representatives of v and -v.  Without that the oracle would reflect each
of the ~10^4 test vectors in Fractions from scratch.
"""

import json
from fractions import Fraction as Q
from math import ceil, gcd, isqrt, lcm
from pathlib import Path

import pytest

from crlie import rootsys as rs
from crlie.classify import simple_types
from crlie.linalg import SpanSolver

DATA = Path(rs.__file__).resolve().parent / "data"
ORACLE_TYPES = [f"{t}{r}" for t, r in simple_types(6)] + ["A1+A1", "A2+A2"]


class Ambient:
    """A system's Weyl machinery in gauge-fixed ambient coordinates."""

    def __init__(self, system):
        self.system = system
        self.weights = [Q(1, 2) if b.kind == "aux" else 1
                        for b in system.blocks for _ in range(b.size)]
        self.simples = [a.canon() for a in system.simple_roots]
        self.simple_norms = [self.inner(a, a) for a in self.simples]
        self.index = {r.canon(): i for i, r in enumerate(system.roots)}
        self.norms = {system.norm2(i) for i in range(len(system.roots))}
        self.span = SpanSolver(self.simples)
        self._dominant = {}
        self._canonical = {}

    def inner(self, u, v):
        return sum(x * y * w for x, y, w in zip(u, v, self.weights))

    def dominant(self, v):
        path = []
        while v not in self._dominant:
            path.append(v)
            for a, n in zip(self.simples, self.simple_norms):
                p = self.inner(v, a)
                if p < 0:
                    f = 2 * p / n
                    v = tuple(x - f * y for x, y in zip(v, a))
                    break
            else:
                self._dominant[v] = v
        for w in path:
            self._dominant[w] = self._dominant[v]
        return self._dominant[v]

    def canonical_form(self, v):
        ds = (self.dominant(v), self.dominant(tuple(-x for x in v)))
        if ds not in self._canonical:
            best = None
            for d in ds:
                for perm in self.system.diagram_automorphisms:
                    mapped = [Q(0)] * len(v)
                    for i, c in enumerate(self.span.reduce(d)):
                        mapped = [x + c * y for x, y in zip(mapped, self.simples[perm[i]])]
                    cand = scale_primitive(self.dominant(tuple(mapped)))
                    if best is None or cand > best:
                        best = cand
            self._canonical[ds] = best
        return self._canonical[ds]

    def root_along(self, v):
        vv = self.inner(v, v)
        for n in self.norms:
            c = n / vv
            num, den = isqrt(c.numerator), isqrt(c.denominator)
            if num * num == c.numerator and den * den == c.denominator:
                i = self.index.get(tuple(Q(num, den) * x for x in v))
                if i is not None:
                    return i
        return None


def scale_primitive(v):
    nz = [x for x in v if x]
    den = 1
    for x in nz:
        den = den * x.denominator // gcd(den, x.denominator)
    g = 0
    for x in nz:
        g = gcd(g, int(x * den))
    return tuple(Q(den, g) * x for x in v)


def oracle_vectors(system):
    """Every root, and a - b for every strongly orthogonal pair (a, b)."""
    n = len(system.roots)
    out = list(system.roots)
    out += [system.roots[i] - system.roots[j]
            for i in range(n) for j in range(n) if system.strongly_orthogonal(i, j)]
    return out


@pytest.mark.parametrize("tag", ORACLE_TYPES)
def test_weyl_machinery_matches_ambient_reference(tag):
    s = rs.parse_type(tag)
    ref = Ambient(s)
    assert (tuple(tuple(Q(x, s.gden) for x in row) for row in s._igram)
            == tuple(tuple(ref.inner(u, v) for v in ref.simples) for u in ref.simples))
    for v in oracle_vectors(s):
        amb = v.canon()
        assert s.dominant(v).canon() == ref.dominant(amb), (tag, amb)
        assert s.canonical_form(v).canon() == ref.canonical_form(amb), (tag, amb)
        assert s.root_along(v) == ref.root_along(amb), (tag, amb)


def best_lift_reference(coords):
    """Integer lift of a relation-block vector minimizing the L1 norm,
    chosen by sorting every candidate lift on Fraction keys.

    A lift base + c has the least L1 norm only for c between the least and
    the largest -base_i, so |c| <= max |base| and its first entry
    k = base[0] + c has |k| <= 2 max |base|: the window of k holds every
    L1 minimiser."""
    n = len(coords)
    m = sum(coords) / n
    base = [x - m for x in coords]
    bound = n + ceil(2 * max(abs(x) for x in base))
    candidates = []
    for k in range(-bound, bound + 1):
        shift = k - base[0]
        lifted = [x + shift for x in base]
        if all(x.denominator == 1 for x in lifted):
            candidates.append(lifted)
    if not candidates:
        return coords
    candidates.sort(
        key=lambda ls: (sum(abs(x) for x in ls), max(abs(x) for x in ls), [-x for x in ls])
    )
    return candidates[0]


def int_lift(block, den):
    """rs._best_lift on the block's numerators over den, a multiple of its
    denominators; the block itself where it has no integral lift, as
    best_lift_reference returns it."""
    lift = rs._best_lift([int(x * den) for x in block], den)
    return block if lift is None else lift


def golden_thetas():
    """(type, ambient coordinates) of every contact form in the goldens."""
    out = []
    for name in ("primitive", "nonprimitive", "table2", "table3"):
        for row in json.loads((DATA / f"{name}.json").read_text())["rows"]:
            tag = row["type"] + row["rank"] if row["type"].isalpha() else row["type"]
            for key in ("theta_source", "theta_canon"):
                if key in row:
                    out.append((tag, [Q(x) for x in row[key].split(",")]))
    return out


def test_best_lift_matches_reference():
    vectors = [(s, r.canon()) for s in (rs.build(t, r) for t, r in simple_types(8))
               for r in s.roots]
    for tag, coords in golden_thetas():
        s = rs.parse_type(tag)
        vectors += [(s, coords), (s, s.vector(coords).canon())]
    blocks = 0
    for s, coords in vectors:
        for b in s.blocks:
            if b.kind == "rel":
                block = list(coords[b.start : b.start + b.size])
                den = lcm(s._ambient[0], *(x.denominator for x in block))
                assert int_lift(block, den) == best_lift_reference(block), (s.type_str(), block)
                blocks += 1
    assert blocks > 800
    # least lifts outside [-n, n]: 4e1 and -7e1 of A2
    for block in ([Q(4), Q(0), Q(0)], [Q(-7), Q(0), Q(0)]):
        assert int_lift(block, 1) == best_lift_reference(block) == block
