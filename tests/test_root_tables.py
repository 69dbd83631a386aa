"""The per-root tables that RootSystem sums along its height tree, against
their per-root formulas.

Every positive root of height h + 1 is c + alpha_k for a root c of height
h (Humphreys, Introduction to Lie Algebras and Representation Theory,
10.2).  RootSystem._tree, the tree that rootsys._root_expansions climbs,
records one such parent per positive root, and the heights, the root
codes, the ambient ints, the squared lengths, the pairings with a vector
and ContactDatum.weight_codes are each summed along it, one addition per
root.  Each system is checked as built and rebuilt from a seeded shuffle
of the walk's roots, its tree relabelled to match, so no table leans on
the generated order.  RootSystem.dynkin_type, read off the Cartan matrix, is
checked against the classification of all the roots and against the root
counts at each length that the types predict.
"""

import random
from collections import Counter
from fractions import Fraction as Q
from operator import add

import pytest

from crlie import rootsys as rs
from crlie.classify import product_types, simple_types
from crlie.contact import contact_datum
from poly_reference import weights

# every simple type of rank <= 8 and every A_p + A_q of rank <= 8
TYPES = ([[(t, r)] for t, r in simple_types(8)]
         + [[("A", p), ("A", q)] for p, q in product_types(8)])


def _tag(comps):
    return "+".join(f"{t}{r}" for t, r in comps)


@pytest.fixture(params=[None, 1], ids=["generated", "shuffled"])
def order(request):
    """None: the roots in generated order; else the seed of a shuffle."""
    return request.param


def shuffle_walk(walk, rng):
    """The roots of rootsys._root_expansions at indices shuffled by rng,
    and its tree on those indices in the walk's record order, so parents
    still come first."""
    roots, tree = walk
    perm = list(range(len(roots)))
    rng.shuffle(perm)
    at = [0] * len(roots)
    for k, i in enumerate(perm):
        at[i] = k
    return ([roots[i] for i in perm],
            [(at[i], at[ni], at[p] if p >= 0 else -1, k) for i, ni, p, k in tree])


def _build(monkeypatch, comps, seed):
    """A system of its own, outside the build cache, with its roots in
    generated order or shuffled by the seed."""
    if seed is not None:
        generate = rs._root_expansions
        rng = random.Random(f"{_tag(comps)}:{seed}")

        def shuffled(cartan):
            return shuffle_walk(generate(cartan), rng)

        monkeypatch.setattr(rs, "_root_expansions", shuffled)
    return rs.RootSystem(comps)


# -- the per-root formulas -----------------------------------------------------------------


def codes_reference(s):
    """sum_k e_k B^k for each expansion e, B = 4 max |e_k| + 1."""
    base = 4 * max(abs(x) for e in s.expansions for x in e) + 1
    return [sum(x * base**k for k, x in enumerate(e)) for e in s.expansions]


def norms_reference(s):
    """e G e for each expansion e, G the int Gram matrix."""
    g = s._igram
    return [sum(x * g[j][k] * y for j, x in enumerate(e) for k, y in enumerate(e))
            for e in s.expansions]


def ambient_reference(s):
    """Each root's expansion times the simple roots' sparse ambient rows."""
    out = []
    for e in s.expansions:
        num = [0] * s.dim
        for x, row in zip(e, s._ambient[1]):
            for k, y in row:
                num[k] += x * y
        out.append(tuple(num))
    return out


def pairings_reference(s, v):
    """Each root's expansion against v's int covector."""
    cov = v.covector()
    return [sum(e[k] * y for k, y in cov) for e in s.expansions]


def forms(s, rng):
    """Seeded nonzero contact forms of s: roots, sums and differences of
    two roots, vectors over a denominator of 2 to 6, and one of them
    scaled by 1/1000000."""
    roots = s.roots
    out = rng.sample(roots, min(3, len(roots)))
    for _ in range(3):
        a, b = rng.sample(roots, 2)
        out += [a + b, a - b]
    for den in (2, 3, 4, 5, 6):
        out.append(rs.RootVector(s, [Q(rng.randint(-9, 9), den) for _ in range(s.rank)]))
    out.append(Q(1, 1000000) * out[-1])
    return [v for v in out if not v.is_zero()]


# -- the height tree and the system tables ---------------------------------------------------


@pytest.mark.parametrize("comps", TYPES, ids=_tag)
def test_tree_parents_are_one_simple_root_below(monkeypatch, order, comps):
    """The tree the root walk returns holds each positive root once, after
    its parent, one simple root above it."""
    s = _build(monkeypatch, comps, order)
    ex, n = s.expansions, s.rank
    unit = [tuple(int(j == k) for j in range(n)) for k in range(n)]
    visited = []
    for i, ni, p, k in s._tree:
        below = ex[p] if p >= 0 else (0,) * n
        assert ex[i] == tuple(map(add, below, unit[k]))
        assert ex[ni] == tuple(-x for x in ex[i])
        assert p < 0 or p in visited
        visited.append(i)
    assert sorted(visited) == [i for i, e in enumerate(ex) if sum(e) > 0]
    assert [s.height(i) for i in range(len(ex))] == [sum(e) for e in ex]


@pytest.mark.parametrize("comps", TYPES, ids=_tag)
def test_system_tables_match_per_root_formulas(monkeypatch, order, comps):
    s = _build(monkeypatch, comps, order)
    assert s.codes == codes_reference(s)
    assert s.int_norms == norms_reference(s)
    assert s.neg_index == [s._by_expansion[tuple(-x for x in e)] for e in s.expansions]
    # the roots' ambient ints are filled when the system is built
    assert [v._num for v in s.roots] == ambient_reference(s)


@pytest.mark.parametrize("comps", TYPES, ids=_tag)
def test_pairings_match_per_root_formulas(monkeypatch, order, comps):
    s = _build(monkeypatch, comps, order)
    for v in forms(s, random.Random(_tag(comps))):
        want = pairings_reference(s, v)
        assert s.orthogonal_roots(v) == frozenset(i for i, p in enumerate(want) if not p)
        assert list(contact_datum(s, v).theta_pairings) == want


@pytest.mark.parametrize("comps", TYPES, ids=_tag)
def test_weight_codes_partition_as_the_weights(monkeypatch, order, comps):
    """The roots share a weight code exactly when they share a weight
    tuple, and every sum of at most two weights of g (zero included) gets
    the sum of their codes, one code per distinct sum."""
    s = _build(monkeypatch, comps, order)
    for v in forms(s, random.Random(_tag(comps))):
        datum = contact_datum(s, v)
        w, code = weights(datum), datum.weight_codes
        by_weight, by_code = {}, {}
        for i, (x, c) in enumerate(zip(w, code)):
            by_weight.setdefault(x, set()).add(i)
            by_code.setdefault(c, set()).add(i)
        assert sorted(map(sorted, by_code.values())) == sorted(map(sorted, by_weight.values()))
        pool = {(0,) * s.rank: 0}
        pool.update(zip(w, code))
        sums = {}
        items = list(pool.items())
        for a, (x, cx) in enumerate(items):
            for y, cy in items[a:]:
                assert sums.setdefault(tuple(map(add, x, y)), cx + cy) == cx + cy
        assert len(set(sums.values())) == len(sums)


# -- dynkin_type ------------------------------------------------------------------------------

# the types of the isomorphic low-rank duplicates
_ISOMORPHIC = {("B", 1): ("A", 1), ("C", 2): ("B", 2), ("D", 3): ("A", 3)}
_SIMPLE = simple_types(8) + list(_ISOMORPHIC)
# every simple type and every product of two of rank <= 8
DYNKIN = [[a] for a in _SIMPLE] + [[a, b] for i, a in enumerate(_SIMPLE)
                                   for b in _SIMPLE[i:] if a[1] + b[1] <= 8]


def root_counts(t, r):
    """(root count, short root count) of a simple type (Humphreys 12.2)."""
    series = {"A": (r * (r + 1), 0), "B": (2 * r * r, 2 * r), "C": (2 * r * r, 2 * r * (r - 1)),
              "D": (2 * r * (r - 1), 0)}
    exceptional = {("E", 6): (72, 0), ("E", 7): (126, 0), ("E", 8): (240, 0),
                   ("F", 4): (48, 24), ("G", 2): (12, 6)}
    return series[t] if t in series else exceptional[(t, r)]


@pytest.mark.parametrize("comps", DYNKIN, ids=_tag)
def test_dynkin_type_from_the_cartan_matrix(comps):
    s = rs.RootSystem(comps)
    types = [_ISOMORPHIC.get(c, c) for c in comps]
    assert s.dynkin_type == sorted(types)
    assert s.dynkin_type == rs.Subsystem(s, frozenset(range(len(s.roots)))).classify()
    # the roots of each factor, at each squared length, as its type predicts
    for (t, r), nodes in zip(types, s.component_nodes):
        n, nshort = root_counts(t, r)
        have = Counter(s.int_norms[i] for i in s.node_span(nodes).members)
        assert sorted(have.values()) == sorted(x for x in (n - nshort, nshort) if x)
        if nshort:
            assert have[min(have)] == nshort
