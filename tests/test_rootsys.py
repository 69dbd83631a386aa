import itertools
import math
from fractions import Fraction as Q
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from crlie import classify
from crlie import rootsys as rs

ALL_SIMPLE = ["A1", "A2", "A5", "B2", "B3", "B5", "C3", "C4", "D3", "D4", "D5",
              "E6", "E7", "E8", "F4", "G2"]


# the isomorphic low-rank duplicates, by their scan-order name
_ISOMORPHIC = {("B", 1): ("A", 1), ("C", 2): ("B", 2), ("D", 3): ("A", 3)}


def weyl_orbit(s, v):
    """The orbit of v under the reflections in the simple roots."""
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            for a in s.simple_roots:
                r = s.reflect(a, w)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return list(seen)


@pytest.mark.parametrize("tag", ALL_SIMPLE)
def test_root_counts_and_positivity(tag):
    s = rs.parse_type(tag)
    t, r = s.components[0]
    expected = {"A": r * (r + 1), "B": 2 * r * r, "C": 2 * r * r,
                "D": 2 * r * (r - 1), "F": 48, "G": 12,
                "E": {6: 72, 7: 126, 8: 240}.get(r)}[t]
    assert len(s.roots) == expected
    assert sum(s.positive) * 2 == len(s.roots)
    # every expansion is integral with uniform sign
    for e in s.expansions:
        assert all(x.denominator == 1 for x in e)
        assert all(x >= 0 for x in e) or all(x <= 0 for x in e)


def test_invalid_types_raise():
    with pytest.raises(rs.RootSystemError):
        rs.build("D", 2)
    with pytest.raises(rs.RootSystemError):
        rs.build("E", 5)
    with pytest.raises(rs.RootSystemError):
        rs.build("F", 5)
    with pytest.raises(rs.RootSystemError):
        rs.parse_type("H4")
    for tag in ("A0", "C1", "D2", "E5", "E9", "F5", "G3"):
        with pytest.raises(rs.RootSystemError, match=f"^invalid type/rank combination {tag}$"):
            rs.parse_type(tag)
    # the first bad factor is the one named
    with pytest.raises(rs.RootSystemError, match="combination D2$"):
        rs.parse_type("A2+D2+E5")


def test_relation_basis_inner_products():
    a5 = rs.build("A5")
    e1 = a5.vector([1, 0, 0, 0, 0, 0])
    e2 = a5.vector([0, 1, 0, 0, 0, 0])
    assert a5.inner(e1, e1) == Q(5, 6)
    assert a5.inner(e1, e2) == Q(-1, 6)
    e6 = rs.build("E6")
    eps = e6.vector([0] * 6 + [1])
    assert e6.inner(eps, eps) == Q(1, 2)
    assert e6.inner(eps, e6.vector([1, 0, 0, 0, 0, 0, 0])) == 0


def test_relation_gauge_identifications():
    g2 = rs.build("G2")
    # e1 = -e2 - e3 in the relation basis
    assert g2.vector([1, 0, 0]) == g2.vector([0, -1, -1])
    e7 = rs.build("E7")
    quad = e7.vector([1, 1, 1, 1, 0, 0, 0, 0])
    comp = e7.vector([0, 0, 0, 0, -1, -1, -1, -1])
    assert quad == comp


def pairing_reference(s, u, beta):
    """The Fraction Cartan pairing 2 (u, beta) / (beta, beta) through the
    public inner product; src reads it off ints, each up to one positive
    factor (ContactDatum.theta_pairings, check_integrability)."""
    return 2 * s.inner(u, beta) / s.inner(beta, beta)


def test_pairing_examples():
    b2 = rs.build("B2")
    assert pairing_reference(b2, b2.vector([-1, 1]), b2.vector([1, 0])) == -2
    g2 = rs.build("G2")
    assert pairing_reference(g2, g2.vector([-1, 1, 0]), g2.vector([0, -1, 0])) == -3
    # <alpha|alpha> = 2 always
    for tag in ("A3", "C3", "G2", "F4"):
        s = rs.parse_type(tag)
        for r in s.roots[:6]:
            assert pairing_reference(s, r, r) == 2


def test_pairing_linearity_and_integrality():
    s = rs.build("B3")
    u, v = s.roots[0], s.roots[5]
    beta = s.roots[2]
    left = pairing_reference(s, u + v, beta)
    assert left == pairing_reference(s, u, beta) + pairing_reference(s, v, beta)
    for i, r in enumerate(s.roots):
        for j in range(len(s.roots)):
            assert pairing_reference(s, r, s.roots[j]).denominator == 1


def test_highest_roots():
    cases = {
        "A5": [1, 0, 0, 0, 0, -1],
        "C4": [2, 0, 0, 0],
        "E7": [0, 0, 0, 0, 0, 0, -1, 1],
        "B4": [1, 1, 0, 0],
        "E6": [0, 0, 0, 0, 0, 0, 2],
    }
    for tag, coords in cases.items():
        s = rs.parse_type(tag)
        assert s.highest_root() == s.vector(coords)
    with pytest.raises(rs.RootSystemError):
        rs.build_product([("A", 1), ("A", 1)]).highest_root()


def _highest_root_by_height(s):
    """The root of greatest height (the longer on a tie), checked to be
    highest: no simple root adds to it."""
    best = max(range(len(s.roots)), key=lambda i: (s.height(i), s.norm2(i)))
    mu = s.roots[best]
    assert not any(s.is_root(mu + a) for a in s.simple_roots)
    return mu


@pytest.mark.parametrize("t,r", classify.simple_types(8) + list(_ISOMORPHIC))
def test_highest_root_is_the_height_maximal_root(t, r):
    s = rs.build(t, r)
    assert s.highest_root() == _highest_root_by_height(s)


@pytest.mark.parametrize("tag", ALL_SIMPLE + ["A1+A1", "A2+G2", "B2+C3"])
def test_length_representatives(tag):
    """The dominant root of each length, in order of first appearance."""
    s = rs.parse_type(tag)
    want = {}
    for i, r in enumerate(s.roots):
        want.setdefault(s.norm2(i), s.dominant(r))
    reps = s.length_representatives
    assert list(reps.items()) == list(want.items())
    for n, v in reps.items():
        assert s.is_root(v) and s.inner(v, v) == n and s.dominant(v) == v


def test_reflection_and_orbits():
    b3 = rs.build("B3")
    mu = b3.highest_root()
    assert b3.reflect(mu, mu) == -mu
    w = b3.reflect(mu, b3.vector([0, 0, 1]))
    assert b3.reflect(mu, w) == b3.vector([0, 0, 1])
    assert len(weyl_orbit(b3, mu)) == 12  # all long roots
    assert len(weyl_orbit(b3, b3.vector([1, 0, 0]))) == 6  # all short roots


@pytest.mark.parametrize("tag", ["A3", "D4", "E6"])
def test_simply_laced_single_orbit(tag):
    s = rs.parse_type(tag)
    assert len(weyl_orbit(s, s.roots[0])) == len(s.roots)


def test_orbits_partition_by_length():
    for tag in ("B3", "C3", "F4", "G2"):
        s = rs.parse_type(tag)
        norms = {}
        for i, r in enumerate(s.roots):
            norms.setdefault(s.norm2(i), set()).add(r.canon())
        for n, members in norms.items():
            rep = next(iter(members))
            orbit = {v.canon() for v in weyl_orbit(s, s.vector(rep))}
            assert orbit == members


def is_closed(sys, members) -> bool:
    """Every sum of two members that is a root is a member."""
    return all(sys.sum_index(i, j) in members | {None} for i in members for j in members)


def test_closed_span():
    a4 = rs.build("A4")
    sub = a4.closed_span([a4.vector([1, -1, 0, 0, 0]), a4.vector([0, 0, 1, -1, 0])])
    assert sub.type_str() == "A1+A1" and len(sub) == 4
    assert is_closed(a4, sub.members)
    # a seed spanning an A3 = D3 inside A4
    seed = [a4.vector([1, -1, 0, 0, 0]), a4.vector([0, 0, 1, -1, 0]),
            a4.vector([1, 0, -1, 0, 0])]
    sub2 = a4.closed_span(seed)
    assert sub2.type_str() == "A3" and len(sub2) == 12
    full = a4.closed_span(a4.simple_roots)
    assert len(full) == len(a4.roots)


def _closed_span_by_solver(sys, seed):
    """Reference for closed_span: span membership of each root's
    expansion, tested by a Fraction SpanSolver on the seed expansions."""
    from crlie.linalg import SpanSolver

    span = SpanSolver([[Q(x) for x in s.c] for s in seed])
    return frozenset(i for i, e in enumerate(sys.expansions) if span.contains(e))


@pytest.mark.parametrize("tag", ["A5", "B4", "C4", "D5", "E6", "E7", "E8", "F4", "G2",
                                 "A2+B3", "A1+A1+G2"])
def test_closed_span_matches_span_solver(tag):
    import random

    s = rs.parse_type(tag)
    rng = random.Random(tag)
    seeds = [[]] + [rng.sample(s.roots, rng.randint(1, s.rank + 1)) for _ in range(12)]
    for seed in seeds:
        assert s.closed_span(seed).members == _closed_span_by_solver(s, seed), (tag, seed)


def test_subsystem_classification():
    f4 = rs.build("F4")
    longs = frozenset(i for i in range(48) if f4.norm2(i) == 2)
    assert rs.Subsystem(f4, longs).classify() == [("D", 4)]
    shorts = frozenset(i for i in range(48) if f4.norm2(i) == 1)
    assert rs.Subsystem(f4, shorts).classify() == [("D", 4)]
    b3 = rs.build("B3")
    assert b3.closed_span(b3.simple_roots).classify() == [("B", 3)]


def test_cartan_matrices():
    g2 = rs.build("G2")
    C = g2.cartan_matrix()
    assert C[0][0] == C[1][1] == 2
    assert {C[0][1], C[1][0]} == {-1, -3}
    f4 = rs.build("F4")
    C = f4.cartan_matrix()
    assert sorted(abs(C[i][j]) for i in range(4) for j in range(4) if i != j).count(2) == 1


def test_dominant_and_canonical_form():
    d4 = rs.build("D4")
    v = d4.vector([0, 0, 0, 2])
    d = d4.dominant(v)
    assert all(d4.inner(d, a) >= 0 for a in d4.simple_roots)
    # triality fuses 2e1 with e1+e2+e3+-e4
    forms = [d4.vector([2, 0, 0, 0]), d4.vector([1, 1, 1, 1]), d4.vector([1, 1, 1, -1])]
    canon = {d4.canonical_form(f).canon() for f in forms}
    assert len(canon) == 1


def _automorphism_order(components) -> int:
    """|Aut| of a Dynkin diagram: the factors' own symmetries times the
    permutations of isomorphic factors."""
    components = [_ISOMORPHIC.get(c, c) for c in components]
    order = 1
    for t, r in components:
        if (t == "A" and r >= 2) or (t == "D" and r >= 5) or (t, r) == ("E", 6):
            order *= 2
        elif (t, r) == ("D", 4):
            order *= 6
    for c in set(components):
        order *= math.factorial(components.count(c))
    return order


_SIMPLE_8 = classify.simple_types(8) + [("D", 3)]
_AUTOMORPHISM_CASES = (
    [[c] for c in _SIMPLE_8]
    + [list(p) for p in itertools.combinations_with_replacement(_SIMPLE_8, 2)
       if p[0][1] + p[1][1] <= 8]
    + [[("A", 1)] * 3, [("A", 2)] * 3, [("D", 4), ("A", 1), ("A", 1)], [("B", 2), ("C", 2)]]
)


def test_diagram_automorphisms_keep_dominance():
    """A diagram symmetry keeps the Cartan matrix, so it maps every dominant
    root to a dominant vector; diagram_orbit relies on it."""
    for comps in _AUTOMORPHISM_CASES:
        s = rs.build_product(comps)
        dominant = [r for r in s.roots if s.dominant(r) == r]
        assert dominant
        for p in s.diagram_automorphisms:
            for r in dominant:
                image = rs.RootVector(s, [r.c[i] for i in p])
                assert s.dominant(image) == image, (comps, p, r)


def test_diagram_orbit_holds_the_negative():
    """-w_0 is a diagram symmetry, so the orbit of c holds the dominant
    tuple of -c: on every root, and on every a + b and a - b of two roots.
    Both sides are Weyl invariant, and the Weyl group takes a to a dominant
    root, so a runs over the dominant roots and b, of either sign, over all
    of them."""
    for comps in _AUTOMORPHISM_CASES:
        s = rs.build_product(comps)
        ex = s.expansions
        dominant = [a for a in ex if s.dominant(rs.RootVector(s, a)).c == a]
        vectors = {tuple(map(add, a, b)) for a in dominant for b in ex}
        for c in (vectors | set(ex)) - {(0,) * s.rank}:
            negative = s.dominant(rs.RootVector(s, [-x for x in c])).c
            assert negative in s.diagram_orbit(c), (comps, c)


def _simple_by_pairs(sub):
    """The positive roots of sub that are no sum of two of them, each tested
    against every positive root."""
    p = sub.parent
    pos = {i for i in sub.members if p.positive[i]}
    return tuple(i for i in sorted(pos)
                 if not any(p.sum_index(i, p.neg_index[j]) in pos for j in pos))


@pytest.mark.parametrize("tag", ["A5", "B4", "C4", "D5", "E6", "F4", "G2", "A2+B3"])
def test_subsystem_simple_matches_pairwise_test(tag):
    s = rs.parse_type(tag)
    subs = [s.node_span(nodes) for k in range(s.rank + 1)
            for nodes in itertools.combinations(range(s.rank), k)]
    # the roots orthogonal to a sum of two roots, as R_o of a contact form
    subs += [rs.Subsystem(s, s.orthogonal_roots(s.roots[i] + s.roots[j]))
             for i in range(0, len(s.roots), 5) for j in range(0, len(s.roots), 7)
             if not (s.roots[i] + s.roots[j]).is_zero()]
    for sub in subs:
        assert sub.simple == _simple_by_pairs(sub), sorted(sub.members)


def test_dynkin_type_of_the_isomorphic_duplicates():
    for (t, r), iso in _ISOMORPHIC.items():
        assert rs.build(t, r).dynkin_type == [iso]
    for t, r in classify.simple_types(8):
        assert rs.build(t, r).dynkin_type == [(t, r)]
    assert rs.parse_type("D3+C2+B1").dynkin_type == [("A", 1), ("A", 3), ("B", 2)]


def test_diagram_automorphisms_from_the_cartan_matrix():
    for comps in _AUTOMORPHISM_CASES:
        s = rs.build_product(comps)
        C = s.cartan_matrix()
        autos = s.diagram_automorphisms
        n = s.rank
        assert all(C[p[i]][p[j]] == C[i][j] for p in autos for i in range(n) for j in range(n))
        assert autos == sorted(set(autos)) and autos[0] == tuple(range(n))
        group = set(autos)
        assert all(tuple(p[q[i]] for i in range(n)) in group for p in autos for q in autos)
        assert len(autos) == _automorphism_order(comps), comps


def test_product_systems():
    p = rs.build_product([("A", 2), ("A", 3)])
    assert len(p.roots) == 6 + 12
    a = p.roots[0]
    b = p.roots[-1]
    # cross-block inner products vanish
    v1 = p.vector([1, -1, 0] + [0, 0, 0, 0])
    v2 = p.vector([0, 0, 0] + [1, -1, 0, 0])
    assert p.inner(v1, v2) == 0
    assert p.type_str() == "A2+A3"


def test_display_format():
    b3 = rs.build("B3")
    assert rs.format_vector(b3.vector([1, 1, 0])) == "e1+e2"
    a3 = rs.build("A3")
    assert rs.format_vector(a3.highest_root()) == "e1-e4"
    f4 = rs.build("F4")
    half = f4.vector([Q(1, 2)] * 4)
    assert rs.format_vector(half) == "(e1+e2+e3+e4)/2"
    e6 = rs.build("E6")
    assert rs.format_vector(e6.vector([2, 0, 0, 0, 0, 0, 0])) == "2e1"
    assert rs.format_vector(e6.highest_root()) == "2e"


@given(st.integers(min_value=0, max_value=11), st.integers(min_value=0, max_value=11))
@settings(max_examples=30, deadline=None)
def test_reflect_involution_property(i, j):
    g2 = rs.build("G2")
    alpha = g2.roots[i]
    v = g2.roots[j]
    assert g2.reflect(alpha, g2.reflect(alpha, v)) == v


@pytest.mark.parametrize("tag", ["A3", "B3", "C4", "D4", "F4", "G2", "A2+A3"])
def test_strongly_orthogonal_matches_inner_product_test(tag):
    s = rs.parse_type(tag)
    n = len(s.roots)
    for i in range(n):
        for j in range(n):
            a, b = s.roots[i], s.roots[j]
            expected = s.inner(a, b) == 0 and not (s.is_root(a + b) or s.is_root(a - b))
            assert s.strongly_orthogonal(i, j) == expected, (tag, i, j)


@pytest.mark.parametrize("tag", ["A4", "B3", "D5", "F4", "G2", "A2+A2"])
def test_node_span_matches_closed_span(tag):
    import itertools

    s = rs.parse_type(tag)
    for k in range(s.rank + 1):
        for nodes in itertools.combinations(range(s.rank), k):
            gens = [s.simple_roots[i] for i in nodes]
            expected = s.closed_span(gens).members if gens else frozenset()
            assert s.node_span(nodes).members == expected, (tag, nodes)
