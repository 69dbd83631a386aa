import itertools
from collections import Counter

import pytest

from crlie import classify
from crlie import painted as pt
from crlie import rootsys as rs
from crlie.rootsys import format_vector


def G(text):
    return pt.PaintedGraph.parse(text)


def test_serialization_roundtrip():
    for s in ("B3:w,g,w", "A2+A3:g,b|w,w,g", "E6:g,w,w,w,b,w"):
        assert G(s).serialize() == s
    with pytest.raises(pt.GraphError):
        G("B3:w,g")
    with pytest.raises(pt.GraphError):
        G("B3:w,g,x")


def test_def_17_shapes_are_good():
    expected = {
        "A5:g,b,w,w,w": ("I", "e1-e2"),
        "A5:w,g,w,b,w": ("III", "e1+e2-e3-e4"),
        "D5:b,w,w,w,g": ("IV", "e2+e3+e4+e5"),
        "E6:g,w,w,w,b,w": ("V", "2e1+e6+e"),
        "A2+A2:g,b|g,b": ("II", "e1-e2-e'1+e'2"),
        "A1+A2:g|g,b": ("II", "e1-e2-e'1+e'2"),
    }
    for s, (cr, theta) in expected.items():
        v = pt.is_good(G(s))
        assert v.admissible and v.good, s
        assert v.cr_type == cr
        assert format_vector(v.theta) == theta


def test_type_v_theta_expansion():
    # 2(a1+a2+a3) + a4 + a6 evaluates exactly to 2e1+e6+eps
    e6 = rs.build("E6")
    a = e6.simple_roots
    total = e6.vector([0] * 7)
    for i, c in [(0, 2), (1, 2), (2, 2), (3, 1), (5, 1)]:
        total = total + c * a[i]
    assert total == e6.vector([2, 0, 0, 0, 0, 1, 1])
    v = pt.is_admissible(G("E6:g,w,w,w,b,w"))
    assert v.theta == total


def test_admissibility_negatives():
    assert not pt.is_admissible(G("A3:w,w,w")).admissible  # no grey
    assert not pt.is_admissible(G("A5:g,w,b,w,w")).admissible  # wrong black position
    assert not pt.is_admissible(G("A5:g,w,w,w,w")).admissible  # no black next to grey
    assert not pt.is_admissible(G("A2+A2:g,b|w,b")).admissible  # single grey in a product
    v = pt.is_admissible(G("D6:b,w,w,g,w,w"))
    assert not v.admissible  # two candidate subgraphs


def test_goodness_witnesses_named_cases():
    cases = {
        "B5:w,g,w,b,w": "e2+e3",       # middle A3 in the B series
        "E7:g,w,w,w,w,b,w": "e7-e8",
        "E8:w,w,b,w,w,w,g,w": "e1+e2+e4",
        "E8:g,w,w,w,w,w,b,w": "e7-e9",
    }
    for s, named in cases.items():
        v = pt.is_good(G(s))
        assert v.admissible and v.good is False, s
        names = {format_vector(x) for x in v.violations}
        assert named in names, (s, sorted(names))
        assert v.witness is not None


def test_d_series_good_only_at_rank5():
    for n in range(4, 9):
        s = rs.build("D", n)
        graphs = pt.enumerate_cr_graphs(s)
        if n == 5:
            assert [g.cr_type for g in graphs] == ["IV"]
        else:
            assert graphs == []
    # the mirrored D painting with theta = 2e_{n-3} is never good
    v = pt.is_good(G("D6:w,b,g,w,w,w"))
    assert v.admissible and v.good is False


def test_enumeration_matches_family_table():
    # simple types
    assert [c.cr_type for c in pt.enumerate_cr_graphs(rs.build("A2"))] == ["I"]
    assert [c.cr_type for c in pt.enumerate_cr_graphs(rs.build("A3"))] == ["I"]
    assert sorted(c.cr_type for c in pt.enumerate_cr_graphs(rs.build("A6"))) == ["I", "III"]
    assert [c.cr_type for c in pt.enumerate_cr_graphs(rs.build("E6"))] == ["V"]
    for tag in ("B4", "C4", "E7", "F4", "G2"):
        assert pt.enumerate_cr_graphs(rs.parse_type(tag)) == []
    # products: every A_p + A_q with p + q > 2 carries exactly one type II
    out = pt.enumerate_cr_graphs(rs.build_product([("A", 2), ("A", 3)]))
    assert [c.cr_type for c in out] == ["II"]
    assert pt.enumerate_cr_graphs(rs.build_product([("A", 1), ("A", 1)])) == []


def test_canonicalization_idempotent_and_triality():
    g = G("D5:b,w,w,g,w")
    c1 = pt.canonicalize(g)
    assert pt.canonicalize(c1) == c1
    assert c1.serialize() == "D5:b,w,w,w,g"
    # D4 triality: node permutations form a group of order 6 x 2
    d4 = rs.build("D4")
    autos = d4.diagram_automorphisms
    assert len(autos) == 6


def test_flag_pair():
    k, q = pt.flag_pair(G("A5:g,b,w,w,w"))
    assert k.type_str() == "A3" and q.type_str() == "A1+A3"
    assert k.members <= q.members
    k, q = pt.flag_pair(G("D5:b,w,w,w,g"))
    assert k.type_str() == "A3" and q.type_str() == "D4"
    # all-grey turns into the full system on the Q side
    g = G("A2:g,g")
    k, q = pt.flag_pair(g)
    assert len(k) == 0 and len(q) == len(g.system.roots)


def test_d_shape_theta_orthogonality():
    # the contact form of a connected D-shape subgraph is orthogonal to the
    # subgraph minus its grey node, which spans the next-lower D system
    for text, sub_expect in [("D6:w,b,g,w,w,w", "A3"), ("D5:b,w,w,w,g", "A3"),
                             ("E6:g,w,w,w,b,w", "D4")]:
        g = G(text)
        v = pt.is_admissible(g)
        assert v.admissible and v.shape == "d-shape"
        sysm = g.system
        rest = [sysm.simple_roots[i] for i in v.gamma_e if g.colors[i] == "w"]
        assert all(sysm.inner(v.theta, a) == 0 for a in rest)
        assert sysm.closed_span(rest).type_str() == sub_expect


def test_good_graph_white_span_equals_orthogonal():
    for s in ("A5:g,b,w,w,w", "D5:b,w,w,w,g", "E6:g,w,w,w,b,w"):
        g = G(s)
        v = pt.is_good(g)
        span = pt.white_span(g)
        sysm = g.system
        ortho = {i for i, r in enumerate(sysm.roots) if sysm.inner(r, v.theta) == 0}
        assert span.members == frozenset(ortho)


# -- the candidate generator against the 3^rank loop -----------------------------------


def _enumerate_by_product(system):
    """The reference enumeration: every painting with a grey node through
    is_good, is_proper and canonicalize."""
    out = {}
    for colors in itertools.product("wbg", repeat=system.rank):
        if "g" not in colors:
            continue
        g = pt.PaintedGraph(system, colors)
        v = pt.is_good(g)
        if not (v.admissible and v.good) or not pt.is_proper(g):
            continue
        rep = pt.canonicalize(g)
        vr = pt.is_good(rep)
        out[rep.serialize()] = pt.CRGraph(rep, vr.cr_type, vr.theta)
    return sorted(out.values(), key=lambda c: c.graph.serialize())


def _systems(max_rank):
    out = [rs.build(t, r) for t, r in classify.simple_types(max_rank)]
    out += [rs.build_product([("A", p), ("A", q)]) for p, q in classify.product_types(max_rank)]
    return out


def test_enumeration_matches_the_product_loop():
    systems = _systems(5) + [rs.build_product([("A", 1), ("A", 2), ("A", 2)])]
    for system in systems:
        got = pt.enumerate_cr_graphs(system)
        want = _enumerate_by_product(system)
        assert [(c.graph.serialize(), c.cr_type, c.theta) for c in got] == [
            (c.graph.serialize(), c.cr_type, c.theta) for c in want
        ], system.type_str()


def test_candidates_hold_every_admissible_painting():
    # the argument of _candidate_paintings, checked on every painting
    for system in _systems(6):
        cands = set(pt._candidate_paintings(system))
        for colors in itertools.product("wbg", repeat=system.rank):
            if pt.is_admissible(pt.PaintedGraph(system, colors)).admissible:
                assert colors in cands, (system.type_str(), colors)


def test_is_good_calls_track_the_output(monkeypatch):
    calls = 0
    is_good = pt.is_good

    def counting(g):
        nonlocal calls
        calls += 1
        return is_good(g)

    monkeypatch.setattr(pt, "is_good", counting)
    assert len(classify.crgraph_rows(8)) == 29
    # the 3^rank loop made 80,431 calls here
    assert calls < 1000


def test_is_good_judges_one_painting_per_diagram_orbit(monkeypatch):
    judged = []
    is_good = pt.is_good
    monkeypatch.setattr(pt, "is_good", lambda g: judged.append(g) or is_good(g))
    total = paintings = 0
    for system in _systems(7):
        autos = system.diagram_automorphisms
        cands = pt._candidate_paintings(system)
        orbits = {min(tuple(colors[p.index(i)] for i in range(system.rank)) for p in autos)
                  for colors in cands}
        judged.clear()
        pt.enumerate_cr_graphs(system)
        assert len(judged) == len(orbits), system.type_str()
        assert {min(tuple(g.colors[p.index(i)] for i in range(system.rank)) for p in autos)
                for g in judged} == orbits, system.type_str()
        total += len(orbits)
        paintings += len(cands)
    assert (paintings, total) == (284, 202)


# -- the D-shapes against their definition ----------------------------------------------


def _d_shapes_by_definition(system, grey):
    """(nodes, chain) of every D-shape with the grey node at its chain end,
    from the definition over node subsets: the induced graph is the Dynkin
    diagram of D_n, n >= 3 (D3 = A3 with the grey node in the middle), its
    roots are simply laced, and the chain runs from the grey node to the
    fork, the one node of the largest degree, through n - 2 nodes."""
    C = system.cartan_matrix()
    others = [i for i in range(system.rank) if i != grey]
    out = []
    for size in range(2, system.rank):
        for extra in itertools.combinations(others, size):
            nodes = {grey, *extra}
            n = len(nodes)
            adj = {i: system.adjacency[i] & nodes for i in nodes}
            degrees = sorted(len(a) for a in adj.values())
            shape = [1, 1, 2] if n == 3 else [1, 1, 1] + [2] * (n - 4) + [3]
            if degrees != shape or any(C[i][j] * C[j][i] > 1 for i in nodes for j in adj[i]):
                continue
            # n - 1 edges and the degrees of D_n: a tree exactly when connected
            path = {grey: [grey]}
            frontier = [grey]
            while frontier:
                i = frontier.pop()
                for j in adj[i] - set(path):
                    path[j] = path[i] + [j]
                    frontier.append(j)
            if len(path) != n:
                continue
            fork = max(nodes, key=lambda i: len(adj[i]))
            if len(path[fork]) == n - 2:
                out.append((frozenset(nodes), path[fork]))
    return out


def test_d_shapes_match_their_definition():
    shapes = 0
    for t, r in classify.simple_types(8):
        system = rs.build(t, r)
        for grey in range(r):
            lone = pt.PaintedGraph(system, tuple("g" if i == grey else "w" for i in range(r)))
            cands = pt._gamma_e_candidates(lone)
            assert all(shape == "d-shape" for shape, _, _ in cands)
            got = Counter((nodes, tuple(chain)) for _, nodes, chain in cands)
            want = Counter((nodes, tuple(chain))
                           for nodes, chain in _d_shapes_by_definition(system, grey))
            assert got == want, (system.type_str(), grey)
            shapes += len(cands)
    assert shapes > 100


# -- goodness by counting against the set comparison ---------------------------------


def is_good_reference(g):
    """(good, missing) of an admissible painting: the white span against
    the roots orthogonal to theta, as sets."""
    v = pt.is_admissible(g)
    ortho = g.system.orthogonal_roots(v.theta)
    span = pt.white_span(g).members
    return span == ortho, ortho - span


def canonicalize_reference(g):
    """The orbit representative with is_admissible run on every permuted
    painting."""
    best = None
    for perm in g.system.diagram_automorphisms:
        colors = [None] * len(g.colors)
        for i, c in enumerate(g.colors):
            colors[perm[i]] = c
        cand = pt.PaintedGraph(g.system, tuple(colors))
        verdict = pt.is_admissible(cand)
        if verdict.admissible:
            tc = verdict.theta.numerators()
            theta_key = (tuple(abs(x) for x in tc), tc)
        else:
            theta_key = ((), ())
        key = (theta_key, cand.colors)
        if best is None or key > best[0]:
            best = (key, cand)
    return best[1]


@pytest.mark.parametrize("system", _systems(6), ids=rs.RootSystem.type_str)
def test_counted_goodness_matches_the_set_comparison(system):
    """Every painting: the same verdict, reason, missing roots, violations,
    properness and orbit representative."""
    for colors in itertools.product("wbg", repeat=system.rank):
        g = pt.PaintedGraph(system, colors)
        v = pt.is_good(g)
        assert pt.is_proper(g) == (len(system.node_span(g.nodes("w") + g.nodes("g")))
                                   < len(system.roots))
        assert pt.canonicalize(g) == canonicalize_reference(g), g.serialize()
        if not v.admissible:
            assert v.good is None and v.missing == frozenset() and v.violations == ()
            continue
        good, missing = is_good_reference(g)
        assert (v.good, v.missing) == (good, missing), g.serialize()
        assert v.reason == ("ok" if good else "white span differs from the orthogonal roots")
        assert v.violations == tuple(sorted(
            (system.roots[i] for i in missing),
            key=lambda r: (not system.positive[system.root_index(r)],
                           system.height(system.root_index(r)), r.numerators())))
        assert (v.cr_type is None) != good
