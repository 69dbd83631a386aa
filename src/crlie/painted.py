"""Three-color painted Dynkin graphs and the CR-graph enumeration.

A painting colors each node white, black or grey.  Admissible graphs carry
a distinguished subgraph of the grey/white nodes: either a simply-laced
D-shape with the grey node at the chain end (connected case), a pair of
grey nodes in the two components of a product (split case), or a single
grey end node whose only neighbor is black (special case).  The induced
contact form theta(Gamma) is the fixed combination of the subgraph's
simple roots; a graph is good when the white nodes span exactly the roots
orthogonal to theta(Gamma).

The Dynkin diagram is a tree, so the D-shapes are read off it directly:
the path from the grey node to a fork in its white region, plus two more
neighbors of the fork (_gamma_e_candidates).

Admissibility paints the black nodes as the subgraph's neighbors and every
node off the subgraph and its neighbors white, so a painting that can be
admissible is fixed by its grey node(s) and its subgraph.  The enumeration
paints just those candidates, a few per node rather than 3^rank paintings.
A diagram symmetry keeps admissibility, goodness, properness and the CR
type, so it puts one candidate per diagram-automorphism orbit through
is_good and is_proper, and canonicalize takes the verdict is_good made.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

from .rootsys import RootSystem, RootVector, Subsystem, parse_type

WHITE, BLACK, GREY = "w", "b", "g"


class GraphError(ValueError):
    pass


class PaintedGraph:
    """A painting of a system's Dynkin diagram, one color per node; equal
    and hashed by value."""

    __slots__ = ("system", "colors")

    def __init__(self, system: RootSystem, colors: tuple[str, ...]):
        if len(colors) != system.rank:
            raise GraphError(f"{system.type_str()} has {system.rank} nodes, "
                             f"expected one color per node, got {len(colors)}")
        for k, c in enumerate(colors, 1):
            if c not in (WHITE, BLACK, GREY):
                raise GraphError(f"node {k} has color {c!r}, expected w, b or g")
        self.system = system
        self.colors = colors

    def __eq__(self, other):
        if other.__class__ is not PaintedGraph:
            return NotImplemented
        return self.system == other.system and self.colors == other.colors

    def __hash__(self):
        return hash((self.system, self.colors))

    # -- serialization ---------------------------------------------------------

    def serialize(self) -> str:
        parts = []
        pos = 0
        for t, r in self.system.components:
            parts.append(",".join(self.colors[pos : pos + r]))
            pos += r
        return f"{self.system.type_str()}:" + "|".join(parts)

    @staticmethod
    def parse(text: str) -> "PaintedGraph":
        try:
            head, body = text.split(":")
        except ValueError:
            raise GraphError(f"expected TYPE:colors, got {text!r}")
        system = parse_type(head)
        colors = []
        for part in body.split("|"):
            colors.extend(c.strip() for c in part.split(","))
        return PaintedGraph(system, tuple(colors))

    # -- graph structure ---------------------------------------------------------

    def nodes(self, color: str) -> list[int]:
        return [i for i, c in enumerate(self.colors) if c == color]


def _single_laced(system: RootSystem, nodes: frozenset[int]) -> bool:
    """No multiple edge joins two of the nodes: C[i][j]*C[j][i] is 0 or 1.

    On a connected node set this says that all its simple roots have one
    length, since the roots of every edge then have equal lengths."""
    C = system.cartan_matrix()
    return all(C[i][j] * C[j][i] in (0, 1) for i in nodes for j in nodes if i != j)


class GraphVerdict:
    def __init__(self, admissible: bool, reason: str, shape: str = "",
                 gamma_e: frozenset[int] = frozenset(), theta: Optional[RootVector] = None,
                 good: Optional[bool] = None, cr_type: Optional[str] = None,
                 whites: frozenset[int] = frozenset()):
        self.admissible = admissible
        self.reason = reason
        self.shape = shape  # "d-shape", "split", "special"
        self.gamma_e = gamma_e
        self.theta = theta
        self.good = good
        self.cr_type = cr_type
        self.whites = whites  # the white nodes of a judged painting

    @cached_property
    def missing(self) -> frozenset[int]:
        """The roots orthogonal to theta off the white span, on first read;
        none unless the painting was judged not good."""
        if self.good is not False:
            return frozenset()
        sys = self.theta.system
        return sys.orthogonal_roots(self.theta) - sys.node_span(self.whites).members

    @cached_property
    def violations(self) -> tuple[RootVector, ...]:
        """The missing roots, positive first, then by height and ambient
        coordinates; sorted on first read, which the enumeration never does."""
        if not self.missing:
            return ()
        sys = self.theta.system
        missing = sorted(
            self.missing,
            key=lambda i: (not sys.positive[i], sys.height(i), sys.roots[i].numerators()),
        )
        return tuple(sys.roots[i] for i in missing)

    @property
    def witness(self) -> Optional[RootVector]:
        return self.violations[0] if self.violations else None


def _gamma_e_candidates(g: PaintedGraph) -> list[tuple[str, frozenset[int], Optional[list[int]]]]:
    """The split subgraph of a grey pair, or the D-shapes of a lone grey
    node, each with its chain.

    The Dynkin diagram is a tree, so a D-shape whose other nodes are white
    is read off it: the path from the grey node to a fork f in its white
    region (the chain), plus two more region neighbors of f, simply laced.
    With f the grey node itself this is D3 = A3, chain [grey]."""
    greys = g.nodes(GREY)
    comps = g.system.component_nodes
    if len(greys) == 2 and len(comps) == 2:
        c1 = next(c for c in comps if greys[0] in c)
        c2 = next(c for c in comps if greys[1] in c)
        if c1 is not c2:
            return [("split", frozenset(greys), None)]
        return []
    if len(greys) != 1 or len(comps) != 1:
        return []
    grey = greys[0]
    adj = g.system.adjacency
    # the white region around the grey node, a subtree of the Dynkin tree;
    # parent[j] is the next node from j toward the grey node
    parent: dict[int, Optional[int]] = {grey: None}
    frontier = [grey]
    while frontier:
        i = frontier.pop()
        for j in adj[i]:
            if j not in parent and g.colors[j] == WHITE:
                parent[j] = i
                frontier.append(j)
    found = []
    for fork in parent:
        chain = [fork]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]])
        chain.reverse()
        arms = [j for j in adj[fork] if j in parent and j != parent[fork]]
        for pair in itertools.combinations(arms, 2):
            nodes = frozenset((*chain, *pair))
            if _single_laced(g.system, nodes):
                found.append(("d-shape", nodes, chain))
    return found


def _theta_for(g: PaintedGraph, shape: str, gamma_e: frozenset[int], chain) -> RootVector:
    c = [0] * g.system.rank
    if shape == "split":
        g1, g2 = sorted(gamma_e)
        c[g1], c[g2] = 1, -1
    else:
        chain_set = set(chain or ())
        for i in gamma_e:
            c[i] = 2 if i in chain_set else 1
    return RootVector(g.system, c)


def is_admissible(g: PaintedGraph) -> GraphVerdict:
    blacks = set(g.nodes(BLACK))
    adj = g.system.adjacency

    def neighbor_check(gamma_e: frozenset[int]) -> bool:
        linked = set()
        for i in gamma_e:
            linked |= adj[i] - gamma_e
        return blacks == linked

    cands = _gamma_e_candidates(g)
    if len(cands) > 1:
        return GraphVerdict(False, "multiple candidate subgraphs of the required shape")
    if len(cands) == 1:
        shape, gamma_e, chain = cands[0]
        if not neighbor_check(gamma_e):
            return GraphVerdict(False, "black nodes are not exactly the neighbors of the subgraph")
        theta = _theta_for(g, shape, gamma_e, chain)
        return GraphVerdict(True, "ok", shape, gamma_e, theta)
    # special shape: single grey node standing alone as the subgraph
    greys = g.nodes(GREY)
    if len(greys) == 1 and len(g.system.component_nodes) == 1:
        gamma_e = frozenset(greys)
        if neighbor_check(gamma_e):
            theta = _theta_for(g, "special", gamma_e, None)
            return GraphVerdict(True, "ok", "special", gamma_e, theta)
        return GraphVerdict(False, "black nodes are not exactly the neighbors of the grey node")
    if not greys:
        return GraphVerdict(False, "no grey node")
    return GraphVerdict(False, "no subgraph of the required shape")


def white_span(g: PaintedGraph) -> Subsystem:
    return g.system.node_span(g.nodes(WHITE))


def is_good(g: PaintedGraph) -> GraphVerdict:
    """Admissible, and the white nodes span exactly the roots orthogonal to
    theta, decided by counting.

    A white simple root that pairs with theta lies in the white span and
    not in theta-perp.  When none does, the white span lies in theta-perp,
    and equality is equality of sizes.  A Weyl element w carries the roots
    orthogonal to theta onto those orthogonal to lambda = w theta =
    dominant(theta), and a root orthogonal to a dominant lambda, a sum of
    simple roots with coefficients of one sign against pairings >= 0, lies
    in the node span of the simple roots orthogonal to lambda."""
    v = is_admissible(g)
    if not v.admissible:
        return v
    sys = g.system
    whites = frozenset(g.nodes(WHITE))
    good = not any(k in whites for k, _ in v.theta.covector())
    if good:
        lam = sys.dominant(v.theta)
        perp = set(range(sys.rank)).difference(k for k, _ in lam.covector())
        good = sys.node_span_size(whites) == sys.node_span_size(perp)
    if good:
        return GraphVerdict(True, "ok", v.shape, v.gamma_e, v.theta, good=True,
                            cr_type=_cr_type(g, v), whites=whites)
    return GraphVerdict(True, "white span differs from the orthogonal roots",
                        v.shape, v.gamma_e, v.theta, good=False, whites=whites)


def _cr_type(g: PaintedGraph, v: GraphVerdict) -> str:
    sys = g.system
    if v.shape == "special":
        return "I"
    if v.shape == "split":
        return "II"
    t = sys.dynkin_type[0][0]
    return {"A": "III", "D": "IV", "E": "V"}.get(t, "?")


def is_proper(g: PaintedGraph) -> bool:
    """The flag manifold G/Q is nontrivial: white+grey nodes span less than
    R.  Their span holds the simple root alpha_k exactly when node k is
    white or grey, so it is R exactly when no node is black."""
    return BLACK in g.colors


def _permuted(xs: tuple, perm: tuple[int, ...]) -> tuple:
    """One entry per node, colors or coordinates, with node i's moved to
    node perm[i]."""
    out = [None] * len(xs)
    for i, x in enumerate(xs):
        out[perm[i]] = x
    return tuple(out)


def _permuted_theta(g: PaintedGraph, v: GraphVerdict, perm: tuple[int, ...]) -> RootVector:
    """The theta of g's painting moved by the diagram symmetry perm, for
    g's admissible verdict v: a symmetry keeps admissibility and carries
    the subgraph and its chain (the nodes where theta is 2) to those of
    the permuted painting, so this is _theta_for on their images."""
    chain = [perm[i] for i, x in enumerate(v.theta.c) if x == 2]
    return _theta_for(g, v.shape, frozenset(perm[i] for i in v.gamma_e), chain)


def canonicalize(g: PaintedGraph, v: Optional[GraphVerdict] = None) -> PaintedGraph:
    """Diagram-automorphism orbit representative.

    Prefers the variant whose contact form concentrates on low coordinate
    indices (largest absolute gauge profile, then largest signed one), which
    reproduces the reference presentation of each family; each permuted
    theta is _permuted_theta.  v is g's verdict, from is_admissible or
    is_good, when the caller has it.
    """
    if v is None:
        v = is_admissible(g)
    best = None
    for perm in g.system.diagram_automorphisms:
        cand = PaintedGraph(g.system, _permuted(g.colors, perm))
        if v.admissible:
            tc = _permuted_theta(g, v, perm).numerators()
            theta_key = (tuple(abs(x) for x in tc), tc)
        else:
            theta_key = ((), ())
        key = (theta_key, cand.colors)
        if best is None or key > best[0]:
            best = (key, cand)
    return best[1]


class CRGraph:
    __slots__ = ("graph", "cr_type", "theta")

    def __init__(self, graph: PaintedGraph, cr_type: str, theta: RootVector):
        self.graph = graph
        self.cr_type = cr_type
        self.theta = theta


def _paint(system: RootSystem, greys: frozenset[int], gamma_e: frozenset[int]) -> tuple[str, ...]:
    """The one painting with these grey nodes and this subgraph that
    is_admissible can accept: black on the subgraph's outside neighbors,
    white elsewhere."""
    adj = system.adjacency
    colors = [WHITE] * system.rank
    for i in gamma_e:
        for j in adj[i] - gamma_e:
            colors[j] = BLACK
    for i in greys:
        colors[i] = GREY
    return tuple(colors)


def _candidate_paintings(system: RootSystem) -> list[tuple[str, ...]]:
    """Every painting that is_admissible can accept, each once.

    An admissible painting has one grey node on a simple system, or one per
    factor on a two-factor product, and none on more factors; its black
    nodes are exactly the outside neighbors of its subgraph, and every other
    node is white.  So the grey node(s) and the subgraph fix it.  The
    subgraph is the grey pair (split), the grey node alone (special) or a
    D-shape with the grey node at the chain end, whose other nodes are white;
    every such D-shape is one of the subgraph candidates of the painting that
    is all white but the grey node.  The candidates are painted here only;
    is_admissible still decides on each of them.
    """
    comps = system.component_nodes
    found: dict[tuple[str, ...], None] = {}
    if len(comps) == 2:
        for g1 in comps[0]:
            for g2 in comps[1]:
                pair = frozenset((g1, g2))
                found[_paint(system, pair, pair)] = None
    elif len(comps) == 1:
        for g in range(system.rank):
            grey = frozenset((g,))
            found[_paint(system, grey, grey)] = None
            lone = PaintedGraph(system, tuple(GREY if i == g else WHITE for i in range(system.rank)))
            for _shape, gamma_e, _chain in _gamma_e_candidates(lone):
                found[_paint(system, grey, gamma_e)] = None
    return list(found)


def enumerate_cr_graphs(system: RootSystem) -> list[CRGraph]:
    """All good, proper painted graphs of a root system up to diagram
    symmetry, sorted by their serialization.  It judges one painting of
    _candidate_paintings per diagram-automorphism orbit: a diagram
    symmetry keeps admissibility, goodness, properness and the CR type,
    and every member of an orbit has one canonical representative, whose
    theta is _permuted_theta of the judged painting.
    """
    out = []
    seen: set[tuple[str, ...]] = set()
    for colors in _candidate_paintings(system):
        if colors in seen:
            continue
        orbit = {_permuted(colors, perm): perm for perm in system.diagram_automorphisms}
        seen.update(orbit)
        g = PaintedGraph(system, colors)
        v = is_good(g)
        if not (v.admissible and v.good and is_proper(g)):
            continue
        rep = canonicalize(g, v)
        out.append(CRGraph(rep, v.cr_type, _permuted_theta(g, v, orbit[rep.colors])))
    return sorted(out, key=lambda c: c.graph.serialize())


def flag_pair(g: PaintedGraph) -> tuple[Subsystem, Subsystem]:
    """Root systems of K (whites only) and Q (whites and greys); K <= Q."""
    sys = g.system
    k = white_span(g)
    q = sys.node_span(g.nodes(WHITE) + g.nodes(GREY))
    if not k.members <= q.members:
        raise GraphError("white subsystem is not contained in the grey-white one")
    return k, q
