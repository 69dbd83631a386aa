"""Root systems: simple-root coordinates inside, the tables' ambient
coordinates at the edges.

The roots come from the integer Cartan matrix by alpha-strings, layer by
height (Humphreys, Introduction to Lie Algebras and Representation Theory,
9.4 and 10.1).  Every positive root of height h + 1 is c + alpha_k for a
root c of height h (10.2), and the walk that finds the roots returns the
height tree it climbs (_root_expansions).  Every per-root table that is
linear in the root (the heights, the root codes, the ambient coordinates,
the pairings with a vector, the squared lengths by (c + alpha_k,
c + alpha_k) = (c, c) + 2 (c, alpha_k) + (alpha_k, alpha_k)) costs one
addition per positive root, summed from its parent, and one negation per
negative root (RootSystem.tree_sums).

B/C/D/F4 live in an orthonormal basis e1..el.  A, E7, E8 and G2 use the
relation basis: l+1 vectors summing to zero with Gram matrix
(ei, ej) = l/(l+1) for i = j and -1/(l+1) otherwise.  E6 uses six relation
vectors (l = 5) plus one auxiliary vector e with (e, e) = 1/2.  Coordinates
in a relation block are only defined up to adding a multiple of
(1, ..., 1); the sum-zero gauge fixes them.

Each relation block drops one dimension, so every ambient vector lies in
the span of the simple roots.  A RootVector holds int simple-root
coordinates over one positive int denominator, in lowest terms (a root's
is 1).  Every pairing reads one int Gram matrix of the simple roots over
one positive int gden, and the int squared lengths over gden; the Weyl
machinery reads the integer Cartan matrix (Humphreys 10.1-10.3).  The
simple roots' ambient rows are gauged in ints; parsing inverts them
through the Gram matrix, whose pairings kill a relation block's
(1, ..., 1), so no gauge is needed, and whose inverse is its int adjugate
over its determinant, by fraction-free elimination.  Ambient coordinates
serve only parsing, printing and the canonical orderings, which read int
numerators (RootVector.numerators); a printed coordinate is its numerator
and the system's denominator, each over their gcd.  Fractions are built
only where coordinates are parsed and in canon(), norm2 and inner.  A subsystem's type is read off the Cartan matrix of its
base, and checked by counting its roots at each length (Humphreys 11.4).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, neg
from typing import Iterable, Optional, Sequence

from .linalg import chamber_walk, fraction_free_rref, nullspace

Q = Fraction

VALID_TYPES = ("A", "B", "C", "D", "E", "F", "G")


class RootSystemError(ValueError):
    """Invalid type/rank combination or ill-formed query."""


class Block:
    """One coordinate block of the ambient space."""

    __slots__ = ("kind", "start", "size")

    def __init__(self, kind: str, start: int, size: int):
        self.kind = kind  # "ortho", "rel" or "aux"
        self.start = start
        self.size = size


class RootVector:
    """A vector of the root span: int simple-root coordinates c over one
    positive int den, in lowest terms (a root's den is 1).

    The constructor also takes rationals and clears them.  numerators()
    are its ambient coordinates in the sum-zero gauge times the system's
    one positive denominator, filled for a root when its system is built
    and derived on first use for any other vector; canon() is that tuple
    over the denominator, as Fractions."""

    __slots__ = ("system", "c", "den", "_num", "_cov")

    def __init__(self, system: "RootSystem", c: Iterable, den: int = 1):
        c = tuple(c)
        if len(c) != system.rank:
            raise RootSystemError("coordinate length does not match the rank")
        if not all(type(x) is int for x in c):  # ints and Fractions
            q = lcm(*(x.denominator for x in c))
            c, den = tuple(x.numerator * (q // x.denominator) for x in c), den * q
        g = gcd(den, *c)
        if g != 1:
            c, den = tuple(x // g for x in c), den // g
        self.system, self.c, self.den = system, c, den
        self._num = self._cov = None

    @staticmethod
    def _roots(system: "RootSystem", expansions: Iterable[tuple[int, ...]],
               nums: Iterable[tuple[int, ...]]) -> list:
        """The roots of system from their expansions, which are primitive
        int tuples already, and their ambient ints (_ints): no type check,
        no gcd and no product."""
        out = []
        for e, num in zip(expansions, nums):
            v = object.__new__(RootVector)
            v.system, v.c, v.den, v._num, v._cov = system, e, 1, num, None
            out.append(v)
        return out

    def _ints(self) -> tuple:
        """Ambient coordinates in the sum-zero gauge times
        system._ambient[0] * den: ints."""
        if self._num is None:
            rows = self.system._ambient[1]
            out = [0] * self.system.dim
            for x, row in zip(self.c, rows):
                if x:
                    for k, y in row:
                        out[k] += x * y
            self._num = tuple(out)
        return self._num

    def numerators(self) -> tuple:
        """Ambient coordinates in the sum-zero gauge times system._ambient[0],
        ints for a root.  All vectors of a system share that positive
        denominator, so these tuples order as canon() does: every
        canonical ordering keys on them."""
        num, den = self._ints(), self.den
        return num if den == 1 else tuple(_over(x, den) for x in num)

    def canon(self) -> tuple:
        """Ambient coordinates in the sum-zero gauge, as Fractions."""
        den = self.system._ambient[0] * self.den
        return tuple(Q(x, den) for x in self._ints())

    coords = property(canon)

    def covector(self) -> list[tuple[int, int]]:
        """(v, alpha_k) for each simple root alpha_k times den * gden, a
        positive int, as (k, entry) for the nonzero entries: the row of v
        in the system's int Gram matrix.  sum u.c[k] * entry over them is
        (u, v) times u.den * v.den * gden."""
        if self._cov is None:
            out = [0] * self.system.rank
            for x, row in zip(self.c, self.system._gram_rows):
                if x:
                    for k, y in row:
                        out[k] += x * y
            self._cov = [(k, y) for k, y in enumerate(out) if y]
        return self._cov

    def __add__(self, other: "RootVector") -> "RootVector":
        self._check(other)
        a, b = self.den, other.den
        return RootVector(self.system, [x * b + y * a for x, y in zip(self.c, other.c)], a * b)

    def __sub__(self, other: "RootVector") -> "RootVector":
        return self + -other

    def __neg__(self) -> "RootVector":
        return RootVector(self.system, [-x for x in self.c], self.den)

    def __rmul__(self, s) -> "RootVector":
        s = Q(s)
        return RootVector(self.system, [s.numerator * x for x in self.c], s.denominator * self.den)

    def _check(self, other: "RootVector"):
        if other.system is not self.system:
            raise RootSystemError("vectors belong to different ambient spaces")

    def is_zero(self) -> bool:
        return not any(self.c)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootVector):
            return NotImplemented
        return self.system is other.system and self.c == other.c and self.den == other.den

    def __hash__(self):
        return hash((id(self.system), self.c, self.den))

    def __repr__(self):
        return f"RootVector({format_vector(self)})"


class RootSystem:
    """A (possibly reducible) root system with its simple basis and tables."""

    def __init__(self, components: Sequence[tuple[str, int]]):
        self.components = tuple((t, int(r)) for t, r in components)
        self.blocks: list[Block] = []
        self.comp_blocks: list[list[Block]] = []
        dim = 0
        for t, r in self.components:
            blocks = []
            for kind, size in _block_layout(t, r):
                blocks.append(Block(kind, dim, size))
                dim += size
            self.comp_blocks.append(blocks)
            self.blocks.extend(blocks)
        self.dim = dim

        # the simple roots' sparse ambient rows in the sum-zero gauge: a
        # factor's int rows x over d, with a relation block of size m at its
        # start (else m = 1), become m x_i - sum x in it, m x_i off it, over m d
        over: list[tuple[int, list[tuple[int, int]]]] = []
        # simple-root indices of each factor; a factor's Dynkin graph is connected
        self.component_nodes: list[frozenset[int]] = []
        for (t, r), blocks in zip(self.components, self.comp_blocks):
            d, simples = _component_simples(t, r)
            rel = sum(b.size for b in blocks if b.kind == "rel")
            m, off, first = rel or 1, blocks[0].start, len(over)
            over += [(m * d, [(off + k, m * y - sum(x[:rel]) if k < rel else m * y)
                              for k, y in enumerate(x)]) for x in simples]
            self.component_nodes.append(frozenset(range(first, len(over))))
        den = lcm(*(q for q, _ in over))
        rows = [[(k, den // q * y) for k, y in row if y] for q, row in over]
        g = gcd(den, *(y for row in rows for _, y in row))
        # the map to ambient coordinates, in lowest terms
        self._ambient = den // g, [[(k, y // g) for k, y in row] for row in rows]
        self.rank = len(rows)
        self.simple_roots = [RootVector(self, [int(j == i) for j in range(self.rank)])
                             for i in range(self.rank)]
        # the Gram matrix of the simple roots as ints _igram over one
        # positive int gden, from the int rows at twice the metric (_weights:
        # the gauged relation vectors pair by the dot product, and E6's aux
        # vector has (e, e) = 1/2), and the Cartan matrix
        # C[i][j] = <alpha_i | alpha_j> = 2 (a_i, a_j) / (a_j, a_j)
        den, rows = self._ambient
        w2 = self._weights = [1 if b.kind == "aux" else 2 for b in self.blocks
                              for _ in range(b.size)]
        cols: list[list[tuple[int, int]]] = [[] for _ in w2]
        for j, row in enumerate(rows):
            for k, y in row:
                cols[k].append((j, w2[k] * y))
        g2 = [[0] * len(rows) for _ in rows]
        for out, row in zip(g2, rows):
            for k, x in row:
                for j, y in cols[k]:
                    out[j] += x * y
        q = gcd(2 * den * den, *(x for row in g2 for x in row))
        self.gden = 2 * den * den // q
        gi = self._igram = tuple(tuple(x // q for x in row) for row in g2)
        self._cartan = tuple(tuple(2 * x // gi[j][j] for j, x in enumerate(row)) for row in gi)

        # simple-root expansions as int tuples, and the height tree the
        # root walk climbs
        ex, tree = self.expansions, self._tree = _root_expansions(self._cartan)
        self._by_expansion = {e: i for i, e in enumerate(ex)}
        self.neg_index = [0] * len(ex)
        for i, ni, _, _ in tree:
            self.neg_index[i], self.neg_index[ni] = ni, i
        # the largest coefficient of a root's expansion
        self.top_coefficient = max(map(max, ex))
        # one int per root, sum_k e_k B^k with B = 4 top_coefficient + 1:
        # linear, and injective on the sums and differences of two roots,
        # whose own differences stay below B in every entry, so such a sum
        # or difference is a root exactly when its code is a root's code
        base = 4 * self.top_coefficient + 1
        self.codes = self.tree_sums([base**k for k in range(self.rank)])
        self.by_code = {c: i for i, c in enumerate(self.codes)}
        # the sum of a root's expansion
        self._heights = self.tree_sums([1] * self.rank)
        # a root's entries share one sign, and a code has the sign of its
        # last nonzero entry
        self.positive = [c > 0 for c in self.codes]
        # each ambient coordinate of every root, the tree sum of that
        # coordinate of the simple roots' rows
        steps = [[0] * self.rank for _ in range(self.dim)]
        for j, row in enumerate(rows):
            for k, y in row:
                steps[k][j] = y
        self.roots = RootVector._roots(self, ex, zip(*map(self.tree_sums, steps)))
        # the sparse rows of _igram: a Dynkin tree's row has at most 4
        # nonzero entries
        sparse = self._gram_rows = [[(j, x) for j, x in enumerate(row) if x] for row in gi]
        # squared lengths times gden, (c + a_k, c + a_k) = (c, c) + 2 (c, a_k)
        # + (a_k, a_k); a root and its negative share one
        ints = self.int_norms = [0] * (len(ex) + 1)  # ints[-1]: a simple root's parent
        for i, ni, p, k in tree:
            pair = sum(ex[p][j] * y for j, y in sparse[k]) if p >= 0 else 0
            ints[i] = ints[ni] = ints[p] + 2 * pair + gi[k][k]
        ints.pop()

    def tree_sums(self, steps: Sequence[int]) -> list[int]:
        """sum_k e_k steps[k] for each root's expansion e, by root index: a
        positive root's is its parent's in the height tree plus one step,
        and a negative root's the negation of its negative's."""
        out = [0] * (len(self.expansions) + 1)  # out[-1]: a simple root's parent
        for i, ni, p, k in self._tree:
            out[i] = x = out[p] + steps[k]
            out[ni] = -x
        out.pop()
        return out

    def pairings(self, v: RootVector) -> list[int]:
        """(a, v) for each root a, by root index, times v.den * gden: the
        tree sums of v's int covector."""
        steps = [0] * self.rank
        for k, y in v.covector():
            steps[k] = y
        return self.tree_sums(steps)

    # -- ambient coordinates ------------------------------------------------------

    @cached_property
    def _coords(self) -> tuple[int, list[list[tuple[int, int]]]]:
        """The inverse of _ambient, built on first use, as int rows over one
        denominator: row k is the inverse Gram matrix applied to e_k's
        pairings with the simple roots, column k of _ambient at twice the
        metric over 2 _ambient[0].  They kill a relation block's
        (1, ..., 1), so no gauge is needed (Humphreys 10.1).  The inverse
        of _igram is its adjugate over its determinant (fraction_free_rref)."""
        den, rows = self._ambient
        n = self.rank
        m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(self._igram)]
        det, adj = fraction_free_rref(m)[1], [row[n:] for row in m]
        cols: list[list[tuple[int, int]]] = [[] for _ in range(self.dim)]
        for j, row in enumerate(rows):
            for k, y in row:
                cols[k].append((j, y))
        num = [[w * self.gden * sum(y * a[j] for j, y in col) for a in adj]
               for w, col in zip(self._weights, cols)]
        q = 2 * den * det
        g = gcd(q, *(x for row in num for x in row))
        return q // g, [[(j, x // g) for j, x in enumerate(row) if x] for row in num]

    def vector(self, coords: Sequence) -> RootVector:
        """The vector with the given ambient coordinates: coords times the
        int rows of _coords, over their denominator."""
        if len(coords) != self.dim:
            raise RootSystemError("coordinate length does not match ambient space")
        den, rows = self._coords
        acc = [0] * self.rank
        for x, row in zip(coords, rows):
            x = x if type(x) is int else Q(x)  # an integral coordinate multiplies as an int
            x = x.numerator if x.denominator == 1 else x
            for j, y in row:
                acc[j] += x * y
        return RootVector(self, acc, den)

    # -- basic queries ---------------------------------------------------------

    @property
    def is_simple(self) -> bool:
        return len(self.components) == 1

    def type_str(self) -> str:
        return "+".join(f"{t}{r}" for t, r in self.components)

    def inner(self, u: RootVector, v: RootVector) -> Q:
        if u.system is not self or v.system is not self:
            raise RootSystemError("vectors belong to a different system")
        return Q(_pair(u, v), u.den * v.den * self.gden)

    def orthogonal_roots(self, v: RootVector) -> frozenset[int]:
        """Indices of the roots orthogonal to v: the zeros of pairings."""
        if v.system is not self:
            raise RootSystemError("vectors belong to a different system")
        return frozenset(i for i, p in enumerate(self.pairings(v)) if not p)

    def root_index(self, v: RootVector) -> Optional[int]:
        return self._by_expansion.get(v.c) if v.den == 1 else None

    def is_root(self, v: RootVector) -> bool:
        return self.root_index(v) is not None

    def root_along(self, v: RootVector) -> Optional[int]:
        """Index of the root that is a positive multiple of v, if one is.

        Every root's expansion is a primitive integer vector, so that root
        is the one whose expansion is v's coordinates scaled to one."""
        g = gcd(*v.c)
        return self._by_expansion.get(tuple(x // g for x in v.c)) if g else None

    def norm2(self, i: int) -> Q:
        return Q(self.int_norms[i], self.gden)

    def height(self, i: int) -> int:
        return self._heights[i]

    def sum_index(self, i: int, j: int) -> Optional[int]:
        """Index of root_i + root_j, or None when the sum is not a root: the
        root whose code is the sum of theirs (codes).  Hot loops bind codes
        and by_code.get and inline this."""
        return self.by_code.get(self.codes[i] + self.codes[j])

    def strongly_orthogonal(self, i: int, j: int) -> bool:
        """root_j is not +-root_i, and neither root_i + root_j nor
        root_i - root_j is a root.

        Such roots are orthogonal, since a positive inner product of two
        nonproportional roots makes their difference a root and a negative
        one their sum (Humphreys, Introduction to Lie Algebras and
        Representation Theory, 9.4), so the test needs no inner product.
        """
        ci, cj = self.codes[i], self.codes[j]
        return (ci != cj and ci != -cj and ci + cj not in self.by_code
                and ci - cj not in self.by_code)

    def node_span(self, nodes: Iterable[int]) -> "Subsystem":
        """The roots spanned by the simple roots of the given nodes: those
        whose simple-root expansion vanishes off the nodes."""
        nodes = set(nodes)
        off = [k for k in range(self.rank) if k not in nodes]
        return Subsystem(self, frozenset(
            i for i, e in enumerate(self.expansions) if not any(e[k] for k in off)
        ))

    @cached_property
    def _node_masks(self) -> list[int]:
        """Bit i of entry k is set when root i's expansion is nonzero on
        node k."""
        return [sum(1 << i for i, e in enumerate(self.expansions) if e[k])
                for k in range(self.rank)]

    def node_span_size(self, nodes: Iterable[int]) -> int:
        """len(node_span(nodes)), by counting: the roots off the node span
        are those nonzero on a node off it."""
        nodes = set(nodes)
        off = 0
        for k, mask in enumerate(self._node_masks):
            if k not in nodes:
                off |= mask
        return len(self.roots) - off.bit_count()

    # -- reflections and Weyl machinery ----------------------------------------

    def reflect(self, alpha: RootVector, v: RootVector) -> RootVector:
        """v - <v | alpha> alpha = (n v.c - 2 (v, alpha) alpha.c) / (n v.den),
        with n the int norm of alpha and (v, alpha) at the covector's factor."""
        i = self.root_index(alpha)
        if i is None:
            raise RootSystemError("reflection axis must be a root")
        n, p = self.int_norms[i], 2 * _pair(v, alpha)
        return RootVector(self, [n * x - p * a for x, a in zip(v.c, alpha.c)], n * v.den)

    def dominant(self, v: RootVector) -> RootVector:
        """The dominant Weyl-chamber representative of the orbit of v."""
        return RootVector(self, chamber_walk(self._cartan, v.c), v.den)

    def stabilizer_orbits(self, v: RootVector, members: Iterable[int]) -> list[list[int]]:
        """The orbits of W_v, the stabilizer of a dominant v, on root
        indices members that it keeps: each in index order, the orbits in
        order of their first members.  W_v is generated by the simple
        reflections s_k with (v, alpha_k) = 0 (Humphreys 10.3, Lemma B),
        and s_k(r) = r - <r | alpha_k> alpha_k is one code lookup, with
        the pairings <r | alpha_k> the tree sums of Cartan column k."""
        C, codes, at = self._cartan, self.codes, self.by_code
        steps = [(self.tree_sums([row[k] for row in C]), codes[self.root_index(alpha)])
                 for k, alpha in enumerate(self.simple_roots)
                 if not sum(x * row[k] for x, row in zip(v.c, C))]
        rest = set(members)
        out = []
        for r in sorted(rest):
            if r not in rest:
                continue
            rest.discard(r)
            orbit = [r]
            for x in orbit:
                for p, step in steps:
                    y = at[codes[x] - p[x] * step]
                    if y in rest:
                        rest.discard(y)
                        orbit.append(y)
            out.append(sorted(orbit))
        return out

    @cached_property
    def length_representatives(self) -> dict[Q, RootVector]:
        """The dominant root of each length, by squared length, in order of
        first appearance; on a simple system the roots of one length are one
        Weyl orbit (Humphreys 10.4, Lemma C) with one dominant member."""
        reps: dict[int, RootVector] = {}
        for i, n in enumerate(self.int_norms):
            if n not in reps:
                reps[n] = self.dominant(self.roots[i])
        return {Q(n, self.gden): v for n, v in reps.items()}

    @cached_property
    def root_structure_rows(self) -> dict[Q, list[dict]]:
        """The check --family rows of a root theta, by squared length,
        filled by classify.structure_rows_for_datum."""
        return {}

    def highest_root(self) -> RootVector:
        """The dominant long root: the highest root is dominant and long
        (Humphreys 10.4, Lemmas A and C)."""
        if not self.is_simple:
            raise RootSystemError("highest root is defined for simple systems only")
        reps = self.length_representatives
        return reps[max(reps)]

    def cartan_matrix(self) -> tuple[tuple[int, ...], ...]:
        """C[i][j] = <alpha_i | alpha_j> = 2 (a_i, a_j) / (a_j, a_j)."""
        return self._cartan

    @cached_property
    def adjacency(self) -> list[set[int]]:
        """Dynkin-graph neighbours of each simple node."""
        C = self._cartan
        return [{j for j in range(self.rank) if j != i and C[i][j]} for i in range(self.rank)]

    @cached_property
    def dynkin_type(self) -> list[tuple[str, int]]:
        """The type of each factor, sorted, by _diagram_type on its nodes of
        the Cartan matrix, joined by <a_i|a_j><a_j|a_i> edges: B1 is A1, C2
        is B2 and D3 is A3."""
        C, gi = self._cartan, self._igram
        edges = [{j: C[i][j] * C[j][i] for j in adj} for i, adj in enumerate(self.adjacency)]
        norms = [gi[k][k] for k in range(self.rank)]
        return sorted(_diagram_type(nodes, edges, norms)[:2] for nodes in self.component_nodes)

    @cached_property
    def _term_names(self) -> list[list[tuple[Block, list[str]]]]:
        """Each factor's blocks with the names of their coordinates: e1,
        e2, ... on the first factor, e'1, ... on the second, and e for E6's
        aux vector."""
        out = []
        for ci, blocks in enumerate(self.comp_blocks):
            sym = "e" + "'" * ci
            out.append([(b, [sym] if b.kind == "aux" else [f"{sym}{i + 1}" for i in range(b.size)])
                        for b in blocks])
        return out

    @cached_property
    def _subsystem_components(self) -> dict[int, tuple]:
        """Subsystem._components by member set, as the bit mask with bit i
        set for root i, filled on first use."""
        return {}

    @cached_property
    def constants(self):
        """The Chevalley structure constants N(a, b), built on first use."""
        from .chevalley import ConstantTable

        return ConstantTable(self)

    # -- subsystems -------------------------------------------------------------

    def perp(self, vectors: Iterable[RootVector]) -> tuple[RootVector, ...]:
        """A basis of the vectors orthogonal to the given ones: the
        nullspace of their int covectors."""
        rows = [dict(v.covector()) for v in vectors]
        return tuple(RootVector(self, x) for x in nullspace(rows, self.rank))

    def closed_span(self, seed: Iterable[RootVector]) -> "Subsystem":
        """The roots in the linear span of the seed roots.

        The form is positive definite, so the span is the orthogonal
        complement of its orthogonal complement: a root lies in it exactly
        when it is orthogonal to a basis of perp(seed)."""
        seed = list(seed)
        if not all(map(self.is_root, seed)):
            raise RootSystemError("closed_span seed must consist of roots")
        members = frozenset(range(len(self.roots)))
        for v in self.perp(seed):
            members &= self.orthogonal_roots(v)
        return Subsystem(self, members)

    # -- diagram automorphisms ---------------------------------------------------

    @cached_property
    def diagram_automorphisms(self) -> list[tuple[int, ...]]:
        """The Dynkin-graph symmetries: every node permutation p with
        C[p[i]][p[j]] == C[i][j], found by backtracking in lexicographic order."""
        C = self._cartan
        n = self.rank
        out: list[tuple[int, ...]] = []
        p: list[int] = []

        def extend():
            i = len(p)
            if i == n:
                out.append(tuple(p))
                return
            for k in range(n):
                if k not in p and all(C[k][p[j]] == C[i][j] and C[p[j]][k] == C[j][i]
                                      for j in range(i)):
                    p.append(k)
                    extend()
                    p.pop()

        extend()
        return out

    def diagram_orbit(self, c: Sequence[int]) -> frozenset[tuple[int, ...]]:
        """The dominant members of the orbit of simple-root coordinates c
        under the Weyl group and the diagram symmetries: c's dominant tuple
        d with its nodes permuted by each symmetry, which keeps the Cartan
        matrix and so dominance.  It holds -c's dominant tuple too: -w_0
        maps the simple roots to themselves, so it is a diagram symmetry."""
        d = chamber_walk(self._cartan, c)
        return frozenset(tuple(d[i] for i in p) for p in self.diagram_automorphisms)

    def canonical_form(self, v: RootVector) -> RootVector:
        """Canonical representative of v up to Weyl group, diagram symmetry,
        sign, and positive scaling (primitive integer coordinates): the
        member of diagram_orbit with the largest numerators, rescaled."""
        return max((scale_primitive(RootVector(self, d, v.den)) for d in self.diagram_orbit(v.c)),
                   key=RootVector.numerators)


class Subsystem:
    """A subset of the parent's roots, typically closed under addition."""

    def __init__(self, parent: RootSystem, members: frozenset[int]):
        self.parent = parent
        self.members = frozenset(members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, v) -> bool:
        if isinstance(v, int):
            return v in self.members
        i = self.parent.root_index(v)
        return i is not None and i in self.members

    def __eq__(self, other):
        return (
            isinstance(other, Subsystem)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.parent), self.members))

    def _dynkin_components(self) -> list[tuple[str, int, frozenset[int]]]:
        """The type and simple roots of each Dynkin component of the base,
        typed from its Cartan matrix by _diagram_type: two simple roots are
        joined when their int pairing through parent._igram is nonzero, by
        <a|b><b|a> edges.

        The members must form a root system (every subsystem built here is
        symmetric and closed), and that is checked exactly: the members of
        each squared length must be as many as the types predict, or
        RootSystemError."""
        parent = self.parent
        norms, ex = parent.int_norms, parent.expansions
        simple = self.simple
        lengths = [norms[s] for s in simple]
        # edges[p]: {q: edge multiplicity} between positions p, q of simple
        edges: list[dict[int, int]] = [{} for _ in simple]
        for p, s in enumerate(simple):
            cov = parent.roots[s].covector()
            for q in range(p):
                x = sum(ex[simple[q]][k] * y for k, y in cov)
                if x:
                    edges[p][q] = edges[q][p] = 4 * x * x // (lengths[p] * lengths[q])
        seen: set[int] = set()
        want: Counter = Counter()
        out = []
        for p in range(len(simple)):
            if p in seen:
                continue
            comp, frontier = {p}, [p]
            while frontier:
                new = set(edges[frontier.pop()]) - comp
                comp |= new
                frontier += new
            seen |= comp
            t, r, counts = _diagram_type(comp, edges, lengths)
            want += counts
            out.append((t, r, frozenset(simple[q] for q in comp)))
        if want != Counter(map(norms.__getitem__, self.members)):
            raise RootSystemError(f"members are no root system of type "
                                  f"{'+'.join(f'{t}{r}' for t, r, _ in out)}")
        return out

    @cached_property
    def _components(self) -> tuple[tuple[str, int, frozenset[int]], ...]:
        """_dynkin_components sorted by type, computed once per member set
        of the parent (RootSystem._subsystem_components): the R_o of many
        contact forms, and many closures, are one set of roots.  A set
        that is no root system raises and is not kept."""
        table = self.parent._subsystem_components
        # the set as a bit mask: a table keyed by the frozensets would keep
        # each alive, at kilobytes apiece
        key = sum(1 << i for i in self.members)
        comps = table.get(key)
        if comps is None:
            comps = table[key] = tuple(sorted(self._dynkin_components(), key=lambda c: c[:2]))
        return comps

    def classify(self) -> list[tuple[str, int]]:
        """Type of each indecomposable component, canonically sorted;
        computed once per member set (_components).

        B2 is used for the rank-2 BC system and A3 for D3.
        """
        return [(t, r) for t, r, _ in self._components]

    def type_str(self) -> str:
        return "+".join(f"{t}{r}" for t, r in self.classify()) if self.members else "0"

    @cached_property
    def simple(self) -> tuple[int, ...]:
        """The simple roots in index order: the positive roots that are no sum
        of two of them (Humphreys 10.1).  Such a sum exceeds a lower simple
        root by a positive root (10.2), so roots are tested by height against
        the simple roots before them.  Each orthogonal component's base is
        its share: a difference of roots of two components would join them."""
        parent = self.parent
        pos = frozenset(i for i in self.members if parent.positive[i])
        simple: list[int] = []
        for i in sorted(pos, key=parent.height):
            if not any(parent.sum_index(i, parent.neg_index[j]) in pos for j in simple):
                simple.append(i)
        return tuple(sorted(simple))


# -- component data -------------------------------------------------------------


def _block_layout(t: str, r: int) -> list[tuple[str, int]]:
    """The ambient blocks of a factor of type t and rank r; the one check
    that the combination is valid."""
    if t == "A" and r >= 1:
        return [("rel", r + 1)]
    if ((t == "B" and r >= 1) or (t == "C" and r >= 2) or (t == "D" and r >= 3)
            or (t, r) == ("F", 4)):
        return [("ortho", r)]
    if (t, r) == ("G", 2):
        return [("rel", 3)]
    if (t, r) == ("E", 6):
        return [("rel", 6), ("aux", 1)]
    if t == "E" and r in (7, 8):
        return [("rel", r + 1)]
    raise RootSystemError(f"invalid type/rank combination {t}{r}")


def _unit(n: int, *pairs) -> list[int]:
    v = [0] * n
    for i, val in pairs:
        v[i] = val
    return v


def _component_simples(t: str, r: int) -> tuple[int, list[list[int]]]:
    """Simple roots in the node order of the reference tables: int
    component coordinates over one denominator, 2 for F4 and 1 for the
    rest."""
    n = r + 1 if t in "AE" else r  # a relation basis has one vector more
    chain = [_unit(n, (i, 1), (i + 1, -1)) for i in range(r - 1)]
    if t == "A":
        return 1, chain + [_unit(n, (r - 1, 1), (r, -1))]
    if t == "B":
        return 1, chain + [_unit(r, (r - 1, 1))]
    if t == "C":
        return 1, chain + [_unit(r, (r - 1, 2))]
    if t == "D":
        return 1, chain + [_unit(r, (r - 2, 1), (r - 1, 1))]
    if t == "G":
        return 1, [_unit(3, (1, -1)), _unit(3, (1, 1), (2, -1))]
    if t == "F":
        return 2, [[1, -1, -1, -1], _unit(4, (3, 2)), _unit(4, (2, 2), (3, -2)),
                   _unit(4, (1, 2), (2, -2))]
    if t == "E" and r == 6:
        return 1, chain + [_unit(n, (3, 1), (4, 1), (5, 1), (6, 1))]
    if t == "E" and r == 7:
        return 1, chain + [_unit(n, (4, 1), (5, 1), (6, 1), (7, 1))]
    if t == "E" and r == 8:
        return 1, chain + [_unit(n, (5, 1), (6, 1), (7, 1))]
    raise RootSystemError(f"invalid type {t}{r}")


def _root_expansions(cartan: Sequence[Sequence[int]]
                     ) -> tuple[list[tuple[int, ...]], list[tuple[int, int, int, int]]]:
    """Simple-root expansions of the roots of a Cartan matrix, the positive
    roots layer by height, then their negatives in the same order; and the
    height tree the walk climbs: (i, the index of -root_i, parent, k) for
    each positive root i, by height, with root_i = parent + alpha_k and a
    simple root's parent -1.

    A positive root b of height h + 1 is c + alpha_i for some positive root c
    of height h (Humphreys 10.2).  With q = <c | alpha_i>, c + alpha_i is a
    root exactly when q < 0 or c - (q + 1) alpha_i is one, as the
    alpha_i-string through c is unbroken and climbs q steps higher than it
    falls (Humphreys 9.4); that root needs c_i > q, every other entry of c
    staying positive.  On a block-diagonal matrix no string crosses blocks,
    so the roots are the union of the factors' roots.  A layer holds each
    root c's index, its base-8 code, on which the test looks
    c - (q + 1) alpha_i up (its entries stay in [0, 6], where the code is
    injective), and its pairings <c | alpha_j>; each root above records
    the first c and i that reach it."""
    n = len(cartan)
    unit = [8**i for i in range(n)]
    positive = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    links = [(-1, i) for i in range(n)]  # (parent, k) of each positive root
    layer = [(i, u, cartan[i]) for i, u in enumerate(unit)]
    seen = set(unit)
    while layer:
        above = {}
        for p, code, pairs in layer:
            c = positive[p]
            for i, u in enumerate(unit):
                q = pairs[i]
                if q < 0 or (c[i] > q and code - (q + 1) * u in seen):
                    b = c[:i] + (c[i] + 1,) + c[i + 1:]
                    if b not in above:
                        above[b] = (p, i, code + u, tuple(map(add, pairs, cartan[i])))
        layer = []
        for b in sorted(above):
            p, i, code, pairs = above[b]
            layer.append((len(positive), code, pairs))
            positive.append(b)
            links.append((p, i))
            seen.add(code)
    m = len(positive)
    return (positive + [tuple(map(neg, e)) for e in positive],
            [(i, i + m, p, k) for i, (p, k) in enumerate(links)])


# -- build API --------------------------------------------------------------------

_CACHE: dict[tuple, RootSystem] = {}


def build(type_tag: str, rank: int | None = None) -> RootSystem:
    """Build a simple root system, e.g. build("G", 2) or build("G2")."""
    if rank is None:
        type_tag, rank = type_tag[0], int(type_tag[1:])
    key = ((type_tag, rank),)
    if key not in _CACHE:
        _CACHE[key] = RootSystem([(type_tag, rank)])
    return _CACHE[key]


def build_product(components: Sequence[tuple[str, int]]) -> RootSystem:
    key = tuple((t, int(r)) for t, r in components)
    if key not in _CACHE:
        _CACHE[key] = RootSystem(key)
    return _CACHE[key]


def parse_components(s: str) -> list[tuple[str, int]]:
    """The factors of a type string such as "B3" or "A2+A3", unbuilt."""
    comps = []
    for part in s.split("+"):
        part = part.strip()
        if not part or part[0] not in VALID_TYPES or not part[1:].isdecimal():
            raise RootSystemError(f"cannot parse type string {s!r}")
        comps.append((part[0], int(part[1:])))
    return comps


def parse_type(s: str) -> RootSystem:
    """Parse "B3" or "A2+A3" into a (cached) root system."""
    return build_product(parse_components(s))


def _diagram_type(nodes: set[int], edges: Sequence[dict[int, int]],
                  norms: Sequence[int]) -> tuple[str, int, Counter]:
    """(type, rank, root count at each squared length) of a connected
    Dynkin diagram, with edges[p] mapping each neighbor of p to the
    multiplicity of their edge and norms[p] the squared length of node p
    (Humphreys 11.4).

    A triple edge is G2.  A double edge is F4 when both its ends have
    degree 2, else B_r when its end node is short and C_r when it is long
    (B2 at r = 2).  A simply laced diagram with a branch node is D_r when
    two of the arms there have length 1 and E_r otherwise; with none it is
    A_r.  Any other graph, or lengths that do not fit, raise
    RootSystemError."""
    r = len(nodes)
    deg = {p: len(edges[p]) for p in nodes}
    multiple = [(p, q, m) for p in nodes for q, m in edges[p].items() if p < q and m > 1]
    branch = [p for p in nodes if deg[p] > 2]
    t = None
    if sum(deg.values()) != 2 * (r - 1) or len(multiple) + len(branch) > 1:
        pass  # a cycle, or more than one multiple edge or branch node
    elif multiple:
        p, q, m = multiple[0]
        if m == 3:
            t = "G"
        elif deg[p] == deg[q] == 2:
            t = "F"
        else:
            end, other = (p, q) if deg[p] == 1 else (q, p)
            t = "B" if r == 2 or norms[end] < norms[other] else "C"
    elif branch:  # an arm of length 1 ends next to the branch node
        t = "D" if sum(deg[q] == 1 for q in edges[branch[0]]) >= 2 else "E"
    else:
        t = "A"
    # (root count, short root count)
    series = {"A": (r * (r + 1), 0), "B": (2 * r * r, 2 * r), "C": (2 * r * r, 2 * r * (r - 1)),
              "D": (2 * r * (r - 1), 0)}
    exceptional = {("E", 6): (72, 0), ("E", 7): (126, 0), ("E", 8): (240, 0),
                   ("F", 4): (48, 24), ("G", 2): (12, 6)}
    counts = series[t] if t in series else exceptional.get((t, r))
    lengths = sorted({norms[p] for p in nodes})
    if counts is None or len(lengths) != 1 + (counts[1] > 0):
        raise RootSystemError(f"no Dynkin diagram of a root system on {r} nodes")
    n, nshort = counts
    return t, r, Counter({lengths[-1]: n - nshort, lengths[0]: nshort} if nshort else {lengths[0]: n})


def _pair(u: RootVector, v: RootVector) -> int:
    """(u, v) times u.den * v.den * gden: u.c against v's int covector."""
    return sum(u.c[k] * y for k, y in v.covector())


def _over(x, den: int):
    """x / den: an int when den divides x, else a Fraction."""
    return x // den if not x % den else Q(x, den)


# -- display ----------------------------------------------------------------------


def scale_primitive(v: RootVector) -> RootVector:
    """Positive rescale to primitive integer gauge coordinates: v times
    _ambient[0] * den / g, with g the gcd of v's int ambient coordinates."""
    g = gcd(*v._ints())
    if not g:
        return v
    return RootVector(v.system, [v.system._ambient[0] * x for x in v.c], g)


def canon_str(v: RootVector) -> str:
    """canon() as comma-separated numbers, each from its int numerator."""
    den = v.system._ambient[0] * v.den
    if den == 1:
        return ",".join(map(str, v._ints()))
    return ",".join([_ratio_str(x, den) for x in v._ints()])


def _ratio_str(x: int, den: int) -> str:
    """x / den in lowest terms, as str() writes the rational: the quotient
    when den divides x, else "p/q", the two over their gcd."""
    if not x % den:
        return str(x // den)
    g = gcd(x, den)
    return f"{x // g}/{den // g}"


def _block_strings(system: RootSystem, v: RootVector) -> list[str]:
    """Per-component coordinate rendering, nicest integer lift per block."""
    den = system._ambient[0] * v.den
    num = v._ints()
    rendered = []
    for blocks in system._term_names:
        # (numerator, denominator, name) in lowest terms
        terms: list[tuple[int, int, str]] = []
        for b, names in blocks:
            block = num[b.start : b.start + b.size]
            lift = _best_lift(block, den) if b.kind == "rel" else None
            if lift is None and den != 1:
                for x, name in zip(block, names):
                    if x:
                        g = gcd(x, den)
                        terms.append((x // g, den // g, name))
            else:
                terms += [(x, 1, name) for x, name in zip(lift or block, names) if x]
        if not terms:
            continue
        if den != 1 and {q for _, q, _ in terms} - {1} == {2}:
            txt = _render_terms([(2 * x // q, 1, n) for x, q, n in terms])
            rendered.append(f"({txt})/2")
        else:
            rendered.append(_render_terms(terms))
    return rendered


def _render_terms(terms: list[tuple[int, int, str]]) -> str:
    """Signed terms x/q name, a unit coefficient left out."""
    out = ""
    for x, q, name in terms:
        mag = abs(x)
        if q != 1:
            piece = f"{mag}/{q}{name}"
        else:
            piece = name if mag == 1 else f"{mag}{name}"
        if not out:
            out = piece if x > 0 else f"-{piece}"
        else:
            out += ("+" if x > 0 else "-") + piece
    return out


def _best_lift(num: Sequence, den: int) -> Optional[list[int]]:
    """Integer lift of the relation-block vector num / den minimizing the
    L1 norm, or None when it has none.

    The lifts are the shifts of the block by a multiple of (1, ..., 1) that
    make it integral; they exist when the coordinates share one fractional
    part, that is when den divides every offset from the first numerator,
    and are then k + d with d those offsets over den.  The L1 norm of k + d
    is least for k between the negatives of the two middle entries of
    sorted d; on that window the largest |entry| is V-shaped around
    -(min d + max d)/2, so the least (L1, max, reversed) key is at the
    floor or the ceiling of that midpoint, each clipped to the window."""
    d = [x - num[0] for x in num]
    if den != 1:
        if any(x % den for x in d):
            return None
        d = [x // den for x in d]
    s = sorted(d)
    lo, hi, mid = -s[len(s) // 2], -s[(len(s) - 1) // 2], -(s[0] + s[-1])
    k1, k2 = (min(max(lo, m), hi) for m in (mid // 2, -(-mid // 2)))

    def key(k):
        lifted = [k + x for x in d]
        return (sum(map(abs, lifted)), max(map(abs, lifted)), [-x for x in lifted])

    k = k1 if k1 == k2 else min(k1, k2, key=key)
    return [k + x for x in d]


def format_vector(v: RootVector) -> str:
    parts = _block_strings(v.system, v)
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += "+" + p if not p.startswith("-") else p
    return out
